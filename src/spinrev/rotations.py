"""Rotation and small-matrix algebra.

The two-to-one correspondence between spin-1/2 unitaries and rotations of
Pauli coefficient vectors (the lift to SU(2) by Shepperd's quaternion
rule), the named rotations the pulse constructions are built from, and a
LAPACK symmetric eigensolver with a canonical, deterministic eigenframe
for the real symmetric matrices that show up in coupling analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

AXES = ("x", "y", "z")
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

_UNITARY_TOL = 1e-9
_ROTATION_TOL = 1e-9


def check_special_unitary(u, tol: float = _UNITARY_TOL) -> np.ndarray:
    """Validate a 2x2 special-unitary matrix and return it as a complex array."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(2)).max() > tol:
        raise ValueError("matrix is not unitary: U^dag U deviates from the identity")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > tol:
        raise ValueError("unitary matrix is not special: det deviates from +1")
    return u


def check_rotation(R, tol: float = _ROTATION_TOL) -> np.ndarray:
    """Validate a rotation (orthogonal, determinant +1) or a stack (..., 3, 3) of them."""
    R = np.asarray(R, dtype=float)
    if R.ndim < 2 or R.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {R.shape}")
    # E[k, i] is entry (k, i) of every matrix in the stack: the checks run
    # as elementwise products over the whole stack, not 3x3 matmuls
    E = np.ascontiguousarray(R.reshape(-1, 9).T).reshape(3, 3, -1)
    # G[0] holds the squared norms of the columns, G[1] the dots of
    # columns (0, 1), (1, 2), (2, 0): max|G - [1 0]| is max|R^T R - 1|.
    # A huge or infinite entry makes G inf or NaN, which fails below, so
    # numpy's overflow warnings would only add lines to that error
    G = np.zeros((2,) + E.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for row in E:
            G[0] += row * row
            G[1] += row * row[[1, 2, 0]]
    G[0] -= 1.0
    # written as not (err <= tol) so that a NaN error fails the check
    if not (np.abs(G).max(initial=0.0) <= tol):
        raise ValueError("matrix is not orthogonal: R^T R deviates from the identity")
    # the determinant as the triple product of the rows, r0 . (r1 x r2)
    (a, b, c), (d, e, f), (g, h, i) = E
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not (np.abs(det - 1.0).max(initial=0.0) <= tol):
        raise ValueError("orthogonal matrix has determinant -1, not a rotation")
    return R


def check_symmetric(M, name: str, detail: str = "") -> None:
    """Reject a matrix that is not square, has a non-finite entry, or has
    max|M - M^dag| > 1e-12 max(||M||_F, 1): "symmetric" for real input,
    "Hermitian" for complex.  `detail` is appended to the symmetry message.
    The test runs on M / max|M|, whose gap and norm cannot overflow."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    # NaN compares false, so the symmetry test alone would let it through
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries (NaN or infinity)")
    scale = float(np.abs(M).max(initial=0.0))
    if scale == 0.0:
        return
    S = M / scale
    if np.abs(S - S.conj().T).max() > 1e-12 * max(float(np.linalg.norm(S)), 1.0 / scale):
        kind = "Hermitian" if np.iscomplexobj(M) else "symmetric"
        raise ValueError(f"{name} is not {kind}{detail}")


def _frobenius(M) -> float:
    """||M||_F with no overflow or underflow in its squares: the norm of M
    divided by the largest power of two 2^e <= max|M|, which is exact,
    times 2^e.  Zero only for the zero matrix; for max|M| in [1, 2) it is
    np.linalg.norm(M) itself."""
    e = int(np.frexp(np.abs(M).max(initial=0.0))[1]) - 1
    return float(np.linalg.norm(np.ldexp(M, -e))) * 2.0**e


def su2_to_so3(u) -> np.ndarray:
    """Bloch-sphere rotation carried by a spin-1/2 unitary.

    Returns the rotation R with u^dag (sum_a c_a sigma_a) u =
    sum_a (R c)_a sigma_a for every real coefficient vector c; column a
    holds the Pauli coefficients of u^dag sigma_a u, read off with the
    trace inner product.  Under this convention composition reverses
    order: su2_to_so3(u @ v) equals su2_to_so3(v) @ su2_to_so3(u).
    """
    u = check_special_unitary(u)
    R = np.empty((3, 3))
    for col, sigma in enumerate(PAULIS):
        image = u.conj().T @ sigma @ u
        for row, tau in enumerate(PAULIS):
            R[row, col] = 0.5 * np.trace(tau @ image).real
    return R


def so3_to_su2(R) -> np.ndarray:
    """One of the two spin-1/2 preimages of a Bloch-sphere rotation, or a
    (..., 2, 2) stack of them for a (..., 3, 3) stack of rotations.

    The unit quaternion (x, y, z, w) of R, with the result
    w 1 + i (x sigma_x + y sigma_y + z sigma_z), is read off the symmetric
    matrix 4 q q^T, which is linear in R (Shepperd's rule): its column with
    the largest diagonal entry, divided by twice that entry's square root.
    Which of the two preimages comes back is whatever the rule gives;
    every downstream use conjugates with the result, so the sign never
    matters.  A stack is validated once and lifted elementwise, with the
    same floating-point operations as one matrix at a time.
    """
    R = check_rotation(R)
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = np.moveaxis(R, (-2, -1), (0, 1))
    M = np.array(
        [
            [1.0 + xx - yy - zz, xy + yx, xz + zx, zy - yz],
            [xy + yx, 1.0 - xx + yy - zz, yz + zy, xz - zx],
            [xz + zx, yz + zy, 1.0 - xx - yy + zz, yx - xy],
            [zy - yz, xz - zx, yx - xy, 1.0 + xx + yy + zz],
        ]
    )
    k = np.argmax(np.diagonal(M), axis=-1)  # M is (4, 4, ...): diagonal is (..., 4)
    col = np.take_along_axis(M, k[None, None], axis=1)[:, 0]  # M[:, k] per matrix
    x, y, z, w = (col / (2.0 * np.sqrt(np.take_along_axis(col, k[None], axis=0)[0])))[..., None, None]
    return w * np.eye(2, dtype=complex) + 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def axis_cycle() -> np.ndarray:
    """Cyclic coordinate permutation x -> y -> z -> x (an order-3 rotation)."""
    return np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about `axis` (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = axis / norm
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_special_unitary(rng) -> np.ndarray:
    """Haar-random SU(2) element (uniform unit quaternion)."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    return q[0] * np.eye(2, dtype=complex) + 1j * (
        q[1] * SIGMA_X + q[2] * SIGMA_Y + q[3] * SIGMA_Z
    )


@dataclass(frozen=True)
class SymSpectrum:
    """Spectrum of a real symmetric matrix: eigenvalues in descending order
    and an orthogonal eigenvector matrix with determinant +1."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(M) -> SymSpectrum:
    """Eigendecomposition of a real symmetric matrix (LAPACK ``eigh``), in canonical form.

    Each eigenvector column is signed so that its largest-magnitude entry
    is positive; columns are ordered by descending eigenvalue, ties broken
    by the row of that entry; the last column is negated if needed so that
    det(Q) = +1.  Q diag(lam) Q^T ~ M.  On a diagonal input this is the
    permuted identity in stable-descending order, whatever order LAPACK
    returns tied eigenvalues in.
    """
    M = np.asarray(M, dtype=float)
    check_symmetric(M, "matrix")
    lam, Q = np.linalg.eigh(M)
    lead = np.argmax(np.abs(Q), axis=0)
    Q = Q * np.sign(Q[lead, np.arange(len(lam))])
    order = np.lexsort((lead, -lam))
    lam, Q = lam[order], Q[:, order]
    if np.linalg.det(Q) < 0.0:
        Q[:, -1] = -Q[:, -1]
    return SymSpectrum(lam, Q)
