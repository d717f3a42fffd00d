"""Rotation and small-matrix algebra.

The two-to-one correspondence between spin-1/2 unitaries and rotations of
Pauli coefficient vectors, the named rotations the pulse constructions are
built from, and a deterministic cyclic-Jacobi eigensolver for the small
real symmetric matrices that show up in coupling analysis.
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
    # written as not (err <= tol) so that a NaN error fails the check
    if not (np.abs(np.matmul(np.swapaxes(R, -1, -2), R) - np.eye(3)).max(initial=0.0) <= tol):
        raise ValueError("matrix is not orthogonal: R^T R deviates from the identity")
    if not (np.abs(np.linalg.det(R) - 1.0).max(initial=0.0) <= tol):
        raise ValueError("orthogonal matrix has determinant -1, not a rotation")
    return R


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
    """One of the two spin-1/2 preimages of a Bloch-sphere rotation.

    The rotation angle is taken in [0, pi]; for half turns, where both
    axis signs describe the same rotation, the axis with non-negative z
    (then y, then x) component is chosen.  The other preimage is the
    negative; every downstream use conjugates with the result, so the
    sign never matters.
    """
    R = check_rotation(R)
    cos_angle = float(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    antisym = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # sin from the antisymmetric part keeps the angle accurate where the
    # trace alone would lose half the precision (near half turns)
    angle = float(np.arctan2(0.5 * np.linalg.norm(antisym), cos_angle))
    if angle < 1e-12:
        return np.eye(2, dtype=complex)
    if angle < np.pi - 1e-4:
        axis = antisym / (2.0 * np.sin(angle))
    else:
        # Near a half turn the antisymmetric part degenerates; recover the
        # axis from R + R^T = 2 cos(angle) 1 + 2 (1 - cos(angle)) n n^T.
        outer = (0.5 * (R + R.T) - cos_angle * np.eye(3)) / (1.0 - cos_angle)
        i = int(np.argmax(np.diag(outer)))
        axis = outer[:, i] / np.sqrt(max(outer[i, i], 0.0))
        if np.linalg.norm(antisym) > 1e-9:
            if float(antisym @ axis) < 0.0:
                axis = -axis
        else:
            axis = _canonical_half_turn_axis(axis)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.cos(half) * np.eye(2, dtype=complex) + 1j * np.sin(half) * (
        axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    )


def _canonical_half_turn_axis(axis):
    # fix the sign so the first of (z, y, x) components that is nonzero is positive
    for c in (2, 1, 0):
        if axis[c] > 1e-12:
            return axis
        if axis[c] < -1e-12:
            return -axis
    return axis


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


_OFF_DIAGONAL_TARGET = 1e-13
_MAX_SWEEPS = 100


def sym_eig(M, sym_tol: float = 1e-12) -> SymSpectrum:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Sweeps run over the upper triangle in row-major order until the
    off-diagonal Frobenius norm drops below 1e-13 * ||M||_F, so equal
    inputs always take the identical rotation path.  Eigenvalues come
    back descending (stable under ties); the eigenvector matrix Q
    satisfies Q diag(lam) Q^T ~ M and det(Q) = +1, the sign being fixed
    on the last column.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = float(np.linalg.norm(M))
    if np.abs(M - M.T).max() > sym_tol * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    n = M.shape[0]
    A = 0.5 * (M + M.T)
    Q = np.eye(n)
    if scale > 0.0:
        _jacobi_sweeps(A, Q, scale)
    lam = np.diag(A).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    Q = Q[:, order]
    if np.linalg.det(Q) < 0.0:
        Q[:, -1] = -Q[:, -1]
    return SymSpectrum(lam, Q)


def _jacobi_sweeps(A, Q, scale):
    n = A.shape[0]
    target = _OFF_DIAGONAL_TARGET * scale
    skip = target / (2.0 * n)
    for _ in range(_MAX_SWEEPS):
        off = A - np.diag(np.diag(A))
        if np.linalg.norm(off) <= target:
            return
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                _rotate(A, Q, p, q, c, s)
    raise RuntimeError("Jacobi iteration did not converge")


def _rotate(A, Q, p, q, c, s):
    col_p = A[:, p].copy()
    col_q = A[:, q].copy()
    A[:, p] = c * col_p - s * col_q
    A[:, q] = s * col_p + c * col_q
    row_p = A[p, :].copy()
    row_q = A[q, :].copy()
    A[p, :] = c * row_p - s * row_q
    A[q, :] = s * row_p + c * row_q
    A[p, q] = 0.0
    A[q, p] = 0.0
    qp = Q[:, p].copy()
    qq = Q[:, q].copy()
    Q[:, p] = c * qp - s * qq
    Q[:, q] = s * qp + c * qq
