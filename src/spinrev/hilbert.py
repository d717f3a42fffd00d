"""Exact Hilbert-space oracle for small spin counts.

Builds the dense 2^n x 2^n Hamiltonian of a coupling matrix, exponentiates
it exactly, lifts scheme rotations to spin-1/2 unitaries, runs pulse
cycles, and measures the first-order averaging error: a verified inversion
scheme run at time scale eps approximates exp(+i H eps) with an error
quadratic in eps.

Cycles are run in the eigenbasis of H = U diag(lam) U^dag, where every
evolution is a diagonal phase and exp(+i H eps) is diag(exp(i lam eps));
a real H is diagonalised by the real symmetric solver.  The error norm
comes from Lanczos on M^dag M, not from a dense eigen-solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import check_coupling_matrix, n_spins
from .rotations import so3_to_su2
from .schemes import Scheme, SchemeKind, conjugate, verify

MAX_SPINS = 10

_FIT_FLOOR = 1e-12
_FIT_CEILING = 0.1
_EXACT_CUTOFF = 1e-13
_LANCZOS_SEED = 0
_LANCZOS_TOL = 1e-13


def _axis_action(idx, n, site, axis):
    """Column action of sigma_axis on one site: (row indices, coefficients)."""
    mask = 1 << (n - 1 - site)
    bits = (idx >> (n - 1 - site)) & 1
    if axis == 0:
        return idx ^ mask, np.ones(idx.size, dtype=complex)
    if axis == 1:
        return idx ^ mask, 1j * (1.0 - 2.0 * bits)
    return idx, (1.0 - 2.0 * bits).astype(complex)


def build_hamiltonian(J) -> np.ndarray:
    """Dense Hamiltonian sum_{k<l} sum_{a,b} J_{kl;ab} sigma_a^(k) sigma_b^(l).

    Only the k < l blocks enter the sum; the mirrored blocks are redundant
    storage, not extra terms.  The result is Hermitian and traceless.
    """
    J = check_coupling_matrix(J)
    n = n_spins(J)
    if n > MAX_SPINS:
        raise ValueError(f"{n} spins exceed the dense-oracle cap of {MAX_SPINS}")
    dim = 1 << n
    idx = np.arange(dim)
    H = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        for l in range(k + 1, n):
            block = J[3 * k : 3 * k + 3, 3 * l : 3 * l + 3]
            if not block.any():
                continue
            for a in range(3):
                rows_a, coef_a = _axis_action(idx, n, k, a)
                for b in range(3):
                    w = block[a, b]
                    if w == 0.0:
                        continue
                    rows, coef_b = _axis_action(rows_a, n, l, b)
                    H[rows, idx] += w * (coef_a * coef_b)
    return H


def operator_norm(M) -> float:
    """Largest singular value, via the top eigenvalue of M^dag M."""
    M = np.asarray(M, dtype=complex)
    lam = np.linalg.eigvalsh(M.conj().T @ M)
    return float(np.sqrt(max(float(lam[-1]), 0.0)))


def lift_rotations(rotations) -> np.ndarray:
    """Spin-1/2 lifts of per-spin rotations, stacked as (n, 2, 2)."""
    return np.stack([so3_to_su2(R) for R in np.asarray(rotations, dtype=float)])


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def conjugation_consistency(J, rotations) -> float:
    """Relative operator-norm gap between the two conjugation routes.

    Conjugating the built Hamiltonian by the lifted product unitary must
    match building the Hamiltonian from the block-rotated coupling.
    """
    J = check_coupling_matrix(J)
    rotations = np.asarray(rotations, dtype=float)
    if rotations.shape != (n_spins(J), 3, 3):
        raise ValueError(
            f"dimension mismatch: need one 3x3 rotation per spin, got shape {rotations.shape}"
        )
    H = build_hamiltonian(J)
    scale = operator_norm(H)
    if scale == 0.0:
        return 0.0
    v = kron_all(lift_rotations(rotations))
    rotated = build_hamiltonian(conjugate(rotations, J))
    return operator_norm(v.conj().T @ H @ v - rotated) / scale


def _hermitian_eigh(H):
    """(eigenvalues, eigenvectors) of a Hermitian matrix; rejects anything else.

    A Hermitian H with no imaginary part goes to the real symmetric solver,
    which is several times faster and returns a real U.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    scale = float(np.abs(H).max()) if H.size else 0.0
    if np.abs(H - H.conj().T).max() > 1e-12 * max(scale, 1.0):
        raise ValueError("evolution needs a Hermitian generator")
    return np.linalg.eigh(H if H.imag.any() else H.real)


def evolve(H, t: float) -> np.ndarray:
    """Unitary exp(-i H t) through a Hermitian eigendecomposition."""
    lam, U = _hermitian_eigh(H)
    return (U * np.exp(-1j * lam * t)) @ U.conj().T


def run_cycle(J, scheme: Scheme, epsilon: float, tol: float = 1e-9) -> np.ndarray:
    """One pulse cycle at time scale epsilon.

    Steps act in list order (step 1 first in time, rightmost in the
    product), each contributing the exact conjugated evolution
    v^dag exp(-i H t eps) v.  The scheme must verify as an inversion of J
    first -- the cycle is only meaningful then -- except for the zero
    coupling, whose cycle is trivially the identity.  The sign choice of
    each spin-1/2 lift cancels in the conjugation.
    """
    if not (0.0 <= epsilon < math.inf):
        raise ValueError("epsilon must be finite and non-negative")
    _, U, (Z,) = _simulate(J, scheme, [epsilon], tol)
    return U @ Z @ U.conj().T


def _simulate(J, scheme, epsilons, tol):
    """Gate a simulation, then return (lam, U, cycles): H = U diag(lam) U^dag
    and, per eps, the cycle in H's eigenbasis

        U^dag C U = K_N D_{N-1} K_{N-1} ... D_0 K_0,

    with D_j = exp(-i lam t_j eps) and K_j = U^dag v_j v_{j-1}^dag U
    (v_{-1} = v_N = 1).  Each K_j is built once and applied to one
    accumulator per eps, so an eps costs one phase scaling and one matmul
    per step.  At most len(epsilons) + 3 matrices of size 2^n x 2^n are
    alive at once: U, the accumulators, K_j and one scratch buffer.
    """
    J = check_coupling_matrix(J)
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("cycle simulation expects an inversion scheme")
    if float(np.linalg.norm(J)) > 0.0:
        result = verify(scheme, J, tol)
        if not result.ok:
            raise ValueError(
                f"scheme does not invert this coupling (residual {result.residual:.3g}); refusing to simulate"
            )
    lam, U = _hermitian_eigh(build_hamiltonian(J))
    unit = np.broadcast_to(np.eye(2), (scheme.n, 2, 2))
    lifts = [unit] + [lift_rotations(step.rotations) for step in scheme.steps] + [unit]
    scratch, frame = np.empty(U.shape, dtype=complex), np.empty(U.shape, dtype=complex)
    times = [step.t for step in scheme.steps]
    cycles = []
    for j, (before, after) in enumerate(zip(lifts, lifts[1:])):
        # kron of the per-spin v_{j-1} v_j^dag is P^dag for P = v_j v_{j-1}^dag
        _kron_into(before @ np.conj(np.swapaxes(after, 1, 2)), scratch)
        _adjoint_times(U, scratch, frame)  # (P U)^dag
        np.conjugate(frame.T, out=scratch)  # P U
        _adjoint_times(U, scratch, frame)  # K_j
        if j == 0:
            cycles = [frame * np.exp(-1j * lam * (times[0] * eps))[:, None] for eps in epsilons]
            continue
        for i, eps in enumerate(epsilons):
            np.matmul(frame, cycles[i], out=scratch)
            if j < len(times):
                scratch *= np.exp(-1j * lam * (times[j] * eps))[:, None]
            cycles[i], scratch = scratch, cycles[i]
    return lam, U, cycles


def _kron_into(mats, out):
    """kron_all(mats) of (n, 2, 2) factors written into `out` (2^n x 2^n)."""
    head = kron_all(mats[:-1])
    m = head.shape[0]
    np.multiply(head[:, None, :, None], mats[-1][None, :, None, :], out=out.reshape(m, 2, m, 2))


def _adjoint_times(U, X, out):
    """out = U^dag X with no copy of U; X is overwritten.

    A real U multiplies the interleaved real view of X, a real product in
    place of a complex one; a complex U conjugates around U^T X.
    """
    if np.isrealobj(U):
        np.matmul(U.T, X.view(float), out=out.view(float))
    else:
        np.conjugate(X, out=X)
        np.matmul(U.T, X, out=out)
        np.conjugate(out, out=out)


def _lanczos_norm(M) -> float:
    """Largest singular value of a square M by Lanczos on M^dag M.

    The Krylov basis is re-orthogonalised in full, twice, so the top Ritz
    value stays below the top eigenvalue up to rounding.  The start vector
    comes from a fixed seed, so results repeat run to run.  Stops when the
    top Ritz pair's residual beta_k |s_k| is at most 1e-13 theta, on
    breakdown, or after d steps, where the Krylov space is exhausted and
    theta is exact.
    """
    d = M.shape[0]
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    basis = [q / np.linalg.norm(q)]
    alpha, beta = [], []
    while True:
        q = basis[-1]
        w = np.conj(np.conj(M @ q) @ M)  # M^dag M q without a copy of M^dag
        alpha.append(float(np.vdot(q, w).real))
        V = np.array(basis)
        for _ in range(2):
            w -= (V.conj() @ w) @ V
        b = float(np.linalg.norm(w))
        k = len(alpha)
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta = float(np.linalg.eigvalsh(T)[-1])
        if k == d or b == 0.0 or b * _ritz_tail(T, theta) <= _LANCZOS_TOL * theta:
            return math.sqrt(max(theta, 0.0))
        beta.append(b)
        basis.append(w / b)


def _ritz_tail(T, theta) -> float:
    """|last component| of the unit eigenvector of tridiagonal T for theta.

    With the last component set to 1, rows 2..k of (T - theta) y = 0 are
    an upper triangular system with the off-diagonal betas on its
    diagonal: back substitution from the bottom, which stays accurate when
    the converged vector lives in the leading rows.
    """
    shifted = T - theta * np.eye(T.shape[0])
    y = np.linalg.solve(shifted[1:, :-1], -shifted[1:, -1])
    return 1.0 / math.hypot(1.0, *y)


@dataclass(frozen=True)
class ErrorScaling:
    """Per-cycle averaging errors across time scales, with a log-log slope.

    `slope` is None when fewer than two samples land inside the fit
    window; `exact` flags cycles whose conjugated Hamiltonians commute,
    leaving no averaging error at all.
    """

    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float | None
    exact: bool

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "errors": list(self.errors),
            "slope": self.slope,
            "exact": self.exact,
        }


def error_scaling(J, scheme: Scheme, epsilons, tol: float = 1e-9) -> ErrorScaling:
    """Measure ||cycle(eps) - exp(+i H eps)|| across epsilon values.

    For a verified inversion the first-order average equals -H, so the
    error is quadratic in eps.  The slope fit only uses samples with
    error in [1e-12, 0.1], dodging the floating-point floor and the
    large-eps breakdown; if every error sits below 1e-13 the cycle is
    reported exact instead of sloped.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three epsilon values")
    # written as not (0 < e < inf) so that a NaN value fails the check
    if not all(0.0 < e < math.inf for e in eps_list) or len(set(eps_list)) != len(eps_list):
        raise ValueError("epsilon values must be finite, positive and distinct")
    lam, _, cycles = _simulate(J, scheme, eps_list, tol)
    diagonal = np.diag_indices(lam.size)
    errors = []
    for eps, Z in zip(eps_list, cycles):
        # ||C - exp(+iH eps)|| = ||U^dag C U - exp(+i lam eps)||, U unitary
        Z[diagonal] -= np.exp(1j * lam * eps)
        errors.append(_lanczos_norm(Z))
    exact = all(err < _EXACT_CUTOFF for err in errors)
    slope = None
    usable = [(e, err) for e, err in zip(eps_list, errors) if _FIT_FLOOR <= err <= _FIT_CEILING]
    if not exact and len(usable) >= 2:
        log_eps = np.log([e for e, _ in usable])
        log_err = np.log([err for _, err in usable])
        slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return ErrorScaling(tuple(eps_list), tuple(errors), slope, exact)
