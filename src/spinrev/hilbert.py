"""Exact Hilbert-space oracle for small spin counts.

Builds the dense 2^n x 2^n Hamiltonian of a coupling matrix, exponentiates
it exactly, lifts scheme rotations to spin-1/2 unitaries, runs pulse
cycles, and measures the first-order averaging error: a verified inversion
scheme run at time scale eps approximates exp(+i H eps) with an error
quadratic in eps.
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
    """(eigenvalues, eigenvectors) of a Hermitian matrix; rejects anything else."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    scale = float(np.abs(H).max()) if H.size else 0.0
    if np.abs(H - H.conj().T).max() > 1e-12 * max(scale, 1.0):
        raise ValueError("evolution needs a Hermitian generator")
    return np.linalg.eigh(H)


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
    return next(_simulate(J, scheme, [epsilon], tol))[0]


def _simulate(J, scheme, epsilons, tol):
    """Gate a simulation, then yield (cycle, exp(+i H eps)) per eps from one
    H = U diag(lam) U^dag: step j is F_j exp(-i lam t_j eps) F_j^dag, with
    F_j = v_j^dag U rebuilt per eps so one 2^n x 2^n frame is alive at a time."""
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
    lifts = [lift_rotations(step.rotations) for step in scheme.steps]
    for eps in epsilons:
        C = np.eye(U.shape[0], dtype=complex)
        for step, lift in zip(scheme.steps, lifts):
            F = kron_all(lift).conj().T @ U
            C = ((F * np.exp(-1j * lam * (step.t * eps))) @ F.conj().T) @ C
        yield C, (U * np.exp(1j * lam * eps)) @ U.conj().T


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
    errors = [operator_norm(cycle - forward) for cycle, forward in _simulate(J, scheme, eps_list, tol)]
    exact = all(err < _EXACT_CUTOFF for err in errors)
    slope = None
    usable = [(e, err) for e, err in zip(eps_list, errors) if _FIT_FLOOR <= err <= _FIT_CEILING]
    if not exact and len(usable) >= 2:
        log_eps = np.log([e for e, _ in usable])
        log_err = np.log([err for _, err in usable])
        slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return ErrorScaling(tuple(eps_list), tuple(errors), slope, exact)
