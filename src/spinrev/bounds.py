"""Spectral lower bounds on inversion schemes, and a consistency audit.

A scheme of steps (t_j, V_j) inverts J when sum_j t_j V_j J V_j^T = -J,
at overhead tau = sum_j t_j.  Negating that identity shows that every
inversion of J also inverts -J, so each bound below holds with J and -J
swapped, and the larger of the two applies.

Overhead: summing lambda_min over the conjugated terms gives
tau * lambda_min(J) <= lambda_min(-J) = -lambda_max(J); a nonzero coupling
is traceless, so lambda_min < 0 < lambda_max, and tau >= rho =
-lambda_max/lambda_min follows by dividing; -J gives tau >= 1/rho.

Step count: each term t_j V_j J V_j^T has J's inertia (nu+, nu-), and
positive inertia is subadditive, so the N terms reach at most N nu+
positive eigenvalues, while their sum -J has nu-; -J gives N nu- >= nu+.
So N >= ceil(max(nu-/nu+, nu+/nu-)) for every coupling, raw or factored.
A semidefinite type of rank r on the complete graph has nu+ = r and
nu- = (n-1) r: the paper's n-1 steps.  For mixed-sign types the bound
N >= ceil(log n / log p) holds against any partition of the rotation
group into p classes that preserve the trace sign of the type matrix
under cross-conjugation; p is supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coupling import CouplingClass, _checked, _factored, _is_integer, _resolved, classify_type

if TYPE_CHECKING:
    from .schemes import Scheme, SchemeStats

_AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Applicable lower bounds for a coupling."""

    case: CouplingClass | None
    tau_lower: float
    steps_lower: int
    lambda_min: float
    lambda_max: float
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "case": self.case.value if self.case is not None else None,
            "tau_lower": self.tau_lower,
            "steps_lower": self.steps_lower,
            "spectral": {"lambda_min": self.lambda_min, "lambda_max": self.lambda_max},
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class BoundsAudit:
    """Margins of a scheme's statistics over the applicable lower bounds."""

    passed: bool
    tau: float
    tau_lower: float
    tau_margin: float
    n_steps: int
    steps_lower: int
    steps_margin: int


def tau_lower_bound(J) -> float:
    """Overhead bound max(rho, 1/rho), rho = -lambda_max/lambda_min; holds
    for every inversion of J."""
    return bounds_report(J).tau_lower


def steps_lower_bound(W, A=None) -> int:
    """Step-count bound ceil(max(nu-/nu+, nu+/nu-)) from the inertia of
    J = W (x) A, or of a coupling J (raw or a CouplingInput) given alone;
    holds for every inversion of J."""
    return bounds_report(_resolved(W, A)).steps_lower


def steps_lower_bound_case2(n: int, p: int) -> int:
    """Partition step bound ceil(log n / log p) for mixed-sign types.

    With fewer steps two spins would share a rotation class in every
    step, preserving a block-trace sign that an inversion must flip.
    Computed by exact integer powers, so exact powers of p never round up.
    """
    if not _is_integer(n) or n < 2:
        raise ValueError("need at least 2 spins")
    _check_partition(p)
    steps = 0
    reach = 1
    while reach < n:
        reach *= p
        steps += 1
    return steps


def bounds_report(J, W=None, A=None, p: int | None = None, tol: float = 1e-9) -> BoundsReport:
    """Assemble every applicable bound for a coupling.

    J is a raw matrix or a CouplingInput; raw factors W and A, given
    beside a raw J, must match it.  Every coupling gets the overhead and
    the inertia step bound; a factored one also gets its type class, and
    a mixed-sign type the partition bound when p is given.
    """
    if p is not None:
        _check_partition(p)
    coupling = _checked(J)
    lam_min, lam_max, tau_low = _spectral_bound(coupling)
    steps_low = _inertia_steps(coupling.eigenvalues, coupling.norm)
    notes = [
        f"any inversion scheme needs overhead tau >= max(rho, 1/rho), rho = -lambda_max/lambda_min: {tau_low:.9g}",
        f"any inversion scheme needs step count N >= ceil(max(nu-/nu+, nu+/nu-)) = {steps_low} by the inertia of J",
    ]
    case = None
    if W is not None or A is not None:
        if W is None or A is None:
            raise ValueError("factored bounds need both W and A")
        factors = _factored(W, A)
        if factors.J.shape != coupling.J.shape or np.abs(factors.J - coupling.J).max() > 1e-12 * coupling.norm:
            raise ValueError("coupling matrix J does not equal W (x) A")
        coupling = factors
    if coupling.factored:
        case = classify_type(coupling, tol)
        if case is CouplingClass.MIXED_SIGN and p is not None:
            partition = steps_lower_bound_case2(coupling.n, p)
            steps_low = max(steps_low, partition)
            notes.append(
                f"mixed-sign type with partition size p={p}: at least ceil(log n/log p) = {partition} steps"
            )
    return BoundsReport(
        case=case,
        tau_lower=tau_low,
        steps_lower=steps_low,
        lambda_min=lam_min,
        lambda_max=lam_max,
        notes=tuple(notes),
    )


def audit_stats_against_bounds(stats: SchemeStats, W, A=None, tol: float = 1e-9) -> BoundsAudit:
    """Margins of claimed scheme statistics over the bounds that a scheme
    verified at `tol` must meet; verification is the caller's job.

    Such a scheme averages J to -J + E with ||E||_2 <= tol ||J||_F.  By
    Weyl's inequality its tau may then fall below tau_lower by
    tol ||J||_F / min(lambda_max, |lambda_min|), the magnitude that the
    binding side divides by (|lambda_min| for rho >= 1, lambda_max for
    1/rho), and by 1e-9, the rounding floor, at least; the step bound
    counts J's inertia past what E allows.  A verified scheme below
    either bound means a software defect.  W and A are raw factors, or W
    is a coupling given alone: a raw J or a CouplingInput.
    """
    coupling = _resolved(W, A)
    lam_min, lam_max, tau_low = _spectral_bound(coupling)
    error = tol * coupling.norm
    tau_margin = stats.tau - tau_low
    steps_low = _inertia_steps(coupling.eigenvalues, coupling.norm, error, stats.tau)
    allowed = max(_AUDIT_SLACK, error / min(lam_max, -lam_min))
    return BoundsAudit(
        passed=tau_margin >= -allowed and stats.n_steps >= steps_low,
        tau=stats.tau,
        tau_lower=tau_low,
        tau_margin=tau_margin,
        n_steps=stats.n_steps,
        steps_lower=steps_low,
        steps_margin=stats.n_steps - steps_low,
    )


def check_scheme_against_bounds(scheme: Scheme, W, A=None, tol: float = 1e-9) -> BoundsAudit:
    """Verify a scheme as an inversion of W (x) A, or of a coupling given
    alone, then audit its margins."""
    from .schemes import SchemeKind, scheme_stats, verify

    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("bounds audit applies to inversion schemes")
    coupling = _resolved(W, A)
    result = verify(scheme, coupling, tol)
    if not result.ok:
        raise ValueError(
            f"scheme does not verify as an inversion (residual {result.residual:.3g} > tol {tol:g}); audit refused"
        )
    return audit_stats_against_bounds(scheme_stats(scheme), coupling, tol=tol)


def _check_partition(p) -> None:
    if not _is_integer(p) or p < 2:
        raise ValueError("partition size p must be an integer >= 2")


def _spectral_bound(coupling) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, tau_lower) of a checked coupling; the one
    place of the overhead formula.  A zero J has no bound."""
    if coupling.norm == 0.0:
        raise ValueError("zero coupling has no overhead bound")
    lam = coupling.eigenvalues
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    rho = -lam_max / lam_min
    return lam_min, lam_max, max(rho, 1.0 / rho)


def _inertia_steps(lam, norm: float, error: float = 0.0, tau: float = 0.0) -> int:
    """The step bound ceil(max(nu-/nu+, nu+/nu-)) from J's eigenvalues and
    ||J||_F, for a scheme of overhead tau that averages J to -J + E,
    ||E||_2 <= error; the one place of the step formula.

    Eigenvalues within r = 1e-12 ||J||_F of zero count as zero: J = J' + R
    with ||R||_2 <= r and J' of the counted inertia, and the scheme averages
    J' to -J' + E' with ||E'||_2 <= error + (1 + tau) r.  By Weyl's
    inequality -J' + E' has at least as many positive (negative)
    eigenvalues as -J' has beyond that, so the side that an inversion must
    reach counts only those, and the side that its terms supply counts
    every eigenvalue beyond r."""
    r = 1e-12 * norm
    cut = error + (1.0 + tau) * r
    steps = 1
    # each sign: the N terms supply at most N * supplied of what -J' + E' reaches
    for reached, supplied in ((lam < -cut, lam > r), (lam > cut, lam < -r)):
        steps = max(steps, -(-np.count_nonzero(reached) // max(np.count_nonzero(supplied), 1)))
    return int(steps)
