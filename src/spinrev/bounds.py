"""Spectral lower bounds on inversion schemes, and a consistency audit.

Overhead: for any inversion, summing lambda_min over the conjugated terms
gives tau * lambda_min(J) <= lambda_min(sum_j t_j V_j J V_j^T)
= lambda_min(-J) = -lambda_max(J); a nonzero coupling is traceless, so
lambda_min < 0 and tau >= -lambda_max/lambda_min follows by dividing.

Step count: a semidefinite type matrix on the complete coupling graph
needs at least n-1 steps.  Adding the one-spin terms sum_j t_j V_j
(1 (x) A) V_j^T to both sides of the inversion condition turns the weight
factor into the rank-one all-ones matrix, capping the left-hand rank at
N*rank(A), while the right-hand side keeps at least (n-1)*rank(A)
positive eigenvalues.  For mixed-sign types the bound
N >= ceil(log n / log p) holds against any partition of the rotation
group into p classes that preserve the trace sign of the type matrix
under cross-conjugation; p is supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coupling import CouplingClass, CouplingInput, _checked, _factored, classify_type
from .rotations import _frobenius

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
    steps_lower: int | None
    steps_margin: int | None


def tau_lower_bound(J) -> float:
    """Overhead bound -lambda_max/lambda_min; holds for every inversion of J."""
    return bounds_report(J).tau_lower


def steps_lower_bound(W, A=None, tol: float = 1e-9) -> int:
    """Step-count bound n-1 for a semidefinite type on the complete graph.

    Stated only for weight matrices whose off-diagonal entries all share
    one nonzero value; other weights are refused rather than extrapolated.
    """
    coupling = _factored(W, A)
    steps = _complete_graph_steps(coupling.W, classify_type(coupling, tol))
    if steps is None:
        raise ValueError(
            "the n-1 step bound applies only to semidefinite type matrices "
            "on the complete graph (all off-diagonal weights equal)"
        )
    return steps


def steps_lower_bound_case2(n: int, p: int) -> int:
    """Partition step bound ceil(log n / log p) for mixed-sign types.

    With fewer steps two spins would share a rotation class in every
    step, preserving a block-trace sign that an inversion must flip.
    Computed by exact integer powers, so exact powers of p never round up.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
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
    beside a raw J, must match it.  Raw couplings (no W/A factors) get the
    spectral overhead bound only.
    """
    if p is not None:
        _check_partition(p)
    coupling = _checked(J)
    norm = _frobenius(coupling.J)
    if norm == 0.0:
        raise ValueError("zero coupling has no overhead bound")
    lam_min, lam_max, tau_low = _spectral_bound(coupling.J)
    notes = [f"any inversion scheme needs overhead tau >= -lambda_max/lambda_min = {tau_low:.9g}"]
    case = None
    steps_low = 1
    if W is not None or A is not None:
        if W is None or A is None:
            raise ValueError("factored bounds need both W and A")
        factors = _factored(W, A)
        if factors.J.shape != coupling.J.shape or np.abs(factors.J - coupling.J).max() > 1e-12 * norm:
            raise ValueError("coupling matrix J does not equal W (x) A")
        coupling = factors
    if coupling.factored:
        case = classify_type(coupling, tol)
        if (complete_steps := _complete_graph_steps(coupling.W, case)) is not None:
            steps_low = complete_steps
            notes.append(
                f"semidefinite type on the complete graph: at least n-1 = {steps_low} steps"
            )
        elif case is CouplingClass.MIXED_SIGN and p is not None:
            steps_low = steps_lower_bound_case2(coupling.n, p)
            notes.append(
                f"mixed-sign type with partition size p={p}: at least ceil(log n/log p) = {steps_low} steps"
            )
        else:
            notes.append("no class-specific step bound applies; trivial bound 1")
    else:
        notes.append("coupling factors unknown: only the spectral overhead bound applies")
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
    tol ||J||_F / |lambda_min| (by 1e-9, the rounding floor, at least),
    and the rank argument behind the n-1 step bound holds only while
    tol ||J||_F < |w| a, a the smallest magnitude among the eigenvalues
    of A that the classifier counts; else `steps_lower` is None.  A
    verified scheme below what E allows means a software defect.  W is
    raw factors or a CouplingInput; an unfactored one gets the spectral
    overhead bound only, and `steps_lower` None.
    """
    coupling = W if isinstance(W, CouplingInput) and A is None else _factored(W, A)
    report = bounds_report(coupling, tol=tol)
    error = tol * _frobenius(coupling.J)
    tau_margin = stats.tau - report.tau_lower
    steps_low = None
    if coupling.factored:
        magnitudes = np.abs(coupling.spectrum.eigenvalues)
        counted = magnitudes[magnitudes > tol * _frobenius(coupling.A)]
        if counted.size and error < abs(coupling.W[0, 1]) * counted.min():
            steps_low = _complete_graph_steps(coupling.W, report.case)
    steps_margin = None if steps_low is None else stats.n_steps - steps_low
    allowed = max(_AUDIT_SLACK, error / abs(report.lambda_min))
    passed = tau_margin >= -allowed and (steps_margin is None or steps_margin >= 0)
    return BoundsAudit(
        passed=passed,
        tau=stats.tau,
        tau_lower=report.tau_lower,
        tau_margin=tau_margin,
        n_steps=stats.n_steps,
        steps_lower=steps_low,
        steps_margin=steps_margin,
    )


def check_scheme_against_bounds(scheme: Scheme, W, A=None, tol: float = 1e-9) -> BoundsAudit:
    """Verify a scheme as an inversion of W (x) A, then audit its margins."""
    from .schemes import SchemeKind, scheme_stats, verify

    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("bounds audit applies to inversion schemes")
    coupling = _factored(W, A)
    result = verify(scheme, coupling, tol)
    if not result.ok:
        raise ValueError(
            f"scheme does not verify as an inversion (residual {result.residual:.3g} > tol {tol:g}); audit refused"
        )
    return audit_stats_against_bounds(scheme_stats(scheme), coupling, tol=tol)


def _check_partition(p) -> None:
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError("partition size p must be an integer >= 2")


def _spectral_bound(J) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, tau_lower) of a nonzero checked J (a
    CouplingInput's); the one place of the overhead formula."""
    lam = np.linalg.eigvalsh(J)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    return lam_min, lam_max, -lam_max / lam_min


def _complete_graph_steps(W, case: CouplingClass) -> int | None:
    """The step bound n-1 when a type of class `case` is semidefinite and W
    is the complete graph, else None.  W counts as complete when every
    off-diagonal weight equals w = W[0, 1] != 0 to 1e-12 |w|: W (x) A is
    then the complete graph's coupling with the semidefinite type w A, so
    the bound holds at every scale and sign of w."""
    n = W.shape[0]
    w = W[0, 1]
    complete = np.abs(W - w * (np.ones((n, n)) - np.eye(n))).max() <= 1e-12 * abs(w) and w != 0.0
    return n - 1 if case is CouplingClass.SEMIDEFINITE and complete else None
