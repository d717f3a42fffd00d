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

import numpy as np

from .coupling import (
    CouplingClass,
    check_coupling_matrix,
    check_type_matrix,
    check_weight_matrix,
    classify_type,
    tensor_coupling,
)
from .schemes import Scheme, SchemeKind, SchemeStats, scheme_stats, verify

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

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tau": self.tau,
            "tau_lower": self.tau_lower,
            "tau_margin": self.tau_margin,
            "N": self.n_steps,
            "steps_lower": self.steps_lower,
            "steps_margin": self.steps_margin,
        }


def tau_lower_bound(J) -> float:
    """Overhead bound -lambda_max/lambda_min; holds for every inversion of J."""
    lam_min, lam_max = _spectral_extremes(J)
    return -lam_max / lam_min


def steps_lower_bound(W, A, tol: float = 1e-9) -> int:
    """Step-count bound n-1 for a semidefinite type on the complete graph.

    Stated only for weight matrices whose off-diagonal entries are all 1
    (any all-nonzero weight pattern rescales to that form); other weights
    are refused rather than extrapolated.
    """
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    steps = _complete_graph_steps(W, classify_type(A, tol))
    if steps is None:
        raise ValueError(
            "the n-1 step bound applies only to semidefinite type matrices "
            "on the complete graph (all off-diagonal weights 1)"
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
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError("partition size p must be an integer >= 2")
    steps = 0
    reach = 1
    while reach < n:
        reach *= p
        steps += 1
    return steps


def bounds_report(J, W=None, A=None, p: int | None = None, tol: float = 1e-9) -> BoundsReport:
    """Assemble every applicable bound for a coupling.

    Raw couplings (no W/A factors) get the spectral overhead bound only.
    """
    lam_min, lam_max = _spectral_extremes(J)
    tau_low = -lam_max / lam_min
    notes = [f"any inversion scheme needs overhead tau >= -lambda_max/lambda_min = {tau_low:.9g}"]
    case = None
    steps_low = 1
    if A is not None:
        if W is None:
            raise ValueError("factored bounds need both W and A")
        W = check_weight_matrix(W)
        A = check_type_matrix(A)
        case = classify_type(A, tol)
        if (complete_steps := _complete_graph_steps(W, case)) is not None:
            steps_low = complete_steps
            notes.append(
                f"semidefinite type on the complete graph: at least n-1 = {steps_low} steps"
            )
        elif case is CouplingClass.MIXED_SIGN and p is not None:
            steps_low = steps_lower_bound_case2(W.shape[0], p)
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


def audit_stats_against_bounds(stats: SchemeStats, W, A, tol: float = 1e-9) -> BoundsAudit:
    """Margins of claimed scheme statistics over the applicable bounds.

    Verification is the caller's job; a *verified* scheme below a lower
    bound means a software defect, never a better scheme.
    """
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    J = tensor_coupling(W, A)
    tau_low = tau_lower_bound(J)
    tau_margin = stats.tau - tau_low
    steps_low = _complete_graph_steps(W, classify_type(A, tol))
    steps_margin = None if steps_low is None else stats.n_steps - steps_low
    passed = tau_margin >= -_AUDIT_SLACK and (steps_margin is None or steps_margin >= 0)
    return BoundsAudit(
        passed=passed,
        tau=stats.tau,
        tau_lower=tau_low,
        tau_margin=tau_margin,
        n_steps=stats.n_steps,
        steps_lower=steps_low,
        steps_margin=steps_margin,
    )


def check_scheme_against_bounds(scheme: Scheme, W, A, tol: float = 1e-9) -> BoundsAudit:
    """Verify a scheme as an inversion of W (x) A, then audit its margins."""
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("bounds audit applies to inversion schemes")
    J = tensor_coupling(check_weight_matrix(W), check_type_matrix(A))
    result = verify(scheme, J, tol)
    if not result.ok:
        raise ValueError(
            f"scheme does not verify as an inversion (residual {result.residual:.3g} > tol {tol:g}); audit refused"
        )
    return audit_stats_against_bounds(scheme_stats(scheme), W, A, tol)


def _spectral_extremes(J) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a nonzero coupling, from LAPACK eigvalsh."""
    J = check_coupling_matrix(J)
    if float(np.linalg.norm(J)) == 0.0:
        raise ValueError("zero coupling has no overhead bound")
    lam = np.linalg.eigvalsh(J)
    return float(lam[0]), float(lam[-1])


def _complete_graph_steps(W, case: CouplingClass) -> int | None:
    """The step bound n-1 when a type of class `case` is semidefinite and W
    is the complete graph (off-diagonal weights 1 to 1e-12), else None."""
    n = W.shape[0]
    complete = np.abs(W - (np.ones((n, n)) - np.eye(n))).max() <= 1e-12
    return n - 1 if case is CouplingClass.SEMIDEFINITE and complete else None
