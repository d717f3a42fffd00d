"""Numerical inversion-scheme discovery.

For a finite pool of per-spin rotation assemblies the averaging condition
is linear in the step times, so the best nonnegative times solve a
nonnegative least-squares problem over the distinct upper-triangle block
coordinates.  Rotations are discretized to the 24-element octahedral
group, which contains every rotation the constructive schemes use (axis
cycles, half turns, quarter turns between axes); a seeded greedy loop
grows the pool with random assemblies when the base pool cannot reach the
target residual.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import tau_lower_bound
from .coupling import check_coupling_matrix, n_spins
from .rotations import axis_cycle, check_rotation
from .schemes import (
    Scheme,
    SchemeKind,
    Step,
    conjugate,
    pi_rotation,
    scheme_to_dict,
    verify,
)

_PRUNE_TOL = 1e-12
_BOUND_SLACK = 1e-6


def octahedral_group() -> np.ndarray:
    """The 24 rotations with entries in {-1, 0, 1}, in a fixed order.

    These are the signed permutation matrices of determinant +1; the set
    is closed under products and contains the axis cycle and the three
    coordinate half turns.
    """
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            for row, (col, sign) in enumerate(zip(perm, signs)):
                R[row, col] = sign
            if np.linalg.det(R) > 0.0:
                mats.append(R)
    return np.array(mats)


class PoolSource(enum.Enum):
    OCTAHEDRAL_RANDOM = "octahedral-random"
    COLLECTIVE_CYCLIC = "collective-cyclic"
    PAIR_PI = "pair-pi"
    USER = "user"


@dataclass(frozen=True)
class CandidatePool:
    """Per-spin rotation assemblies that may become scheme steps."""

    assemblies: tuple[np.ndarray, ...]  # each of shape (n, 3, 3)
    source: PoolSource
    seed: int = 0

    def __post_init__(self):
        if len(self.assemblies) == 0:
            raise ValueError("candidate pool must hold at least one assembly")
        n = self.assemblies[0].shape[0]
        for assembly in self.assemblies:
            if assembly.shape != (n, 3, 3):
                raise ValueError("every assembly must have shape (n, 3, 3)")
            check_rotation(assembly, tol=1e-12)

    @property
    def n(self) -> int:
        return self.assemblies[0].shape[0]


def collective_cyclic_pool(n: int, seed: int = 0) -> CandidatePool:
    """The two collective axis-cycle assemblies (first and second powers)."""
    S = axis_cycle()
    assemblies = (np.tile(S, (n, 1, 1)), np.tile(S @ S, (n, 1, 1)))
    return CandidatePool(assemblies, PoolSource.COLLECTIVE_CYCLIC, seed)


def pair_pi_pool(n: int, seed: int = 0) -> CandidatePool:
    """Half turns on a single spin, one assembly per (spin, axis) pair."""
    assemblies = []
    for k in range(n):
        for axis in ("x", "y", "z"):
            rotations = np.tile(np.eye(3), (n, 1, 1))
            rotations[k] = pi_rotation(axis)
            assemblies.append(rotations)
    return CandidatePool(tuple(assemblies), PoolSource.PAIR_PI, seed)


def random_octahedral_pool(n: int, size: int, seed: int = 0) -> CandidatePool:
    """Seeded uniform draws of per-spin octahedral assemblies."""
    if size < 1:
        raise ValueError("pool size must be at least 1")
    group = octahedral_group()
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(group), size=(size, n))
    return CandidatePool(tuple(group[row] for row in picks), PoolSource.OCTAHEDRAL_RANDOM, seed)


def user_pool(assemblies, seed: int = 0) -> CandidatePool:
    return CandidatePool(tuple(np.asarray(a, dtype=float) for a in assemblies), PoolSource.USER, seed)


def merge_pools(*pools: CandidatePool, seed: int = 0) -> CandidatePool:
    assemblies = tuple(a for pool in pools for a in pool.assemblies)
    return CandidatePool(assemblies, PoolSource.USER, seed)


def nnls_active_set(A, b, dual_tol: float = 1e-12, max_active: int | None = None):
    """Lawson-Hanson active-set nonnegative least squares.

    Minimizes ||A x - b||_2 over x >= 0.  The dual feasibility test uses
    a relative tolerance, and ties pick the lowest column index, so the
    solve path is fully deterministic.  Each passive subproblem is solved
    from the Householder R factor of [A_P | b], with `lstsq` only for
    rank-deficient blocks (see `_passive_solve`).  Returns (x,
    residual_norm, iterations), where iterations counts insertions into
    the passive set.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("incompatible least-squares dimensions")
    x, rnorm, iterations, _ = _lawson_hanson(A, b, (), dual_tol, max_active)
    return x, rnorm, iterations


def _lawson_hanson(A, b, prior, dual_tol: float = 1e-12, max_active: int | None = None):
    """The `nnls_active_set` loop, replaying `prior`, the path of a solve on A's leading columns.

    Returns (x, residual_norm, iterations, path); the path holds one
    (entering column, x, passive mask) per insertion, after its inner
    loop.  Its passive solves take the R factor of [A_P | b], falling
    back to `lstsq` for rank-deficient blocks; the factor is rebuilt per
    solve, not updated, so each solve depends only on the passive columns
    and b.  The loop thus depends only on the columns entered so far, so
    while they match `prior` step for step its recorded state, padded
    with zeros, is reused: the result is bit-identical to a cold solve.
    """
    ncols = A.shape[1]
    x = np.zeros(ncols)
    passive = np.zeros(ncols, dtype=bool)
    resid = b.copy()
    w_scale = max(float(np.abs(A.T @ b).max()), np.finfo(float).tiny)
    limit = ncols if max_active is None else min(max_active, ncols)
    path = []
    replaying = True
    for _ in range(3 * ncols + 10):
        w = A.T @ resid
        w = np.where(passive, -np.inf, w)
        j = int(np.argmax(w))
        if w[j] <= dual_tol * w_scale or int(passive.sum()) >= limit:
            break
        step = len(path)
        replaying = replaying and step < len(prior) and prior[step][0] == j
        if replaying:
            _, x_prior, passive_prior = prior[step]
            pad = ncols - x_prior.size
            x = np.concatenate([x_prior, np.zeros(pad)])
            passive = np.concatenate([passive_prior, np.zeros(pad, dtype=bool)])
        else:
            passive[j] = True
            while True:
                trial = np.zeros(ncols)
                trial[passive] = _passive_solve(A[:, passive], b)
                if trial[passive].min() > 0.0:
                    x = trial
                    break
                blocking = passive & (trial <= 0.0)
                gaps = x[blocking] - trial[blocking]
                # a variable sitting at zero with a zero trial value blocks at
                # alpha = 0 (it gets dropped below) rather than dividing 0/0
                ratios = np.where(gaps > 0.0, x[blocking] / np.where(gaps > 0.0, gaps, 1.0), 0.0)
                alpha = float(ratios.min())
                x = x + alpha * (trial - x)
                dropped = passive & (x <= 1e-14 * max(float(x.max()), 1.0))
                x[dropped] = 0.0
                passive[dropped] = False
                if not passive.any():
                    break
        path.append((j, x, passive.copy()))
        resid = b - A @ x
    return x, float(np.linalg.norm(resid)), len(path), path


def _passive_solve(A_P, b):
    """Least-squares solution of A_P x = b from the R factor of [A_P | b].

    Householder QR of the augmented block leaves Q^T b in its last column,
    so one back-substitution on R's leading k x k triangle gives x and no
    Q is formed.  A block that is numerically rank-deficient (more columns
    than rows, or min|R_ii| <= eps * m * max|R_ii|, the `rcond=None` cutoff
    of `lstsq`) is solved by `lstsq` instead.  The result depends only on
    A_P and b.
    """
    m, k = A_P.shape
    if k <= m:
        R = np.linalg.qr(np.column_stack([A_P, b]), mode="r")
        diag = np.abs(np.diagonal(R)[:k])
        if diag.min() > np.finfo(float).eps * m * diag.max():
            # LU of a triangle pivots nowhere and leaves it as is, so this is
            # the back-substitution (numpy has no triangular solver)
            return np.linalg.solve(R[:k, :k], R[:k, k])
    return np.linalg.lstsq(A_P, b, rcond=None)[0]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a scheme search: the scheme when the target residual was
    reached, otherwise the best residual found."""

    scheme: Scheme | None
    residual: float
    tau: float
    iterations: int


def search_result_to_dict(result: SearchResult, seed: int | None = None) -> dict:
    """Scheme JSON plus a metadata block; the scheme entry is null on failure."""
    meta = {
        "residual": result.residual,
        "iterations": result.iterations,
        "tau": result.tau,
    }
    if seed is not None:
        meta["seed"] = seed
    out = scheme_to_dict(result.scheme) if result.scheme is not None else {"scheme": None}
    out["found"] = result.scheme is not None
    out["meta"] = meta
    return out


def _upper_blocks(M):
    """vec of the k < l blocks of (..., 3n, 3n) matrices, pairs in row-major
    order, as (..., 9 n(n-1)/2)."""
    n = M.shape[-1] // 3
    k, l = np.triu_indices(n, 1)
    blocks = np.swapaxes(M.reshape(M.shape[:-2] + (n, 3, n, 3)), -3, -2)
    return blocks[..., k, l, :, :].reshape(M.shape[:-2] + (-1,))


def _upper_block_columns(J, assemblies):
    """Stack vec(V J V^T) over the k < l blocks, one column per assembly."""
    # kept C-ordered (rows, pool): a transposed view would change the BLAS
    # summation order of A^T r, and with it which of tied candidates wins
    return np.ascontiguousarray(_upper_blocks(conjugate(np.asarray(assemblies), J)).T)


def _finalize(J, assemblies, x, rnorm, iterations, tol):
    norm = float(np.linalg.norm(J))
    keep = np.flatnonzero(x > _PRUNE_TOL)
    tau = float(x[keep].sum())
    # the lower blocks mirror the upper ones, so the full Frobenius
    # residual is sqrt(2) times the stacked-block residual
    relative = rnorm * np.sqrt(2.0) / norm
    if keep.size and relative <= tol:
        steps = tuple(Step(float(x[j]), assemblies[j].copy()) for j in keep)
        scheme = Scheme(SchemeKind.INVERSION, steps)
        recheck = verify(scheme, J, tol)
        if recheck.ok:
            if tau < tau_lower_bound(J) - _BOUND_SLACK:
                raise RuntimeError(
                    "verified scheme beats the spectral overhead bound; this is a software defect"
                )
            return SearchResult(scheme, recheck.residual, tau, iterations)
        relative = recheck.residual
    return SearchResult(None, relative, tau, iterations)


def find_inversion_nnls(J, pool: CandidatePool, tol: float = 1e-9, max_steps: int | None = None) -> SearchResult:
    """Best nonnegative step times over a fixed candidate pool.

    Solves min_{t >= 0} ||sum_j t_j V_j J V_j^T + J||_F over the stacked
    upper-triangle blocks, prunes times below 1e-12, and returns the
    scheme when the relative residual reaches tol.  Deterministic for a
    fixed pool order.  `max_steps` caps the active-set size; hitting the
    cap reports no solution together with the best residual.
    """
    J = check_coupling_matrix(J)
    if float(np.linalg.norm(J)) == 0.0:
        raise ValueError("zero coupling: nothing to invert")
    if pool.n != n_spins(J):
        raise ValueError(
            f"dimension mismatch: pool addresses {pool.n} spins, coupling has {n_spins(J)}"
        )
    columns = _upper_block_columns(J, pool.assemblies)
    target = -_upper_blocks(J)
    x, rnorm, iterations = nnls_active_set(columns, target, max_active=max_steps)
    return _finalize(J, pool.assemblies, x, rnorm, iterations, tol)


def greedy_pool_growth(
    J,
    base_pool: CandidatePool,
    target_tol: float = 1e-9,
    max_pool: int = 500,
    seed: int | None = None,
    batch: int = 64,
) -> SearchResult:
    """Column generation over random octahedral assemblies.

    After each solve, the sampled assembly whose averaged image points
    most steeply against the current residual joins the pool and the
    times are re-solved.  Each pool is a superset of the previous one, so
    the objective cannot increase (asserted per iteration); runs are
    reproducible for a fixed seed (the base pool's seed when none is
    given).  Each re-solve replays the previous round's active-set path
    up to the first insertion that differs, with a result bit-identical
    to a cold solve.  `iterations` counts growth rounds.
    """
    J = check_coupling_matrix(J)
    if float(np.linalg.norm(J)) == 0.0:
        raise ValueError("zero coupling: nothing to invert")
    n = n_spins(J)
    if base_pool.n != n:
        raise ValueError(
            f"dimension mismatch: pool addresses {base_pool.n} spins, coupling has {n}"
        )
    if max_pool < len(base_pool.assemblies):
        raise ValueError("max_pool is smaller than the base pool")
    rng = np.random.default_rng(base_pool.seed if seed is None else seed)
    group = octahedral_group()
    norm = float(np.linalg.norm(J))
    assemblies = list(base_pool.assemblies)
    columns = _upper_block_columns(J, assemblies)
    target = -_upper_blocks(J)
    x, rnorm, _, path = _lawson_hanson(columns, target, ())
    growth_rounds = 0
    while rnorm * np.sqrt(2.0) / norm > target_tol and len(assemblies) < max_pool:
        resid = columns @ x - target
        candidates = group[rng.integers(0, len(group), size=(batch, n))]
        candidate_columns = _upper_block_columns(J, candidates)
        best = int(np.argmin(candidate_columns.T @ resid))
        assemblies.append(candidates[best])
        columns = np.column_stack([columns, candidate_columns[:, best]])
        x, new_rnorm, _, path = _lawson_hanson(columns, target, path)
        if new_rnorm > rnorm + 1e-9 * max(rnorm, 1.0):
            raise RuntimeError("NNLS objective increased while the pool grew; active-set defect")
        rnorm = new_rnorm
        growth_rounds += 1
    return _finalize(J, assemblies, x, rnorm, growth_rounds, target_tol)
