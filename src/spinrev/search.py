"""Numerical inversion-scheme discovery.

For a finite pool of per-spin rotation assemblies the averaging condition
is linear in the step times, so the best nonnegative times solve a
nonnegative least-squares problem over the distinct upper-triangle block
coordinates.  Rotations are discretized to the 24-element octahedral
group, which contains every rotation the constructive schemes use (axis
cycles, half turns, quarter turns between axes); a seeded greedy loop
grows the pool with random assemblies when the base pool cannot reach the
target residual (phase 1).  NNLS minimizes the residual, not the overhead
tau, so `minimize_tau` (phase 2) then solves the linear program
min 1^T t subject to C t = -vec(J), t >= 0 by column generation, starting
from the phase-1 scheme.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .bounds import _spectral_bound, audit_stats_against_bounds
from .coupling import _checked, n_spins
from .rotations import axis_cycle, check_rotation
from .schemes import (
    Scheme,
    SchemeKind,
    Step,
    conjugate,
    pi_rotation,
    scheme_stats,
    scheme_to_dict,
    verify,
)

_PRUNE_TOL = 1e-12
_DUAL_TOL = 1e-12  # relative tolerance of the NNLS dual feasibility test
_BATCH = 64  # random assemblies drawn per growth round
# phase 2 (`minimize_tau`)
_PIVOTS_PER_ROW = 3  # simplex pivot budget per row of the LP under ascent pricing
_EXACT_PIVOTS_PER_ROW = 20  # the same under enumeration, which runs to a certificate
_PRICE_TOP = 32  # improving assemblies that join the pool per pricing round
_ENUMERATE_MAX = 24**3  # price by enumeration up to this many assemblies
_ASCENT_STARTS = 64  # seeded starts of the coordinate ascent beyond that
_ASCENT_SWEEPS = 10  # sweep cap of one ascent
_PRICE_TOL = 1e-9  # a column improves when y^T a > 1 + 1e-9
_PIVOT_TOL = 1e-9  # smallest |B^-1 a| entry a pivot may divide by
_REFACTOR = 50  # pivots between fresh inverses of the basis


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


@dataclass(frozen=True)
class CandidatePool:
    """Per-spin rotation assemblies that may become scheme steps."""

    assemblies: tuple[np.ndarray, ...]  # each of shape (n, 3, 3)
    seed: int = 0

    def __post_init__(self):
        if len(self.assemblies) == 0:
            raise ValueError("candidate pool must hold at least one assembly")
        n = self.assemblies[0].shape[0]
        if any(assembly.shape != (n, 3, 3) for assembly in self.assemblies):
            raise ValueError("every assembly must have shape (n, 3, 3)")
        check_rotation(np.stack(self.assemblies), tol=1e-12)

    @property
    def n(self) -> int:
        return self.assemblies[0].shape[0]


def collective_cyclic_pool(n: int, seed: int = 0) -> CandidatePool:
    """The two collective axis-cycle assemblies (first and second powers)."""
    S = axis_cycle()
    assemblies = (np.tile(S, (n, 1, 1)), np.tile(S @ S, (n, 1, 1)))
    return CandidatePool(assemblies, seed)


def pair_pi_pool(n: int, seed: int = 0) -> CandidatePool:
    """Half turns on a single spin, one assembly per (spin, axis) pair."""
    assemblies = []
    for k in range(n):
        for axis in ("x", "y", "z"):
            rotations = np.tile(np.eye(3), (n, 1, 1))
            rotations[k] = pi_rotation(axis)
            assemblies.append(rotations)
    return CandidatePool(tuple(assemblies), seed)


def random_octahedral_pool(n: int, size: int, seed: int = 0) -> CandidatePool:
    """Seeded uniform draws of per-spin octahedral assemblies.

    The draws come from a stream spawned from `seed`, not from `seed`
    itself: `greedy_pool_growth` draws its candidate batches from
    `default_rng(seed)`, and the pool must not be its first batch."""
    if size < 1:
        raise ValueError("pool size must be at least 1")
    group = octahedral_group()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    picks = rng.integers(0, len(group), size=(size, n))
    return CandidatePool(tuple(group[row] for row in picks), seed)


def user_pool(assemblies, seed: int = 0) -> CandidatePool:
    return CandidatePool(tuple(np.asarray(a, dtype=float) for a in assemblies), seed)


def merge_pools(*pools: CandidatePool, seed: int = 0) -> CandidatePool:
    assemblies = tuple(a for pool in pools for a in pool.assemblies)
    return CandidatePool(assemblies, seed)


def nnls_active_set(A, b):
    """Lawson-Hanson active-set nonnegative least squares.

    Minimizes ||A x - b||_2 over x >= 0.  The dual feasibility test uses
    a relative tolerance, and ties pick the lowest column index, so the
    solve path is fully deterministic.  Each passive subproblem is solved
    from the Householder R factor of [A_P | b], with `lstsq` only for
    rank-deficient blocks (see `_passive_solve`).  Returns (x,
    residual_norm, iterations), where iterations counts insertions into
    the passive set.  A safety cap of 3 * ncols + 10 insertions ends the
    solve: iterations == 3 * ncols + 10 means the cap ended it, not the
    dual test, and x is where the cap cut it, not a minimum.  This
    function says so only through that count; `greedy_pool_growth` reads
    the cap from `_lawson_hanson`'s `converged` flag and ends phase 1
    there.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("incompatible least-squares dimensions")
    x, rnorm, iterations, _ = _lawson_hanson(A, b)
    return x, rnorm, iterations


def _lawson_hanson(A, b, x=None, cap=None):
    """The `nnls_active_set` loop, cold from x = 0 or warm from a feasible x.

    A warm start takes x >= 0 with its positive entries as the passive
    set, as Lawson-Hanson leaves them after every insertion;
    `greedy_pool_growth` passes the previous round's optimum with a zero
    for the new column, so the solve usually needs one or two
    insertions.  At most `cap` insertions are made (default
    3 * ncols + 10).  Returns (x, residual_norm, iterations, converged);
    converged is False when the cap ended the solve, not the dual test.
    The residual A x - b at the optimum is unique, so a warm and a cold
    solve reach the same residual up to rounding, but not always the
    same x, and a warm solve from a degenerate vertex can cycle where the
    cold one does not.
    """
    ncols = A.shape[1]
    if x is None:
        x = np.zeros(ncols)
        resid = b.copy()
    else:
        resid = b - A @ x
    passive = x > 0.0
    w_scale = max(float(np.abs(A.T @ b).max()), np.finfo(float).tiny)
    cap = 3 * ncols + 10 if cap is None else cap
    for insertion in range(cap):
        w = A.T @ resid
        w = np.where(passive, -np.inf, w)
        j = int(np.argmax(w))
        if w[j] <= _DUAL_TOL * w_scale:
            return x, float(np.linalg.norm(resid)), insertion, True
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
        resid = b - A @ x
    return x, float(np.linalg.norm(resid)), cap, False


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
    reached, otherwise the best residual found.  `certified` means tau is
    proven minimal over all octahedral schemes (see `minimize_tau`)."""

    scheme: Scheme | None
    residual: float
    tau: float
    iterations: int
    certified: bool = False


def search_result_to_dict(result: SearchResult, seed: int | None = None) -> dict:
    """Scheme JSON plus a metadata block and the top-level `certified` flag;
    the scheme entry is null on failure."""
    meta = {
        "residual": result.residual,
        "iterations": result.iterations,
        "tau": result.tau,
    }
    if seed is not None:
        meta["seed"] = seed
    out = scheme_to_dict(result.scheme) if result.scheme is not None else {"scheme": None}
    out["found"] = result.scheme is not None
    out["certified"] = result.certified
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


def _finalize(coupling, scaled, assemblies, x, rnorm, iterations, tol):
    norm = float(np.linalg.norm(scaled))
    keep = np.flatnonzero(x > _PRUNE_TOL)
    # the lower blocks mirror the upper ones, so the full Frobenius
    # residual is sqrt(2) times the stacked-block residual
    relative = rnorm * np.sqrt(2.0) / norm
    if keep.size and relative <= tol:
        steps = tuple(Step(float(x[j]), assemblies[j]) for j in keep)
        result = _verdict(Scheme(SchemeKind.INVERSION, steps), coupling, tol, iterations)
        if result.scheme is not None:
            return result
        relative = result.residual
    return SearchResult(None, relative, float(x[keep].sum()), iterations)


def _verdict(scheme, coupling, tol, iterations=0) -> SearchResult:
    """`scheme` as found when it verifies at `tol`, with its residual and
    `scheme_stats`' tau; a verified scheme that `audit_stats_against_bounds`
    fails (below either lower bound) is a software defect."""
    recheck = verify(scheme, coupling, tol)
    stats = scheme_stats(scheme)
    if recheck.ok and not audit_stats_against_bounds(stats, coupling, tol=tol).passed:
        raise RuntimeError("verified scheme beats a lower bound; this is a software defect")
    return SearchResult(scheme if recheck.ok else None, recheck.residual, stats.tau, iterations)


def _problem(J, assemblies):
    """Resolve a nonzero coupling (checked once when raw) against a pool of
    its spin count, and return (coupling, scaled, columns, target): the
    search minimizes ||columns x - target|| over x >= 0, both built from
    `scaled`, J divided by the largest power of two <= max|J|.  That is
    exact and changes no step time, and keeps the solves' squares and
    absolute floors where they are for max|J| = 1 at every scale of J;
    found schemes are verified on `coupling`, as given."""
    coupling = _checked(J)
    top = float(np.abs(coupling.J).max())
    if top == 0.0:
        raise ValueError("zero coupling: nothing to invert")
    n = assemblies[0].shape[0]
    if n != coupling.n:
        raise ValueError(f"dimension mismatch: pool addresses {n} spins, coupling has {coupling.n}")
    scaled = np.ldexp(coupling.J, 1 - int(np.frexp(top)[1]))
    return coupling, scaled, _upper_block_columns(scaled, assemblies), -_upper_blocks(scaled)


def find_inversion_nnls(J, pool: CandidatePool, tol: float = 1e-9) -> SearchResult:
    """Best nonnegative step times over a fixed candidate pool.

    Solves min_{t >= 0} ||sum_j t_j V_j J V_j^T + J||_F over the stacked
    upper-triangle blocks, prunes times below 1e-12, and returns the
    scheme when the relative residual reaches tol.  Deterministic for a
    fixed pool order.
    """
    coupling, scaled, columns, target = _problem(J, pool.assemblies)
    x, rnorm, iterations = nnls_active_set(columns, target)
    return _finalize(coupling, scaled, pool.assemblies, x, rnorm, iterations, tol)


def greedy_pool_growth(
    J,
    base_pool: CandidatePool,
    target_tol: float = 1e-9,
    max_pool: int = 500,
    seed: int | None = None,
) -> SearchResult:
    """Column generation over random octahedral assemblies.

    After each solve, the sampled assembly whose averaged image points
    most steeply against the current residual joins the pool and the
    times are re-solved.  Each pool is a superset of the previous one, so
    the objective cannot increase (asserted per round); runs are
    reproducible for a fixed seed (the base pool's seed when none is
    given).  `iterations` counts growth rounds.

    Each round's re-solve starts warm from the previous round's times,
    with a zero for the new column, and may make at most m insertions, m
    the number of rows: a basic solution has at most m positive times,
    so a warm solve that needs more is cycling.  A warm solve that hits
    that budget or raises the objective is redone cold (from x = 0).  The
    stop test and `_finalize` read a cold solve of the current pool, so
    a round whose warm residual reaches `target_tol`, and the round that
    fills `max_pool`, are solved cold too; if the cold residual misses
    the target, growth goes on from the cold times.  A cold solve that
    ends at its insertion cap has not converged: its column is dropped
    and the search ends on the previous pool, solved cold, with
    `iterations` rounds and a pool below `max_pool`.
    """
    coupling, scaled, columns, target = _problem(J, base_pool.assemblies)
    if max_pool < len(base_pool.assemblies):
        raise ValueError("max_pool is smaller than the base pool")
    rng = np.random.default_rng(base_pool.seed if seed is None else seed)
    group = octahedral_group()
    norm = float(np.linalg.norm(scaled))
    assemblies = list(base_pool.assemblies)
    x, rnorm, _, _ = _lawson_hanson(columns, target)
    growth_rounds = 0
    while rnorm * np.sqrt(2.0) / norm > target_tol and len(assemblies) < max_pool:
        resid = columns @ x - target
        candidates = group[rng.integers(0, len(group), size=(_BATCH, base_pool.n))]
        candidate_columns = _upper_block_columns(scaled, candidates)
        best = int(np.argmin(candidate_columns.T @ resid))
        grown = np.column_stack([columns, candidate_columns[:, best]])
        bound = rnorm + 1e-9 * max(rnorm, 1.0)
        x_new, new_rnorm, _, converged = _lawson_hanson(grown, target, np.append(x, 0.0), cap=grown.shape[0])
        read = new_rnorm * np.sqrt(2.0) / norm <= target_tol or len(assemblies) + 1 == max_pool
        if not converged or new_rnorm > bound or read:
            x_new, new_rnorm, _, converged = _lawson_hanson(grown, target)
            if not converged:
                # this round did not converge: end on the previous pool, solved cold
                x, rnorm, _, _ = _lawson_hanson(columns, target)
                break
            if new_rnorm > bound:
                raise RuntimeError("NNLS objective increased while the pool grew; active-set defect")
        # a copy: the view candidates[best] would keep the whole batch alive
        assemblies.append(candidates[best].copy())
        columns, x, rnorm = grown, x_new, new_rnorm
        growth_rounds += 1
    return _finalize(coupling, scaled, assemblies, x, rnorm, growth_rounds, target_tol)


def minimize_tau(J, start: SearchResult | Scheme, tol: float = 1e-9, seed: int = 0) -> SearchResult:
    """Phase 2: cut the overhead tau of an inversion scheme by column generation.

    `start` is phase 1's result, whose residual and tau count as checked,
    or a bare scheme, verified and audited here once as `_finalize` does;
    a start that does not invert J at `tol` is refused.  A revised
    simplex for min 1^T t subject to C t = -vec(J), t >= 0, over
    octahedral assemblies, starts from a basis of the start's steps,
    which must have linearly independent columns (NNLS leaves them so),
    completed by zero-level artificial columns; an artificial leaves at
    the first pivot that touches its row and never returns.  Each pricing
    round adds the `_PRICE_TOP` assemblies with the largest
    y^T a > 1 + 1e-9 to the pool, and steepest-edge pivots (Goldfarb and
    Reid's weight update) run over the pool until none of it improves.
    Pricing enumerates the group when it has at most
    `_ENUMERATE_MAX` assemblies, holding spin 0 at the identity when every
    block of J is a multiple of I (then only R_k R_l^T matters); beyond
    that it runs a per-spin coordinate ascent from `_ASCENT_STARTS` starts
    drawn from `seed`.  The run, and so the pool, stops after a pricing
    round that no pivot follows or at the pivot budget:
    `_EXACT_PIVOTS_PER_ROW` per row of C under enumeration, so that the
    run ends at a certificate rather than wherever the budget falls, and
    `_PIVOTS_PER_ROW` under ascent, which can certify only by reaching the
    bound.  `certified` is true when enumeration finds no improving
    assembly, which proves tau minimal over every octahedral scheme, or
    when tau reached `tau_lower_bound`.  The result is the start unless
    the simplex's scheme verifies at `tol` with a smaller tau; a basis that
    rounding leaves singular (`LinAlgError` from the refactor or the final
    solve, or an improving column that no row bounds, which 1^T t >= 0
    rules out in exact arithmetic) also returns the start, uncertified.
    `iterations` counts pivots.  Deterministic for a fixed seed.
    """
    scheme = start.scheme if isinstance(start, SearchResult) else start
    if scheme is None or scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("phase 2 needs an inversion scheme")
    start_rots = np.array([step.rotations for step in scheme.steps])
    coupling, scaled, columns, target = _problem(J, start_rots)
    rows, size = columns.shape
    Q, R = np.linalg.qr(columns, mode="complete")
    diag = np.abs(np.diagonal(R))
    if size > rows or diag.min() <= np.finfo(float).eps * rows * diag.max():
        raise ValueError("the start scheme's steps are linearly dependent, so they are no LP basis")
    if not isinstance(start, SearchResult):
        start = _verdict(scheme, coupling, tol)
    if not start.residual <= tol:
        raise ValueError(f"the start scheme does not invert J (residual {start.residual:.3g} > tol {tol:g})")
    basis = np.column_stack([columns, Q[:, size:]])
    basis_rots = np.concatenate([start_rots, np.zeros((rows - size,) + start_rots.shape[1:])])
    artificial = np.arange(rows) >= size
    inverse = np.linalg.inv(basis)
    x = np.maximum(inverse @ target, 0.0)
    tau_low = _spectral_bound(coupling.J)[2]
    group = octahedral_group()
    price, exact = _pricer(scaled, seed)
    budget = (_EXACT_PIVOTS_PER_ROW if exact else _PIVOTS_PER_ROW) * rows
    pool = np.empty((rows, 0))
    pool_rots = np.empty((0,) + start_rots.shape[1:])
    weights = np.empty(0)
    pivots = 0
    while True:
        # artificial columns cost 0, the start's and entered columns 1
        cost = np.where(artificial, 0.0, 1.0)
        y = cost @ inverse
        certified = float(cost @ x) <= tau_low + _PRICE_TOL * max(tau_low, 1.0)
        if certified or pivots >= budget:
            break
        found = price(y)
        if not len(found):
            certified = exact
            break
        new = _upper_block_columns(scaled, group[found])
        pool = np.column_stack([pool, new])
        pool_rots = np.concatenate([pool_rots, group[found]])
        weights = np.concatenate([weights, 1.0 + np.sum((inverse @ new) ** 2, axis=0)])
        reduced = 1.0 - y @ pool
        before = pivots
        while pivots < budget and pool.shape[1]:
            score = np.where(reduced < -_PRICE_TOL, reduced / np.sqrt(weights), 0.0)
            q = int(np.argmin(score))
            if score[q] == 0.0:
                break
            alpha = inverse @ pool[:, q]
            touched = np.flatnonzero(artificial & (np.abs(alpha) > _PIVOT_TOL))
            if len(touched):
                r = int(touched[np.argmax(np.abs(alpha[touched]))])
                theta = 0.0
            else:
                up = alpha > _PIVOT_TOL
                ratios = np.divide(x, alpha, out=np.full(rows, np.inf), where=up)
                theta = float(ratios.min())
                if theta == np.inf:
                    # no entry of alpha passed the tolerance, so 1 - cost @ alpha > 0
                    # and the negative reduced cost is rounding from a singular basis
                    return replace(start, iterations=pivots, certified=False)
                # of the tied rows (degenerate ones tie at 0) the largest pivot
                r = int(np.argmax(np.where(ratios == theta, alpha, 0.0)))
            alpha_r = alpha[r]
            # the pivot row alpha_r. / alpha_r updates the reduced costs, and with
            # a_j^T B^-T alpha the steepest-edge weights ||B^-1 a_j||^2 + 1
            pivot_row, cross = np.stack((inverse[r] / alpha_r, alpha @ inverse)) @ pool
            entering_weight = 1.0 + float(alpha @ alpha)
            weights = np.maximum(
                weights - pivot_row * (2.0 * cross - pivot_row * entering_weight), 1.0 + pivot_row**2
            )
            leaving_cost = -reduced[q] / alpha_r
            reduced -= reduced[q] * pivot_row
            x -= theta * alpha
            np.maximum(x, 0.0, out=x)  # rounding leaves -1e-17 where ratios tie
            x[r] = theta
            inverse[r] /= alpha_r
            alpha[r] = 0.0
            inverse -= alpha[:, None] * inverse[r]
            entering, entering_rots = pool[:, q].copy(), pool_rots[q].copy()
            if artificial[r]:
                pool = np.delete(pool, q, axis=1)
                pool_rots = np.delete(pool_rots, q, axis=0)
                weights = np.delete(weights, q)
                reduced = np.delete(reduced, q)
            else:
                pool[:, q], pool_rots[q] = basis[:, r], basis_rots[r]
                weights[q] = max(entering_weight / alpha_r**2, 1.0)
                reduced[q] = leaving_cost
            basis[:, r], basis_rots[r] = entering, entering_rots
            artificial[r] = False
            pivots += 1
            if pivots % _REFACTOR == 0:
                try:
                    inverse = np.linalg.inv(basis)
                except np.linalg.LinAlgError:  # the basis turned singular to rounding
                    return replace(start, iterations=pivots, certified=False)
                x = np.maximum(inverse @ target, 0.0)
                reduced = 1.0 - (np.where(artificial, 0.0, 1.0) @ inverse) @ pool
        # priced columns that did not enter sat within rounding of the
        # threshold, and pricing the same y again would find them again
        if pivots == before:
            break
    if pivots:
        try:
            times = np.linalg.solve(basis, target)
        except np.linalg.LinAlgError:
            return replace(start, iterations=pivots, certified=False)
        times = np.where(artificial | (times <= _PRUNE_TOL), 0.0, times)
        rnorm = float(np.linalg.norm(basis @ times - target))
        result = _finalize(coupling, scaled, basis_rots, times, rnorm, pivots, tol)
        if result.scheme is not None and result.tau < start.tau:
            return replace(result, certified=certified)
        certified = certified and result.scheme is not None
    return replace(start, iterations=pivots, certified=certified)


def _pricer(J, seed: int):
    """Pricing for `minimize_tau`: (price, exact).

    price(y) returns the indices into `octahedral_group()`, shape (k, n),
    of at most `_PRICE_TOP` assemblies a with y^T a > 1 + 1e-9, best
    first.  y^T a is a sum over spin pairs k < l of the 24 x 24 tables
    T_kl[r, s] = <Y_kl, O_r J_kl O_s^T>, Y_kl the pair's 3x3 slice of y.
    `exact` says whether price enumerates every assembly (spin 0 held at
    the identity, group[0], when every block is a multiple of I) or runs
    the seeded coordinate ascent.
    """
    group = octahedral_group()
    order = len(group)
    n = n_spins(J)
    first, second = np.triu_indices(n, 1)
    blocks = _upper_blocks(J).reshape(-1, 3, 3)
    # T_kl[r, s] = <O_r^T Y_kl, J_kl O_s^T>: the right factors depend on J only
    right = np.matmul(blocks[:, None], np.swapaxes(group, 1, 2)[None]).reshape(-1, order, 9)
    right = np.ascontiguousarray(np.swapaxes(right, 1, 2))
    left = np.swapaxes(group, 1, 2)[None]
    fixed = 1 if np.array_equal(blocks, blocks[:, :1, :1] * np.eye(3)) else 0
    sizes = [1] * fixed + [order] * (n - fixed)
    exact = int(np.prod(sizes)) <= _ENUMERATE_MAX
    rng = np.random.default_rng(seed)
    pairs = range(len(first))
    offsets = np.arange(n) * order

    def best(score):
        good = np.flatnonzero(score > 1.0 + _PRICE_TOL)
        if good.size > _PRICE_TOP:
            good = np.argpartition(-score, _PRICE_TOP)[:_PRICE_TOP]
        return good[np.lexsort((good, -score[good]))]

    def price(y):
        T = np.matmul(np.matmul(left, y.reshape(-1, 1, 3, 3)).reshape(-1, order, 9), right)
        if exact:
            score = np.zeros(sizes)
            for p in pairs:
                shape = [1] * n
                shape[first[p]], shape[second[p]] = sizes[first[p]], sizes[second[p]]
                score += T[p, : sizes[first[p]], : sizes[second[p]]].reshape(shape)
            return np.stack(np.unravel_index(best(score.ravel()), sizes), axis=1)
        # tables[k, l * 24 + s] = T_kl[:, s], both orientations of every
        # pair table, zero for l == k
        tables = np.zeros((n, n, order, order))
        tables[first, second] = np.swapaxes(T, 1, 2)
        tables[second, first] = T
        tables = tables.reshape(n, n * order, order)
        picks = rng.integers(0, order, size=(_ASCENT_STARTS, n))
        picks[:, :fixed] = 0
        for _ in range(_ASCENT_SWEEPS):
            moved = False
            for spin in range(fixed, n):
                # gain[start, r] = sum over l of T_spin,l[r, picks[start, l]]
                choice = np.argmax(tables[spin][(offsets + picks).T].sum(axis=0), axis=1)
                moved = moved or bool(np.any(choice != picks[:, spin]))
                picks[:, spin] = choice
            if not moved:
                break
        picks = picks[np.lexsort(picks.T)]
        picks = picks[np.r_[True, np.any(picks[1:] != picks[:-1], axis=1)]]
        return picks[best(T[np.arange(len(first)), picks[:, first], picks[:, second]].sum(axis=1))]

    return price, exact
