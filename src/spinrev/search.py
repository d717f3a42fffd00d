"""Numerical inversion-scheme discovery.

For a finite pool of per-spin rotation assemblies the averaging condition
is linear in the step times, so the best nonnegative times solve a
nonnegative least-squares problem over the distinct upper-triangle block
coordinates.  Rotations are discretized to the 24-element octahedral
group, which contains every rotation the constructive schemes use (axis
cycles, half turns, quarter turns between axes); rotations outside it are
refused, and every column and price is read off one exact table of J's
octahedral images.  A seeded greedy loop grows the pool with random
assemblies when the base pool cannot reach the target residual (phase
1).  NNLS minimizes the residual, not the overhead tau, so
`minimize_tau` (phase 2) then solves the linear program
min 1^T t subject to C t = -vec(J), t >= 0 by column generation, starting
from the phase-1 scheme.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bounds import _spectral_bound, audit_stats_against_bounds
from .coupling import CouplingInput, _checked
from .rotations import AXES, axis_cycle, check_rotation
from .schemes import Scheme, SchemeKind, pi_rotation, scheme_stats, scheme_to_dict, verify

_PRUNE_TOL = 1e-12
_DUAL_TOL = 1e-12  # relative tolerance of the NNLS dual feasibility test
_BATCH = 64  # random assemblies drawn per growth round
_FACTOR_CUTOFF = np.sqrt(np.finfo(float).eps)  # see `_PassiveQR`
_TIE_TOL = 1e-12  # candidate scores within this of the best, times max|score|, tie
_POOL_PER_ROW = 2  # phase 1's pool budget per row of the LP (see `_pool_budget`)
# phase 2 (`minimize_tau`)
_PIVOTS_PER_ROW = 20  # simplex pivot budget per row of the LP
_PRICE_TOP = 32  # improving assemblies that join the pool per pricing round
_ENUMERATE_MAX = 24**3  # price by enumeration up to this many assemblies
_ASCENT_STARTS = 64  # seeded starts of the coordinate ascent beyond that
_ASCENT_SWEEPS = 10  # sweep cap of one ascent
_PRICE_TOL = 1e-9  # a column improves when y^T a > 1 + 1e-9
_PIVOT_TOL = 1e-9  # smallest |B^-1 a| entry a pivot may divide by
_REFACTOR = 50  # pivots between fresh inverses of the basis


def _parity(perm):
    """+1 for an even permutation of 0, ..., k - 1, -1 for an odd one."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _signed_permutations():
    """(group, perm, sign) of the 24 signed permutation matrices of
    determinant +1: row a of group[r] holds its one nonzero entry, sign[r, a],
    in column perm[r, a]; the determinant is the permutation's parity times
    the product of the signs."""
    perms, signs = [], []
    for perm in itertools.permutations(range(3)):
        parity = _parity(perm)
        for sign in itertools.product((1.0, -1.0), repeat=3):
            if parity * sign[0] * sign[1] * sign[2] > 0.0:
                perms.append(perm)
                signs.append(sign)
    perm, sign = np.array(perms), np.array(signs)
    group = np.zeros((len(perm), 3, 3))
    np.put_along_axis(group, perm[..., None], sign[..., None], axis=2)
    group.flags.writeable = False
    return group, perm, sign


_GROUP, _PERM, _SIGN = _signed_permutations()
_ORDER = len(_GROUP)
# entry (a, b) of O_r B O_s^T is sign_r[a] sign_s[b] B[perm_r[a], perm_s[b]],
# entry 3 perm_s[b] + perm_r[a] of B^T read row-major; both as (r, s, a, b)
# raveled, the layout of `_image_table`'s rows of one pair
_IMAGE_SOURCE = (3 * _PERM[None, :, None, :] + _PERM[:, None, :, None]).ravel()
_IMAGE_SIGN = (_SIGN[:, None, :, None] * _SIGN[None, :, None, :]).ravel()


def octahedral_group() -> np.ndarray:
    """The 24 rotations with entries in {-1, 0, 1}, in a fixed order.

    These are the signed permutation matrices of determinant +1; the set
    is closed under products and contains the axis cycle and the three
    coordinate half turns.  One read-only (24, 3, 3) array, built once.
    """
    return _GROUP


@functools.cache
def _pairs(n):
    """The spin pairs k < l of n spins in row-major order, as (first, second)."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Per-spin rotation assemblies that may become scheme steps: one
    (P, n, 3, 3) float64 array, copied from the input, that the pool owns
    and keeps read-only."""

    assemblies: np.ndarray  # shape (P, n, 3, 3)
    seed: int = 0

    def __post_init__(self):
        try:
            assemblies = np.array(self.assemblies, dtype=float)
        except (TypeError, ValueError):  # ragged or not numeric
            assemblies = np.empty(0)
        if assemblies.ndim != 4 or assemblies.shape[2:] != (3, 3) or len(assemblies) == 0:
            raise ValueError("candidate pool must hold at least one assembly, all of one shape (n, 3, 3)")
        check_rotation(assemblies, tol=1e-12)
        assemblies.flags.writeable = False
        object.__setattr__(self, "assemblies", assemblies)

    @property
    def n(self) -> int:
        return self.assemblies.shape[1]


def collective_cyclic_pool(n: int, seed: int = 0) -> CandidatePool:
    """The two collective axis-cycle assemblies (first and second powers)."""
    S = axis_cycle()
    return CandidatePool(np.repeat(np.stack([S, S @ S])[:, None], n, axis=1), seed)


def pair_pi_pool(n: int, seed: int = 0) -> CandidatePool:
    """Half turns on a single spin, one assembly per (spin, axis) pair."""
    assemblies = np.tile(np.eye(3), (n, 3, n, 1, 1))  # (spin, axis, n, 3, 3)
    for k in range(n):
        assemblies[k, :, k] = [pi_rotation(axis) for axis in AXES]
    return CandidatePool(assemblies.reshape(3 * n, n, 3, 3), seed)


def random_octahedral_pool(n: int, size: int, seed: int = 0) -> CandidatePool:
    """Seeded uniform draws of per-spin octahedral assemblies.

    The draws come from a stream spawned from `seed`, not from `seed`
    itself: `greedy_pool_growth` draws its candidate batches from
    `default_rng(seed)`, and the pool must not be its first batch."""
    if size < 1:
        raise ValueError("pool size must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return CandidatePool(octahedral_group()[rng.integers(0, _ORDER, size=(size, n))], seed)


def merge_pools(*pools: CandidatePool, seed: int = 0) -> CandidatePool:
    return CandidatePool(np.concatenate([pool.assemblies for pool in pools]), seed)


def _lawson_hanson(A, b, start=None, cap=None):
    """Lawson-Hanson active-set nonnegative least squares, cold from x = 0
    or warm.

    Minimizes ||A x - b||_2 over x >= 0.  The dual feasibility test uses
    a relative tolerance, and ties pick the lowest column index, so the
    solve path is fully deterministic.  Each passive subproblem is solved
    from one QR factor of the passive block, updated as columns enter and
    leave, with a fresh Householder QR for ill-conditioned blocks and
    `lstsq` for rank-deficient ones (see `_PassiveQR`).

    `start` is None (cold, from an empty factor) or a `_PassiveQR` from
    an earlier solve, which this solve starts from and leaves at its own
    point: x starts as the factor's point, with zeros for columns of A
    beyond it, and its positive entries, as Lawson-Hanson leaves them
    after every insertion, are the passive set.  `greedy_pool_growth`
    hands one factor from each round's optimum to the next round's
    solve, so the solve usually needs one or two insertions and no
    refactorization.  At most `cap` insertions are made (default
    3 * ncols + 10).  Returns (x, residual_norm, iterations, converged):
    iterations counts insertions into the passive set.  The residual
    A x - b at the optimum is unique, so a warm and a cold solve reach the
    same residual up to rounding, but not always the same x.

    In exact arithmetic a column with w_j > 0 enters with a positive
    trial value.  When rounding in an ill-conditioned passive block gives
    it a value <= 0 instead, the column is rejected as in Lawson and
    Hanson's own code: its insertion is undone, it is left out of the
    dual test (w_j = 0 there) and the next column is tested; the
    rejections clear at the next insertion.  converged is True only when
    the dual test passes with no column left out: a solve that the cap
    cut, or whose test passed only without its rejected columns, returns
    where it stopped, not a minimum.
    """
    ncols = A.shape[1]
    qr, x = _PassiveQR(len(b)) if start is None else start, np.zeros(ncols)
    x[: len(qr.x)] = qr.x
    resid = b - A @ x
    passive = x > 0.0
    w_scale = max(float(np.abs(A.T @ b).max()), np.finfo(float).tiny)
    cap = 3 * ncols + 10 if cap is None else cap
    converged = False
    insertion = 0
    rejected = []
    while insertion < cap:
        w = A.T @ resid
        w = np.where(passive, -np.inf, w)
        if rejected:
            w[rejected] = -np.inf
        j = int(w.argmax())
        if w[j] <= _DUAL_TOL * w_scale:
            converged = not rejected
            break
        passive[j] = True
        qr.insert(A, b, j)
        trial = qr.solve(A, b, passive)
        if not trial[j] > 0.0:
            passive[j] = False
            qr.delete(np.arange(ncols) == j)
            rejected.append(j)
            continue
        rejected = []
        insertion += 1
        while True:
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
            qr.delete(dropped)
            if not passive.any():
                break
            trial = qr.solve(A, b, passive)
        resid = b - A @ x
    qr.x = x
    return x, float(np.linalg.norm(resid)), insertion, converged


class _PassiveQR:
    """The QR factor of Lawson-Hanson's passive block A_P, kept up to date
    as columns enter and leave it.

    Holds Q^T (one row per passive column), R, R^-1 and Q^T b of the
    columns `cols`, in factor order, in buffers of m rows allocated once,
    and the point `x` of the solve that left it.  An insertion appends the
    column by Gram-Schmidt, orthogonalised twice, and borders R^-1; a
    deletion re-triangulates R from the first deleted column on and turns
    Q, Q^T b and R^-1 with it.  A solve is R^-1 Q^T b.

    The factor is `held` only while min|R_ii| > sqrt(eps) * max|R_ii|
    (`_FACTOR_CUTOFF`), since the explicit R^-1 loses cond(R) * eps.
    Otherwise, and for more columns than rows, the next solve refactors
    [A_P | b] by Householder QR in column order, so that an
    ill-conditioned x depends on the passive set alone: it
    back-substitutes when that R passes `lstsq`'s rank cutoff
    (min|R_ii| > eps * m * max|R_ii|), else calls `lstsq`, and holds the
    new factor when its R passes the first test.
    """

    def __init__(self, rows):
        self.Qt, self.R, self.Rinv = (np.zeros((rows, rows)) for _ in range(3))
        self.qtb = np.zeros(rows)
        self.clear()

    def clear(self):
        """Empty the factor: a solve from it starts cold."""
        self.cols, self.held, self.x = [], True, np.zeros(0)
        self.low, self.high = np.inf, 0.0  # min and max |R_ii|
        return self

    def insert(self, A, b, j):
        k = len(self.cols)
        self.cols.append(j)
        self.held = self.held and k < len(b)
        if not self.held:
            return
        Q, r, v = self.Qt[:k], np.zeros(k), A[:, j].copy()
        for _ in range(2):  # Gram-Schmidt, and once more against its rounding
            c = Q @ v
            v -= c @ Q
            r += c
        rho = float(np.sqrt(v @ v))
        self.low, self.high = min(self.low, rho), max(self.high, rho)
        self.held = self.low > _FACTOR_CUTOFF * self.high
        if not self.held:
            return
        self.Qt[k] = v / rho
        self.qtb[k] = self.Qt[k] @ b
        self.R[:k, k], self.R[k, k] = r, rho
        self.Rinv[:k, k], self.Rinv[k, k] = self.Rinv[:k, :k] @ r / -rho, 1.0 / rho

    def delete(self, dropped):
        keep = ~dropped[self.cols]
        if keep.all():
            return
        k, p = len(self.cols), int(keep.argmin())
        self.cols = [col for col, kept in zip(self.cols, keep) if kept]
        kept = len(self.cols)
        if not self.held:
            return
        if kept > p:
            # R without the deleted columns is upper Hessenberg from column p on,
            # one step below the diagonal per deleted column: G^T R[p:, rest] = T
            # restores the triangle, and Q, Q^T b and R^-1 turn with G
            rest = np.flatnonzero(keep[p:]) + p
            G, T = np.linalg.qr(self.R[p:k, rest])
            self.R[:p, p:kept] = self.R[:p, rest]
            self.R[p:kept, p:kept] = T
            self.Qt[p:kept] = G.T @ self.Qt[p:k]
            self.qtb[p:kept] = G.T @ self.qtb[p:k]
            # the new R^-1 is the kept rows of R^-1 G, exactly triangular since
            # G has the band of R's trailing block
            self.Rinv[:kept, p:kept] = (self.Rinv[:k, p:k] @ G)[keep]
        diag = np.abs(np.diagonal(self.R)[:kept])
        self.low, self.high = diag.min(initial=np.inf), diag.max(initial=0.0)
        self.held = self.low > _FACTOR_CUTOFF * self.high

    def solve(self, A, b, passive):
        """x on the passive columns, zero elsewhere."""
        if not self.held:
            return self._refactor(A, b, passive)
        k = len(self.cols)
        trial = np.zeros(A.shape[1])
        trial[self.cols] = self.Rinv[:k, :k] @ self.qtb[:k]
        return trial

    def _refactor(self, A, b, passive):
        """`solve` from a fresh Householder QR of [A_P | b], or by `lstsq`."""
        m = A.shape[0]
        self.cols = np.flatnonzero(passive).tolist()
        k = len(self.cols)
        A_P = A[:, self.cols]
        trial = np.zeros(A.shape[1])
        self.held = False
        if k <= m:
            Q, R = np.linalg.qr(np.column_stack([A_P, b]))
            diag = np.abs(np.diagonal(R)[:k])
            self.low, self.high = diag.min(), diag.max()
            self.held = self.low > _FACTOR_CUTOFF * self.high
            if self.held:
                self.Qt[:k], self.R[:k, :k], self.qtb[:k] = Q[:, :k].T, R[:k, :k], R[:k, k]
                self.Rinv[:k, :k] = np.linalg.inv(R[:k, :k])
            if self.low > np.finfo(float).eps * m * self.high:
                # LU of a triangle pivots nowhere and leaves it as is, so this is
                # the back-substitution (numpy has no triangular solver)
                trial[self.cols] = np.linalg.solve(R[:k, :k], R[:k, k])
                return trial
        trial[self.cols] = np.linalg.lstsq(A_P, b, rcond=None)[0]
        return trial


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


def _upper_blocks(J):
    """vec of the k < l blocks of a 3n x 3n matrix, pairs in row-major
    order, as (9 n(n-1)/2,)."""
    n = J.shape[0] // 3
    k, l = _pairs(n)
    return np.swapaxes(J.reshape(n, 3, n, 3), 1, 2)[k, l].reshape(-1)


def _image_table(J):
    """Every octahedral image of J's pair blocks: row (p * 24 + r) * 24 + s
    is vec(O_r B O_s^T) for pair p = (k, l), k < l, with B the transpose of
    J's block (l, k), (pairs * 576, 9).

    That is block (k, l) of V J V^T (`schemes.conjugate`) for an assembly
    V with R_k = O_r and R_l = O_s, which reads J's lower block.  O_r is a
    signed permutation, so each entry is one entry of B times two signs,
    which is what `conjugate`'s products and sums of exact zeros give too:
    the table's entries equal `conjugate`'s bit for bit, at every scale of J.
    """
    n = J.shape[0] // 3
    first, second = _pairs(n)
    images = J.reshape(n, 3, n, 3)[second, :, first, :].reshape(-1, 9).take(_IMAGE_SOURCE, axis=1)
    images *= _IMAGE_SIGN
    # + 0.0 turns the -0.0 of a sign times a zero entry into the +0.0 that
    # `conjugate`'s sums, which start from +0.0, give
    images += 0.0
    return images.reshape(-1, 9)


def _table_columns(table, picks):
    """The search columns of the assemblies group[picks], picks (P, n): vec
    of the k < l blocks of V J V^T, one column per assembly, read off
    `_image_table`, (9 n(n-1)/2, P)."""
    first, second = _pairs(picks.shape[1])
    rows = (np.arange(len(first)) * _ORDER + picks[:, first]) * _ORDER + picks[:, second]
    # kept C-ordered (rows, pool): a transposed view would change the BLAS
    # summation order of A^T r, and with it which of tied candidates wins
    return np.ascontiguousarray(table[rows].reshape(len(picks), -1).T)


def _finalize(coupling, norm, picks, x, rnorm, iterations, tol):
    """The scheme of the times x over the assemblies group[picks] when its
    residual reaches tol and it verifies, else the residual."""
    keep = np.flatnonzero(x > _PRUNE_TOL)
    # the lower blocks mirror the upper ones, so the full Frobenius
    # residual is sqrt(2) times the stacked-block residual
    relative = rnorm * np.sqrt(2.0) / norm
    if keep.size and relative <= tol:
        scheme = Scheme._from_arrays(SchemeKind.INVERSION, x[keep], octahedral_group()[picks[keep]])
        result = _verdict(scheme, coupling, tol, iterations)
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


class _Problem(NamedTuple):
    """A coupling resolved for the search (see `_problem`)."""

    coupling: CouplingInput
    norm: float
    table: np.ndarray
    target: np.ndarray


def _problem(J) -> _Problem:
    """Resolve a nonzero coupling (checked once when raw) for the search,
    or return a `_Problem` as is, so that both phases of a job share one:
    (coupling, norm, table, target).  The search minimizes
    ||columns x - target|| over x >= 0, the columns read off `table`, the
    image table of `scaled`, J divided by the largest power of two
    <= max|J|, and target = -vec of its upper blocks, with residuals
    relative to norm = ||scaled||_F.  That scaling is exact and changes no
    step time, and keeps the solves' squares and absolute floors where
    they are for max|J| = 1 at every scale of J; found schemes are
    verified on `coupling`, as given."""
    if isinstance(J, _Problem):
        return J
    coupling = _checked(J)
    top = float(np.abs(coupling.J).max())
    if top == 0.0:
        raise ValueError("zero coupling: nothing to invert")
    scaled = np.ldexp(coupling.J, 1 - int(np.frexp(top)[1]))
    return _Problem(coupling, float(np.linalg.norm(scaled)), _image_table(scaled), -_upper_blocks(scaled))


def _group_indices(assemblies, n):
    """The index into `octahedral_group()` of each rotation of octahedral
    assemblies of n spins, (P, n); other rotations are refused."""
    if assemblies.shape[1] != n:
        raise ValueError(f"dimension mismatch: pool addresses {assemblies.shape[1]} spins, coupling has {n}")
    matches = (assemblies[:, :, None] == _GROUP).all(axis=(3, 4))
    if not matches.any(axis=2).all():
        raise ValueError(
            "search rotations must be octahedral: signed permutation matrices "
            "of determinant +1, every entry exactly -1, 0 or 1"
        )
    return matches.argmax(axis=2)


def find_inversion_nnls(J, pool: CandidatePool, tol: float = 1e-9) -> SearchResult:
    """Best nonnegative step times over a fixed candidate pool.

    Solves min_{t >= 0} ||sum_j t_j V_j J V_j^T + J||_F over the stacked
    upper-triangle blocks, prunes times below 1e-12, and returns the
    scheme when the relative residual reaches tol.  Deterministic for a
    fixed pool order.
    """
    coupling, norm, table, target = _problem(J)
    picks = _group_indices(pool.assemblies, coupling.n)
    x, rnorm, iterations, _ = _lawson_hanson(_table_columns(table, picks), target)
    return _finalize(coupling, norm, picks, x, rnorm, iterations, tol)


def greedy_pool_growth(
    J,
    base_pool: CandidatePool,
    target_tol: float = 1e-9,
    max_pool: int | None = None,
    seed: int | None = None,
) -> SearchResult:
    """Column generation over random octahedral assemblies.

    After each solve, the sampled assembly whose averaged image points
    most steeply against the current residual joins the pool and the
    times are re-solved; of the candidates within 1e-12 * max|score| of
    the steepest, the first drawn joins (`_steepest`), so exact ties do
    not go by the last bits of the times.  Each pool is a superset of
    the previous one, so the objective cannot increase (asserted per
    round); runs are reproducible for a fixed seed (the base pool's seed
    when none is given).  `iterations` counts growth rounds; the pool
    grows to at most `max_pool` assemblies, by default `_pool_budget`.

    Each round's re-solve starts warm from the previous round's times,
    with a zero for the new column, and from the QR factor of their
    passive block, which one `_PassiveQR` carries from round to round
    (a cold solve empties it); it may make at most m insertions, m
    the number of rows: a basic solution has at most m positive times,
    so a warm solve that needs more is cycling.  A warm solve that does
    not converge (see `_lawson_hanson`) or raises the objective is redone
    cold (from x = 0).  The stop test and `_finalize` read a cold solve
    of the current pool, so a round whose warm residual reaches
    `target_tol`, and the round that fills `max_pool`, are solved cold
    too; if the cold residual misses the target, growth goes on from the
    cold times.  When the cold solve does not converge either, its column
    is dropped and the search ends on the previous pool, solved cold,
    with `iterations` rounds and a pool below `max_pool`.
    """
    coupling, norm, table, target = _problem(J)
    base_picks = _group_indices(base_pool.assemblies, coupling.n)
    columns = _table_columns(table, base_picks)
    max_pool = _pool_budget(base_pool.n) if max_pool is None else max_pool
    if max_pool < len(base_pool.assemblies):
        raise ValueError("max_pool is smaller than the base pool")
    rng = np.random.default_rng(base_pool.seed if seed is None else seed)
    base_size = len(base_pool.assemblies)
    picked = []  # each grown assembly as its row of indices into the group
    qr = _PassiveQR(len(target))
    x, rnorm, _, _ = _lawson_hanson(columns, target, qr)
    while rnorm * np.sqrt(2.0) / norm > target_tol and base_size + len(picked) < max_pool:
        resid = columns @ x - target
        picks = rng.integers(0, _ORDER, size=(_BATCH, base_pool.n))
        candidate_columns = _table_columns(table, picks)
        best = _steepest(candidate_columns.T @ resid)
        grown = np.column_stack([columns, candidate_columns[:, best]])
        bound = rnorm + 1e-9 * max(rnorm, 1.0)
        x_new, new_rnorm, _, converged = _lawson_hanson(grown, target, qr, cap=grown.shape[0])
        read = new_rnorm * np.sqrt(2.0) / norm <= target_tol or base_size + len(picked) + 1 == max_pool
        if not converged or new_rnorm > bound or read:
            x_new, new_rnorm, _, converged = _lawson_hanson(grown, target, qr.clear())
            if not converged:
                # this round did not converge: end on the previous pool, solved cold
                x, rnorm, _, _ = _lawson_hanson(columns, target, qr.clear())
                break
            if new_rnorm > bound:
                raise RuntimeError("NNLS objective increased while the pool grew; active-set defect")
        picked.append(picks[best].tolist())
        columns, x, rnorm = grown, x_new, new_rnorm
    picks = np.concatenate([base_picks, np.array(picked, dtype=np.intp).reshape(-1, base_pool.n)])
    return _finalize(coupling, norm, picks, x, rnorm, len(picked), target_tol)


def _pool_budget(n: int) -> int:
    """`_POOL_PER_ROW` assemblies for each of the 9 n(n-1)/2 LP rows; always above the base pool's 3n + 2."""
    return _POOL_PER_ROW * 9 * n * (n - 1) // 2


def _steepest(scores):
    """The lowest index whose score is within `_TIE_TOL` * max|score| of
    the minimum: candidates that tie in exact arithmetic (the complete
    graph's symmetric ones do) keep their order whatever the last bits of
    the residual, which depend on the factor's history."""
    return int((scores <= scores.min() + _TIE_TOL * np.abs(scores).max()).argmax())


def minimize_tau(J, start: SearchResult | Scheme, tol: float = 1e-9, seed: int = 0) -> SearchResult:
    """Phase 2: cut the overhead tau of an inversion scheme by column generation.

    `start` is phase 1's result, whose residual and tau count as checked,
    or a bare scheme, verified and audited here once as `_finalize` does;
    a start that does not invert J at `tol`, or is not octahedral, is
    refused.  A revised
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
    round that no pivot follows or at the pivot budget, `_PIVOTS_PER_ROW`
    per row of C for either pricer; runs end when pricing finds nothing
    (under enumeration at a certificate) well before it at n <= 5.

    When every pair block is c_kl I with c_kl != 0 (a scalar type on a W
    with full support), the LP is the complete scalar one with its rows
    scaled, and its optimum over octahedral schemes has the closed form
    `_octahedral_optimum`; tau is then tested against it after every
    pivot, and for prime n and n = 4 the first round's columns are the
    orbit of an optimal assembly (`_optimal_orbit`) instead of priced
    ones.  `certified` is true when enumeration finds no improving
    assembly, which proves tau minimal over every octahedral scheme, or
    when tau reached that closed form, or else `tau_lower_bound`.

    At each refactor the basic times are a checkpoint: the lowest-tau one
    whose LP residual is within `tol` is kept.  The run ends on the final
    basis's times unless they miss `tol` or a checkpoint's tau is lower by
    more than `_PRICE_TOL` * max(tau, 1); a basis that rounding leaves
    singular (`LinAlgError` from the refactor or the final solve, or an
    improving column that no row bounds, which 1^T t >= 0 rules out in
    exact arithmetic) leaves only the checkpoint.  A checkpoint is
    certified only by reaching the bound.  Only that one point is
    verified, and the result is the start unless it verifies at `tol`
    with a tau lower by more than that same margin.  `iterations` counts
    pivots.  Deterministic for a fixed seed.
    """
    scheme = start.scheme if isinstance(start, SearchResult) else start
    if scheme is None or scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("phase 2 needs an inversion scheme")
    coupling, norm, table, target = _problem(J)
    start_picks = _group_indices(scheme.rotations, coupling.n)
    columns = _table_columns(table, start_picks)
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
    del columns, Q, R  # freed before the pivots allocate theirs
    # the artificial columns' picks are never read: their times are zero
    basis_picks = np.concatenate([start_picks, np.zeros((rows - size, coupling.n), dtype=start_picks.dtype)])
    artificial = np.arange(rows) >= size
    inverse = np.linalg.inv(basis)
    x = np.maximum(inverse @ target, 0.0)
    scalar = _scalar_pairs(table)
    closed = scalar is not None and bool(scalar.all())
    tau_low = _octahedral_optimum(coupling.n) if closed else _spectral_bound(coupling)[2]
    reached = tau_low + _PRICE_TOL * max(tau_low, 1.0)  # tau at or below this meets the bound
    price, exact = _pricer(table, coupling.n, seed)
    orbit = _optimal_orbit(coupling.n) if closed else None  # the first round's assemblies
    budget = _PIVOTS_PER_ROW * rows
    pool = np.empty((rows, 0))
    pool_picks = np.empty((0, coupling.n), dtype=start_picks.dtype)
    weights = np.empty(0)
    pivots = 0
    best = None  # the lowest-tau checkpoint within tol, as `point` gives it
    lead = np.empty((2, rows))  # the pivot row of B^-1 and B^-T alpha
    ratios = np.empty(rows)
    artificial_left = bool(artificial.any())

    def point(basic):
        # (tau, times, picks, rnorm) of the basis: artificial and pruned times
        # dropped, and the stacked-block residual that `_finalize` reads
        times = np.where(artificial | (basic <= _PRUNE_TOL), 0.0, basic)
        return float(times.sum()), times, basis_picks.copy(), float(np.linalg.norm(basis @ times - target))

    def fits(lp_point):
        return lp_point[3] * np.sqrt(2.0) / norm <= tol

    def lower(tau, than):  # by more than rounding
        return tau < than - _PRICE_TOL * max(than, 1.0)

    def settle(final, certified):
        # the final point unless it misses tol or the best checkpoint is lower
        # by more than rounding; only the point handed over is verified
        if final is not None and not fits(final):
            final, certified = None, False
        if best is not None and (final is None or lower(best[0], final[0])):
            final, certified = best, best[0] <= reached
        if final is not None:
            _, times, picks, rnorm = final
            result = _finalize(coupling, norm, picks, times, rnorm, pivots, tol)
            if result.scheme is not None and lower(result.tau, start.tau):
                return replace(result, certified=certified)
            certified = certified and result.scheme is not None
        return replace(start, iterations=pivots, certified=certified)

    try:
        while True:
            # artificial columns cost 0, the start's and entered columns 1
            cost = np.where(artificial, 0.0, 1.0)
            y = cost @ inverse
            certified = float(cost @ x) <= reached
            if certified or pivots >= budget:
                break
            found = price(y) if orbit is None else orbit
            orbit = None
            if not len(found):
                certified = exact
                break
            new = _table_columns(table, found)
            pool = np.column_stack([pool, new])
            pool_picks = np.concatenate([pool_picks, found])
            weights = np.concatenate([weights, 1.0 + np.sum((inverse @ new) ** 2, axis=0)])
            reduced = 1.0 - y @ pool
            before = pivots
            while pivots < budget and pool.shape[1]:
                score = np.where(reduced < -_PRICE_TOL, reduced / np.sqrt(weights), 0.0)
                q = int(score.argmin())
                if score[q] == 0.0:
                    break
                alpha = inverse @ pool[:, q]
                touched = np.flatnonzero(artificial & (np.abs(alpha) > _PIVOT_TOL)) if artificial_left else ()
                if len(touched):
                    r = int(touched[np.argmax(np.abs(alpha[touched]))])
                    theta = 0.0
                else:
                    ratios.fill(np.inf)
                    np.divide(x, alpha, out=ratios, where=alpha > _PIVOT_TOL)
                    theta = float(ratios.min())
                    if theta == np.inf:
                        # no entry of alpha passed the tolerance, so 1 - cost @ alpha > 0
                        # and the negative reduced cost is rounding from a singular basis
                        raise np.linalg.LinAlgError("an improving column that no row bounds")
                    # of the tied rows (degenerate ones tie at 0) the largest pivot
                    r = int(np.where(ratios == theta, alpha, 0.0).argmax())
                alpha_r = alpha[r]
                # the pivot row alpha_r. / alpha_r updates the reduced costs, and with
                # a_j^T B^-T alpha the steepest-edge weights ||B^-1 a_j||^2 + 1
                np.divide(inverse[r], alpha_r, out=lead[0])
                np.matmul(alpha, inverse, out=lead[1])
                pivot_row, cross = lead @ pool
                entering_weight = 1.0 + float(alpha @ alpha)
                weights = np.maximum(
                    weights - pivot_row * (2.0 * cross - pivot_row * entering_weight), 1.0 + pivot_row**2
                )
                leaving_cost = -reduced[q] / alpha_r
                reduced -= reduced[q] * pivot_row
                x -= theta * alpha
                np.maximum(x, 0.0, out=x)  # rounding leaves -1e-17 where ratios tie
                x[r] = theta
                inverse[r] = lead[0]
                alpha[r] = 0.0
                inverse -= alpha[:, None] * lead[0]
                entering, entering_picks = pool[:, q].copy(), pool_picks[q].copy()
                if artificial[r]:
                    pool = np.delete(pool, q, axis=1)
                    pool_picks = np.delete(pool_picks, q, axis=0)
                    weights = np.delete(weights, q)
                    reduced = np.delete(reduced, q)
                else:
                    pool[:, q], pool_picks[q] = basis[:, r], basis_picks[r]
                    weights[q] = max(entering_weight / alpha_r**2, 1.0)
                    reduced[q] = leaving_cost
                basis[:, r], basis_picks[r] = entering, entering_picks
                if artificial_left:
                    artificial[r] = False
                    artificial_left = bool(artificial.any())
                pivots += 1
                if pivots % _REFACTOR == 0:
                    inverse = np.linalg.inv(basis)
                    x = np.maximum(inverse @ target, 0.0)
                    reduced = 1.0 - (np.where(artificial, 0.0, 1.0) @ inverse) @ pool
                    checkpoint = point(x)
                    if fits(checkpoint) and checkpoint[0] < (start.tau if best is None else best[0]):
                        best = checkpoint
                if closed and float(np.where(artificial, 0.0, 1.0) @ x) <= reached:
                    break
            # priced columns that did not enter sat within rounding of the
            # threshold, and pricing the same y again would find them again
            if pivots == before:
                break
        final = point(np.linalg.solve(basis, target)) if pivots else None
    except np.linalg.LinAlgError:  # rounding left the basis singular: only the checkpoint is left
        return settle(None, False)
    return settle(final, certified)


def _search_job(coupling, tol: float, seed: int) -> tuple[SearchResult, str | None]:
    """The `search` job on a checked coupling: phase 1 from the base pool of
    3n single-spin half turns and two collective axis cycles, within
    `_pool_budget`, then phase 2 on a found scheme, both on one
    `_problem`, keeping phase 1's growth rounds as `iterations`.  Returns
    (result, None), or (result, why not)."""
    pool = merge_pools(pair_pi_pool(coupling.n), collective_cyclic_pool(coupling.n), seed=seed)
    budget = _pool_budget(coupling.n)
    problem = _problem(coupling)
    result = greedy_pool_growth(problem, pool, target_tol=tol, max_pool=budget, seed=seed)
    if result.scheme is not None:
        return replace(minimize_tau(problem, result, tol, seed=seed), iterations=result.iterations), None
    # one assembly joins per growth round, so this is phase 1's last pool
    size = len(pool.assemblies) + result.iterations
    cause = "search exhausted its pool budget"
    if size < budget:
        cause = (
            f"search stopped with {size} of {budget} pool assemblies: an NNLS solve "
            "did not converge or the scheme it reached failed verification"
        )
    return result, f"{cause} (best residual {result.residual:.3g} > tol {tol:g})"


def _pricer(table, n: int, seed: int):
    """Pricing for `minimize_tau` over the `_image_table` of an n-spin J:
    (price, exact).

    price(y) returns the indices into `octahedral_group()`, shape (k, n),
    of at most `_PRICE_TOP` assemblies a with y^T a > 1 + 1e-9, best
    first.  y^T a is a sum over spin pairs k < l of the 24 x 24 tables
    T_kl[r, s] = <Y_kl, O_r J_kl O_s^T>, Y_kl the pair's 3x3 slice of y,
    which are the pair's table rows times Y_kl.  `exact` says whether
    price enumerates every assembly (spin 0 held at the identity,
    group[0], when every block is a multiple of I) or runs the seeded
    coordinate ascent.
    """
    order = _ORDER
    first, second = _pairs(n)
    images = table.reshape(len(first), order * order, 9)
    fixed = 0 if _scalar_pairs(table) is None else 1
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
        T = np.matmul(images, y.reshape(-1, 9, 1)).reshape(-1, order, order)
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
                choice = tables[spin].take((offsets + picks).T, axis=0).sum(axis=0).argmax(axis=1)
                moved = moved or bool(np.any(choice != picks[:, spin]))
                picks[:, spin] = choice
            if not moved:
                break
        picks = _distinct_rows(picks)
        return picks[best(T[np.arange(len(first)), picks[:, first], picks[:, second]].sum(axis=1))]

    return price, exact


def _scalar_pairs(table):
    """c_kl of every spin pair k < l when each pair block J_kl of the
    `_image_table`'s J is exactly c_kl I, zeros included, else None; read
    off the identity's images, (r, s) = (0, 0)."""
    blocks = table[:: _ORDER * _ORDER].reshape(-1, 3, 3)
    return blocks[:, 0, 0] if np.array_equal(blocks, blocks[:, :1, :1] * np.eye(3)) else None


def _octahedral_optimum(n):
    """The least tau of an octahedral inversion scheme of n >= 2 spins when
    every pair block is a nonzero multiple of I: 3n(n-1) / (3n - m_n).

    Averaging an LP solution over the spin permutations and over one
    rotation applied to every spin leaves each pair block a multiple of I
    (Schur's lemma), so the LP has one row, and its optimum is that
    quotient with m_n = min ||sum_k R_k||_F^2 over octahedral assemblies.
    Each row of an octahedral R has one entry +-1, so each row of
    sum_k R_k has an odd entry sum at odd n: m_n >= 3 there, reached by
    copies of I + X + Y + Z = 0 (X, Y, Z the axis half turns) followed by
    I or by I + X + Y.  Even n >= 4 has zero sums (m_n = 0), and
    m_2 = 4.  So tau* is 3 at n = 2, 3, n at odd n >= 5 and n - 1 at
    even n >= 4."""
    m = 4 if n == 2 else 3 if n % 2 else 0
    return 3 * n * (n - 1) / (3 * n - m)


@functools.cache
def _optimal_orbit(n):
    """The orbit of an octahedral assembly with the least ||sum_k R_k||_F,
    one assembly per column of a scalar J, as distinct rows of indices into
    `octahedral_group()`, or None unless n is prime or 4.

    The assembly is copies of I and the three axis half turns X, Y, Z,
    which sum to 0, then I, (I, X) or (I, X, Y) for n = 1, 2, 3 mod 4.  Its
    orbit is taken under one rotation multiplying every R_k from the left
    and under spin permutations transitive on ordered pairs: x -> ax + b
    mod n for prime n, and A4 for n = 4.  Averaged over it each pair block
    is a multiple of I, so the orbit's columns alone reach
    `_octahedral_optimum`.  A scalar J's column reads only R_k R_l^T, so
    each assembly is taken times R_0^T, spin 0 at the identity (group[0]),
    and repeats are dropped: 60 assemblies of 480 at n = 5."""
    if n == 4:
        perms = [p for p in itertools.permutations(range(4)) if _parity(p) > 0]
    elif n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)):
        perms = [[(a * k + b) % n for k in range(n)] for a in range(1, n) for b in range(n)]
    else:
        return None
    product = _group_indices(np.matmul(_GROUP[:, None], _GROUP), _ORDER)  # O_g O_h = O_product[g, h]
    transpose = (product == 0).argmax(axis=1)  # O_h^T = O_transpose[h]
    index = _group_indices(np.array([[np.eye(3), *map(pi_rotation, AXES)]]), 4)[0].tolist()  # I, X, Y, Z
    base = np.array(index * (n // 4) + index[: n % 4])
    orbit = product[:, base[np.array(perms)]].reshape(-1, n)
    orbit = _distinct_rows(product[orbit, transpose[orbit[:, :1]]])
    orbit.flags.writeable = False
    return orbit


def _distinct_rows(rows):
    """Each distinct row once, sorted by `np.lexsort` (last column first);
    `np.unique(axis=0)` does the same but its first call in a process
    costs about 30 ms."""
    rows = rows[np.lexsort(rows.T)]
    return rows[np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]]
