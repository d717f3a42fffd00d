"""Exact Hilbert-space oracle for small spin counts.

Builds the dense 2^n x 2^n Hamiltonian of a coupling matrix, exponentiates
it exactly, lifts scheme rotations to spin-1/2 unitaries, runs pulse
cycles, and measures the first-order averaging error: a verified inversion
scheme run at time scale eps approximates exp(+i H eps) with an error
quadratic in eps.

Cycles are run in the eigenbasis of H = U diag(lam) U^dag, where every
evolution is a diagonal phase and exp(+i H eps) is diag(exp(i lam eps)).
U is block diagonal on the connected blocks of H's nonzero pattern
(magnetization sectors of a dipole, parity sectors of a class-2 coupling)
and is kept as one eigenvector matrix per block; a real H is diagonalised
by the real symmetric solver.  Each pulse is applied to the cycle's
accumulator as U, then its n per-spin 2x2 factors, then U^dag, so no
2^n x 2^n pulse frame is ever formed, and the eps values run one at a
time.  The error norm comes from Lanczos on M^dag M, not from a dense
eigen-solve.  `error_scaling` turns J onto the frame where J and every
conjugated coupling have diagonal 3x3 blocks, when there is one, read
off J alone, and runs an odd-n cycle there on its even parity sector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingInput, _checked
from .rotations import check_symmetric, so3_to_su2, sym_eig
from .schemes import Scheme, SchemeKind, conjugate, verify

MAX_SPINS = 10

_FIT_FLOOR = 1e-12
_FIT_CEILING = 0.1
_EXACT_CUTOFF = 1e-13
_LANCZOS_CHECK = 4  # steps between Ritz tests
_LANCZOS_SEED = 0
_LANCZOS_TOL = 1e-13
_CHUNK = 64  # columns per chunk of a pulse
_FRAME_TOL = 1e-11  # share of max|J| below which a turned entry is rounding


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
    coupling = _checked(J)
    J, n = coupling.J, coupling.n
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
    """Largest singular value, via the top eigenvalue of M^dag M.

    M is first divided by the largest power of two 2^e at or below its
    largest real or imaginary part, which is exact, so M^dag M neither
    underflows nor overflows; for that part in [1, 2) nothing is scaled.
    """
    parts = np.ascontiguousarray(M, dtype=complex).view(float)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1]) - 1
    M = np.ldexp(parts, -e).view(complex)
    lam = np.linalg.eigvalsh(M.conj().T @ M)
    return float(np.sqrt(max(float(lam[-1]), 0.0))) * 2.0**e


def lift_rotations(rotations) -> np.ndarray:
    """Spin-1/2 lifts of a (..., n, 3, 3) stack of per-spin rotations, as (..., n, 2, 2)."""
    return so3_to_su2(np.asarray(rotations, dtype=float))


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
    coupling = _checked(J)
    rotations = np.asarray(rotations, dtype=float)
    if rotations.shape != (coupling.n, 3, 3):
        raise ValueError(
            f"dimension mismatch: need one 3x3 rotation per spin, got shape {rotations.shape}"
        )
    H = build_hamiltonian(coupling)
    scale = operator_norm(H)
    if scale == 0.0:
        return 0.0
    v = kron_all(lift_rotations(rotations))
    rotated = build_hamiltonian(conjugate(rotations, coupling.J))
    return operator_norm(v.conj().T @ H @ v - rotated) / scale


class NotAnInversion(ValueError):
    """The scheme does not invert the coupling at the tolerance; carries the residual."""

    def __init__(self, residual: float):
        super().__init__(f"scheme does not invert this coupling (residual {residual:.3g}); refusing to simulate")
        self.residual = residual


def evolve(H, t: float) -> np.ndarray:
    """Unitary exp(-i H t) through a Hermitian eigendecomposition; an H that
    is not finite and Hermitian is rejected.  An H with no imaginary part
    goes to the real symmetric solver."""
    H = np.asarray(H, dtype=complex)
    check_symmetric(H, "evolution generator")
    lam, U = np.linalg.eigh(H if H.imag.any() else H.real)
    return (U * np.exp(-1j * lam * t)) @ U.conj().T


def _gated(J, scheme, tol):
    """The checked coupling, once `verify` accepts `scheme` as its inversion
    at `tol`; `verify` refuses the zero coupling."""
    coupling = _checked(J)
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("cycle simulation expects an inversion scheme")
    result = verify(scheme, coupling, tol)
    if not result.ok:
        raise NotAnInversion(result.residual)
    return coupling


def _frame(coupling, scheme):
    """(coupling, scheme, cols) on which `error_scaling` runs a gated input.

    Input whose J and conjugated couplings V_j J V_j^T have diagonal 3x3
    blocks comes back as is.  Else Q, from one eigh of a fixed generic
    combination of those blocks, is accepted if every Q^T B Q is diagonal
    to _FRAME_TOL max|J|: J becomes its turned diagonals, a pair equal to
    that tolerance made equal on x and y, and each Q^T R Q that close to
    a signed permutation becomes one.  `cols` is then the even-popcount
    states for odd n; other input runs as given on every column.
    """
    n, J = coupling.n, coupling.J
    blocks = np.concatenate([J[None], conjugate(scheme.rotations, J)]).reshape(-1, n, 3, n, 3).swapaxes(2, 3)
    off = ~np.eye(3, dtype=bool)
    if blocks[..., off].any():
        flat = blocks.reshape(-1, 3, 3)
        # incommensurate weights, so that no two joint eigenvalues merge by accident
        G = np.tensordot(np.sin(np.arange(1, len(flat) + 1)), flat, 1)
        Q = sym_eig(0.5 * (G + G.T)).eigenvectors
        turned = Q.T @ blocks @ Q
        cut = _FRAME_TOL * np.abs(J).max()
        if np.abs(turned[..., off]).max() > cut:
            return coupling, scheme, slice(None)
        d = np.diagonal(turned[0], axis1=-2, axis2=-1)
        pairs = [[a, b, 3 - a - b] for a, b in ((0, 1), (0, 2), (1, 2)) if np.abs(d[..., a] - d[..., b]).max() <= cut]
        order = pairs[0] if pairs else [0, 1, 2]
        Q, d = Q[:, order], d[..., order]
        if pairs:
            d[..., :2] = 0.5 * (d[..., :1] + d[..., 1:2])
        R = Q.T @ scheme.rotations @ Q
        snapped = np.rint(R)
        R = np.where(np.abs(R - snapped).max(axis=(-2, -1), keepdims=True) <= _FRAME_TOL, snapped, R)
        coupling = CouplingInput(np.einsum("kla,ab->kalb", d, np.eye(3)).reshape(3 * n, 3 * n))
        scheme = Scheme._from_arrays(scheme.kind, scheme.times, R)
    if n % 2 == 0 or n > MAX_SPINS:  # above the cap, build_hamiltonian refuses
        return coupling, scheme, slice(None)
    parity = np.bitwise_xor.reduce(np.arange(1 << n)[:, None] >> np.arange(n), axis=1) & 1
    return coupling, scheme, np.flatnonzero(parity == 0)


def _simulate(coupling, scheme, cols):
    """Return (lam, cycle) for a gated coupling (see `_gated`):
    H = U diag(lam) U^dag with U kept as blocks (see `_block_eigh`), and
    `cycle(eps)` a new array holding the columns `cols` of the cycle in
    H's eigenbasis,

        U^dag C U = K_N D_{N-1} K_{N-1} ... D_0 K_0,

    with D_j = exp(-i lam t_j eps) and K_j = U^dag P_j U for the pulse
    P_j = v_j v_{j-1}^dag (v_{-1} = v_N = 1).  `cols` is slice(None) for
    every column or an index array (see `_frame`).  No K_j is
    formed: each pulse is applied to the accumulator by `_pulse`, as U,
    then P_j as its n per-spin 2x2 factors, then U^dag.  Only the first
    pulse's columns K_0[:, cols] are computed once, here; each call copies
    them into its own accumulator of 2^n x len(cols), so the large arrays
    alive during a call are that start and one accumulator, plus what the
    caller still holds.
    """
    # H is built from a checked coupling, so it is Hermitian by construction
    lam, blocks = _block_eigh(build_hamiltonian(coupling))
    unit = np.broadcast_to(np.eye(2), (scheme.n, 2, 2))
    lifts = [unit, *lift_rotations(scheme.rotations), unit]
    # the per-spin v_j v_{j-1}^dag, whose kron is P_j
    pulses = [after @ np.conj(np.swapaxes(before, 1, 2)) for before, after in zip(lifts, lifts[1:])]
    times = scheme.times.tolist()
    basis = np.arange(lam.size)[cols]
    start = np.zeros((lam.size, basis.size), dtype=complex)
    start[basis, np.arange(basis.size)] = 1.0  # the identity's columns cols
    _pulse(blocks, pulses[0], start)

    def cycle(eps):
        Y = np.multiply(start, np.exp(-1j * lam * (times[0] * eps))[:, None])
        for t, factors in zip(times[1:], pulses[1:]):
            _pulse(blocks, factors, Y, np.exp(-1j * lam * (t * eps)))
        _pulse(blocks, pulses[-1], Y)
        return Y

    return lam, cycle


def _pulse(blocks, factors, X, phase=None):
    """X <- diag(phase) U^dag P U X in place, P = kron_all(factors) for
    (n, 2, 2) per-spin `factors` and U kept as `blocks`; no phase when it
    is None.  Each chunk of _CHUNK columns takes all three factors in turn,
    so no temporary exceeds 2^n x _CHUNK entries."""
    for c in range(0, X.shape[1], _CHUNK):
        part = X[:, c : c + _CHUNK]
        _block_apply(blocks, part, adjoint=False)  # U
        _kron_apply(factors, part)
        _block_apply(blocks, part, adjoint=True)  # U^dag
        if phase is not None:
            part *= phase[:, None]


def _kron_apply(factors, X):
    """X <- kron_all(factors) @ X in place, for (n, 2, 2) `factors` and a
    2^n-row X (a view is fine).  Spin k is the k-th most significant bit
    of the row index, so its factor acts on the middle axis of X seen as
    (2^k, 2, rest): one batched 2 x 2 product per spin, on a contiguous
    copy of X."""
    Z = np.array(X)
    for k, f in enumerate(factors):
        Z = np.matmul(f, Z.reshape(1 << k, 2, -1))
    X[...] = Z.reshape(X.shape)


def _components(H):
    """The connected components of H's nonzero pattern, as one (m, s) stack
    of index sets per component size s, in ascending order of s.

    Each vertex's label falls to the smallest label among its neighbours,
    then to its label's label, until nothing changes; a label is always a
    vertex of the same component no larger than the vertex itself, so the
    fixed point labels every component by its smallest vertex.
    """
    rows, cols = np.nonzero(H)
    labels = np.arange(H.shape[0])
    while True:
        low = labels.copy()
        np.minimum.at(low, rows, labels[cols])
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    size = np.bincount(labels)[labels]
    stacks = []
    for s in np.flatnonzero(np.bincount(size)):
        members = np.flatnonzero(size == s)
        stacks.append(members[np.argsort(labels[members], kind="stable")].reshape(-1, s))
    return stacks


def _block_eigh(H):
    """(lam, blocks) with H = U diag(lam) U^dag for a complex H that the
    caller knows is Hermitian; nothing is checked here.

    U is block diagonal on the connected components of H's nonzero
    pattern, which H's dynamics never couple.  `blocks` holds one
    (idx, V) pair per component size: idx an (m, s) stack of index sets
    and V the (m, s, s) eigenvectors, with U[idx_b, idx_b] = V_b and
    lam[idx_b] the block's eigenvalues.  The blocks of one size go to one
    stacked eigh; a generic H is a single block.  A Hermitian H with no
    imaginary part goes to the real symmetric solver, which is several
    times faster and returns a real V.
    """
    source = H if H.imag.any() else H.real
    lam = np.empty(H.shape[0])
    blocks = []
    for idx in _components(H):
        w, V = np.linalg.eigh(source[idx[:, :, None], idx[:, None, :]])
        lam[idx] = w
        blocks.append((idx, V))
    return lam, blocks


def _block_apply(blocks, X, adjoint):
    """X <- U X, or U^dag X when `adjoint`, in place, for U kept as
    `blocks` (see `_block_eigh`) and a view X of at most _CHUNK columns.

    Each block's rows are gathered, so no temporary exceeds 2^n x _CHUNK
    entries and no block of U is copied: a real V multiplies the
    interleaved real view of the gathered rows, a real product in place
    of a complex one, and a complex V^dag is applied as conj(V^T conj(.)).
    """
    for idx, V in blocks:
        A = np.swapaxes(V, 1, 2) if adjoint else V
        rows = X[idx]
        if np.isrealobj(V):
            X[idx] = np.matmul(A, rows.view(float)).view(complex)
        elif adjoint:
            out = np.matmul(A, np.conjugate(rows, out=rows))
            X[idx] = np.conjugate(out, out=out)
        else:
            X[idx] = np.matmul(A, rows)


def _lanczos_norm(M) -> float:
    """Largest singular value of M by Lanczos on M^dag M, whose Krylov
    space lies in the span of M's columns: a tall M costs its width.

    The Krylov basis is one array that doubles as it fills, so it holds at
    most twice the steps taken.  It is re-orthogonalised in full, twice,
    so the top Ritz value stays below the top eigenvalue up to rounding.
    The start vector comes from a fixed stdlib seed, so results repeat run
    to run without loading numpy.random.  Every 4th step the top Ritz pair
    is tested, and the run stops when its residual beta_k |s_k|, s_k the
    last entry of T's top eigenvector, is at most 1e-13 theta; it also
    stops on breakdown, or after d steps, d being M's width, where the
    Krylov space is exhausted and theta is exact.
    """
    d = M.shape[1]
    rng = random.Random(_LANCZOS_SEED)
    q = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)])
    basis = np.empty((min(d, 8), d), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    while True:
        k = len(alpha)
        q = basis[k]
        w = np.conj(np.conj(M @ q) @ M)  # M^dag M q without a copy of M^dag
        alpha.append(float(np.vdot(q, w).real))
        V = basis[: k + 1]
        for _ in range(2):
            w -= np.conj(V @ np.conj(w)) @ V  # (V^* w) V without a copy of V
        b = float(np.linalg.norm(w))
        k += 1
        if k % _LANCZOS_CHECK == 0 or k == d or b == 0.0:
            ritz, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            theta = float(ritz[-1])
            if k == d or b == 0.0 or b * abs(S[-1, -1]) <= _LANCZOS_TOL * theta:
                return math.sqrt(max(theta, 0.0))
        beta.append(b)
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(k, d - k), d), dtype=complex)])
        basis[k] = w / b


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

    The input is first turned by `_frame`, after the scheme is verified
    on the coupling as given: where J and every conjugated coupling
    V_j J V_j^T share a frame that makes their 3x3 blocks diagonal, a
    global rotation turns them onto it, which leaves the error unchanged,
    and H is real and keeps the blocks of the axis-aligned twin.  There,
    for odd n, only the even parity sector is run: each conjugated
    Hamiltonian, H and exp(+i H eps) hold only xx, yy and zz terms, so the
    error operator commutes with Z^(x)n and X^(x)n; it is block diagonal
    by Z parity, and X^(x)n, which anticommutes with Z^(x)n for odd n,
    maps its even block onto its odd one, so the even block has the norm
    of the whole.  U's blocks lie inside parity sectors, so that block is
    the error's even-popcount rows and columns in H's eigenbasis too.

    The cycles come from `_simulate`, one eps at a time, and each is
    normed on its own block of rows and columns `cols` minus the diagonal
    E, so the working set after H's eigen-solve is the shared start, one
    accumulator of 2^n x len(cols), that block and 2^n x 64 chunks,
    whatever len(epsilons).
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three epsilon values")
    # written as not (0 < e < inf) so that a NaN value fails the check
    if not all(0.0 < e < math.inf for e in eps_list) or len(set(eps_list)) != len(eps_list):
        raise ValueError("epsilon values must be finite, positive and distinct")
    coupling, scheme, cols = _frame(_gated(J, scheme, tol), scheme)
    lam, cycle = _simulate(coupling, scheme, cols)
    # the largest phase lam * (t * eps) that a cycle or exp(+iH eps) forms
    top, longest, eps = float(np.abs(lam).max()), max(float(scheme.times.max()), 1.0), max(eps_list)
    if not math.isfinite(top * (longest * eps)):
        raise ValueError(f"epsilon value {eps!r} is too large: a phase lambda * t * eps overflows")
    errors = []
    for eps in eps_list:
        # ||C - exp(+iH eps)|| = ||U^dag C U - E|| with E = exp(+i lam eps)
        # diagonal; on the sector, the cycle's block of rows and columns cols
        M = cycle(eps)[cols]
        M.reshape(-1)[:: M.shape[1] + 1] -= np.exp(1j * lam[cols] * eps)
        errors.append(_lanczos_norm(M))
        del M  # before the next eps allocates its accumulator
    exact = all(err < _EXACT_CUTOFF for err in errors)
    slope = None
    usable = [(e, err) for e, err in zip(eps_list, errors) if _FIT_FLOOR <= err <= _FIT_CEILING]
    if not exact and len(usable) >= 2:
        log_eps = np.log([e for e, _ in usable])
        log_err = np.log([err for _, err in usable])
        slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return ErrorScaling(tuple(eps_list), tuple(errors), slope, exact)
