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
by the real symmetric solver.  The error norm comes from Lanczos on
M^dag M, not from a dense eigen-solve.  An odd-n cycle whose couplings
are all axis-diagonal is run and normed on its even parity sector only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .coupling import _checked
from .rotations import check_symmetric, so3_to_su2
from .schemes import Scheme, SchemeKind, conjugate, verify

MAX_SPINS = 10

_FIT_FLOOR = 1e-12
_FIT_CEILING = 0.1
_EXACT_CUTOFF = 1e-13
_LANCZOS_CHECK = 4  # steps between Ritz tests
_LANCZOS_SEED = 0
_LANCZOS_TOL = 1e-13
_CHUNK = 64  # columns per chunk of a block transform or a cycle update


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
    """Largest singular value, via the top eigenvalue of M^dag M."""
    M = np.asarray(M, dtype=complex)
    lam = np.linalg.eigvalsh(M.conj().T @ M)
    return float(np.sqrt(max(float(lam[-1]), 0.0)))


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


def run_cycle(J, scheme: Scheme, epsilon: float, tol: float = 1e-9) -> np.ndarray:
    """One pulse cycle at time scale epsilon.

    Steps act in list order (step 1 first in time, rightmost in the
    product), each contributing the exact conjugated evolution
    v^dag exp(-i H t eps) v.  The scheme must verify as an inversion of J
    first -- the cycle is only meaningful then -- except for the zero
    coupling, whose cycle is trivially the identity.  The sign choice of
    each spin-1/2 lift cancels in the conjugation.  The cycle K_N Y of
    `_simulate` is mapped back to U (K_N Y) U^dag by the block transforms.
    """
    if not (0.0 <= epsilon < math.inf):
        raise ValueError("epsilon must be finite and non-negative")
    _, blocks, (Y,), last = _simulate(_gated(J, scheme, tol), scheme, [epsilon], slice(None))
    C = last @ Y
    del Y, last
    _block_apply(blocks, C, transpose=False, conj=False)  # U K_N Y
    _block_apply(blocks, C.T, transpose=False, conj=True)  # (U K_N Y) U^dag, through its transpose
    return C


def _gated(J, scheme, tol):
    """The checked coupling, once `scheme` is known to invert it at `tol`;
    the zero coupling, whose cycle is the identity, needs no verification."""
    coupling = _checked(J)
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("cycle simulation expects an inversion scheme")
    if float(np.linalg.norm(coupling.J)) > 0.0:
        result = verify(scheme, coupling, tol)
        if not result.ok:
            raise NotAnInversion(result.residual)
    return coupling


def _simulate(coupling, scheme, epsilons, cols):
    """Return (lam, blocks, cycles, K_N) for a gated coupling (see `_gated`):
    H = U diag(lam) U^dag with U kept as `blocks` (see `_block_eigh`) and,
    per eps, the columns `cols` of the cycle in H's eigenbasis up to its
    last frame,

        U^dag C U = K_N Y,  Y = D_{N-1} K_{N-1} ... D_0 K_0,

    with D_j = exp(-i lam t_j eps) and K_j = U^dag P_j U for the pulse
    P_j = v_j v_{j-1}^dag (v_{-1} = v_N = 1).  `cycles` holds Y[:, cols]
    per eps, `cols` being slice(None) for every column or an index array
    (see `_parity_sector`).  Each K_j is built once, in place, by block
    transforms of the rows and then the columns of P_j, and applied to
    one accumulator per eps in column chunks, so an eps costs one phase
    scaling and one matmul of 2^n x 2^n by 2^n x len(cols) per step but
    the last, whose frame K_N is returned unapplied.  A pulse whose
    per-spin factors all equal or negate those of the pulse before it
    reuses K_{j-1}, negated when an odd number of spins flipped: negation
    is exact, so the reused frame holds the bits a rebuilt one would.  The
    only large arrays alive are K_j and the len(epsilons) accumulators of
    2^n x len(cols); every other array is a block of U or a chunk of at
    most 2^n x 64 entries.
    """
    # H is built from a checked coupling, so it is Hermitian by construction
    lam, blocks = _block_eigh(build_hamiltonian(coupling))
    dim = lam.size
    unit = np.broadcast_to(np.eye(2), (scheme.n, 2, 2))
    lifts = [unit, *lift_rotations([step.rotations for step in scheme.steps]), unit]
    frame = np.empty((dim, dim), dtype=complex)
    times = [step.t for step in scheme.steps]
    cycles, previous = [], None
    for j, (before, after) in enumerate(zip(lifts, lifts[1:])):
        # the per-spin v_j v_{j-1}^dag, whose kron is P_j
        factors = after @ np.conj(np.swapaxes(before, 1, 2))
        sign = _frame_sign(factors, previous)
        previous = factors
        if sign < 0:
            np.negative(frame, out=frame)
        elif sign == 0:
            _kron_into(factors, frame)
            _block_apply(blocks, frame, transpose=True, conj=True)  # U^dag P
            _block_apply(blocks, frame.T, transpose=True, conj=False)  # (U^dag P) U, through its transpose
        if j == len(times):
            break
        if j == 0:
            # frame[:, cols] is a view of every column, else a copy of the sector's
            cycles = [np.multiply(frame[:, cols], np.exp(-1j * lam * (times[0] * eps))[:, None]) for eps in epsilons]
            continue
        for Y, eps in zip(cycles, epsilons):
            phase = np.exp(-1j * lam * (times[j] * eps))[:, None]
            for c in range(0, Y.shape[1], _CHUNK):
                part = Y[:, c : c + _CHUNK]
                np.multiply(frame @ part, phase, out=part)
    return lam, blocks, cycles, frame


def _frame_sign(factors, previous) -> int:
    """+1 or -1 when the (n, 2, 2) `factors` equal `previous` spin by spin up
    to an exact sign per spin, the product of those signs; 0 otherwise."""
    if previous is None:
        return 0
    same = (factors == previous).all(axis=(1, 2))
    if not (same | (factors == -previous).all(axis=(1, 2))).all():
        return 0
    return -1 if np.count_nonzero(~same) % 2 else 1


def _kron_into(mats, out):
    """kron_all(mats) of (n, 2, 2) factors written into `out` (2^n x 2^n)."""
    head = kron_all(mats[:-1])
    m = head.shape[0]
    np.multiply(head[:, None, :, None], mats[-1][None, :, None, :], out=out.reshape(m, 2, m, 2))


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


def _block_apply(blocks, X, transpose, conj):
    """X <- A X in place, for A = U, U^T, conj(U) or U^dag as `transpose`
    and `conj` say, U being kept as `blocks` (see `_block_eigh`).

    X may be a transposed view, so that X U = (U^T X^T)^T is the same
    call on X.T.  Columns are taken _CHUNK at a time and each block's rows
    gathered, so no temporary exceeds 2^n x _CHUNK entries and no block
    of U is copied: a real V multiplies the interleaved real view of the
    gathered rows, a real product in place of a complex one, and conj(V)
    is applied as conj(V conj(.)).
    """
    for c in range(0, X.shape[1], _CHUNK):
        part = X[:, c : c + _CHUNK]
        for idx, V in blocks:
            A = np.swapaxes(V, 1, 2) if transpose else V
            rows = part[idx]
            if np.isrealobj(V):
                part[idx] = np.matmul(A, rows.view(float)).view(complex)
            elif conj:
                out = np.matmul(A, np.conjugate(rows, out=rows))
                part[idx] = np.conjugate(out, out=out)
            else:
                part[idx] = np.matmul(A, rows)


def _parity_sector(coupling, scheme):
    """The columns on which the error of `scheme`'s cycle is normed: the
    even-popcount basis states when n is odd and J and every conjugated
    coupling have exactly zero off-diagonal entries in their 3x3 blocks,
    else slice(None), every column (see `error_scaling`)."""
    n = coupling.n
    if n % 2 == 0:
        return slice(None)
    off = np.tile(~np.eye(3, dtype=bool), (n, n))
    conjugated = conjugate(np.stack([step.rotations for step in scheme.steps]), coupling.J)
    if coupling.J[off].any() or conjugated[:, off].any():
        return slice(None)
    idx = np.arange(1 << n)
    parity = np.zeros_like(idx)
    for site in range(n):
        parity ^= idx >> site
    return np.flatnonzero((parity & 1) == 0)


def _lanczos_norm(M) -> float:
    """Largest singular value of M by Lanczos on M^dag M, whose Krylov
    space lies in the span of M's columns: a tall M costs its width.

    The Krylov basis is one array that doubles as it fills, so it holds at
    most twice the steps taken.  It is re-orthogonalised in full, twice,
    so the top Ritz value stays below the top eigenvalue up to rounding.
    The start vector comes from a fixed stdlib seed, so results repeat run
    to run without loading numpy.random.  Every 4th step the top Ritz pair
    is tested, and the run stops when its residual beta_k |s_k| is at most
    1e-13 theta; it also stops on breakdown, or after d steps, d being
    M's width, where the Krylov space is exhausted and theta is exact.
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
            T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta = float(np.linalg.eigvalsh(T)[-1])
            if k == d or b == 0.0 or b * _ritz_tail(T, theta) <= _LANCZOS_TOL * theta:
                return math.sqrt(max(theta, 0.0))
        beta.append(b)
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(k, d - k), d), dtype=complex)])
        basis[k] = w / b


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

    For odd n, when J and every conjugated coupling V_j J V_j^T have
    diagonal 3x3 blocks (`_parity_sector`), only the even parity sector
    is run.  Then each conjugated Hamiltonian, H and exp(+i H eps) hold
    only xx, yy and zz terms, which commute with Z^(x)n and with X^(x)n,
    so the error operator does too: it is block diagonal by Z parity, and
    X^(x)n, which anticommutes with Z^(x)n for odd n, maps its even block
    onto its odd one, so the even block has the norm of the whole.  U's
    blocks lie inside parity sectors, so in H's eigenbasis that block is
    the error's even-popcount columns, and a cycle costs half its
    matmuls and the norm half its width; any other input runs on every
    column.

    The cycles come from `_simulate`, and each accumulator takes its
    shift K_N^dag E in place, one row chunk of K_N at a time, so the
    working set stays at the len(epsilons) accumulators of 2^n x
    len(cols), the last frame and 2^n x 64 chunks.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three epsilon values")
    # written as not (0 < e < inf) so that a NaN value fails the check
    if not all(0.0 < e < math.inf for e in eps_list) or len(set(eps_list)) != len(eps_list):
        raise ValueError("epsilon values must be finite, positive and distinct")
    coupling = _gated(J, scheme, tol)
    cols = _parity_sector(coupling, scheme)
    lam, blocks, cycles, last = _simulate(coupling, scheme, eps_list, cols)
    # ||C - exp(+iH eps)|| = ||K_N Y - E|| = ||Y - K_N^dag E|| with
    # E = exp(+i lam eps) diagonal, as U and K_N are unitary; the columns
    # of K_N^dag E = conj(K_N^T conj(E)) are formed from row chunks of K_N
    width = cycles[0].shape[1]
    shift = np.empty((lam.size, min(width, _CHUNK)), dtype=complex)
    for eps, Y in zip(eps_list, cycles):
        conj_phase = np.exp(-1j * lam * eps)
        for c in range(0, width, _CHUNK):
            # every column: a slice of K_N's rows, not a gathered copy
            rows = slice(c, c + _CHUNK) if isinstance(cols, slice) else cols[c : c + _CHUNK]
            np.multiply(last[rows].T, conj_phase[rows], out=shift)
            part = Y[:, c : c + _CHUNK]
            part -= np.conjugate(shift, out=shift)
    # freed before the norms, so that their Krylov bases stay under the
    # memory peak of _simulate
    del blocks, last, shift
    errors = [_lanczos_norm(Y) for Y in cycles]
    exact = all(err < _EXACT_CUTOFF for err in errors)
    slope = None
    usable = [(e, err) for e, err in zip(eps_list, errors) if _FIT_FLOOR <= err <= _FIT_CEILING]
    if not exact and len(usable) >= 2:
        log_eps = np.log([e for e, _ in usable])
        log_err = np.log([err for _, err in usable])
        slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return ErrorScaling(tuple(eps_list), tuple(errors), slope, exact)
