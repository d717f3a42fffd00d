"""Pulse schemes acting on coupling matrices.

A scheme is an ordered list of steps, each a relative time and one
rotation per spin, held as one array of times and one of rotations.
The block-diagonal assembly of a step's rotations conjugates the
coupling, and the time-weighted sum of the conjugates is the
first-order average; inversion schemes average the coupling to its
negative, decoupling schemes to zero.  Constructive synthesizers cover
traceless type matrices (two collective steps of unit time) and
mixed-sign type matrices (Hadamard sign fragments with selective
addressing); semidefinite types have no constructive scheme here and are
left to the numerical search module.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingClass, _check_json_numbers, _checked, _factored, _is_integer, classify_type
from .rotations import AXES, AXIS_INDEX, _frobenius, axis_cycle, check_rotation


class SchemeKind(enum.Enum):
    INVERSION = "inversion"
    DECOUPLING = "decoupling"


@dataclass(frozen=True)
class Step:
    """One scheme step: a relative time and one rotation per spin.

    `Scheme.steps` yields read-only views of the scheme's arrays;
    `Scheme(kind, steps)` copies each step into arrays of its own."""

    t: float
    rotations: np.ndarray  # shape (n, 3, 3)


@dataclass(frozen=True, eq=False, init=False)
class Scheme:
    """A pulse scheme: step times (S,) and rotations (S, n, 3, 3), float64
    arrays that the scheme owns and keeps read-only.  Construction
    validates every step; the error raised is always the first defect in
    step order.
    """

    kind: SchemeKind
    times: np.ndarray  # shape (S,)
    rotations: np.ndarray  # shape (S, n, 3, 3)

    def __init__(self, kind: SchemeKind, steps) -> None:
        """The scheme of a sequence of `Step`s, copied into one array."""
        if not isinstance(kind, SchemeKind):
            raise ValueError("scheme kind must be SchemeKind.INVERSION or SchemeKind.DECOUPLING")
        if len(steps) == 0:
            raise ValueError("scheme needs at least one step")
        times, rotations = np.empty(len(steps)), None
        for j, step in enumerate(steps):
            times[j], rots = step.t, np.asarray(step.rotations, dtype=float)
            if not np.isfinite(times[j]) or times[j] <= 0.0:
                defect = "step times must be positive and finite"
            elif rots.ndim != 3 or rots.shape[1:] != (3, 3):
                defect = "step rotations must have shape (n, 3, 3)"
            elif rotations is not None and rots.shape[0] != rotations.shape[1]:
                defect = "every step must address the same number of spins"
            else:
                if rotations is None:
                    rotations = np.empty((len(steps),) + rots.shape)
                rotations[j] = rots
                continue
            if j:  # the steps before it passed, so `rotations` holds them
                _check_rotations(rotations[:j])
            raise ValueError(defect)
        self.__dict__.update(vars(Scheme._from_arrays(kind, times, rotations)))

    @classmethod
    def _from_arrays(cls, kind: SchemeKind, times: np.ndarray, rotations: np.ndarray) -> Scheme:
        """The scheme of (S,) `times` and (S, n, 3, 3) `rotations`, which the
        caller hands over and no longer writes: float64 arrays that own
        their data are kept, anything else is copied.  The rotations of the
        steps before the first bad time are checked before that time."""
        times, rotations = (np.require(a, float, ["C", "O"]) for a in (times, rotations))
        bad = np.flatnonzero(~(np.isfinite(times) & (times > 0.0)))
        _check_rotations(rotations[: bad[0] if bad.size else None])
        if bad.size:
            raise ValueError("step times must be positive and finite")
        times.flags.writeable = rotations.flags.writeable = False
        scheme = cls.__new__(cls)
        scheme.__dict__.update(kind=kind, times=times, rotations=rotations)
        return scheme

    @property
    def n(self) -> int:
        return self.rotations.shape[1]

    @property
    def steps(self) -> tuple[Step, ...]:
        """One `Step` per step, its rotations a read-only view of the scheme's."""
        return tuple(map(Step, self.times.tolist(), self.rotations))


# rotations per stacked `check_rotation` call: its (k, 3, 3) temporaries
# stay near 75 KB each, a few hundred KB in all
_CHECK_ROTATIONS = 1024


def _check_rotations(rotations: np.ndarray) -> None:
    """`check_rotation` over an (S, n, 3, 3) stack, in chunks of whole
    steps that hold about _CHECK_ROTATIONS rotations each.

    On a failure the chunk's steps are checked again one at a time, so the
    error names the first failing step's defect, as a per-step check would."""
    per = -(-_CHECK_ROTATIONS // max(rotations.shape[1], 1))
    for j in range(0, len(rotations), per):
        chunk = rotations[j : j + per]
        try:
            check_rotation(chunk.reshape(-1, 3, 3), tol=1e-12)
        except ValueError:
            for rots in chunk:
                check_rotation(rots, tol=1e-12)
            raise


@dataclass(frozen=True)
class SchemeStats:
    """Step count, total relative time, and the collective flag."""

    n_steps: int
    tau: float
    collective: bool


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    residual: float


def conjugate(rotations, J) -> np.ndarray:
    """V J V^T for V the 3n x 3n block-diagonal matrix whose block k is
    rotation k of an assembly, in O(n^2) per assembly.

    `rotations` is (..., n, 3, 3), leading axes a batch; J is symmetric
    3n x 3n.  Row block k of V J is R_k times row block k of J, and
    V J V^T = V (V J)^T: two batched matmuls over (n, 3, 3n) row blocks.
    """
    rotations = np.asarray(rotations, dtype=float)
    batch = rotations.shape[:-3]
    n = rotations.shape[-3]
    VJ = np.matmul(rotations, np.reshape(J, (n, 3, 3 * n)))
    JVt = np.swapaxes(VJ.reshape(batch + (3 * n, 3 * n)), -1, -2)
    return np.matmul(rotations, JVt.reshape(batch + (n, 3, 3 * n))).reshape(batch + (3 * n, 3 * n))


# Gram entries per spin chunk of `average_coupling`: its (9c, 9n)
# temporaries stay near 0.5 MB each
_GRAM_ENTRIES = 1 << 16


def average_coupling(scheme: Scheme, J) -> np.ndarray:
    """Time-weighted average sum_j t_j V_j J V_j^T over the scheme's steps.

    Block (k, l) of the average is sum_j t_j R_jk J_kl R_jl^T, linear in
    J_kl through the Gram block M_kl = sum_j t_j R_jk (x) R_jl.  With the
    scheme's rotations read as X, one 9n-wide row per step, M is
    X^T diag(t) X: one BLAS-3 product, formed a chunk of row spins at a
    time and contracted with J's 3x3 blocks,
    avg[k,a,l,b] = sum_cd M[k,a,c,l,b,d] J[k,c,l,d].  J is symmetric, so
    the average is too: each chunk forms the blocks l >= k and copies the
    transposes of the blocks above it from the chunks before.
    """
    coupling = _checked(J)
    n = coupling.n
    if n != scheme.n:
        raise ValueError(
            f"dimension mismatch: scheme addresses {scheme.n} spins, coupling has {n}"
        )
    t = scheme.times
    X = scheme.rotations.reshape(len(t), 9 * n)
    J6 = coupling.J.reshape(n, 1, 3, n, 1, 3)
    out = np.empty((n, 3, n, 3))
    chunk = max(1, _GRAM_ENTRIES // (81 * n))
    for k0 in range(0, n, chunk):
        k1 = min(n, k0 + chunk)
        M = ((X[:, 9 * k0 : 9 * k1].T * t) @ X[:, 9 * k0 :]).reshape(k1 - k0, 3, 3, n - k0, 3, 3)
        M *= J6[k0:k1, :, :, k0:]
        # the sums over d, then c, as slice adds: numpy reduces short
        # strided axes far slower
        T = M[..., 0] + M[..., 1]
        T += M[..., 2]
        np.add(T[:, :, 0], T[:, :, 1], out=out[k0:k1, :, k0:])
        out[k0:k1, :, k0:] += T[:, :, 2]
        out[k0:k1, :, :k0] = out[:k0, :, k0:k1].transpose(2, 3, 0, 1)
    return out.reshape(3 * n, 3 * n)


def verify(scheme: Scheme, J, tol: float = 1e-9) -> VerifyResult:
    """Check the averaging condition at a relative Frobenius tolerance.

    Inversion schemes are verified against -J, decoupling schemes against
    zero; the residual is normalized by ||J||_F.
    """
    coupling = _checked(J)
    if coupling.norm == 0.0:
        raise ValueError("zero coupling: verification is undefined")
    avg = average_coupling(scheme, coupling)
    if scheme.kind is SchemeKind.INVERSION:
        avg += coupling.J
    residual = _frobenius(avg) / coupling.norm
    return VerifyResult(residual <= tol, residual)


def inversion_to_decoupling(scheme: Scheme) -> Scheme:
    """Prepend an identity step of unit time, so the averages sum to zero."""
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("expected an inversion scheme")
    rotations = np.concatenate([np.tile(np.eye(3), (1, scheme.n, 1, 1)), scheme.rotations])
    return Scheme._from_arrays(SchemeKind.DECOUPLING, np.append(1.0, scheme.times), rotations)


def decoupling_to_inversion(scheme: Scheme) -> Scheme:
    """Fold the first step into the rest: times t_j/t_0, rotations V_0^T V_j.

    When the original steps average the coupling to zero, the folded
    steps average it to its negative, giving an inversion scheme with one
    step fewer.
    """
    if scheme.kind is not SchemeKind.DECOUPLING:
        raise ValueError("expected a decoupling scheme")
    times, rotations = scheme.times, scheme.rotations
    if len(times) < 2:
        raise ValueError("conversion needs at least 2 steps")
    turned = np.matmul(np.swapaxes(rotations[0], 1, 2), rotations[1:])
    return Scheme._from_arrays(SchemeKind.INVERSION, times[1:] / times[0], turned)


def synthesize_case1(W, A=None, tol: float = 1e-9) -> Scheme:
    """Two-step collective inversion for a traceless type matrix.

    In the eigenframe of A the two steps conjugate every spin by the
    first and second powers of the axis cycle; the cyclic sums of a
    traceless diagonal equal its negative, so unit times give an exact
    inversion with step count 2 and overhead 2, never touching spins
    selectively.
    """
    coupling = _factored(W, A)
    if classify_type(coupling, tol) is not CouplingClass.TRACELESS:
        raise ValueError("collective 2-step synthesis needs a traceless type matrix")
    n = coupling.n
    Q = coupling.spectrum.eigenvectors
    S = axis_cycle()
    R = np.stack([Q @ power @ Q.T for power in (S, S @ S)])
    return Scheme._from_arrays(SchemeKind.INVERSION, np.ones(2), np.repeat(R[:, None], n, axis=1))


def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester sign matrix of power-of-two order m (entries +-1, H H^T = m 1)."""
    if not _is_integer(m) or m < 1 or (m & (m - 1)) != 0:
        raise ValueError("Hadamard order must be a positive power of two")
    H = np.array([[1]], dtype=int)
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return H


def pi_rotation(axis: str) -> np.ndarray:
    """Half turn about a coordinate axis, e.g. diag(-1,-1,1) for z.

    This is the Bloch image of conjugation by i*sigma_axis.
    """
    if axis not in AXIS_INDEX:
        raise ValueError("axis must be one of 'x', 'y', 'z'")
    d = -np.ones(3)
    d[AXIS_INDEX[axis]] = 1.0
    return np.diag(d)


def selective_decoupling(n: int, axis: str = "z") -> Scheme:
    """Hadamard sign fragment keeping one diagonal coupling component.

    Uses m = next power of two >= n equal steps of time 1/m.  In step c
    the spins whose Hadamard entry H[k, c] is -1 are conjugated by the
    half turn fixing `axis`; row orthogonality then cancels the other two
    diagonal components across steps while the kept component passes
    through with total weight 1.  Tagged as a decoupling scheme: on a
    coupling whose kept component is nonzero the declared verification
    fails by construction.
    """
    if n < 2:
        raise ValueError("need at least 2 spins")
    stack = _sign_fragment(n, axis)
    return Scheme._from_arrays(SchemeKind.DECOUPLING, np.full(len(stack), 1.0 / len(stack)), stack)


def _sign_fragment(n: int, axis: str) -> np.ndarray:
    """(m, n, 3, 3) step rotations of the fragment described in `selective_decoupling`."""
    m = 1 << (n - 1).bit_length()
    stack = np.tile(np.eye(3), (m, n, 1, 1))
    stack[hadamard_matrix(m)[:n].T < 0] = pi_rotation(axis)
    return stack


def synthesize_case2(W, A=None, tol: float = 1e-9) -> Scheme:
    """Selective inversion for a type matrix with eigenvalues of both signs.

    Works in the eigenframe of A.  Each nonzero eigenvalue a is inverted
    through a pivot axis carrying an opposite-signed eigenvalue b of
    maximal magnitude (ties resolved in x, y, z order): the Hadamard
    fragment keeping the pivot component runs with its kept axis rotated
    onto the target axis, scaled to total time |a/b| so its average
    contributes -a there.  Zero eigenvalues are skipped; the fragments
    never excite them.  The overhead sums |a/b| over the nonzero
    eigenvalues, a function of the spectrum of A alone, while the step
    count grows with the padded Hadamard order.
    """
    coupling = _factored(W, A)
    if classify_type(coupling, tol) is CouplingClass.SEMIDEFINITE:
        raise ValueError(
            "selective synthesis needs eigenvalues of both signs; "
            "semidefinite type matrices have no constructive scheme"
        )
    n = coupling.n
    lam = coupling.spectrum.eigenvalues
    Q = coupling.spectrum.eigenvectors
    cut = tol * _frobenius(coupling.A)
    times, stacks = [], []
    for target in range(3):
        a = lam[target]
        if abs(a) <= cut:
            continue
        opposite = [b for b in range(3) if abs(lam[b]) > cut and (lam[b] < 0.0) != (a < 0.0)]
        pivot = min(opposite, key=lambda b: (-abs(lam[b]), b))
        frame = Q @ _plane_quarter_turn(pivot, target)
        scale = abs(a / lam[pivot])
        stacks.append(np.matmul(np.matmul(frame, _sign_fragment(n, AXES[pivot])), Q.T))
        times.append(np.full(len(stacks[-1]), 1.0 / len(stacks[-1]) * scale))
    return Scheme._from_arrays(SchemeKind.INVERSION, np.concatenate(times), np.concatenate(stacks))


def _plane_quarter_turn(src: int, dst: int) -> np.ndarray:
    """Rotation mapping coordinate axis src onto a different axis dst."""
    G = np.zeros((3, 3))
    G[dst, src] = 1.0
    G[src, dst] = -1.0
    G[3 - src - dst, 3 - src - dst] = 1.0
    return G


def scheme_stats(scheme: Scheme) -> SchemeStats:
    """Step count, total relative time, and whether every step applies one
    common rotation to all spins (to 1e-12)."""
    times = scheme.times.tolist()
    tau = float(sum(times))  # a Python sum in step order, not np.sum
    collective = all(float(np.abs(R - R[0]).max()) <= 1e-12 for R in scheme.rotations)
    return SchemeStats(len(times), tau, collective)


def scheme_to_dict(scheme: Scheme) -> dict:
    """JSON form: {"kind", "n", "steps": [{"t", "rotations"}]} with one
    row-major 3x3 rotation per spin."""
    return {
        "kind": scheme.kind.value,
        "n": scheme.n,
        "steps": [
            {"t": t, "rotations": R.tolist()} for t, R in zip(scheme.times.tolist(), scheme.rotations)
        ],
    }


def _scheme_json_chunks(scheme: Scheme):
    """`json.dumps(scheme_to_dict(scheme))` in pieces: the head, one step at
    a time, then the tail, so a large scheme is never one nested list.

    Each distinct 3x3 rotation is encoded once, as `json.dumps(R.tolist())`;
    the cache is keyed by the matrix's bytes, so 0.0 and -0.0 stay apart."""
    encoded = _EncodedRotations()
    yield f'{{"kind": {json.dumps(scheme.kind.value)}, "n": {scheme.n}, "steps": ['
    for i, (t, R) in enumerate(zip(scheme.times.tolist(), scheme.rotations)):
        raw = R.tobytes()
        rotations = ", ".join([encoded[raw[k : k + 72]] for k in range(0, len(raw), 72)])
        chunk = f'{{"t": {json.dumps(t)}, "rotations": [{rotations}]}}'
        yield chunk if i == 0 else ", " + chunk
    yield "]}"


class _EncodedRotations(dict):
    """The JSON text of each 3x3 float64 rotation, keyed by its 72 bytes."""

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = json.dumps(np.frombuffer(raw).reshape(3, 3).tolist())
        return text


def _read_scheme(text: str) -> Scheme:
    """The scheme of a scheme file's text: by `_read_own_layout` when it is
    in the writer's layout, else by `scheme_from_dict` of the decoded text."""
    scheme = _read_own_layout(text)
    return scheme_from_dict(json.loads(text)) if scheme is None else scheme


def _read_own_layout(text: str) -> Scheme | None:
    """The scheme of text in the exact layout of `_scheme_json_chunks`,
    None for any other text.

    Each step's rotation list is split on the writer's "]], [[" separator
    and each distinct rotation text gets a one-byte code; one `json.loads`
    parses the distinct texts and one `np.take` copies them to their
    steps.  Other spacing or key order, a rotation text that is not a
    3x3 nest of numbers, a step of other than "n" rotations, or more than
    256 distinct rotation texts (a file that repeats few) gives None.  So
    what this reads, `scheme_from_dict` reads as the same arrays, and
    `Scheme._from_arrays` raises its error for the first bad time or
    rotation in step order, as `scheme_from_dict` does."""
    kinds = {f'{{"kind": "{kind.value}"': kind for kind in SchemeKind}
    start = text.find(', "steps": [{"t": ')
    head, _, n = text[: max(start, 0)].partition(', "n": ')
    if head not in kinds or not text.endswith("]]]}]}"):
        return None
    codes, picks, t_texts = {}, bytearray(), []
    pos, end = start + 18, len(text) - 6
    while True:  # a step at a time: splitting the whole text would copy it
        stop = text.find(']]]}, {"t": ', pos, end)
        spins = text[pos : stop if stop >= 0 else end].split("]], [[")
        t, sep, spins[0] = spins[0].partition(', "rotations": [[[')
        if not sep or str(len(spins)) != n:  # "n" as the writer spells it
            return None
        for spin in dict.fromkeys(spins):
            codes.setdefault(spin, len(codes))
        if len(codes) > 256:  # a code is one byte
            return None
        picks.extend(map(codes.__getitem__, spins))
        t_texts.append(t)
        if stop < 0:
            break
        pos = stop + 12
    try:  # the general reader's leaf rule
        distinct = json.loads("[[[" + "]], [[".join(codes) + "]]]")
        times = json.loads("[" + ", ".join(t_texts) + "]")
        _check_json_numbers(distinct, 3, "step rotations")
        _check_json_numbers(times, 1, 'step "t"')
        distinct, times = np.array(distinct, dtype=float), np.array(times, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not JSON, not numbers or ragged; an integer past float
        return None
    if distinct.shape != (len(codes), 3, 3) or times.shape != (len(t_texts),):
        return None
    rotations = np.empty((len(times), len(spins), 3, 3))
    # mode="clip" writes straight to `out`; "raise" would buffer a copy
    np.take(distinct, np.frombuffer(picks, np.uint8), axis=0, out=rotations.reshape(-1, 3, 3), mode="clip")
    return Scheme._from_arrays(kinds[head], times, rotations)


def scheme_from_dict(data) -> Scheme:
    """Parse the scheme JSON form; unknown keys are ignored.

    Step rotations may be nested lists or numeric arrays; both take the
    same checks, and each step is copied into the scheme's one array as
    it is read.  The error raised is the first defect in step order, as
    `Scheme` reports it: a step's structural defect only once the steps
    before it have passed."""
    if not isinstance(data, dict):
        raise ValueError("scheme file must hold a JSON object")
    for key in ("kind", "n", "steps"):
        if key not in data:
            raise ValueError(f'scheme file is missing "{key}"')
    try:
        kind = SchemeKind(data["kind"])
    except ValueError:
        raise ValueError('scheme "kind" must be "inversion" or "decoupling"') from None
    n = data["n"]
    if not _is_integer(n) or n < 1:
        raise ValueError('scheme "n" must be a positive integer')
    n = int(n)
    if not isinstance(data["steps"], list) or not data["steps"]:
        raise ValueError('scheme "steps" must be a non-empty list')
    entries = data["steps"]
    times, rotations = np.empty(len(entries)), None
    for j, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict) or "t" not in entry or "rotations" not in entry:
                raise ValueError('each step needs "t" and "rotations"')
            _check_json_numbers(entry["t"], 0, 'step "t"')
            try:
                times[j] = float(entry["t"])
            except OverflowError:  # an integer beyond float range
                times[j] = np.inf
            if not np.isfinite(times[j]) or times[j] <= 0.0:  # before the rotations, as `Scheme` checks
                raise ValueError("step times must be positive and finite")
            try:
                rots = np.asarray(entry["rotations"], dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise ValueError("step rotations must be numeric 3x3 matrices") from None
            if rots.shape != (n, 3, 3):
                raise ValueError(
                    f"step must list one 3x3 rotation per spin (expected shape {(n, 3, 3)}, got {rots.shape})"
                )
            _check_json_numbers(entry["rotations"], 3, "step rotations")
        except ValueError:
            if j:  # the steps before it were read whole: a defect there comes first
                Scheme._from_arrays(kind, times[:j], rotations[:j])
            raise
        if rotations is None:  # sized once a step has shown that "n" spins are there
            rotations = np.empty((len(entries), n, 3, 3))
        rotations[j] = rots
    return Scheme._from_arrays(kind, times, rotations)
