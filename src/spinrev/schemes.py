"""Pulse schemes acting on coupling matrices.

A scheme is an ordered list of steps, each a relative time and one
rotation per spin.  The block-diagonal assembly of a step's rotations
conjugates the coupling, and the time-weighted sum of the conjugates is
the first-order average; inversion schemes average the coupling to its
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
from itertools import chain

import numpy as np

from .coupling import CouplingClass, _check_json_numbers, _checked, _factored, _is_integer, classify_type
from .rotations import AXES, AXIS_INDEX, _frobenius, axis_cycle, check_rotation


class SchemeKind(enum.Enum):
    INVERSION = "inversion"
    DECOUPLING = "decoupling"


@dataclass(frozen=True)
class Step:
    """One scheme step: a relative time and one rotation per spin.

    `rotations` is a read-only float64 array.  A read-only array that owns
    its data is kept as given; any other input is copied, so writes to the
    caller's array or its base never reach the step.
    """

    t: float
    rotations: np.ndarray  # shape (n, 3, 3)

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        rotations = self.rotations
        if not (
            type(rotations) is np.ndarray
            and rotations.dtype == np.float64
            and rotations.flags.owndata
            and not rotations.flags.writeable
        ):
            rotations = np.array(rotations, dtype=float)
            rotations.flags.writeable = False
        object.__setattr__(self, "rotations", rotations)


@dataclass(frozen=True)
class Scheme:
    """A pulse scheme; construction validates every step.

    Schemes are treated as immutable after construction.
    """

    kind: SchemeKind
    steps: tuple[Step, ...]

    def __post_init__(self):
        if not isinstance(self.kind, SchemeKind):
            raise ValueError("scheme kind must be SchemeKind.INVERSION or SchemeKind.DECOUPLING")
        if len(self.steps) == 0:
            raise ValueError("scheme needs at least one step")
        # rotations wait in `pending` for one stacked check per chunk; a step
        # with a structural defect first checks the steps before it, so the
        # error raised is always the first defect in step order
        pending = []
        for step in self.steps:
            defect = self._defect(step)
            if defect is not None:
                _check_step_rotations(pending)
                raise ValueError(defect)
            pending.append(step.rotations)
            if len(pending) * self.n >= _CHECK_ROTATIONS:
                _check_step_rotations(pending)
                pending = []
        _check_step_rotations(pending)

    def _defect(self, step: Step) -> str | None:
        """The message for a step's time or shape defect, None if it has none."""
        if not np.isfinite(step.t) or step.t <= 0.0:
            return "step times must be positive and finite"
        rots = step.rotations
        if rots.ndim != 3 or rots.shape[1:] != (3, 3):
            return "step rotations must have shape (n, 3, 3)"
        if rots.shape[0] != self.n:
            return "every step must address the same number of spins"
        return None

    @property
    def n(self) -> int:
        return self.steps[0].rotations.shape[0]


# rotations per stacked `check_rotation` call: its (k, 3, 3) temporaries
# stay near 75 KB each, a few hundred KB in all
_CHECK_ROTATIONS = 1024


def _check_step_rotations(stacks: list) -> None:
    """`check_rotation` over several steps' (n, 3, 3) rotations in one call.

    On a failure the steps are checked again one at a time, so the error
    names the first failing step's defect, as a per-step check would."""
    if not stacks:
        return
    try:
        check_rotation(np.concatenate(stacks), tol=1e-12)
    except ValueError:
        for rots in stacks:
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


def block_diag_rotations(rotations) -> np.ndarray:
    """3n x 3n block-diagonal assembly, one 3x3 rotation per spin (dense
    reference for `conjugate` and `average_coupling`)."""
    rotations = np.asarray(rotations, dtype=float)
    n = rotations.shape[0]
    V = np.zeros((3 * n, 3 * n))
    for k in range(n):
        V[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = rotations[k]
    return V


def conjugate(rotations, J) -> np.ndarray:
    """V J V^T for V = block_diag_rotations(rotations), in O(n^2) per assembly.

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
    steps' rotations stacked as X, one 9n-wide row per step, M is
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
    t = np.array([step.t for step in scheme.steps])
    X = np.stack([step.rotations for step in scheme.steps]).reshape(len(t), 9 * n)
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
    norm = _frobenius(coupling.J)
    if norm == 0.0:
        raise ValueError("zero coupling: verification is undefined")
    avg = average_coupling(scheme, coupling)
    if scheme.kind is SchemeKind.INVERSION:
        avg += coupling.J
    residual = _frobenius(avg) / norm
    return VerifyResult(residual <= tol, residual)


def inversion_to_decoupling(scheme: Scheme) -> Scheme:
    """Prepend an identity step of unit time, so the averages sum to zero."""
    if scheme.kind is not SchemeKind.INVERSION:
        raise ValueError("expected an inversion scheme")
    first = Step(1.0, np.tile(np.eye(3), (scheme.n, 1, 1)))
    return Scheme(SchemeKind.DECOUPLING, (first,) + scheme.steps)


def decoupling_to_inversion(scheme: Scheme) -> Scheme:
    """Fold the first step into the rest: times t_j/t_0, rotations V_0^T V_j.

    When the original steps average the coupling to zero, the folded
    steps average it to its negative, giving an inversion scheme with one
    step fewer.
    """
    if scheme.kind is not SchemeKind.DECOUPLING:
        raise ValueError("expected a decoupling scheme")
    if len(scheme.steps) < 2:
        raise ValueError("conversion needs at least 2 steps")
    first, rest = scheme.steps[0], scheme.steps[1:]
    rotations = np.matmul(np.swapaxes(first.rotations, 1, 2), np.stack([step.rotations for step in rest]))
    return Scheme(SchemeKind.INVERSION, tuple(Step(step.t / first.t, r) for step, r in zip(rest, rotations)))


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
    steps = []
    for power in (S, S @ S):
        R = Q @ power @ Q.T
        steps.append(Step(1.0, np.tile(R, (n, 1, 1))))
    return Scheme(SchemeKind.INVERSION, tuple(steps))


def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester sign matrix of power-of-two order m (entries +-1, H H^T = m 1)."""
    if not isinstance(m, (int, np.integer)) or m < 1 or (m & (m - 1)) != 0:
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
    return Scheme(SchemeKind.DECOUPLING, tuple(Step(1.0 / len(stack), rots) for rots in stack))


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
    steps = []
    for target in range(3):
        a = lam[target]
        if abs(a) <= cut:
            continue
        opposite = [b for b in range(3) if abs(lam[b]) > cut and (lam[b] < 0.0) != (a < 0.0)]
        pivot = min(opposite, key=lambda b: (-abs(lam[b]), b))
        frame = Q @ _plane_quarter_turn(pivot, target)
        scale = abs(a / lam[pivot])
        stack = np.matmul(np.matmul(frame, _sign_fragment(n, AXES[pivot])), Q.T)
        steps.extend(Step(1.0 / len(stack) * scale, rots) for rots in stack)
    return Scheme(SchemeKind.INVERSION, tuple(steps))


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
    tau = float(sum(step.t for step in scheme.steps))
    collective = all(
        float(np.abs(step.rotations - step.rotations[0]).max()) <= 1e-12
        for step in scheme.steps
    )
    return SchemeStats(len(scheme.steps), tau, collective)


def scheme_to_dict(scheme: Scheme) -> dict:
    """JSON form: {"kind", "n", "steps": [{"t", "rotations"}]} with one
    row-major 3x3 rotation per spin."""
    return {
        "kind": scheme.kind.value,
        "n": scheme.n,
        "steps": [
            {"t": float(step.t), "rotations": np.asarray(step.rotations).tolist()}
            for step in scheme.steps
        ],
    }


def _scheme_json_chunks(scheme: Scheme):
    """`json.dumps(scheme_to_dict(scheme))` in pieces: the head, one step at
    a time, then the tail, so a large scheme is never one nested list.

    Each distinct 3x3 rotation is encoded once, as `json.dumps(R.tolist())`;
    the cache is keyed by the matrix's bytes, so 0.0 and -0.0 stay apart."""
    encoded = _EncodedRotations()
    yield f'{{"kind": {json.dumps(scheme.kind.value)}, "n": {scheme.n}, "steps": ['
    for i, step in enumerate(scheme.steps):
        raw = step.rotations.tobytes()
        rotations = ", ".join([encoded[raw[k : k + 72]] for k in range(0, len(raw), 72)])
        chunk = f'{{"t": {json.dumps(step.t)}, "rotations": [{rotations}]}}'
        yield chunk if i == 0 else ", " + chunk
    yield "]}"


class _EncodedRotations(dict):
    """The JSON text of each 3x3 float64 rotation, keyed by its 72 bytes."""

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = json.dumps(np.frombuffer(raw).reshape(3, 3).tolist())
        return text


def _step_object_hook(obj: dict) -> dict:
    """`json.load` object hook for scheme files: decoded one object at a
    time, each step's "rotations" become one float64 array as soon as the
    step is read, so the lists and float objects of a large scheme are
    never all alive at once.  The array owns its data and is read-only,
    so `Step` keeps it without a copy.  Rotations that are not a (k, 3, 3)
    nest of int and float leaves stay as decoded, for `scheme_from_dict`
    to report."""
    rotations = obj.get("rotations")
    if type(rotations) is list:
        array = _rotation_array(rotations)
        if array is not None:
            obj["rotations"] = array
    return obj


def _rotation_array(spins: list) -> np.ndarray | None:
    """A non-empty (k, 3, 3) nest of int and float leaves as one read-only
    float64 array, None for anything else.

    C-level `set(map(...))` passes check the nest and `chain` flattens it,
    so no Python loop runs per leaf.  The upper levels need only their
    lengths checked: a decoded dict or string of length 3 yields strings,
    which the leaf check rejects, as it rejects bool (JSON true)."""
    level = spins
    try:
        for _ in range(2):
            if set(map(len, level)) != {3}:
                return None
            level = list(chain.from_iterable(level))
    except TypeError:  # a scalar where a list belongs
        return None
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        array = np.array(level, dtype=float)
    except OverflowError:  # an integer beyond float range
        return None
    array.shape = (len(spins), 3, 3)
    array.flags.writeable = False
    return array


def scheme_from_dict(data) -> Scheme:
    """Parse the scheme JSON form; unknown keys are ignored.

    Step rotations may be nested lists or, as `_step_object_hook` leaves
    them, numeric arrays; both take the same checks."""
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
    steps = []
    for entry in data["steps"]:
        if not isinstance(entry, dict) or "t" not in entry or "rotations" not in entry:
            raise ValueError('each step needs "t" and "rotations"')
        try:
            rotations = np.asarray(entry["rotations"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("step rotations must be numeric 3x3 matrices") from None
        if rotations.shape != (n, 3, 3):
            raise ValueError(
                f"step must list one 3x3 rotation per spin (expected shape {(n, 3, 3)}, got {rotations.shape})"
            )
        _check_json_numbers(entry["rotations"], 3, "step rotations")
        _check_json_numbers(entry["t"], 0, 'step "t"')
        try:
            t = float(entry["t"])
        except OverflowError:  # an integer beyond float range
            raise ValueError("step times must be positive and finite") from None
        steps.append(Step(t, rotations))
    return Scheme(kind, tuple(steps))
