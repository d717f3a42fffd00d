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

import numpy as np

from .coupling import (
    CouplingClass,
    _check_json_numbers,
    check_coupling_matrix,
    check_type_matrix,
    check_weight_matrix,
    classify_type,
    n_spins,
)
from .rotations import AXES, AXIS_INDEX, axis_cycle, check_rotation, sym_eig


class SchemeKind(enum.Enum):
    INVERSION = "inversion"
    DECOUPLING = "decoupling"


@dataclass(frozen=True)
class Step:
    """One scheme step: a relative time and one rotation per spin."""

    t: float
    rotations: np.ndarray  # shape (n, 3, 3)

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=float))


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
        for step in self.steps:
            if not np.isfinite(step.t) or step.t <= 0.0:
                raise ValueError("step times must be positive and finite")
            rots = step.rotations
            if rots.ndim != 3 or rots.shape[1:] != (3, 3):
                raise ValueError("step rotations must have shape (n, 3, 3)")
            if rots.shape[0] != self.n:
                raise ValueError("every step must address the same number of spins")
            check_rotation(rots, tol=1e-12)

    @property
    def n(self) -> int:
        return self.steps[0].rotations.shape[0]


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
    """3n x 3n block-diagonal assembly, one 3x3 rotation per spin (dense reference for `conjugate`)."""
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


def average_coupling(scheme: Scheme, J) -> np.ndarray:
    """Time-weighted average sum_j t_j V_j J V_j^T over the scheme's steps."""
    J = check_coupling_matrix(J)
    if n_spins(J) != scheme.n:
        raise ValueError(
            f"dimension mismatch: scheme addresses {scheme.n} spins, coupling has {n_spins(J)}"
        )
    out = np.zeros_like(J)
    for step in scheme.steps:
        out += step.t * conjugate(step.rotations, J)
    return out


def verify(scheme: Scheme, J, tol: float = 1e-9) -> VerifyResult:
    """Check the averaging condition at a relative Frobenius tolerance.

    Inversion schemes are verified against -J, decoupling schemes against
    zero; the residual is normalized by ||J||_F.
    """
    J = check_coupling_matrix(J)
    norm = float(np.linalg.norm(J))
    if norm == 0.0:
        raise ValueError("zero coupling: verification is undefined")
    avg = average_coupling(scheme, J)
    if scheme.kind is SchemeKind.INVERSION:
        residual = float(np.linalg.norm(avg + J)) / norm
    else:
        residual = float(np.linalg.norm(avg)) / norm
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
    first = scheme.steps[0]
    identity_first = bool(
        np.array_equal(first.rotations, np.tile(np.eye(3), (scheme.n, 1, 1)))
    )
    folded = []
    for step in scheme.steps[1:]:
        if identity_first:
            rotations = step.rotations
        else:
            rotations = np.matmul(
                np.transpose(first.rotations, (0, 2, 1)), step.rotations
            )
        folded.append(Step(step.t / first.t, rotations))
    return Scheme(SchemeKind.INVERSION, tuple(folded))


def synthesize_case1(W, A, tol: float = 1e-9) -> Scheme:
    """Two-step collective inversion for a traceless type matrix.

    In the eigenframe of A the two steps conjugate every spin by the
    first and second powers of the axis cycle; the cyclic sums of a
    traceless diagonal equal its negative, so unit times give an exact
    inversion with step count 2 and overhead 2, never touching spins
    selectively.
    """
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    if classify_type(A, tol) is not CouplingClass.TRACELESS:
        raise ValueError("collective 2-step synthesis needs a traceless type matrix")
    n = W.shape[0]
    Q = sym_eig(A).eigenvectors
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


def synthesize_case2(W, A, tol: float = 1e-9) -> Scheme:
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
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    if classify_type(A, tol) is CouplingClass.SEMIDEFINITE:
        raise ValueError(
            "selective synthesis needs eigenvalues of both signs; "
            "semidefinite type matrices have no constructive scheme"
        )
    n = W.shape[0]
    spectrum = sym_eig(A)
    lam = spectrum.eigenvalues
    Q = spectrum.eigenvectors
    cut = tol * float(np.linalg.norm(A))
    steps = []
    for target in range(3):
        a = lam[target]
        if abs(a) <= cut:
            continue
        opposite = [b for b in range(3) if abs(lam[b]) > cut and lam[b] * a < 0.0]
        pivot = min(opposite, key=lambda b: (-abs(lam[b]), b))
        frame = Q @ _plane_quarter_turn(pivot, target)
        scale = abs(a / lam[pivot])
        stack = np.matmul(np.matmul(frame, _sign_fragment(n, AXES[pivot])), Q.T)
        steps.extend(Step(1.0 / len(stack) * scale, rots) for rots in stack)
    return Scheme(SchemeKind.INVERSION, tuple(steps))


def _plane_quarter_turn(src: int, dst: int) -> np.ndarray:
    """Rotation mapping coordinate axis src onto axis dst."""
    if src == dst:
        return np.eye(3)
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
    """`json.dumps(scheme_to_dict(scheme))` in pieces: the head, then one
    C-encoded step at a time, so a large scheme is never one nested list."""
    yield f'{{"kind": {json.dumps(scheme.kind.value)}, "n": {scheme.n}, "steps": ['
    for i, step in enumerate(scheme.steps):
        chunk = json.dumps({"t": float(step.t), "rotations": step.rotations.tolist()})
        yield chunk if i == 0 else ", " + chunk
    yield "]}"


def scheme_from_dict(data) -> Scheme:
    """Parse the scheme JSON form; unknown keys are ignored."""
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
    if type(n) is not int or n < 1:
        raise ValueError('scheme "n" must be a positive integer')
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
