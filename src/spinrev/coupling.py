"""Coupling matrices for n interacting spins.

A coupling is a symmetric 3n x 3n matrix of 3x3 blocks, block (k, l)
holding the interaction tensor between spins k and l (diagonal blocks are
zero, and block (l, k) is the transpose of block (k, l)).  When every pair
interacts through one common type matrix A with pair weights W the
coupling factors as the Kronecker product W (x) A, and the spectrum of A
decides how hard the coupling is to time-invert: traceless types flip
under two collective steps, mixed-sign types need selective addressing
but n-independent overhead, semidefinite types force both the step count
and the overhead to grow with n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .rotations import SymSpectrum, _frobenius, check_symmetric, sym_eig

DEFAULT_CLASSIFY_TOL = 1e-9


class CouplingClass(enum.Enum):
    """Spectral classification of a type matrix."""

    TRACELESS = "1"      # zero trace: two collective steps invert it
    MIXED_SIGN = "2"     # both signs, nonzero trace: selective pulses, n-free overhead
    SEMIDEFINITE = "3"   # single-signed spectrum: steps and overhead grow with n


def check_type_matrix(A) -> np.ndarray:
    """Validate a symmetric 3x3 type matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError(f"type matrix must be 3x3, got shape {A.shape}")
    check_symmetric(A, "type matrix")
    return A


def check_weight_matrix(W) -> np.ndarray:
    """Validate a symmetric weight matrix with exactly zero diagonal, n >= 2."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {W.shape}")
    if W.shape[0] < 2:
        raise ValueError("weight matrix needs at least 2 spins")
    check_symmetric(W, "weight matrix")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("weight matrix diagonal must be exactly zero")
    return W


def check_coupling_matrix(J) -> np.ndarray:
    """Validate a symmetric 3n x 3n coupling matrix with zero diagonal blocks."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"coupling matrix must be square, got shape {J.shape}")
    if J.shape[0] % 3 != 0 or J.shape[0] < 6:
        raise ValueError("coupling matrix must be 3n x 3n with n >= 2")
    check_symmetric(J, "coupling matrix", " (block (l,k) must be the transpose of block (k,l))")
    n = J.shape[0] // 3
    for k in range(n):
        if np.any(J[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] != 0.0):
            raise ValueError("coupling matrix diagonal blocks must be exactly zero")
    return J


def tensor_coupling(W, A) -> np.ndarray:
    """Coupling with block (k, l) = w_kl * A, i.e. the Kronecker product W (x) A."""
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    with np.errstate(over="ignore"):
        J = np.kron(W, A)
    if not np.isfinite(J).all():
        raise ValueError("coupling matrix W (x) A overflows float64")
    return J


def complete_weights(n: int) -> np.ndarray:
    """Complete-graph weights: every off-diagonal entry 1."""
    if n < 2:
        raise ValueError("need at least 2 spins")
    return np.ones((n, n)) - np.eye(n)


def dipole_type() -> np.ndarray:
    """Truncated dipole-dipole type matrix diag(1, 1, -2) (traceless)."""
    return np.diag([1.0, 1.0, -2.0])


def scalar_type() -> np.ndarray:
    """Strong scalar (isotropic exchange) type matrix: the identity."""
    return np.eye(3)


def classify_type(A, tol: float = DEFAULT_CLASSIFY_TOL) -> CouplingClass:
    """Classify a type matrix, or a factored CouplingInput's, by its trace
    and eigenvalue signs (see `classification_margins`)."""
    return CouplingClass(classification_margins(A, tol)["case"])


def classification_margins(A, tol: float = DEFAULT_CLASSIFY_TOL) -> dict:
    """Classification plus the quantities it was decided on, for reporting.

    Eigenvalues with |lam| <= tol * ||A||_F count as zero; the zero matrix
    is rejected since there is nothing to invert.  The trace margin
    |tr A| / ||A||_F is the distance from the boundary between the
    traceless class and the other two.
    """
    if isinstance(A, CouplingInput):
        coupling = _factored(A)
        A, lam = coupling.A, coupling.spectrum.eigenvalues
    else:
        A = check_type_matrix(A)
        lam = sym_eig(A).eigenvalues
    scale = _frobenius(A)
    if scale == 0.0:
        raise ValueError("type matrix is zero: nothing to invert")
    cut = tol * scale
    trace = float(np.trace(A))
    if abs(trace) <= cut:
        label = CouplingClass.TRACELESS
    elif np.any(lam > cut) and np.any(lam < -cut):
        label = CouplingClass.MIXED_SIGN
    else:
        label = CouplingClass.SEMIDEFINITE
    return {
        "case": label.value,
        "eigenvalues": [float(x) for x in lam],
        "trace": trace,
        "trace_margin": abs(trace) / scale,
        "tol": float(tol),
    }


@dataclass(frozen=True)
class CouplingInput:
    """A checked coupling: read-only copies of the full matrix J and, when
    factored, of W and A.  What they determine is read off them on first
    use and kept read-only: n, ||J||_F, J's eigenvalues and A's spectrum.
    Made by `coupling_from_dict`, `_checked` and `_factored`; building one
    by hand skips the checks."""

    J: np.ndarray
    W: np.ndarray | None = None
    A: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.J.shape[0] // 3

    @property
    def factored(self) -> bool:
        return self.W is not None

    @cached_property
    def norm(self) -> float:
        """||J||_F, taken once for every verdict of one job."""
        return _frobenius(self.J)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """J's eigenvalues, ascending: every bound and audit of one job
        reads this one solve."""
        return _read_only(np.linalg.eigvalsh(self.J))

    @cached_property
    def spectrum(self) -> SymSpectrum | None:
        """A's canonical `sym_eig` spectrum, or None for a raw J."""
        if self.A is None:
            return None
        spectrum = sym_eig(self.A)
        return SymSpectrum(_read_only(spectrum.eigenvalues), _read_only(spectrum.eigenvectors))


def _checked(J) -> CouplingInput:
    """A CouplingInput as is, or a raw J checked once."""
    if isinstance(J, CouplingInput):
        return J
    return CouplingInput(_read_only(check_coupling_matrix(J)))


def _factored(W, A=None) -> CouplingInput:
    """A factored CouplingInput as is, or raw W and A checked once each,
    with J = W (x) A checked."""
    if isinstance(W, CouplingInput):
        if A is not None or not W.factored:
            raise ValueError("expected a factored coupling, or W and A")
        return W
    J = _read_only(check_coupling_matrix(tensor_coupling(W, A)))
    return CouplingInput(J, _read_only(W), _read_only(A))


def _resolved(W, A=None) -> CouplingInput:
    """Raw W and A, or a coupling given alone (raw J or a CouplingInput,
    factored or not), as a CouplingInput."""
    return _checked(W) if A is None else _factored(W, A)


def _read_only(M) -> np.ndarray:
    M = np.array(M, dtype=float)
    M.setflags(write=False)
    return M


def coupling_from_dict(data) -> CouplingInput:
    """Parse {"n":…, "W":…, "A":…} or {"n":…, "J":…} into a CouplingInput.

    Errors name the violated invariant.
    """
    if not isinstance(data, dict):
        raise ValueError("coupling file must hold a JSON object")
    if "n" not in data:
        raise ValueError('coupling file is missing "n"')
    n = data["n"]
    if not _is_integer(n) or n < 2:
        raise ValueError('"n" must be an integer >= 2')
    n = int(n)
    if "W" in data or "A" in data:
        if "W" not in data or "A" not in data:
            raise ValueError('factored coupling needs both "W" and "A"')
        W = _as_matrix(data["W"], "W")
        A = _as_matrix(data["A"], "A")
        if W.shape != (n, n):
            raise ValueError(f'"W" must be {n}x{n}, got shape {W.shape}')
        if A.shape != (3, 3):
            raise ValueError(f'"A" must be 3x3, got shape {A.shape}')
        return _factored(W, A)
    if "J" in data:
        J = _as_matrix(data["J"], "J")
        if J.shape != (3 * n, 3 * n):
            raise ValueError(f'"J" must be {3 * n}x{3 * n}, got shape {J.shape}')
        return _checked(J)
    raise ValueError('coupling file needs either "W" and "A" or "J"')


def _as_matrix(value, name):
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f'"{name}" must be a rectangular numeric array') from None
    _check_json_numbers(value, M.ndim, f'"{name}"')
    return M


def _is_integer(value) -> bool:
    """An int or a numpy integer scalar, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_json_numbers(value, ndim: int, field: str) -> None:
    """Reject any leaf of a regular ndim-deep nested list that is not a JSON
    number.  float() and np.asarray(..., dtype=float) read true as 1.0 and
    "2.5" as 2.5, and bool is an int subclass, so the test is on the leaf
    types, in one pass over the leaves: int, float and numpy integer and
    floating scalars pass, bool and np.bool_ do not.  An ndarray is walked
    like a list, so only integer and float dtypes pass."""
    leaves = [value] if ndim == 0 else value
    for _ in range(ndim - 1):
        leaves = chain.from_iterable(leaves)
    kinds = set(map(type, leaves))
    if bool in kinds or not all(issubclass(kind, (int, float, np.integer, np.floating)) for kind in kinds):
        raise ValueError(
            f"{field} must be a number" if ndim == 0 else f"{field} must hold only numbers, not booleans or strings"
        )
