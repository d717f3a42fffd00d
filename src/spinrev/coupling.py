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
from itertools import chain

import numpy as np

from .rotations import sym_eig

DEFAULT_CLASSIFY_TOL = 1e-9


class CouplingClass(enum.Enum):
    """Spectral classification of a type matrix."""

    TRACELESS = "1"      # zero trace: two collective steps invert it
    MIXED_SIGN = "2"     # both signs, nonzero trace: selective pulses, n-free overhead
    SEMIDEFINITE = "3"   # single-signed spectrum: steps and overhead grow with n


def _check_finite(M, name: str) -> None:
    # NaN compares false, so the symmetry checks below would let it through
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries (NaN or infinity)")


def check_type_matrix(A) -> np.ndarray:
    """Validate a symmetric 3x3 type matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError(f"type matrix must be 3x3, got shape {A.shape}")
    _check_finite(A, "type matrix")
    if np.abs(A - A.T).max() > 1e-12 * max(float(np.linalg.norm(A)), 1.0):
        raise ValueError("type matrix is not symmetric")
    return A


def check_weight_matrix(W) -> np.ndarray:
    """Validate a symmetric weight matrix with exactly zero diagonal, n >= 2."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {W.shape}")
    if W.shape[0] < 2:
        raise ValueError("weight matrix needs at least 2 spins")
    _check_finite(W, "weight matrix")
    if np.abs(W - W.T).max() > 1e-12 * max(float(np.linalg.norm(W)), 1.0):
        raise ValueError("weight matrix is not symmetric")
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
    _check_finite(J, "coupling matrix")
    if np.abs(J - J.T).max() > 1e-12 * max(float(np.linalg.norm(J)), 1.0):
        raise ValueError("coupling matrix is not symmetric (block (l,k) must be the transpose of block (k,l))")
    n = J.shape[0] // 3
    for k in range(n):
        if np.any(J[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] != 0.0):
            raise ValueError("coupling matrix diagonal blocks must be exactly zero")
    return J


def n_spins(J) -> int:
    return np.asarray(J).shape[0] // 3


def coupling_block(J, k: int, l: int) -> np.ndarray:
    """The 3x3 interaction tensor between spins k and l."""
    return np.asarray(J)[3 * k : 3 * k + 3, 3 * l : 3 * l + 3]


def tensor_coupling(W, A) -> np.ndarray:
    """Coupling with block (k, l) = w_kl * A, i.e. the Kronecker product W (x) A."""
    W = check_weight_matrix(W)
    A = check_type_matrix(A)
    return np.kron(W, A)


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
    """Classify a type matrix by its trace and eigenvalue signs.

    Eigenvalues with |lam| <= tol * ||A||_F count as zero; the zero matrix
    is rejected since there is nothing to invert.
    """
    A = check_type_matrix(A)
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        raise ValueError("type matrix is zero: nothing to invert")
    cut = tol * scale
    if abs(float(np.trace(A))) <= cut:
        return CouplingClass.TRACELESS
    lam = sym_eig(A).eigenvalues
    if np.any(lam > cut) and np.any(lam < -cut):
        return CouplingClass.MIXED_SIGN
    return CouplingClass.SEMIDEFINITE


def classification_margins(A, tol: float = DEFAULT_CLASSIFY_TOL) -> dict:
    """Classification plus the quantities it was decided on, for reporting.

    The trace margin |tr A| / ||A||_F is the distance from the boundary
    between the traceless class and the other two.
    """
    A = check_type_matrix(A)
    label = classify_type(A, tol)
    lam = sym_eig(A).eigenvalues
    scale = float(np.linalg.norm(A))
    return {
        "case": label.value,
        "eigenvalues": [float(x) for x in lam],
        "trace": float(np.trace(A)),
        "trace_margin": abs(float(np.trace(A))) / scale,
        "tol": float(tol),
    }


@dataclass(frozen=True)
class CouplingInput:
    """A coupling as read from JSON: the full matrix, plus factors if given."""

    n: int
    J: np.ndarray
    W: np.ndarray | None = None
    A: np.ndarray | None = None

    @property
    def factored(self) -> bool:
        return self.W is not None


def coupling_from_dict(data) -> CouplingInput:
    """Parse {"n":…, "W":…, "A":…} or {"n":…, "J":…} into a CouplingInput.

    Errors name the violated invariant.
    """
    if not isinstance(data, dict):
        raise ValueError("coupling file must hold a JSON object")
    if "n" not in data:
        raise ValueError('coupling file is missing "n"')
    n = data["n"]
    if type(n) is not int or n < 2:
        raise ValueError('"n" must be an integer >= 2')
    if "W" in data or "A" in data:
        if "W" not in data or "A" not in data:
            raise ValueError('factored coupling needs both "W" and "A"')
        W = _as_matrix(data["W"], "W")
        A = _as_matrix(data["A"], "A")
        if W.shape != (n, n):
            raise ValueError(f'"W" must be {n}x{n}, got shape {W.shape}')
        if A.shape != (3, 3):
            raise ValueError(f'"A" must be 3x3, got shape {A.shape}')
        W = check_weight_matrix(W)
        A = check_type_matrix(A)
        return CouplingInput(n, tensor_coupling(W, A), W, A)
    if "J" in data:
        J = _as_matrix(data["J"], "J")
        if J.shape != (3 * n, 3 * n):
            raise ValueError(f'"J" must be {3 * n}x{3 * n}, got shape {J.shape}')
        return CouplingInput(n, check_coupling_matrix(J))
    raise ValueError('coupling file needs either "W" and "A" or "J"')


def _as_matrix(value, name):
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f'"{name}" must be a rectangular numeric array') from None
    _check_json_numbers(value, M.ndim, f'"{name}"')
    return M


def _check_json_numbers(value, ndim: int, field: str) -> None:
    """Reject any leaf of a regular ndim-deep nested list that is not a JSON
    number.  float() and np.asarray(..., dtype=float) read true as 1.0 and
    "2.5" as 2.5, and bool is an int subclass, so the test is on exact
    types, in one pass over the leaves."""
    leaves = [value] if ndim == 0 else value
    for _ in range(ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise ValueError(
            f"{field} must be a number" if ndim == 0 else f"{field} must hold only numbers, not booleans or strings"
        )
