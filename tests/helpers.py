"""Shared seeded generators for test inputs, and dense references."""

import numpy as np

from spinrev import (
    build_hamiltonian,
    evolve,
    kron_all,
    lift_rotations,
    operator_norm,
    random_special_unitary,
    su2_to_so3,
)
from spinrev.schemes import Scheme, SchemeKind, Step, conjugate


def random_rotation(rng):
    return su2_to_so3(random_special_unitary(rng))


def random_weights(rng, n, low=0.2, high=1.5):
    """Symmetric zero-diagonal weights with nonzero signed entries."""
    W = np.zeros((n, n))
    for k in range(n):
        for l in range(k + 1, n):
            w = rng.uniform(low, high) * (1.0 if rng.random() < 0.5 else -1.0)
            W[k, l] = W[l, k] = w
    return W


def random_coupling(rng, n):
    """Raw symmetric coupling with zero diagonal blocks (not of W (x) A form)."""
    J = rng.normal(size=(3 * n, 3 * n))
    J = 0.5 * (J + J.T)
    for k in range(n):
        J[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = 0.0
    return J


def random_scheme(rng, n, n_steps=3, kind=SchemeKind.INVERSION, collective=False):
    steps = []
    for _ in range(n_steps):
        if collective:
            rotations = np.tile(random_rotation(rng), (n, 1, 1))
        else:
            rotations = np.stack([random_rotation(rng) for _ in range(n)])
        steps.append(Step(float(rng.uniform(0.1, 1.0)), rotations))
    return Scheme(kind, tuple(steps))


def block_diag_rotations(rotations):
    """3n x 3n block-diagonal assembly, one 3x3 rotation per spin (dense
    reference for `conjugate` and `average_coupling`)."""
    rotations = np.asarray(rotations, dtype=float)
    n = rotations.shape[0]
    V = np.zeros((3 * n, 3 * n))
    for k in range(n):
        V[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = rotations[k]
    return V


def upper_block_columns(J, assemblies):
    """vec(V J V^T) over the k < l blocks, pairs in row-major order, one
    column per assembly, through `conjugate` (dense reference for the
    search's image-table columns; any rotations)."""
    images = conjugate(assemblies, J)
    n = images.shape[-1] // 3
    k, l = np.triu_indices(n, 1)
    blocks = np.swapaxes(images.reshape(-1, n, 3, n, 3), 2, 3)[:, k, l]
    return np.ascontiguousarray(blocks.reshape(len(images), -1).T)


def cycle(J, scheme, eps, lifts=None):
    """Dense reference for one pulse cycle at time scale eps: the product of
    the steps' v^dag exp(-i H t eps) v, step 1 first in time (rightmost),
    each evolution through its own eigen-solve of H.  v is the kron of the
    step's spin-1/2 lifts: `lifts`, (S, n, 2, 2), when given, else those
    of `lift_rotations`."""
    H = build_hamiltonian(J)
    lifts = lift_rotations(scheme.rotations) if lifts is None else lifts
    product = np.eye(H.shape[0], dtype=complex)
    for t, step_lifts in zip(scheme.times, lifts):
        v = kron_all(step_lifts)
        product = (v.conj().T @ evolve(H, t * eps) @ v) @ product
    return product


def hand_built_errors(J, scheme, eps_list):
    """Dense reference for `error_scaling`: ||cycle - exp(+i H eps)||."""
    H = build_hamiltonian(J)
    return [operator_norm(cycle(J, scheme, eps) - evolve(H, -eps)) for eps in eps_list]
