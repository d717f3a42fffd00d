"""Shared seeded generators for test inputs."""

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
from spinrev.schemes import Scheme, SchemeKind, Step


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


def hand_built_errors(J, scheme, eps_list):
    """Dense reference for `error_scaling`: the cycle as a product of lifted
    conjugated evolutions, each through its own eigen-solve of H."""
    H = build_hamiltonian(J)
    errors = []
    for eps in eps_list:
        product = np.eye(H.shape[0], dtype=complex)
        for step in scheme.steps:
            v = kron_all(lift_rotations(step.rotations))
            product = (v.conj().T @ evolve(H, step.t * eps) @ v) @ product
        errors.append(operator_norm(product - evolve(H, -eps)))
    return errors
