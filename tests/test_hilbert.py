"""Exact Hilbert-space oracle: builds, conjugation, evolution, error scaling."""

import tracemalloc

import numpy as np
import pytest

from spinrev import (
    Scheme,
    SchemeKind,
    Step,
    axis_cycle,
    build_hamiltonian,
    complete_weights,
    conjugation_consistency,
    coupling_from_dict,
    dipole_type,
    error_scaling,
    evolve,
    kron_all,
    lift_rotations,
    octahedral_group,
    operator_norm,
    pi_rotation,
    random_special_unitary,
    scalar_type,
    synthesize_case1,
    synthesize_case2,
    tensor_coupling,
)
from spinrev import hilbert
from spinrev.hilbert import _lanczos_norm

from helpers import cycle, hand_built_errors, random_coupling, random_rotation, random_weights

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def seeded_dipole_3(seed=0):
    rng = np.random.default_rng(seed)
    W = np.zeros((3, 3))
    for k in range(3):
        for l in range(k + 1, 3):
            W[k, l] = W[l, k] = rng.uniform(-1.0, 1.0)
    return W, tensor_coupling(W, dipole_type())


def rotated_traceless_3(seed=0):
    """(W, A): the dipole type turned off its eigenframe, so that xy/yz
    cross terms make H complex."""
    W, _ = seeded_dipole_3(seed)
    R = random_rotation(np.random.default_rng(seed))
    A = R @ dipole_type() @ R.T
    return W, 0.5 * (A + A.T)


def mixed_pair_types():
    """(J, scheme): a raw 3-spin J whose three pair types share no frame,
    with xy cross terms that make H complex, and the collective axis cycle,
    which inverts every traceless pair type whose three off-diagonal
    entries sum to zero."""
    types = {
        (0, 1): [[1.0, 1.0, 0.0], [1.0, -1.0, -1.0], [0.0, -1.0, 0.0]],
        (0, 2): [[0.0, 1.0, 1.0], [1.0, 0.0, -2.0], [1.0, -2.0, 0.0]],
        (1, 2): np.diag([1.0, 1.0, -2.0]),
    }
    J = np.zeros((9, 9))
    for (k, l), B in types.items():
        J[3 * k : 3 * k + 3, 3 * l : 3 * l + 3] = B
        J[3 * l : 3 * l + 3, 3 * k : 3 * k + 3] = np.transpose(B)
    S = axis_cycle()
    return J, Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(S, (3, 1, 1))), Step(1.0, np.tile(S @ S, (3, 1, 1)))))


class TestBuildHamiltonian:
    def test_single_zz_pair(self):
        J = np.zeros((6, 6))
        J[2, 5] = J[5, 2] = 1.0
        assert np.array_equal(build_hamiltonian(J), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_two_spin_dipole_against_kron_oracle(self):
        J = tensor_coupling(complete_weights(2), dipole_type())
        expected = np.kron(SX, SX) + np.kron(SY, SY) - 2.0 * np.kron(SZ, SZ)
        assert np.abs(build_hamiltonian(J) - expected).max() <= 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(71)
        J1, J2 = random_coupling(rng, 3), random_coupling(rng, 3)
        alpha, beta = rng.normal(size=2)
        lhs = build_hamiltonian(alpha * J1 + beta * J2)
        rhs = alpha * build_hamiltonian(J1) + beta * build_hamiltonian(J2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(lhs).max(), 1.0)

    def test_hermitian_and_traceless(self):
        rng = np.random.default_rng(72)
        H = build_hamiltonian(random_coupling(rng, 3))
        assert np.abs(H - H.conj().T).max() <= 1e-12
        assert abs(np.trace(H)) <= 1e-12

    def test_energy_scale_linearity(self):
        rng = np.random.default_rng(73)
        J = random_coupling(rng, 2)
        assert np.abs(build_hamiltonian(4.0 * J) - 4.0 * build_hamiltonian(J)).max() <= 1e-12

    def test_spin_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_hamiltonian(np.zeros((33, 33)))


class TestConjugationConsistency:
    def test_identity(self):
        J = tensor_coupling(complete_weights(2), dipole_type())
        assert conjugation_consistency(J, np.tile(np.eye(3), (2, 1, 1))) == 0.0

    def test_collective_axis_cycle_on_dipole(self):
        J = tensor_coupling(complete_weights(2), dipole_type())
        assert conjugation_consistency(J, np.tile(axis_cycle(), (2, 1, 1))) <= 1e-10

    def test_random_assemblies_on_random_couplings(self):
        rng = np.random.default_rng(74)
        group = octahedral_group()
        for _ in range(20):
            J = random_coupling(rng, 3)
            octa = group[rng.integers(0, 24, size=3)]
            assert conjugation_consistency(J, octa) <= 1e-9
            haar = np.stack([random_rotation(rng) for _ in range(3)])
            assert conjugation_consistency(J, haar) <= 1e-9

    def test_dimension_mismatch(self):
        J = tensor_coupling(complete_weights(3), scalar_type())
        with pytest.raises(ValueError, match="mismatch"):
            conjugation_consistency(J, np.tile(np.eye(3), (2, 1, 1)))


class TestEvolve:
    def test_zero_time(self):
        H = build_hamiltonian(tensor_coupling(complete_weights(2), dipole_type()))
        assert np.abs(evolve(H, 0.0) - np.eye(4)).max() <= 1e-14

    def test_diagonal_closed_form(self):
        H = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # sigma_z (x) sigma_z
        U = evolve(H, np.pi / 4)
        phases = np.exp(-1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0]))
        assert np.abs(U - np.diag(phases)).max() <= 1e-14

    def test_group_law(self):
        rng = np.random.default_rng(75)
        H = build_hamiltonian(random_coupling(rng, 2))
        s, t = 0.37, 0.81
        assert np.abs(evolve(H, s) @ evolve(H, t) - evolve(H, s + t)).max() <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(76)
        H = build_hamiltonian(random_coupling(rng, 3))
        U = evolve(H, 0.9)
        assert np.abs(U.conj().T @ U - np.eye(8)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)


def test_scheme_lifted_in_one_call_matches_each_step():
    scheme = synthesize_case2(complete_weights(4), np.diag([2.0, 1.0, -1.0]))
    stacked = lift_rotations([step.rotations for step in scheme.steps])
    assert stacked.shape == (len(scheme.steps), 4, 2, 2)
    for lifts, step in zip(stacked, scheme.steps):
        assert lifts.tobytes() == lift_rotations(step.rotations).tobytes()


class TestErrorScaling:
    def test_quadratic_slope_for_seeded_dipole(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        scaling = error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025])
        assert not scaling.exact
        assert 1.8 <= scaling.slope <= 2.2

    def test_halving_epsilon_quarters_the_error(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        scaling = error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025])
        errors = dict(zip(scaling.epsilons, scaling.errors))
        ratio = errors[0.05] / errors[0.1]
        assert 0.2 <= ratio <= 0.3

    def test_error_over_eps_squared_stays_bounded(self):
        W, J = seeded_dipole_3(seed=3)
        scheme = synthesize_case1(W, dipole_type())
        eps = [0.16, 0.08, 0.04, 0.02, 0.01]
        scaling = error_scaling(J, scheme, eps)
        ratios = [err / e**2 for e, err in zip(scaling.epsilons, scaling.errors)]
        assert max(ratios) / min(ratios) <= 3.0

    def test_two_spin_dipole_cycle_is_exact(self):
        # with two spins the three collective-axis terms commute, so the
        # cycle matches exp(+iH eps) at machine precision for every eps
        W = complete_weights(2)
        scaling = error_scaling(tensor_coupling(W, dipole_type()), synthesize_case1(W, dipole_type()), [0.2, 0.1, 0.05])
        assert scaling.exact and max(scaling.errors) <= 1e-14

    def test_steps_act_in_list_order(self):
        # step 1 acts first in time, i.e. rightmost in the product.  The
        # error norm cannot tell the order: time reversal, which fixes H and
        # every spin-1/2 lift, maps each cycle onto the adjoint of its
        # reverse and exp(+iH eps) onto its adjoint.  So the cycle itself is
        # compared, in H's eigenbasis, U^dag C U
        W, J = seeded_dipole_3(seed=5)
        scheme = synthesize_case1(W, dipole_type())
        reverse = Scheme(scheme.kind, scheme.steps[::-1])
        eps = 0.3
        assert np.allclose(hand_built_errors(J, scheme, [eps]), hand_built_errors(J, reverse, [eps]), rtol=1e-12, atol=0.0)
        _, blocks = hilbert._block_eigh(build_hamiltonian(J))
        U = dense_unitary(blocks, 8)
        _, simulated = hilbert._simulate(hilbert._gated(J, scheme, 1e-9), scheme, slice(None))
        product = cycle(J, scheme, eps)
        assert np.abs(simulated(eps) - U.conj().T @ product @ U).max() <= 1e-12
        # the reversed product differs for this non-commuting pair of steps
        assert np.abs(product - cycle(J, reverse, eps)).max() > 1e-6

    def test_independent_of_lift_signs(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        eps_list = [0.2, 0.1, 0.05]
        lifts = lift_rotations(scheme.rotations)
        for i in range(len(lifts)):
            lifts[i, i % scheme.n] *= -1.0  # flip one lift per step
        H = build_hamiltonian(J)
        flipped = [operator_norm(cycle(J, scheme, eps, lifts) - evolve(H, -eps)) for eps in eps_list]
        assert np.allclose(error_scaling(J, scheme, eps_list).errors, flipped, rtol=1e-12, atol=0.0)

    def test_commuting_cycle_reports_exact(self):
        # zz coupling inverted by a half turn of one spin about x: the
        # single conjugated term commutes with itself, so there is no
        # averaging error at all
        J = tensor_coupling(complete_weights(2), np.diag([0.0, 0.0, 1.0]))
        rotations = np.tile(np.eye(3), (2, 1, 1))
        rotations[1] = pi_rotation("x")
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, rotations),))
        scaling = error_scaling(J, scheme, [0.2, 0.1, 0.05])
        assert scaling.exact
        assert scaling.slope is None
        assert max(scaling.errors) < 1e-13

    def test_input_validation(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        with pytest.raises(ValueError, match="three"):
            error_scaling(J, scheme, [0.1, 0.05])
        with pytest.raises(ValueError, match="distinct"):
            error_scaling(J, scheme, [0.1, 0.1, 0.05])
        for bad in (float("nan"), float("inf"), -0.1, 0.0):
            with pytest.raises(ValueError, match="^epsilon values must be finite, positive and distinct$"):
                error_scaling(J, scheme, [bad, 0.1, 0.05])

    def test_unverified_scheme_is_rejected(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        with pytest.raises(ValueError, match="does not invert"):
            error_scaling(J, scheme, [0.2, 0.1, 0.05])

    def test_zero_coupling_is_refused(self):
        # the gate is `verify`, which refuses J = 0
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        with pytest.raises(ValueError, match="^zero coupling: verification is undefined$"):
            error_scaling(np.zeros((6, 6)), scheme, [0.1, 0.05, 0.025])

    def test_many_step_class_two_matches_hand_built_product(self):
        W = complete_weights(4)
        A = np.diag([2.0, 1.0, -1.0])
        J = tensor_coupling(W, A)
        scheme = synthesize_case2(W, A)
        assert len(scheme.steps) == 12
        eps_list = [0.2, 0.1, 0.05, 0.025]
        errors = error_scaling(J, scheme, eps_list).errors
        assert np.allclose(errors, hand_built_errors(J, scheme, eps_list), rtol=1e-12, atol=0.0)

    def test_complex_hamiltonian_matches_hand_built_product(self):
        # a turned type, which the frame makes real, and pair types that
        # share no frame, which run complex
        W, A = rotated_traceless_3(seed=2)
        for J, scheme in ((tensor_coupling(W, A), synthesize_case1(W, A)), mixed_pair_types()):
            assert np.abs(build_hamiltonian(J).imag).max() > 0.1
            eps_list = [0.2, 0.1, 0.05, 0.025]
            errors = error_scaling(J, scheme, eps_list).errors
            assert np.allclose(errors, hand_built_errors(J, scheme, eps_list), rtol=1e-12, atol=0.0)

    def test_no_dense_norm(self, monkeypatch):
        # the error norm comes from Lanczos: its eigen-solves only ever see
        # the small real tridiagonal, never a 2^n x 2^n matrix, and H's
        # blocks go to stacked calls
        rng = np.random.default_rng(78)
        W = random_weights(rng, 6)
        J = tensor_coupling(W, dipole_type())
        scheme = synthesize_case1(W, dipole_type())
        calls = recorded_eigh(monkeypatch)
        error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025])
        assert any(len(shape) == 2 for shape, _, _ in calls)
        assert all(shape[-1] < 64 for shape, _, _ in calls)
        assert all(dtype == np.float64 and tri for shape, dtype, tri in calls if len(shape) == 2)

    def test_serialization(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        data = error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025]).to_dict()
        assert set(data) == {"epsilons", "errors", "slope", "exact"}
        assert len(data["errors"]) == 4


class TestPerSpinPulse:
    """A pulse is applied as U, its n per-spin 2x2 factors, then U^dag,
    chunk by chunk of columns, never as a 2^n x 2^n frame."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_kron_apply_matches_the_kron(self, n):
        rng = np.random.default_rng(90 + n)
        factors = np.stack([random_special_unitary(rng) for _ in range(n)])
        P = kron_all(factors)
        wide = rng.normal(size=(2**n, 70)) + 1j * rng.normal(size=(2**n, 70))
        before = wide.copy()
        # whole arrays and a column view of a wider one, as the chunks are
        for X in (wide.copy(), wide[:, :1].copy(), wide[:, 5:8]):
            expected = P @ X
            hilbert._kron_apply(factors, X)
            assert np.abs(X - expected).max() <= 1e-12
        assert np.array_equal(np.delete(wide, [5, 6, 7], axis=1), np.delete(before, [5, 6, 7], axis=1))

    @pytest.mark.parametrize("chunk", [1, 3, 64, 256])
    @pytest.mark.parametrize("n, coupling", [(1, "zero"), (3, "dipole"), (6, "dipole"), (3, "raw"), (6, "raw")])
    def test_pulse_matches_the_dense_frame(self, monkeypatch, n, coupling, chunk):
        # diag(phase) U^dag P U X for a real, blocked U (the dipole at
        # n >= 3, zero coupling at n = 1) and for a complex U (a raw J with
        # xy cross terms), at chunk widths below, at and above 2^n
        monkeypatch.setattr(hilbert, "_CHUNK", chunk)
        rng = np.random.default_rng(100 + n)
        if coupling == "zero":
            H = np.zeros((2, 2), dtype=complex)
        elif coupling == "dipole":
            H = build_hamiltonian(tensor_coupling(random_weights(rng, n), dipole_type()))
        else:
            H = build_hamiltonian(random_coupling(rng, n))
        lam, blocks = hilbert._block_eigh(H)
        assert all(np.iscomplexobj(V) == (coupling == "raw") for _, V in blocks)
        U = dense_unitary(blocks, 2**n)
        factors = np.stack([random_special_unitary(rng) for _ in range(n)])
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2**n))
        X = rng.normal(size=(2**n, 2**n + 5)) + 1j * rng.normal(size=(2**n, 2**n + 5))
        expected = phase[:, None] * (U.conj().T @ kron_all(factors) @ U @ X)
        hilbert._pulse(blocks, factors, X, phase)
        assert np.abs(X - expected).max() <= 1e-12


def recorded_eigh(monkeypatch):
    """The (shape, dtype, tridiagonal) of every np.linalg.eigh call from
    here on, `tridiagonal` telling Lanczos's k x k matrix T apart."""
    calls = []
    eigh = np.linalg.eigh

    def recording(M):
        calls.append((M.shape, M.dtype, M.ndim == 2 and not (np.triu(M, 2).any() or np.tril(M, -2).any())))
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def test_one_eigendecomposition_per_hamiltonian(monkeypatch):
    # one eigen-solve of H, run on its blocks: the dipole conserves
    # magnetization (blocks 1, 1, 3, 3 at n = 3), so there is one stacked
    # call per block size and none on the whole 8 x 8 H
    W, J = seeded_dipole_3()
    scheme = synthesize_case1(W, dipole_type())
    calls = recorded_eigh(monkeypatch)
    error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025])
    # the 2-d calls are the Lanczos norm's tridiagonals
    assert all(tri for shape, _, tri in calls if len(shape) == 2)
    stacked = [shape for shape, _, _ in calls if len(shape) != 2]
    sizes = [shape[-1] for shape in stacked]
    assert sum(shape[0] * shape[-1] for shape in stacked) == 8
    assert sizes == sorted(set(sizes)) == [1, 3]
    assert all(len(shape) == 3 and shape[-2] == shape[-1] for shape in stacked)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(77)
    for _ in range(10):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(operator_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-10
    # M^dag M would underflow at the small scale and overflow at the large one
    for c in (1e-170, 1e160):
        assert abs(operator_norm(c * np.eye(4)) - c) <= 1e-15 * c
        assert abs(operator_norm(c * M) - c * np.linalg.svd(M, compute_uv=False)[0]) <= 1e-12 * c
    # scaling J by a power of two scales every rounding error with it
    J = random_coupling(rng, 3)
    haar = np.stack([random_rotation(rng) for _ in range(3)])
    gap = conjugation_consistency(J, haar)
    assert 0.0 < gap <= 1e-9
    for k in (-565, 532):  # 2^-565 ~ 1.4e-170, 2^532 ~ 1.4e160
        assert conjugation_consistency(2.0**k * J, haar) == gap


def factored_pair(W, A):
    return tensor_coupling(W, A), synthesize_case1(W, A)


@pytest.mark.parametrize(
    "coupling,dtype",
    [
        (lambda: factored_pair(seeded_dipole_3()[0], dipole_type()), np.float64),
        (mixed_pair_types, np.complex128),
        (lambda: factored_pair(*rotated_traceless_3()), np.float64),
    ],
    ids=["real", "complex", "turned"],
)
def test_real_hamiltonian_takes_the_real_solver(monkeypatch, coupling, dtype):
    # only a Hamiltonian with xy/yz cross terms needs the complex solver for
    # its stacked blocks, and only when no frame turns them away: pair types
    # that share no frame keep them, a turned type loses them.  The 2-d
    # calls, the frame's 3 x 3 eigh and Lanczos's tridiagonals, are real
    J, scheme = coupling()
    calls = recorded_eigh(monkeypatch)
    error_scaling(J, scheme, [0.2, 0.1, 0.05])
    assert any(len(shape) == 3 for shape, _, _ in calls)
    assert all(call_dtype == (dtype if len(shape) == 3 else np.float64) for shape, call_dtype, _ in calls)


def dense_unitary(blocks, dim):
    """U with U[idx_b, idx_b] = V_b, from the blocks of `_block_eigh`."""
    U = np.zeros((dim, dim), dtype=complex)
    for idx, V in blocks:
        for rows, block in zip(idx, V):
            U[np.ix_(rows, rows)] = block
    return U


def rotated_dipole(n, seed=7):
    R = random_rotation(np.random.default_rng(seed))
    return tensor_coupling(complete_weights(n), R @ dipole_type() @ R.T)


@pytest.mark.parametrize(
    "coupling, sizes, dtype",
    [
        (lambda: tensor_coupling(complete_weights(5), dipole_type()), [1, 1, 5, 5, 10, 10], np.float64),
        (
            lambda: tensor_coupling(random_weights(np.random.default_rng(5), 5), np.diag([2.0, 1.0, -1.0])),
            [16, 16],
            np.float64,
        ),
        (lambda: tensor_coupling(complete_weights(4), scalar_type()), [1, 1, 4, 4, 6], np.float64),
        (lambda: rotated_dipole(7), [128], np.complex128),
        (lambda: np.zeros((9, 9)), [1] * 8, np.float64),
    ],
    ids=["dipole-n5", "signed-class2-n5", "scalar-n4", "rotated-dipole-n7", "zero-n3"],
)
def test_block_eigh_on_the_connected_blocks(coupling, sizes, dtype):
    # magnetization sectors for the dipole and the scalar type, parity
    # sectors for the signed class-2 coupling, one block for a rotated type
    H = build_hamiltonian(coupling())
    lam, blocks = hilbert._block_eigh(H)
    assert sorted(s for idx, _ in blocks for s in [idx.shape[1]] * idx.shape[0]) == sizes
    assert all(V.dtype == dtype for _, V in blocks)
    U = dense_unitary(blocks, H.shape[0])
    assert np.abs(U.conj().T @ U - np.eye(H.shape[0])).max() <= 1e-12
    assert np.abs((U * lam) @ U.conj().T - H).max() <= 1e-12 * max(1.0, np.abs(H).max())


def test_error_scaling_working_set():
    # H while it is diagonalised, then the shared start, one accumulator
    # and 2^n x 64 chunks, whatever len(eps): at most 3 matrices of
    # 2^n x 2^n complex entries at any time
    n, eps_list = 8, [0.02, 0.01, 0.005, 0.0025]
    J = tensor_coupling(complete_weights(n), dipole_type())
    scheme = synthesize_case1(complete_weights(n), dipole_type())
    tracemalloc.start()
    try:
        error_scaling(J, scheme, eps_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4**n * 16


def test_odd_axis_diagonal_working_set():
    # an odd-n dipole cycle runs on the even parity sector: after H, the
    # shared start and one accumulator of 2^n x 2^(n-1), the sector block
    # being normed and 2^n x 64 chunks
    n, eps_list = 9, [0.02, 0.01, 0.005, 0.0025]
    J = tensor_coupling(complete_weights(n), dipole_type())
    scheme = synthesize_case1(complete_weights(n), dipole_type())
    tracemalloc.start()
    try:
        scaling = error_scaling(J, scheme, eps_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4**n * 16
    assert len(scaling.errors) == 4 and 1.8 <= scaling.slope <= 2.2


def turned_type(A, R):
    A = R @ A @ R.T
    return 0.5 * (A + A.T)


def block_sizes(coupling):
    _, blocks = hilbert._block_eigh(build_hamiltonian(coupling))
    return sorted(s for idx, _ in blocks for s in [idx.shape[1]] * idx.shape[0])


class TestFrame:
    """error_scaling's frame is read from J and its conjugated couplings
    alone: axis-diagonal input as given, a commuting family turned onto
    the axes, raw or factored alike, and anything else as given."""

    @staticmethod
    def factored(W, A):
        return coupling_from_dict({"n": len(W), "W": W.tolist(), "A": A.tolist()})

    def test_axis_diagonal_inputs_come_back_as_given(self):
        W = random_weights(np.random.default_rng(83), 4)
        for A in (dipole_type(), np.diag([2.0, 1.0, -1.0])):
            scheme = synthesize_case1(W, A) if np.trace(A) == 0 else synthesize_case2(W, A)
            for coupling in (self.factored(W, A), hilbert._checked(tensor_coupling(W, A))):
                turned, turned_scheme, cols = hilbert._frame(coupling, scheme)
                assert turned is coupling and turned_scheme is scheme and cols == slice(None)

    @pytest.mark.parametrize("diagonal", [[2.0, 1.0, -1.0], [1.0, 0.5, -1.5]], ids=["class2", "class1"])
    def test_raw_and_factored_types_turn_alike(self, diagonal):
        # a raw J is turned as its factored twin is: the same diagonal
        # coupling, whose H is real with its two parity blocks, the same
        # signed-permutation rotations and the even sector of n = 5
        rng = np.random.default_rng(84)
        W = random_weights(rng, 5)
        A = turned_type(np.diag(diagonal), random_rotation(rng))
        scheme = synthesize_case2(W, A) if diagonal[0] == 2.0 else synthesize_case1(W, A)
        raw = hilbert._frame(hilbert._checked(tensor_coupling(W, A)), scheme)
        factored = hilbert._frame(self.factored(W, A), scheme)
        assert np.array_equal(raw[0].J, factored[0].J) and np.array_equal(raw[2], factored[2])
        assert all(np.array_equal(a.rotations, b.rotations) for a, b in zip(raw[1].steps, factored[1].steps))
        turned, turned_scheme, cols = raw
        off = np.tile(~np.eye(3, dtype=bool), (5, 5))
        assert not turned.J[off].any() and len(cols) == 16
        assert all(set(np.unique(step.rotations)) <= {-1.0, 0.0, 1.0} for step in turned_scheme.steps)
        assert block_sizes(turned) == [16, 16]
        eps_list = [0.02, 0.01, 0.005]
        errors = error_scaling(tensor_coupling(W, A), scheme, eps_list).errors
        assert np.allclose(errors, hand_built_errors(tensor_coupling(W, A), scheme, eps_list), rtol=1e-11, atol=0.0)

    def test_non_commuting_inputs_run_as_given(self):
        # two pair types that share no eigenframe, and a diagonal type whose
        # scheme cycles the axes of each spin differently, so that the
        # conjugated blocks are not symmetric
        rng = np.random.default_rng(85)
        W = random_weights(rng, 3)
        A = np.diag([2.0, 1.0, -1.0])
        J = tensor_coupling(W, A)
        J[0:3, 3:6] = W[0, 1] * turned_type(A, random_rotation(rng))
        J[3:6, 0:3] = J[0:3, 3:6].T
        mixed = Step(1.0, np.stack([np.eye(3), axis_cycle(), axis_cycle().T]))
        for coupling, scheme in (
            (hilbert._checked(J), synthesize_case2(W, A)),
            (self.factored(W, A), Scheme(SchemeKind.INVERSION, (mixed,))),
        ):
            turned, turned_scheme, cols = hilbert._frame(coupling, scheme)
            assert turned is coupling and turned_scheme is scheme and cols == slice(None)

    @pytest.mark.parametrize("form", ["raw", "factored"])
    def test_turned_dipole_keeps_the_twins_blocks_and_sector(self, form):
        # the pair of equal entries lands on x and y, so H keeps the
        # magnetization blocks of the axis-aligned dipole, and odd n keeps
        # its even sector of 64 columns
        n, W = 7, complete_weights(7)
        A = turned_type(dipole_type(), random_rotation(np.random.default_rng(7)))
        coupling = self.factored(W, A) if form == "factored" else tensor_coupling(W, A)
        scheme = synthesize_case1(W, A)
        twin, twin_scheme = tensor_coupling(W, dipole_type()), synthesize_case1(W, dipole_type())
        turned, _, cols = hilbert._frame(hilbert._checked(coupling), scheme)
        twin_turned, _, twin_cols = hilbert._frame(hilbert._checked(twin), twin_scheme)
        assert block_sizes(turned) == block_sizes(twin_turned) and max(block_sizes(turned)) == 35
        assert np.array_equal(cols, twin_cols) and len(cols) == 2 ** (n - 1)
        eps_list = [0.01, 0.005, 0.0025, 0.00125]
        scaling = error_scaling(coupling, scheme, eps_list)
        assert np.allclose(scaling.errors, error_scaling(twin, twin_scheme, eps_list).errors, rtol=1e-11, atol=0.0)
        assert 1.8 <= scaling.slope <= 2.2
        # even n takes the same turn, with the twin's blocks on every column
        W = complete_weights(6)
        coupling = self.factored(W, A) if form == "factored" else tensor_coupling(W, A)
        turned, _, cols = hilbert._frame(hilbert._checked(coupling), synthesize_case1(W, A))
        assert block_sizes(turned) == block_sizes(tensor_coupling(W, dipole_type())) and cols == slice(None)


class TestLanczosNorm:
    def test_matches_dense_norm_on_random_complex(self):
        rng = np.random.default_rng(79)
        for d in (2, 3, 4, 5, 8, 13, 16, 32, 64, 128):
            M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            self.assert_matches_dense(M)

    def test_zero_matrix(self):
        assert _lanczos_norm(np.zeros((8, 8), dtype=complex)) == 0.0 == operator_norm(np.zeros((8, 8)))

    def test_repeated_top_singular_value(self):
        # Q D Q^dag - 1 with three phases at pi: the top singular value 2
        # appears three times
        rng = np.random.default_rng(80)
        d = 32
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        phases = rng.uniform(-2.0, 2.0, size=d)
        phases[[3, 11, 20]] = np.pi
        M = (Q * np.exp(1j * phases)) @ Q.conj().T - np.eye(d)
        top = np.linalg.svd(M, compute_uv=False)[:4]
        assert np.allclose(top[:3], 2.0, rtol=1e-13) and top[3] < 1.99
        self.assert_matches_dense(M)

    def test_top_singular_value_in_exact_pairs(self):
        # the quaternionic form [[A, -conj(B)], [B, conj(A)]] commutes with an
        # antiunitary that squares to -1, as the cycles of an odd number of
        # spins do, so every singular value comes twice
        rng = np.random.default_rng(81)
        A, B = (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) for _ in range(2))
        M = np.block([[A, -B.conj()], [B, A.conj()]])
        top = np.linalg.svd(M, compute_uv=False)[:3]
        assert top[1] >= top[0] * (1.0 - 1e-13) and top[2] < top[0] * 0.99
        self.assert_matches_dense(M)

    def test_tall_matrix(self):
        # the Krylov space lies in the span of the columns
        rng = np.random.default_rng(82)
        M = rng.normal(size=(128, 40)) + 1j * rng.normal(size=(128, 40))
        assert abs(_lanczos_norm(M) - np.linalg.norm(M, 2)) <= 1e-12 * np.linalg.norm(M, 2)

    @staticmethod
    def assert_matches_dense(M):
        dense = operator_norm(M)
        estimate = _lanczos_norm(M)
        assert abs(estimate - dense) <= 1e-12 * dense
        assert estimate <= dense * (1.0 + 1e-13)
