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
    dipole_type,
    error_scaling,
    evolve,
    kron_all,
    lift_rotations,
    octahedral_group,
    operator_norm,
    pi_rotation,
    run_cycle,
    scalar_type,
    synthesize_case1,
    synthesize_case2,
    tensor_coupling,
)
from spinrev import hilbert
from spinrev.hilbert import _lanczos_norm

from helpers import hand_built_errors, random_coupling, random_rotation, random_weights

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


class TestRunCycle:
    def test_two_spin_cycle_is_unitary_and_reverses_evolution(self):
        # with two spins the three collective-axis terms commute, so the
        # cycle matches exp(+iH eps) at machine precision for every eps
        W = complete_weights(2)
        J = tensor_coupling(W, dipole_type())
        scheme = synthesize_case1(W, dipole_type())
        H = build_hamiltonian(J)
        for eps in (0.2, 0.1, 0.05):
            C = run_cycle(J, scheme, eps)
            assert np.abs(C.conj().T @ C - np.eye(4)).max() <= 1e-10
            assert operator_norm(C - evolve(H, -eps)) <= 1e-12

    def test_three_spin_cycle_error_vanishes_with_epsilon(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        H = build_hamiltonian(J)
        errors = [operator_norm(run_cycle(J, scheme, eps) - evolve(H, -eps)) for eps in (0.2, 0.1, 0.05)]
        assert errors[0] > errors[1] > errors[2]

    def test_zero_epsilon_is_identity(self):
        W = complete_weights(2)
        scheme = synthesize_case1(W, dipole_type())
        C = run_cycle(tensor_coupling(W, dipole_type()), scheme, 0.0)
        assert np.abs(C - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_cycle(J, scheme, epsilon)

    def test_zero_coupling_gives_identity(self):
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        C = run_cycle(np.zeros((6, 6)), scheme, 0.3)
        assert np.abs(C - np.eye(4)).max() <= 1e-12

    def test_unverified_scheme_is_rejected(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        with pytest.raises(ValueError, match="does not invert"):
            run_cycle(J, scheme, 0.1)

    def test_matches_hand_built_product_in_step_order(self):
        # step 1 acts first in time, i.e. rightmost in the product
        W, J = seeded_dipole_3(seed=5)
        scheme = synthesize_case1(W, dipole_type())
        H = build_hamiltonian(J)
        eps = 0.3
        product = np.eye(8, dtype=complex)
        for step in scheme.steps:
            v = kron_all(lift_rotations(step.rotations))
            product = (v.conj().T @ evolve(H, step.t * eps) @ v) @ product
        assert np.abs(run_cycle(J, scheme, eps) - product).max() <= 1e-12
        # the reversed product differs for this non-commuting pair of steps
        reversed_product = np.eye(8, dtype=complex)
        for step in reversed(scheme.steps):
            v = kron_all(lift_rotations(step.rotations))
            reversed_product = (v.conj().T @ evolve(H, step.t * eps) @ v) @ reversed_product
        assert np.abs(product - reversed_product).max() > 1e-6

    def test_scheme_lifted_in_one_call_matches_each_step(self):
        scheme = synthesize_case2(complete_weights(4), np.diag([2.0, 1.0, -1.0]))
        stacked = lift_rotations([step.rotations for step in scheme.steps])
        assert stacked.shape == (len(scheme.steps), 4, 2, 2)
        for lifts, step in zip(stacked, scheme.steps):
            assert lifts.tobytes() == lift_rotations(step.rotations).tobytes()

    def test_independent_of_lift_signs(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        eps = 0.1
        C1 = run_cycle(J, scheme, eps)
        H = build_hamiltonian(J)
        C2 = np.eye(8, dtype=complex)
        for i, step in enumerate(scheme.steps):
            lifts = lift_rotations(step.rotations)
            lifts[i % scheme.n] = -lifts[i % scheme.n]  # flip one lift per step
            v = kron_all(lifts)
            C2 = (v.conj().T @ evolve(H, step.t * eps) @ v) @ C2
        assert np.abs(C1 - C2).max() <= 1e-12


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
        for bad in ([float("nan"), 0.1, 0.05], [float("inf"), 0.1, 0.05]):
            with pytest.raises(ValueError, match="finite"):
                error_scaling(J, scheme, bad)

    def test_unverified_scheme_is_rejected(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        with pytest.raises(ValueError, match="does not invert"):
            error_scaling(J, scheme, [0.2, 0.1, 0.05])

    def test_many_step_class_two_matches_hand_built_product(self):
        W = complete_weights(4)
        A = np.diag([2.0, 1.0, -1.0])
        J = tensor_coupling(W, A)
        scheme = synthesize_case2(W, A)
        assert len(scheme.steps) == 12
        eps_list = [0.2, 0.1, 0.05, 0.025]
        H = build_hamiltonian(J)
        expected = []
        for eps in eps_list:
            product = np.eye(16, dtype=complex)
            for step in scheme.steps:
                v = kron_all(lift_rotations(step.rotations))
                product = (v.conj().T @ evolve(H, step.t * eps) @ v) @ product
            expected.append(operator_norm(product - evolve(H, -eps)))
        errors = error_scaling(J, scheme, eps_list).errors
        assert np.allclose(errors, expected, rtol=1e-12, atol=0.0)

    def test_complex_hamiltonian_matches_hand_built_product(self):
        W, A = rotated_traceless_3(seed=2)
        J = tensor_coupling(W, A)
        assert np.abs(build_hamiltonian(J).imag).max() > 0.1
        scheme = synthesize_case1(W, A)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        errors = error_scaling(J, scheme, eps_list).errors
        assert np.allclose(errors, hand_built_errors(J, scheme, eps_list), rtol=1e-12, atol=0.0)

    def test_no_dense_norm(self, monkeypatch):
        # the error norm comes from Lanczos: eigvalsh only ever sees the
        # small real tridiagonal, never a 2^n x 2^n matrix
        rng = np.random.default_rng(78)
        W = random_weights(rng, 6)
        J = tensor_coupling(W, dipole_type())
        scheme = synthesize_case1(W, dipole_type())
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def recording(M):
            calls.append((M.shape, M.dtype))
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025])
        assert calls
        assert all(shape[0] < 64 and dtype == np.float64 for shape, dtype in calls)

    def test_serialization(self):
        W, J = seeded_dipole_3()
        scheme = synthesize_case1(W, dipole_type())
        data = error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025]).to_dict()
        assert set(data) == {"epsilons", "errors", "slope", "exact"}
        assert len(data["errors"]) == 4


class TestFrameReuse:
    """A pulse whose per-spin factors repeat those of the pulse before it,
    up to exact signs, reuses that pulse's frame instead of building it."""

    @staticmethod
    def recorded(monkeypatch, J, scheme, eps_list):
        kron_calls, signs = [], []
        kron_into, frame_sign = hilbert._kron_into, hilbert._frame_sign

        def counting_kron(mats, out):
            kron_calls.append(mats.shape)
            return kron_into(mats, out)

        def recording_sign(factors, previous):
            signs.append(frame_sign(factors, previous))
            return signs[-1]

        monkeypatch.setattr(hilbert, "_kron_into", counting_kron)
        monkeypatch.setattr(hilbert, "_frame_sign", recording_sign)
        return error_scaling(J, scheme, eps_list), kron_calls, signs

    # the collective two-step scheme's three pulses share their per-spin
    # factor up to a sign on every spin: an odd n negates the frame
    @pytest.mark.parametrize("n, flip", [(3, -1), (4, 1)], ids=["n3-negated", "n4-kept"])
    def test_collective_scheme_builds_one_frame(self, monkeypatch, n, flip):
        W = complete_weights(n)
        J = tensor_coupling(W, dipole_type())
        scheme = synthesize_case1(W, dipole_type())
        eps_list = [0.2, 0.1, 0.05, 0.025]
        scaling, kron_calls, signs = self.recorded(monkeypatch, J, scheme, eps_list)
        assert len(kron_calls) == 1
        assert signs == [0, 1, flip]
        assert np.allclose(scaling.errors, hand_built_errors(J, scheme, eps_list), rtol=1e-12, atol=0.0)

    def test_many_step_class_two_builds_every_frame(self, monkeypatch):
        W = complete_weights(4)
        A = np.diag([2.0, 1.0, -1.0])
        scheme = synthesize_case2(W, A)
        assert len(scheme.steps) == 12
        _, kron_calls, signs = self.recorded(monkeypatch, tensor_coupling(W, A), scheme, [0.2, 0.1, 0.05])
        assert len(kron_calls) == 13
        assert signs == [0] * 13


def recorded_eigh(monkeypatch):
    """The (shape, dtype) of every np.linalg.eigh call from here on."""
    calls = []
    eigh = np.linalg.eigh

    def recording(M):
        calls.append((M.shape, M.dtype))
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


@pytest.mark.parametrize(
    "simulate",
    [
        lambda J, scheme: error_scaling(J, scheme, [0.2, 0.1, 0.05, 0.025]),
        lambda J, scheme: run_cycle(J, scheme, 0.1),
    ],
    ids=["error_scaling", "run_cycle"],
)
def test_one_eigendecomposition_per_hamiltonian(monkeypatch, simulate):
    # one eigen-solve of H, run on its blocks: the dipole conserves
    # magnetization (blocks 1, 1, 3, 3 at n = 3), so there is one stacked
    # call per block size and none on the whole 8 x 8 H
    W, J = seeded_dipole_3()
    scheme = synthesize_case1(W, dipole_type())
    calls = recorded_eigh(monkeypatch)
    simulate(J, scheme)
    sizes = [shape[-1] for shape, _ in calls]
    assert sum(shape[0] * shape[-1] for shape, _ in calls) == 8
    assert sizes == sorted(set(sizes)) == [1, 3]
    assert all(len(shape) == 3 and shape[-2] == shape[-1] for shape, _ in calls)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(77)
    for _ in range(10):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(operator_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-10


@pytest.mark.parametrize(
    "coupling,dtype",
    [
        (lambda: (seeded_dipole_3()[0], dipole_type()), np.float64),
        (rotated_traceless_3, np.complex128),
    ],
    ids=["real", "complex"],
)
def test_real_hamiltonian_takes_the_real_solver(monkeypatch, coupling, dtype):
    # only a Hamiltonian with xy/yz cross terms needs the complex solver
    W, A = coupling()
    scheme = synthesize_case1(W, A)
    calls = recorded_eigh(monkeypatch)
    error_scaling(tensor_coupling(W, A), scheme, [0.2, 0.1, 0.05])
    assert calls
    assert all(call_dtype == dtype for _, call_dtype in calls)


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
    # the len(eps) accumulators, the frame and 2^n x 64 chunks: at most
    # len(eps) + 2 matrices of 2^n x 2^n complex entries at any time
    n, eps_list = 8, [0.02, 0.01, 0.005, 0.0025]
    J = tensor_coupling(complete_weights(n), dipole_type())
    scheme = synthesize_case1(complete_weights(n), dipole_type())
    tracemalloc.start()
    try:
        error_scaling(J, scheme, eps_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(eps_list) + 2) * 4**n * 16


def test_odd_axis_diagonal_working_set():
    # an odd-n dipole cycle runs on the even parity sector: len(eps)
    # accumulators of 2^n x 2^(n-1), the frame and 2^n x 64 chunks
    n, eps_list = 9, [0.02, 0.01, 0.005, 0.0025]
    J = tensor_coupling(complete_weights(n), dipole_type())
    scheme = synthesize_case1(complete_weights(n), dipole_type())
    tracemalloc.start()
    try:
        error_scaling(J, scheme, eps_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(eps_list) / 2 + 2) * 4**n * 16


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
