"""Coupling matrices, the W (x) A factorization, and classification."""

import numpy as np
import pytest

from spinrev import (
    CouplingClass,
    classify_type,
    complete_weights,
    coupling_block,
    coupling_from_dict,
    dipole_type,
    scalar_type,
    sym_eig,
    tensor_coupling,
)
from spinrev.coupling import (
    check_coupling_matrix,
    check_type_matrix,
    check_weight_matrix,
    classification_margins,
)

from helpers import random_rotation, random_weights


class TestTensorCoupling:
    def test_pair_blocks_carry_the_type(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        J = tensor_coupling(W, dipole_type())
        assert J.shape == (6, 6)
        assert np.array_equal(coupling_block(J, 0, 1), dipole_type())
        assert np.array_equal(coupling_block(J, 1, 0), dipole_type())
        assert np.array_equal(coupling_block(J, 0, 0), np.zeros((3, 3)))

    def test_zero_type_gives_zero_coupling(self):
        J = tensor_coupling(complete_weights(3), np.zeros((3, 3)))
        assert not J.any()

    def test_complete_heisenberg_spectrum(self):
        # products of W eigenvalues {2, -1, -1} with A eigenvalues {1, 1, 1}
        J = tensor_coupling(complete_weights(3), scalar_type())
        lam = sym_eig(J).eigenvalues
        expected = np.array([2.0] * 3 + [-1.0] * 6)
        assert np.abs(lam - expected).max() <= 1e-10

    def test_spectrum_is_products_of_factor_spectra(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            W = random_weights(rng, n)
            A = rng.normal(size=(3, 3))
            A = A + A.T
            lam = sym_eig(tensor_coupling(W, A)).eigenvalues
            products = np.sort(np.outer(sym_eig(W).eigenvalues, sym_eig(A).eigenvalues).ravel())[::-1]
            assert np.abs(lam - products).max() <= 1e-9

    def test_output_satisfies_coupling_invariants(self):
        rng = np.random.default_rng(22)
        J = tensor_coupling(random_weights(rng, 4), dipole_type())
        check_coupling_matrix(J)


class TestCompleteWeights:
    def test_smallest(self):
        assert np.array_equal(complete_weights(2), [[0.0, 1.0], [1.0, 0.0]])

    def test_spectrum(self):
        lam = sym_eig(complete_weights(4)).eigenvalues
        assert np.abs(lam - np.array([3.0, -1.0, -1.0, -1.0])).max() <= 1e-12

    def test_regular_row_sums(self):
        assert np.array_equal(complete_weights(3).sum(axis=1), [2.0, 2.0, 2.0])

    def test_rejects_single_spin(self):
        with pytest.raises(ValueError):
            complete_weights(1)


class TestNamedTypes:
    def test_dipole(self):
        A = dipole_type()
        assert np.trace(A) == 0.0
        assert np.array_equal(np.diag(A), [1.0, 1.0, -2.0])
        assert classify_type(A) is CouplingClass.TRACELESS

    def test_scalar(self):
        A = scalar_type()
        assert np.trace(A) == 3.0
        assert np.abs(sym_eig(A).eigenvalues - 1.0).max() == 0.0
        assert classify_type(A) is CouplingClass.SEMIDEFINITE


class TestClassify:
    def test_mixed_sign_with_trace(self):
        assert classify_type(np.diag([2.0, 1.0, -1.0])) is CouplingClass.MIXED_SIGN

    def test_rank_deficient_semidefinite(self):
        assert classify_type(np.diag([1.0, 1.0, 0.0])) is CouplingClass.SEMIDEFINITE
        assert classify_type(np.diag([-1.0, -1.0, 0.0])) is CouplingClass.SEMIDEFINITE

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            classify_type(np.zeros((3, 3)))

    def test_invariant_under_conjugation_and_scaling(self):
        rng = np.random.default_rng(23)
        for A in (dipole_type(), scalar_type(), np.diag([2.0, 1.0, -1.0])):
            label = classify_type(A)
            for _ in range(5):
                Q = random_rotation(rng)
                assert classify_type(Q @ A @ Q.T) is label
                assert classify_type(A * rng.uniform(0.1, 10.0)) is label

    def test_negation_keeps_the_label(self):
        assert classify_type(-dipole_type()) is CouplingClass.TRACELESS
        assert classify_type(-np.diag([2.0, 1.0, -1.0])) is CouplingClass.MIXED_SIGN
        # positive semidefinite maps to negative semidefinite, same label
        assert classify_type(-scalar_type()) is CouplingClass.SEMIDEFINITE

    def test_margins_report(self):
        report = classification_margins(np.diag([2.0, 1.0, -1.0]))
        assert report["case"] == "2"
        assert report["trace"] == 2.0
        assert report["eigenvalues"] == [2.0, 1.0, -1.0]
        assert report["trace_margin"] > 0.0


class TestJsonInput:
    def test_factored(self):
        data = {"n": 2, "W": [[0, 1], [1, 0]], "A": np.diag([1.0, 1.0, -2.0]).tolist()}
        parsed = coupling_from_dict(data)
        assert parsed.factored
        assert parsed.n == 2
        assert np.array_equal(parsed.J, tensor_coupling(np.array(data["W"], dtype=float), dipole_type()))

    def test_raw(self):
        rng = np.random.default_rng(24)
        J = tensor_coupling(random_weights(rng, 2), scalar_type())
        parsed = coupling_from_dict({"n": 2, "J": J.tolist()})
        assert not parsed.factored
        assert np.array_equal(parsed.J, J)

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ([1, 2, 3], "JSON object"),
            ({"W": [[0, 1], [1, 0]]}, '"n"'),
            ({"n": 1, "W": [[0]], "A": np.eye(3).tolist()}, ">= 2"),
            ({"n": 2, "W": [[0, 1], [1, 0]]}, 'both "W" and "A"'),
            ({"n": 3, "W": [[0, 1], [1, 0]], "A": np.eye(3).tolist()}, "3x3"),
            ({"n": 2, "W": [[0, 1], [2, 0]], "A": np.eye(3).tolist()}, "not symmetric"),
            ({"n": 2, "W": [[1, 1], [1, 0]], "A": np.eye(3).tolist()}, "diagonal"),
            ({"n": 2, "W": [[0, 1], [1, 0]], "A": np.eye(4).tolist()}, '"A" must be 3x3'),
            ({"n": 2, "J": np.eye(6).tolist()}, "diagonal blocks"),
            ({"n": 3, "J": np.zeros((6, 6)).tolist()}, '"J" must be 9x9'),
            ({"n": 2, "W": [[0, "x"], [1, 0]], "A": np.eye(3).tolist()}, "numeric"),
            ({"n": 2, "W": [[0, np.nan], [np.nan, 0]], "A": np.eye(3).tolist()}, "non-finite"),
            ({"n": 2, "W": [[False, True], [True, False]], "A": np.eye(3).tolist()}, '"W" must hold only numbers'),
            ({"n": 2, "W": [["0", "1"], ["1", "0"]], "A": np.eye(3).tolist()}, '"W" must hold only numbers'),
            ({"n": 2, "W": [[0, 1], [1, 0]], "A": [[True, 0, 0], [0, 1, 0], [0, 0, -2]]}, '"A" must hold only numbers'),
            ({"n": 2, "J": [["0"] * 6] * 6}, '"J" must hold only numbers'),
            ({"n": True, "W": [[0, 1], [1, 0]], "A": np.eye(3).tolist()}, '"n" must be an integer'),
            ({"n": 2, "W": [[0, 10**400], [10**400, 0]], "A": np.eye(3).tolist()}, "numeric"),
        ],
    )
    def test_errors_name_the_violated_invariant(self, data, fragment):
        with pytest.raises(ValueError, match=None) as err:
            coupling_from_dict(data)
        assert fragment in str(err.value)


def test_check_coupling_matrix_rejects_asymmetry():
    J = np.zeros((6, 6))
    J[0, 3] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        check_coupling_matrix(J)


def _with_entries(M, value, *positions):
    M = np.array(M, dtype=float)
    for pos in positions:
        M[pos] = value
    return M


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "check,M,positions",
    [
        (check_weight_matrix, complete_weights(3), ((0, 1), (1, 0))),
        (check_type_matrix, scalar_type(), ((0, 2), (2, 0))),
        (check_coupling_matrix, tensor_coupling(complete_weights(2), scalar_type()), ((0, 4), (4, 0))),
    ],
)
def test_validators_reject_non_finite_entries(check, M, positions, value):
    # symmetric placement: NaN and inf - inf slip through a symmetry check
    with pytest.raises(ValueError, match="non-finite"):
        check(_with_entries(M, value, *positions))
