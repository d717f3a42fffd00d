"""Coupling matrices, the W (x) A factorization, and classification."""

import re

import numpy as np
import pytest

from spinrev import (
    CouplingClass,
    classify_type,
    complete_weights,
    coupling_from_dict,
    dipole_type,
    evolve,
    scalar_type,
    sym_eig,
    tensor_coupling,
)
from spinrev.coupling import (
    _check_json_numbers,
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
        assert np.array_equal(J[0:3, 3:6], dipole_type())
        assert np.array_equal(J[3:6, 0:3], dipole_type())
        assert np.array_equal(J[0:3, 0:3], np.zeros((3, 3)))

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

    @pytest.mark.parametrize("dtype", [float, np.float32, int, np.int16])
    def test_numeric_arrays_parse_like_their_lists(self, dtype):
        W, A = complete_weights(3), np.diag([2, 1, -1])
        from_lists = coupling_from_dict({"n": 3, "W": W.tolist(), "A": A.tolist()})
        from_arrays = coupling_from_dict({"n": 3, "W": W.astype(dtype), "A": A.astype(dtype)})
        for name in ("J", "W", "A"):
            assert np.array_equal(getattr(from_arrays, name), getattr(from_lists, name))
            assert getattr(from_arrays, name).dtype == np.float64
        raw = coupling_from_dict({"n": 3, "J": from_lists.J})
        assert np.array_equal(raw.J, from_lists.J)

    @pytest.mark.parametrize(
        "W",
        [np.array([[False, True], [True, False]]), np.array([[0, True], [True, 0]], dtype=object)],
        ids=["bool", "object"],
    )
    def test_boolean_arrays_get_the_json_boolean_message(self, W):
        with pytest.raises(ValueError, match='"W" must hold only numbers, not booleans or strings'):
            coupling_from_dict({"n": 2, "W": W, "A": np.eye(3)})

    @pytest.mark.parametrize(
        "value,ok",
        [
            (np.eye(2), True),
            (np.eye(2, dtype=np.float32), True),
            (np.eye(2, dtype=int), True),
            (np.eye(2, dtype=np.uint8), True),
            (np.eye(2, dtype=bool), False),
            (np.eye(2).astype(str), False),
            (np.eye(2, dtype=complex), False),
            (np.array([[1.0, 0.0], [0.0, 1.0]], dtype=object), True),
            (np.array([[1.0, 0.0], [0.0, "1"]], dtype=object), False),
        ],
        ids=["float64", "float32", "int", "uint8", "bool", "str", "complex", "object-floats", "object-str"],
    )
    def test_json_number_check_on_arrays(self, value, ok):
        if ok:
            _check_json_numbers(value, 2, '"M"')
        else:
            with pytest.raises(ValueError, match='"M" must hold only numbers'):
                _check_json_numbers(value, 2, '"M"')

    def test_factored_document_validates_each_factor_once(self, monkeypatch):
        import spinrev.coupling

        calls = []
        real = spinrev.coupling.check_symmetric

        def counting(M, name, detail=""):
            calls.append(name)
            return real(M, name, detail)

        monkeypatch.setattr(spinrev.coupling, "check_symmetric", counting)
        coupling_from_dict({"n": 3, "W": complete_weights(3).tolist(), "A": dipole_type().tolist()})
        assert calls == ["weight matrix", "type matrix", "coupling matrix"]


class TestCheckedCoupling:
    W = complete_weights(3)
    A = np.diag([2.0, 1.0, -1.0])

    def parsed(self):
        return {
            "factored": coupling_from_dict({"n": 3, "W": self.W, "A": self.A}),
            "raw": coupling_from_dict({"n": 3, "J": tensor_coupling(self.W, self.A)}),
        }

    @pytest.mark.parametrize("form,field", [("factored", "J"), ("factored", "W"), ("factored", "A"), ("raw", "J")])
    def test_arrays_are_read_only(self, form, field):
        coupling = self.parsed()[form]
        with pytest.raises(ValueError, match="read-only"):
            getattr(coupling, field)[0, 1] = 5.0
        with pytest.raises(AttributeError):
            setattr(coupling, field, np.zeros((3, 3)))

    def test_spectrum_is_read_only(self):
        spectrum = self.parsed()["factored"].spectrum
        for M in (spectrum.eigenvalues, spectrum.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                M[0] = 5.0

    def test_only_the_arrays_are_fields_and_the_rest_is_read_off_them(self):
        # a hand-built coupling cannot carry an n or a spectrum that
        # disagrees with its arrays
        import dataclasses

        from spinrev import CouplingInput

        assert [field.name for field in dataclasses.fields(CouplingInput)] == ["J", "W", "A"]
        J = tensor_coupling(self.W, self.A)
        coupling = CouplingInput(J)
        assert coupling.n == J.shape[0] // 3 == 3
        assert coupling.norm == pytest.approx(np.linalg.norm(J), rel=1e-15)
        assert coupling.spectrum is None
        # A's spectrum: `test_spectrum_is_read_only`
        with pytest.raises(ValueError, match="read-only"):
            coupling.eigenvalues[0] = 5.0

    def test_parse_copies_the_callers_arrays(self):
        W, A = self.W.copy(), self.A.copy()
        coupling = coupling_from_dict({"n": 3, "W": W, "A": A})
        W[0, 1] = W[1, 0] = A[0, 0] = 7.0
        assert np.array_equal(coupling.W, self.W) and np.array_equal(coupling.A, self.A)
        assert np.array_equal(coupling.J, tensor_coupling(self.W, self.A))

    def test_parsed_coupling_answers_like_its_arrays(self):
        from spinrev import bounds_report, steps_lower_bound, synthesize_case2, verify

        coupling = self.parsed()["factored"]
        assert classify_type(coupling) is classify_type(self.A)
        assert classification_margins(coupling) == classification_margins(self.A)
        assert np.array_equal(coupling.spectrum.eigenvectors, sym_eig(self.A).eigenvectors)
        scheme = synthesize_case2(coupling)
        reference = synthesize_case2(self.W, self.A)
        assert [(s.t, s.rotations.tolist()) for s in scheme.steps] == [
            (s.t, s.rotations.tolist()) for s in reference.steps
        ]
        J = tensor_coupling(self.W, self.A)
        assert verify(scheme, coupling) == verify(scheme, J)
        assert bounds_report(coupling, p=2) == bounds_report(J, self.W, self.A, p=2)
        # every form gets the inertia bound: nu+ = 4, nu- = 5
        assert steps_lower_bound(coupling) == steps_lower_bound(self.W, self.A) == 2
        assert steps_lower_bound(self.parsed()["raw"]) == 2

    def test_raw_coupling_is_refused_where_factors_are_needed(self):
        from spinrev import synthesize_case1

        coupling = self.parsed()["raw"]
        with pytest.raises(ValueError, match="factored"):
            classify_type(coupling)
        with pytest.raises(ValueError, match="factored"):
            synthesize_case1(coupling)
        with pytest.raises(ValueError, match="factored"):
            synthesize_case1(self.parsed()["factored"], self.A)

    def test_factors_whose_product_is_not_symmetric_are_rejected(self):
        # each factor passes its own check; W (x) A misses J's tolerance
        from spinrev import steps_lower_bound, synthesize_case1

        W = np.array([[0.0, 1.0], [1.0 - 1.4e-12, 0.0]])
        A = np.array([[0.0, 1.0, 0.0], [1.0 - 1.4e-12, 0.0, 0.0], [0.0, 0.0, 0.0]])
        check_weight_matrix(W)
        check_type_matrix(A)
        message = "coupling matrix is not symmetric"
        with pytest.raises(ValueError, match=message):
            coupling_from_dict({"n": 2, "W": W, "A": A})
        with pytest.raises(ValueError, match=message):
            synthesize_case1(W, A)
        with pytest.raises(ValueError, match=message):
            steps_lower_bound(W, A)


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
        (sym_eig, scalar_type(), ((0, 1), (1, 0))),
        (lambda H: evolve(H, 1.0), np.array([[1.0, 0.5], [0.5, -1.0]]), ((0, 1), (1, 0))),
    ],
)
def test_validators_reject_non_finite_entries(check, M, positions, value):
    # symmetric placement: NaN and inf - inf slip through a symmetry check
    with pytest.raises(ValueError, match="non-finite"):
        check(_with_entries(M, value, *positions))


@pytest.mark.parametrize(
    "check,M,message",
    [
        (check_type_matrix, np.eye(2), "type matrix must be 3x3, got shape (2, 2)"),
        (check_weight_matrix, np.zeros((2, 3)), "weight matrix must be square, got shape (2, 3)"),
        (check_weight_matrix, np.zeros((1, 1)), "weight matrix needs at least 2 spins"),
        (check_coupling_matrix, np.zeros((6, 3)), "coupling matrix must be square, got shape (6, 3)"),
        (check_coupling_matrix, np.zeros((3, 3)), "coupling matrix must be 3n x 3n with n >= 2"),
        (check_coupling_matrix, np.zeros((7, 7)), "coupling matrix must be 3n x 3n with n >= 2"),
        (sym_eig, np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    ],
    ids=["type-2x2", "weights-2x3", "weights-1x1", "coupling-6x3", "coupling-3x3", "coupling-7x7", "sym-eig-2x3"],
)
def test_validators_reject_shapes_that_are_no_such_matrix(check, M, message):
    # the CLI's reader refuses these shapes first; in-process callers reach the validators
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(M)


class TestNumpyScalars:
    """In-process callers may hand numpy scalars where JSON has numbers."""

    def test_numpy_integer_n_and_leaves_parse(self):
        W = [[np.float32(0.0), np.int64(1)], [np.int32(1), np.float64(0.0)]]
        parsed = coupling_from_dict({"n": np.int64(2), "W": W, "A": scalar_type().tolist()})
        assert parsed.n == 2 and type(parsed.n) is int
        assert np.array_equal(parsed.W, complete_weights(2))

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"n": np.bool_(True), "W": [[0, 1], [1, 0]], "A": np.eye(3).tolist()}, '"n" must be an integer >= 2'),
            ({"n": 2, "W": [[0, np.bool_(True)], [1, 0]], "A": np.eye(3).tolist()}, "not booleans or strings"),
        ],
        ids=["n", "leaf"],
    )
    def test_numpy_booleans_still_fail(self, doc, message):
        with pytest.raises(ValueError, match=message):
            coupling_from_dict(doc)
