"""Scheme model, averaging, verification, conversions, and synthesizers."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrev import (
    Scheme,
    SchemeKind,
    Step,
    average_coupling,
    axis_cycle,
    complete_weights,
    conjugate,
    coupling_from_dict,
    decoupling_to_inversion,
    dipole_type,
    hadamard_matrix,
    inversion_to_decoupling,
    octahedral_group,
    pi_rotation,
    scalar_type,
    scheme_from_dict,
    scheme_stats,
    scheme_to_dict,
    selective_decoupling,
    synthesize_case1,
    synthesize_case2,
    tensor_coupling,
    verify,
)
from spinrev import cli, schemes
from spinrev.rotations import check_rotation

from helpers import block_diag_rotations, random_coupling, random_rotation, random_scheme, random_weights


def _haar_rotations(rng, shape):
    """Haar-random rotations of the given stack shape, from uniform unit quaternions."""
    w, x, y, z = np.moveaxis(rng.normal(size=shape + (4,)), -1, 0)
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return np.stack(
        [
            np.stack([1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w)], -1),
            np.stack([s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w)], -1),
            np.stack([s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y)], -1),
        ],
        -2,
    )


def identity_steps(n):
    return np.tile(np.eye(3), (n, 1, 1))


def cyclic_scheme(n):
    S = axis_cycle()
    return Scheme(
        SchemeKind.INVERSION,
        (Step(1.0, np.tile(S, (n, 1, 1))), Step(1.0, np.tile(S @ S, (n, 1, 1)))),
    )


class TestSchemeModel:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="positive"):
            Scheme(SchemeKind.INVERSION, (Step(0.0, identity_steps(2)),))

    def test_rejects_non_rotation(self):
        bad = identity_steps(2)
        bad[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="orthogonal"):
            Scheme(SchemeKind.INVERSION, (Step(1.0, bad),))

    def test_rejects_nan_rotation(self):
        # NaN compares false against any tolerance, so a NaN in place of a
        # zero of a permutation matrix must still fail the orthogonality test
        bad = np.tile(axis_cycle(), (2, 1, 1))
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="not orthogonal"):
            Scheme(SchemeKind.INVERSION, (Step(1.0, bad),))

    def test_rejects_mismatched_spin_counts(self):
        with pytest.raises(ValueError, match="same number of spins"):
            Scheme(
                SchemeKind.INVERSION,
                (Step(1.0, identity_steps(2)), Step(1.0, identity_steps(3))),
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one step"):
            Scheme(SchemeKind.INVERSION, ())

    def test_rejects_a_kind_that_is_no_scheme_kind(self):
        with pytest.raises(ValueError, match="^scheme kind must be SchemeKind.INVERSION or SchemeKind.DECOUPLING$"):
            Scheme("inversion", (Step(1.0, identity_steps(2)),))

    def test_keeps_no_alias_of_the_callers_array(self):
        rotations = np.tile(axis_cycle(), (2, 1, 1))
        view = np.tile(axis_cycle(), (2, 2, 1, 1))[1]
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, rotations), Step(1.0, view)))
        rotations[0] = np.eye(3)
        view[0] = np.eye(3)
        for step in scheme.steps:
            assert np.array_equal(step.rotations, np.tile(axis_cycle(), (2, 1, 1)))
            with pytest.raises(ValueError, match="read-only"):
                step.rotations[0, 0, 0] = 0.0

    def test_keeps_a_read_only_array_that_owns_its_data(self):
        # whatever the steps hand in (a read-only array that owns its data,
        # a read-only view of a writeable array, nested lists), the scheme
        # keeps two float64 arrays of its own
        owned = np.array([axis_cycle(), axis_cycle()])
        owned.flags.writeable = False
        base = np.tile(axis_cycle(), (2, 1, 1))
        view = base.view()
        view.flags.writeable = False
        scheme = Scheme(SchemeKind.INVERSION, (Step(1.0, owned), Step(2.0, view), Step(0.5, base.tolist())))
        made = (
            scheme,
            Scheme(scheme.kind, scheme.steps),
            inversion_to_decoupling(scheme),
            decoupling_to_inversion(inversion_to_decoupling(scheme)),
            scheme_from_dict(scheme_to_dict(scheme)),
            synthesize_case1(complete_weights(2), dipole_type()),
            synthesize_case2(complete_weights(3), np.diag([2.0, 1.0, -1.0])),
            selective_decoupling(3),
        )
        for s in made:
            for array in (s.times, s.rotations):
                assert array.dtype == np.float64 and array.flags.c_contiguous
                assert array.flags.owndata and not array.flags.writeable
                for caller in (owned, base):
                    assert not np.shares_memory(array, caller)
                if s is not scheme:
                    assert not np.shares_memory(array, scheme.rotations)
            # its steps are read-only views that cannot be made writeable
            step = s.steps[-1]
            assert np.shares_memory(step.rotations, s.rotations)
            with pytest.raises(ValueError):
                step.rotations.flags.writeable = True


def _loop_verdict(steps):
    """The message of the first defect found checking step by step, each
    step's rotations in their own `check_rotation` call; None if none."""
    n = steps[0].rotations.shape[0] if steps[0].rotations.ndim == 3 else None
    for step in steps:
        if not np.isfinite(step.t) or step.t <= 0.0:
            return "step times must be positive and finite"
        rots = step.rotations
        if rots.ndim != 3 or rots.shape[1:] != (3, 3):
            return "step rotations must have shape (n, 3, 3)"
        if rots.shape[0] != n:
            return "every step must address the same number of spins"
        try:
            check_rotation(rots, tol=1e-12)
        except ValueError as exc:
            return str(exc)
    return None


def _scheme_verdict(steps):
    try:
        Scheme(SchemeKind.INVERSION, tuple(steps))
    except ValueError as exc:
        return str(exc)
    return None


NOT_ORTHOGONAL = "matrix is not orthogonal: R^T R deviates from the identity"
REFLECTION = "orthogonal matrix has determinant -1, not a rotation"


class TestStackedValidation:
    """Rotations are checked in stacked chunks of steps; the error is still
    the first defect in step order, as a step-by-step check reports it."""

    n = 8
    length = 200

    def _steps(self):
        rotations = np.tile(np.eye(3), (self.length, self.n, 1, 1))
        return [Step(1.0, rotations[j]) for j in range(self.length)]

    def _boundary(self):
        per = schemes._CHECK_ROTATIONS // self.n
        assert per < self.length  # the scheme spans more than one chunk
        return per

    @staticmethod
    def _plant(steps, j, defect, n):
        rots = steps[j].rotations.copy()
        if defect == "skew":
            rots[n // 2, 0, 1] = 0.5
        elif defect == "reflection":
            rots[n - 1] = np.diag([1.0, 1.0, -1.0])
        elif defect == "nan":
            rots[0, 2, 2] = np.nan
        elif defect == "shape":
            rots = rots[:, :2, :2]
        elif defect == "spins":
            rots = rots[:-1]
        t = 0.0 if defect == "time" else steps[j].t
        steps[j] = Step(t, rots)

    def test_a_clean_scheme_passes(self):
        steps = self._steps()
        assert _scheme_verdict(steps) is None
        assert _loop_verdict(steps) is None

    @pytest.mark.parametrize("where", ["first", "chunk-end", "chunk-start", "last"])
    @pytest.mark.parametrize("defect,message", [("skew", NOT_ORTHOGONAL), ("reflection", REFLECTION), ("nan", NOT_ORTHOGONAL)])
    def test_one_bad_rotation_anywhere(self, where, defect, message):
        per = self._boundary()
        j = {"first": 0, "chunk-end": per - 1, "chunk-start": per, "last": self.length - 1}[where]
        steps = self._steps()
        self._plant(steps, j, defect, self.n)
        with pytest.raises(ValueError) as err:
            Scheme(SchemeKind.INVERSION, tuple(steps))
        assert str(err.value) == message == _loop_verdict(steps)

    @pytest.mark.parametrize("structural", ["time", "shape", "spins"])
    @pytest.mark.parametrize("rotation", ["skew", "reflection", "nan"])
    @pytest.mark.parametrize("first,second", [(3, 9), (9, 3), (2, "per"), ("per", 2), ("per-1", "per"), ("per", "per-1"), (0, "last"), ("last", 0)])
    def test_a_bad_rotation_and_a_structural_defect(self, tmp_path, capsys, structural, rotation, first, second):
        # the rotation defect goes at step `first`, the structural one at
        # `second`; whichever comes first in step order is reported, by
        # `Scheme` and, for the same steps in a scheme file in the writer's
        # layout or pretty-printed, by `scheme_from_dict` and `spinrev verify`;
        # a NaN rotation and a zero time in the writer's layout are refused
        # by `Scheme._from_arrays` itself
        per = self._boundary()
        place = {"per": per, "per-1": per - 1, "last": self.length - 1}
        i, j = place.get(first, first), place.get(second, second)
        steps = self._steps()
        self._plant(steps, i, rotation, self.n)
        self._plant(steps, j, structural, self.n)
        expected = _loop_verdict(steps)
        assert expected is not None
        assert _scheme_verdict(steps) == expected
        if i < j:
            assert expected == {"skew": NOT_ORTHOGONAL, "reflection": REFLECTION, "nan": NOT_ORTHOGONAL}[rotation]
        else:
            assert expected != {"skew": NOT_ORTHOGONAL, "reflection": REFLECTION, "nan": NOT_ORTHOGONAL}[rotation]
            if structural != "time":  # a file's reader names the shape it read
                shape = steps[j].rotations.shape
                expected = f"step must list one 3x3 rotation per spin (expected shape {(self.n, 3, 3)}, got {shape})"
        doc = {"kind": "inversion", "n": self.n, "steps": [{"t": s.t, "rotations": s.rotations.tolist()} for s in steps]}
        with pytest.raises(ValueError) as err:
            scheme_from_dict(doc)
        assert str(err.value) == expected
        coupling, scheme = tmp_path / "c.json", tmp_path / "s.json"
        coupling.write_text(json.dumps({"n": self.n, "W": complete_weights(self.n).tolist(), "A": dipole_type().tolist()}))
        for indent in (None, 2):
            scheme.write_text(json.dumps(doc, indent=indent))
            code = cli.main(["verify", "--coupling", str(coupling), "--scheme", str(scheme)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {expected}\n")

    def test_a_step_time_comes_before_its_own_rotations(self):
        # within one step, a bad time is reported before a bad rotation shape,
        # by `Scheme` and by the file reader alike
        rotations = np.zeros((2, 2, 2))
        with pytest.raises(ValueError) as built:
            Scheme(SchemeKind.INVERSION, (Step(-1.0, rotations),))
        doc = {"kind": "inversion", "n": 2, "steps": [{"t": -1, "rotations": rotations.tolist()}]}
        with pytest.raises(ValueError) as read:
            schemes._read_scheme(json.dumps(doc))
        assert str(read.value) == str(built.value) == "step times must be positive and finite"

    @pytest.mark.parametrize("order", [("reflection", "skew"), ("skew", "reflection")])
    def test_two_rotation_defects_in_one_chunk(self, order):
        # one stacked check tests orthogonality of the whole chunk before any
        # determinant; the first failing step still decides the message
        steps = self._steps()
        self._plant(steps, 4, order[0], self.n)
        self._plant(steps, 5, order[1], self.n)
        assert _scheme_verdict(steps) == {"skew": NOT_ORTHOGONAL, "reflection": REFLECTION}[order[0]]
        assert _scheme_verdict(steps) == _loop_verdict(steps)

    def test_one_call_per_chunk(self, monkeypatch):
        calls = []

        def counting(R, *args, **kwargs):
            calls.append(np.asarray(R).shape[0])
            return check_rotation(R, *args, **kwargs)

        monkeypatch.setattr(schemes, "check_rotation", counting)
        per = self._boundary()
        Scheme(SchemeKind.INVERSION, tuple(self._steps()))
        assert calls == [per * self.n, (self.length - per) * self.n]


class TestAverageCoupling:
    def test_single_identity_step_returns_the_coupling(self):
        rng = np.random.default_rng(31)
        J = random_coupling(rng, 3)
        s = Scheme(SchemeKind.INVERSION, (Step(1.0, identity_steps(3)),))
        assert np.abs(average_coupling(s, J) - J).max() <= 1e-14

    def test_cyclic_scheme_negates_dipole_coupling_exactly(self):
        J = tensor_coupling(complete_weights(2), dipole_type())
        avg = average_coupling(cyclic_scheme(2), J)
        assert np.array_equal(avg, -J)

    def test_full_cycle_decouples_traceless_diagonals(self):
        # identity + S + S^2 with equal times sums each diagonal position
        # to the trace, which vanishes
        rng = np.random.default_rng(32)
        S = axis_cycle()
        a, b = rng.normal(size=2)
        A = np.diag([a, b, -a - b])
        J = tensor_coupling(complete_weights(3), A)
        steps = tuple(
            Step(1.0, np.tile(np.linalg.matrix_power(S, j), (3, 1, 1))) for j in range(3)
        )
        avg = average_coupling(Scheme(SchemeKind.DECOUPLING, steps), J)
        assert np.abs(avg).max() <= 1e-14

    def test_dimension_mismatch(self):
        J = tensor_coupling(complete_weights(3), scalar_type())
        with pytest.raises(ValueError, match="mismatch"):
            average_coupling(cyclic_scheme(2), J)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(2, 7),
        n_steps=st.integers(1, 64),
        haar=st.booleans(),
        factored=st.booleans(),
        kind=st.sampled_from(SchemeKind),
        chunk=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_sum_of_conjugates(self, n, n_steps, haar, factored, kind, chunk, seed):
        # `chunk` row spins per Gram chunk: below n, the blocks under the
        # diagonal are copied across chunks
        rng = np.random.default_rng(seed)
        shape = (n_steps, n)
        rotations = _haar_rotations(rng, shape) if haar else octahedral_group()[rng.integers(0, 24, size=shape)]
        times = 10.0 ** rng.uniform(-6.0, 6.0, size=n_steps)
        scheme = Scheme(kind, tuple(Step(t, R) for t, R in zip(times, rotations)))
        if factored:
            A = rng.normal(size=(3, 3))
            coupling = coupling_from_dict({"n": n, "W": random_weights(rng, n).tolist(), "A": (A + A.T).tolist()})
            J = coupling.J
        else:
            coupling = J = random_coupling(rng, n)
        dense = sum(t * V @ J @ V.T for t, V in zip(times, map(block_diag_rotations, rotations)))
        with mock.patch.object(schemes, "_GRAM_ENTRIES", 81 * n * chunk):
            gap = np.abs(average_coupling(scheme, coupling) - dense).max()
        assert gap <= 1e-13 * times.sum() * np.linalg.norm(J)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            s = random_scheme(rng, 3)
            J1, J2 = random_coupling(rng, 3), random_coupling(rng, 3)
            alpha, beta = rng.normal(size=2)
            lhs = average_coupling(s, alpha * J1 + beta * J2)
            rhs = alpha * average_coupling(s, J1) + beta * average_coupling(s, J2)
            scale = max(np.abs(lhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


class TestConjugate:
    def test_exact_against_dense_assembly_for_octahedral_rotations(self):
        rng = np.random.default_rng(71)
        group = octahedral_group()
        for n in (2, 3, 6):
            J = random_coupling(rng, n)
            for _ in range(5):
                rotations = group[rng.integers(0, len(group), size=n)]
                V = block_diag_rotations(rotations)
                assert np.array_equal(conjugate(rotations, J), V @ J @ V.T)

    def test_matches_dense_assembly_for_haar_rotations(self):
        rng = np.random.default_rng(72)
        for n in (2, 4, 7):
            J = random_coupling(rng, n)
            rotations = np.stack([random_rotation(rng) for _ in range(n)])
            V = block_diag_rotations(rotations)
            gap = np.abs(conjugate(rotations, J) - V @ J @ V.T).max()
            assert gap <= 1e-15 * np.linalg.norm(J)

    def test_batched_call_equals_per_item_calls(self):
        rng = np.random.default_rng(73)
        n = 4
        J = random_coupling(rng, n)
        rotations = np.stack([random_rotation(rng) for _ in range(2 * 3 * n)]).reshape(2, 3, n, 3, 3)
        batched = conjugate(rotations, J)
        assert batched.shape == (2, 3, 3 * n, 3 * n)
        for i in range(2):
            for j in range(3):
                gap = np.abs(batched[i, j] - conjugate(rotations[i, j], J)).max()
                assert gap <= 1e-15 * np.linalg.norm(J)


class TestVerify:
    def test_cyclic_on_dipole(self):
        J = tensor_coupling(complete_weights(2), dipole_type())
        result = verify(cyclic_scheme(2), J, tol=1e-12)
        assert result.ok and result.residual <= 1e-15

    def test_identity_step_declared_inversion_fails_with_residual_two(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        s = Scheme(SchemeKind.INVERSION, (Step(1.0, identity_steps(2)),))
        result = verify(s, J)
        assert not result.ok
        assert abs(result.residual - 2.0) <= 1e-14

    def test_selective_fragment_is_not_a_decoupling_of_its_kept_component(self):
        J = tensor_coupling(complete_weights(2), np.diag([0.0, 0.0, 1.0]))
        result = verify(selective_decoupling(2, "z"), J)
        assert not result.ok
        assert abs(result.residual - 1.0) <= 1e-14

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="zero"):
            verify(cyclic_scheme(2), np.zeros((6, 6)))

    def test_holds_no_second_copy_of_the_rotations(self, tmp_path):
        # the Gram average reads the scheme's rotations in place, so a scheme
        # 4x as long raises verify's traced peak by about one copy of the
        # added rotations (the time-scaled rows of the product), not two
        W, A = complete_weights(24), np.diag([2.0, 1.0, -1.0])
        path = tmp_path / "s.json"
        cli._write_scheme(str(path), synthesize_case2(W, A))
        scheme = cli._load_scheme(str(path))
        longer = Scheme(scheme.kind, [Step(step.t / 4, step.rotations) for step in scheme.steps] * 4)
        J = tensor_coupling(W, A)

        def peak(s):
            tracemalloc.start()
            try:
                assert verify(s, J).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        added = 72 * 3 * len(scheme.steps) * scheme.n  # float64 bytes of the 3x more rotations
        assert (peak(longer) - peak(scheme)) / added < 1.5

    def test_frame_covariance(self):
        # rotating every step rotation and the type matrix by a common
        # frame leaves the residual unchanged
        rng = np.random.default_rng(34)
        W = random_weights(rng, 3)
        A = rng.normal(size=(3, 3))
        A = A + A.T
        s = random_scheme(rng, 3, kind=SchemeKind.INVERSION)
        base = verify(s, tensor_coupling(W, A)).residual
        for _ in range(5):
            Q = random_rotation(rng)
            steps = tuple(
                Step(step.t, np.matmul(np.matmul(Q.T, step.rotations), Q))
                for step in s.steps
            )
            moved = verify(Scheme(s.kind, steps), tensor_coupling(W, Q.T @ A @ Q)).residual
            assert abs(moved - base) <= 1e-10


class TestConversions:
    def test_collective_cycle_decoupling_folds_to_two_step_inversion(self):
        S = axis_cycle()
        steps = tuple(
            Step(1.0, np.tile(np.linalg.matrix_power(S, j), (2, 1, 1))) for j in range(3)
        )
        inv = decoupling_to_inversion(Scheme(SchemeKind.DECOUPLING, steps))
        assert inv.kind is SchemeKind.INVERSION
        assert len(inv.steps) == 2
        assert [step.t for step in inv.steps] == [1.0, 1.0]
        assert np.array_equal(inv.steps[0].rotations[0], S)
        assert np.array_equal(inv.steps[1].rotations[0], S @ S)
        J = tensor_coupling(complete_weights(2), dipole_type())
        assert verify(inv, J, tol=1e-12).ok

    def test_identity_first_step_divides_times_only(self):
        rng = np.random.default_rng(35)
        tail = random_scheme(rng, 2, n_steps=3)
        first = Step(2.0, identity_steps(2))
        dec = Scheme(SchemeKind.DECOUPLING, (first,) + tail.steps)
        inv = decoupling_to_inversion(dec)
        for folded, original in zip(inv.steps, tail.steps):
            assert folded.t == original.t / 2.0
            assert np.array_equal(folded.rotations, original.rotations)

    def test_nontrivial_first_step_verifies_as_inversion(self):
        # rotate every step of a valid decoupling by a collective rotation;
        # it still decouples, and folding it must verify as an inversion
        rng = np.random.default_rng(36)
        W = random_weights(rng, 2)
        J = tensor_coupling(W, dipole_type())
        dec = inversion_to_decoupling(synthesize_case1(W, dipole_type()))
        T = random_rotation(rng)
        steps = tuple(
            Step(step.t, np.matmul(T, step.rotations)) for step in dec.steps
        )
        moved = Scheme(SchemeKind.DECOUPLING, steps)
        assert verify(moved, J, tol=1e-9).ok
        inv = decoupling_to_inversion(moved)
        assert verify(inv, J, tol=1e-9).ok

    def test_inversion_to_decoupling_verifies_and_counts(self):
        W = complete_weights(3)
        J = tensor_coupling(W, dipole_type())
        inv = synthesize_case1(W, dipole_type())
        dec = inversion_to_decoupling(inv)
        assert verify(dec, J, tol=1e-12).ok
        assert len(dec.steps) == len(inv.steps) + 1
        assert scheme_stats(dec).tau == scheme_stats(inv).tau + 1.0

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            s = random_scheme(rng, 3, n_steps=int(rng.integers(1, 5)))
            back = decoupling_to_inversion(inversion_to_decoupling(s))
            assert back.kind is s.kind
            assert len(back.steps) == len(s.steps)
            for a, b in zip(back.steps, s.steps):
                assert a.t == b.t
                assert np.array_equal(a.rotations, b.rotations)

    def test_conversion_preconditions(self):
        s = Scheme(SchemeKind.DECOUPLING, (Step(1.0, identity_steps(2)),))
        with pytest.raises(ValueError, match="at least 2"):
            decoupling_to_inversion(s)
        with pytest.raises(ValueError, match="inversion"):
            inversion_to_decoupling(s)
        with pytest.raises(ValueError, match="^expected a decoupling scheme$"):
            decoupling_to_inversion(cyclic_scheme(2))


class TestSynthesizeCase1:
    def test_dipole_steps_are_the_axis_cycle_powers(self):
        S = axis_cycle()
        scheme = synthesize_case1(complete_weights(2), dipole_type())
        assert np.array_equal(scheme.steps[0].rotations[0], S)
        assert np.array_equal(scheme.steps[1].rotations[0], S @ S)
        # cyclic sums of the traceless diagonal give its negative
        A = dipole_type()
        total = S @ A @ S.T + S @ S @ A @ (S @ S).T
        assert np.array_equal(total, -A)

    def test_random_traceless_diagonal(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            a, b = rng.normal(size=2)
            A = np.diag([a, b, -a - b])
            W = random_weights(rng, 3)
            scheme = synthesize_case1(W, A)
            assert verify(scheme, tensor_coupling(W, A), tol=1e-12).ok

    def test_conjugated_traceless_type(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            Q = random_rotation(rng)
            A = Q @ dipole_type() @ Q.T
            W = random_weights(rng, 4)
            result = verify(synthesize_case1(W, A), tensor_coupling(W, A), tol=1e-10)
            assert result.ok

    def test_stats_contract(self):
        scheme = synthesize_case1(complete_weights(5), dipole_type())
        stats = scheme_stats(scheme)
        assert (stats.n_steps, stats.tau, stats.collective) == (2, 2.0, True)

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError, match="traceless"):
            synthesize_case1(complete_weights(2), scalar_type())


class TestHadamard:
    def test_small_orders(self):
        assert np.array_equal(hadamard_matrix(1), [[1]])
        assert np.array_equal(hadamard_matrix(2), [[1, 1], [1, -1]])

    def test_rows_orthogonal(self):
        H = hadamard_matrix(4)
        assert np.array_equal(H @ H.T, 4 * np.eye(4, dtype=int))

    @pytest.mark.parametrize("bad", [0, 3, 6, -2, True])  # a bool is no integer order
    def test_rejects_non_powers_of_two(self, bad):
        with pytest.raises(ValueError, match="power of two"):
            hadamard_matrix(bad)


class TestSelectiveDecoupling:
    def test_two_spins_keep_z(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        avg = average_coupling(selective_decoupling(2, "z"), J)
        expected = tensor_coupling(complete_weights(2), np.diag([0.0, 0.0, 1.0]))
        assert np.abs(avg - expected).max() <= 1e-14

    def test_kept_component_passes_unweakened(self):
        A = np.diag([0.0, 0.0, 0.7])
        J = tensor_coupling(complete_weights(2), A)
        avg = average_coupling(selective_decoupling(2, "z"), J)
        assert np.abs(avg - J).max() <= 1e-14

    def test_three_spins_pad_to_four_steps(self):
        fragment = selective_decoupling(3, "x")
        assert len(fragment.steps) == 4
        assert all(step.t == 0.25 for step in fragment.steps)
        J = tensor_coupling(complete_weights(3), scalar_type())
        avg = average_coupling(fragment, J)
        expected = tensor_coupling(complete_weights(3), np.diag([1.0, 0.0, 0.0]))
        assert np.linalg.norm(avg - expected) / np.linalg.norm(J) <= 1e-12

    def test_true_decoupler_when_kept_component_vanishes(self):
        # nothing survives on the z axis, so the declared kind verifies
        A = np.diag([1.0, -2.0, 0.0])
        J = tensor_coupling(complete_weights(3), A)
        result = verify(selective_decoupling(3, "z"), J, tol=1e-12)
        assert result.ok

    def test_pi_rotation_patterns(self):
        assert np.array_equal(pi_rotation("z"), np.diag([-1.0, -1.0, 1.0]))
        assert np.array_equal(pi_rotation("x"), np.diag([1.0, -1.0, -1.0]))
        with pytest.raises(ValueError):
            pi_rotation("w")

    def test_rejects_a_single_spin(self):
        with pytest.raises(ValueError, match="^need at least 2 spins$"):
            selective_decoupling(1)


class TestSynthesizeCase2:
    def test_pivot_arithmetic_two_one_minus_one(self):
        # pivots: x,y use z (|a|=1), z uses x (|a|=2): tau = 2 + 1 + 1/2
        A = np.diag([2.0, 1.0, -1.0])
        for n in (3, 6):
            W = complete_weights(n)
            scheme = synthesize_case2(W, A)
            stats = scheme_stats(scheme)
            assert stats.tau == 3.5
            assert not stats.collective
            assert stats.n_steps <= 3 * (1 << (n - 1).bit_length())
            assert verify(scheme, tensor_coupling(W, A), tol=1e-10).ok

    def test_overhead_depends_only_on_the_spectrum(self):
        A = np.diag([2.0, 1.0, -1.0])
        tau3 = scheme_stats(synthesize_case2(complete_weights(3), A)).tau
        tau6 = scheme_stats(synthesize_case2(complete_weights(6), A)).tau
        assert abs(tau3 - tau6) <= 1e-12

    def test_zero_eigenvalue_skipped(self):
        A = np.diag([1.0, 0.0, -1.0])
        W = complete_weights(3)
        scheme = synthesize_case2(W, A)
        assert scheme_stats(scheme).tau == 2.0
        assert verify(scheme, tensor_coupling(W, A), tol=1e-10).ok

    def test_two_positive_one_negative_unit_spectrum(self):
        # diag(1,-1,1): each unit eigenvalue pivots through a unit partner
        A = np.diag([1.0, -1.0, 1.0])
        W = complete_weights(3)
        scheme = synthesize_case2(W, A)
        assert scheme_stats(scheme).tau == 3.0
        assert verify(scheme, tensor_coupling(W, A), tol=1e-10).ok

    def test_conjugated_type_matrix(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            Q = random_rotation(rng)
            A = Q @ np.diag([2.0, 1.0, -1.0]) @ Q.T
            W = random_weights(rng, 3)
            scheme = synthesize_case2(W, A)
            assert verify(scheme, tensor_coupling(W, A), tol=1e-10).ok

    def test_rejects_semidefinite(self):
        with pytest.raises(ValueError, match="both signs"):
            synthesize_case2(complete_weights(3), scalar_type())

    def test_validates_each_rotation_once(self, monkeypatch):
        # the Hadamard fragments are plain rotation stacks; only the final
        # Scheme validates, so N steps of n spins pass N * n rotations
        validated = []

        def counting(R, *args, **kwargs):
            validated.append(np.asarray(R).reshape(-1, 3, 3).shape[0])
            return check_rotation(R, *args, **kwargs)

        monkeypatch.setattr(schemes, "check_rotation", counting)
        n = 5
        scheme = synthesize_case2(random_weights(np.random.default_rng(42), n), np.diag([2.0, 1.0, -1.0]))
        assert sum(validated) == len(scheme.steps) * n


class TestSchemeStats:
    def test_cyclic(self):
        stats = scheme_stats(cyclic_scheme(3))
        assert (stats.n_steps, stats.tau, stats.collective) == (2, 2.0, True)

    def test_case2_counts(self):
        scheme = synthesize_case2(complete_weights(4), np.diag([2.0, 1.0, -1.0]))
        stats = scheme_stats(scheme)
        assert stats.n_steps <= 12
        assert stats.tau == 3.5
        assert not stats.collective

    def test_single_fractional_step(self):
        s = Scheme(SchemeKind.INVERSION, (Step(0.5, identity_steps(2)),))
        stats = scheme_stats(s)
        assert (stats.n_steps, stats.tau, stats.collective) == (1, 0.5, True)


class TestTraceObstruction:
    def test_collective_schemes_preserve_block_trace_sign(self):
        # with tr A > 0 and w_12 > 0 no collective scheme can make the
        # (1,2) block trace negative
        rng = np.random.default_rng(42)
        W = complete_weights(3)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            A = A + A.T
            if np.trace(A) <= 0.0:
                A = A + (1.0 - np.trace(A)) * np.eye(3)
            s = random_scheme(rng, 3, n_steps=int(rng.integers(1, 5)), collective=True)
            avg = average_coupling(s, tensor_coupling(W, A))
            assert np.trace(avg[0:3, 3:6]) >= -1e-12


# scheme documents that must be rejected, and a fragment of the message
INVALID_DOCUMENTS = [
    (lambda d: d.update(kind="flip"), "inversion"),
    (lambda d: d.pop("steps"), '"steps"'),
    (lambda d: d["steps"][0].update(t=-1.0), "positive"),
    (lambda d: d["steps"][0]["rotations"][0][0].__setitem__(0, 5.0), "orthogonal"),
    (lambda d: d.update(n=3), "per spin"),
    (lambda d: d.update(n=True), '"n" must be a positive integer'),
    (lambda d: d["steps"][0].update(t=True), 'step "t" must be a number'),
    (lambda d: d["steps"][0].update(t="2.5"), 'step "t" must be a number'),
    (lambda d: d["steps"][0].update(rotations=_as_strings(d["steps"][0]["rotations"])), "only numbers"),
    (lambda d: _replace_unit_entry(d["steps"][0]["rotations"], True), "only numbers"),
    (lambda d: d["steps"][0].update(t=10**400), "positive and finite"),
    (lambda d: _replace_unit_entry(d["steps"][0]["rotations"], 10**400), "numeric"),
    (lambda d: d["steps"][1]["rotations"][-1][-1].__setitem__(-1, -(10**400)), "numeric"),
    # rows of lengths 4, 2 and 3: nine leaves, but not a 3x3 matrix
    (lambda d: _move_last_entry(d["steps"][0]["rotations"][1], 1, 0), "numeric"),
    (lambda d: d["steps"][0].update(rotations=_nest_leaves(d["steps"][0]["rotations"])), "per spin"),
    (lambda d: _mix_bool_and_string(d["steps"][0]["rotations"][1]), "only numbers"),
    (lambda d: _replace_unit_entry(d["steps"][0]["rotations"], 1e200), "orthogonal"),
    (lambda d: _replace_unit_entry(d["steps"][1]["rotations"], float("inf")), "orthogonal"),
    (lambda d: d["steps"][1].pop("t"), 'each step needs "t" and "rotations"'),
]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(43)
        s = random_scheme(rng, 3, n_steps=4, kind=SchemeKind.DECOUPLING)
        data = scheme_to_dict(s)
        back = scheme_from_dict(data)
        assert back.kind is s.kind
        for a, b in zip(back.steps, s.steps):
            assert a.t == b.t
            assert np.array_equal(a.rotations, b.rotations)

    def test_shape_of_the_dict(self):
        s = cyclic_scheme(2)
        data = scheme_to_dict(s)
        assert data["kind"] == "inversion"
        assert data["n"] == 2
        assert len(data["steps"]) == 2
        assert np.asarray(data["steps"][0]["rotations"]).shape == (2, 3, 3)

    @pytest.mark.parametrize("mutate,fragment", INVALID_DOCUMENTS)
    def test_invalid_documents_are_rejected(self, mutate, fragment):
        data = scheme_to_dict(cyclic_scheme(2))
        mutate(data)
        with pytest.raises(ValueError) as err:
            scheme_from_dict(data)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("route", ["class-1", "class-2", "search"])
    def test_streamed_json_is_the_dumped_dict(self, route):
        W = complete_weights(3)
        if route == "class-1":
            scheme = synthesize_case1(W, dipole_type())
        elif route == "class-2":
            scheme = synthesize_case2(W, np.diag([2.0, 1.0, -1.0]))
        else:
            from spinrev import greedy_pool_growth, pair_pi_pool

            scheme = greedy_pool_growth(tensor_coupling(W, scalar_type()), pair_pi_pool(3, seed=7)).scheme
        chunks = list(schemes._scheme_json_chunks(scheme))
        assert len(chunks) == len(scheme.steps) + 2
        assert "".join(chunks) == json.dumps(scheme_to_dict(scheme))

    @pytest.mark.parametrize("dtype", [float, np.float32, int])
    def test_numeric_rotation_arrays_parse_like_their_lists(self, dtype):
        data = scheme_to_dict(cyclic_scheme(3))
        from_lists = scheme_from_dict(data)
        for step in data["steps"]:
            step["rotations"] = np.array(step["rotations"]).astype(dtype)
        from_arrays = scheme_from_dict(data)
        assert from_arrays.kind is from_lists.kind
        for a, b in zip(from_arrays.steps, from_lists.steps):
            assert a.t == b.t
            assert a.rotations.dtype == np.float64
            assert np.array_equal(a.rotations, b.rotations)


class TestStreamedReader:
    """Scheme files in the writer's layout are read by `_read_own_layout`;
    any other text is decoded whole and read by `scheme_from_dict`."""

    @pytest.mark.parametrize("text", ["[]", "null", "1", '"scheme"'], ids=["array", "null", "number", "string"])
    def test_a_file_that_holds_no_object_is_refused_by_verify(self, tmp_path, capsys, text):
        coupling = tmp_path / "c.json"
        coupling.write_text(json.dumps({"n": 2, "W": complete_weights(2).tolist(), "A": dipole_type().tolist()}))
        scheme = tmp_path / "s.json"
        scheme.write_text(text)
        code = cli.main(["verify", "--coupling", str(coupling), "--scheme", str(scheme)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: scheme file must hold a JSON object"]

    @pytest.mark.parametrize("mutate,fragment", INVALID_DOCUMENTS)
    def test_invalid_files_are_rejected_by_verify(self, tmp_path, capsys, mutate, fragment):
        data = scheme_to_dict(cyclic_scheme(2))
        mutate(data)
        coupling = tmp_path / "c.json"
        coupling.write_text(json.dumps({"n": 2, "W": complete_weights(2).tolist(), "A": dipole_type().tolist()}))
        scheme = tmp_path / "s.json"
        scheme.write_text(json.dumps(data))
        code = cli.main(["verify", "--coupling", str(coupling), "--scheme", str(scheme)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert fragment in captured.err
        # json.dumps writes the writer's layout: the own-layout reader either
        # refuses the file or raises what the general reader raises
        assert captured.err == f"error: {_general_reader_error(scheme.read_text())}\n"

    def test_reading_a_class2_file_holds_about_one_copy(self, tmp_path):
        # the whole decoded tree of lists and floats is ~5x the file plus
        # its float64 arrays; one step at a time stays near 1x
        scheme = synthesize_case2(complete_weights(24), np.diag([2.0, 1.0, -1.0]))
        assert len(scheme.steps) == 96
        path = tmp_path / "s.json"
        cli._write_scheme(str(path), scheme)
        float_bytes = 72 * len(scheme.steps) * scheme.n
        tracemalloc.start()
        try:
            loaded = cli._load_scheme(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded.steps) == 96
        assert peak <= 2 * (path.stat().st_size + float_bytes)


def _general_reader_error(text):
    with pytest.raises(ValueError) as err:
        scheme_from_dict(json.loads(text))
    return str(err.value)


def _own_layout_scheme(route):
    W = complete_weights(3)
    if route == "class-1":
        return synthesize_case1(W, dipole_type())
    if route == "class-2-turned":
        Q = random_rotation(np.random.default_rng(7))
        A = Q @ np.diag([2.0, 1.0, -1.0]) @ Q.T
        return synthesize_case2(W, 0.5 * (A + A.T))
    if route == "search":
        from spinrev import greedy_pool_growth, pair_pi_pool

        return greedy_pool_growth(tensor_coupling(W, scalar_type()), pair_pi_pool(3, seed=7)).scheme
    if route == "class-2":
        return synthesize_case2(W, np.diag([2.0, 1.0, -1.0]))
    if route == "decoupling":
        return inversion_to_decoupling(_own_layout_scheme("class-2"))
    if route == "negative-zeros":
        R = pi_rotation("z")
        R[0, 1] = R[1, 2] = R[2, 0] = -0.0
        spins = np.stack([R, pi_rotation("z"), np.eye(3)])
        return Scheme(SchemeKind.INVERSION, (Step(1.0, spins), Step(0.25, spins[::-1])))
    assert route == "one-spin"
    return Scheme(SchemeKind.DECOUPLING, (Step(1.0, identity_steps(1)), Step(3.0, pi_rotation("x")[None])))


def _set_first(text, key, literal):
    # the first number after `key` in the text spelled as `literal`
    head, key, rest = text.partition(key)
    return head + key + literal + rest[rest.index(","):]


def _set_first_row(text, literal):
    # the first row of the first rotation in the text spelled as `literal`
    head, key, rest = text.partition('"rotations": [[')
    return head + key + literal + rest[rest.index("]") + 1 :]


def _reordered(text):
    data = json.loads(text)
    steps = [{"rotations": step["rotations"], "t": step["t"]} for step in data["steps"]]
    return json.dumps({"steps": steps, "n": data["n"], "kind": data["kind"]})


_FIRST_T, _FIRST_ENTRY = '{"t": ', '"rotations": [[['

# writer's text -> a near variant that the own-layout reader must refuse
NEAR_LAYOUT_TEXTS = {
    "indented": lambda text: json.dumps(json.loads(text), indent=1),
    "compact": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "trailing-newline": lambda text: text + "\n",
    "key-order": _reordered,
    "spaced-separator": lambda text: text.replace("]], [[", "]],  [[", 1),
    "true-entry": lambda text: _set_first(text, _FIRST_ENTRY, "true"),
    "string-entry": lambda text: _set_first(text, _FIRST_ENTRY, '"0.0"'),
    "huge-integer-entry": lambda text: _set_first(text, _FIRST_ENTRY, str(10**400)),
    "ragged-rows": lambda text: text.replace("], [", ", ", 1),
    "nested-entry": lambda text: _set_first(text, _FIRST_ENTRY, "[0.0]"),
    # rows of length 3 whose items are strings: the keys, the characters
    "object-row": lambda text: _set_first_row(text, '{"a": 1, "b": 0, "c": 0}'),
    "string-row": lambda text: _set_first_row(text, '"abc"'),
    "extra-rotation": lambda text: text.replace("]]]}", "]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}", 1),
    # n pieces when split on "]], [[", n + 1 rotations to JSON
    "unspaced-extra-rotation": lambda text: text.replace("]]]}", "]],[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}", 1),
    "huge-integer-time": lambda text: _set_first(text, _FIRST_T, str(10**400)),
    "true-time": lambda text: _set_first(text, _FIRST_T, "true"),
    "list-time": lambda text: _set_first(text, _FIRST_T, "[0.5]"),
    "zero-spins": lambda text: text.replace('"n": 3', '"n": 0', 1),
    "padded-spins": lambda text: text.replace('"n": 3', '"n": 03', 1),
    "huge-spins": lambda text: text.replace('"n": 3', '"n": ' + "3" * 5000, 1),
    "other-kind": lambda text: text.replace('"inversion"', '"Inversion"', 1),
    "empty-steps": lambda text: text.partition(_FIRST_T)[0] + "]}",
}

# writer's text -> the same layout with a time or a rotation entry that no
# scheme takes: the own-layout reader parses it, and `Scheme._from_arrays`
# refuses it as the general reader does
BAD_VALUE_TEXTS = {
    "nan-entry": lambda text: _set_first(text, _FIRST_ENTRY, "NaN"),
    "infinite-entry": lambda text: _set_first(text, _FIRST_ENTRY, "-Infinity"),
    "overflowing-entry": lambda text: _set_first(text, _FIRST_ENTRY, "1e400"),
    "nan-time": lambda text: _set_first(text, _FIRST_T, "NaN"),
    "infinite-time": lambda text: _set_first(text, _FIRST_T, "Infinity"),
    "overflowing-time": lambda text: _set_first(text, _FIRST_T, "1e400"),
    "negative-time": lambda text: _set_first(text, _FIRST_T, "-0.5"),
    "zero-time": lambda text: _set_first(text, _FIRST_T, "0"),
}


class TestOwnLayoutReader:
    """`_read_own_layout` takes what `cli._write_scheme` writes and hands
    everything else to the general reader."""

    @pytest.mark.parametrize(
        "route", ["class-1", "class-2-turned", "search", "decoupling", "negative-zeros", "one-spin"]
    )
    def test_takes_every_written_file_as_the_general_reader_does(self, tmp_path, route):
        scheme = _own_layout_scheme(route)
        path = tmp_path / "s.json"
        cli._write_scheme(str(path), scheme)
        text = path.read_text()
        # fails, rather than falling back, if the writer's layout changes
        own = schemes._read_own_layout(text)
        assert own is not None
        general = scheme_from_dict(json.loads(text))
        for got in (own, cli._load_scheme(str(path))):
            assert got.kind is general.kind is scheme.kind
            assert got.times.tobytes() == general.times.tobytes() == scheme.times.tobytes()
            assert got.rotations.tobytes() == general.rotations.tobytes() == scheme.rotations.tobytes()

    def test_takes_other_spellings_of_the_same_numbers(self):
        text = "".join(schemes._scheme_json_chunks(_own_layout_scheme("class-2")))
        spelled = _set_first(_set_first(text, _FIRST_T, "5E-1"), _FIRST_ENTRY, "-0").replace("1.0", "1", 3)
        own, general = schemes._read_own_layout(spelled), scheme_from_dict(json.loads(spelled))
        assert own is not None
        assert own.times.tobytes() == general.times.tobytes()
        assert own.rotations.tobytes() == general.rotations.tobytes()

    @pytest.mark.parametrize("variant", sorted(NEAR_LAYOUT_TEXTS))
    def test_near_layouts_go_to_the_general_reader(self, tmp_path, capsys, variant):
        text = "".join(schemes._scheme_json_chunks(_own_layout_scheme("class-2")))
        text = NEAR_LAYOUT_TEXTS[variant](text)
        assert schemes._read_own_layout(text) is None
        coupling, scheme = tmp_path / "c.json", tmp_path / "s.json"
        coupling.write_text(json.dumps({"n": 3, "W": complete_weights(3).tolist(), "A": np.diag([2, 1, -1]).tolist()}))
        scheme.write_text(text)
        code = cli.main(["verify", "--coupling", str(coupling), "--scheme", str(scheme)])
        captured = capsys.readouterr()
        try:
            general = scheme_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            assert (code, captured.out, captured.err) == (2, "", f"error: {scheme} is not valid JSON: {exc}\n")
        except ValueError as exc:
            assert (code, captured.out, captured.err) == (2, "", f"error: {exc}\n")
        else:
            assert code == 0 and json.loads(captured.out)["ok"] is True
            loaded = cli._load_scheme(str(scheme))
            assert loaded.times.tobytes() == general.times.tobytes()
            assert loaded.rotations.tobytes() == general.rotations.tobytes()

    @pytest.mark.parametrize("variant", sorted(BAD_VALUE_TEXTS))
    def test_bad_values_are_refused_as_the_general_reader_refuses_them(self, tmp_path, capsys, variant):
        text = BAD_VALUE_TEXTS[variant]("".join(schemes._scheme_json_chunks(_own_layout_scheme("class-2"))))
        with pytest.raises(ValueError) as general:
            scheme_from_dict(json.loads(text))
        with pytest.raises(ValueError) as own:
            schemes._read_own_layout(text)
        assert str(own.value) == str(general.value)
        coupling, scheme = tmp_path / "c.json", tmp_path / "s.json"
        coupling.write_text(json.dumps({"n": 3, "W": complete_weights(3).tolist(), "A": np.diag([2, 1, -1]).tolist()}))
        scheme.write_text(text)
        code = cli.main(["verify", "--coupling", str(coupling), "--scheme", str(scheme)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {general.value}\n")

    def test_a_ragged_rotation_is_refused_not_read_flat(self):
        # rows of 4, 2 and 3 numbers: nine per rotation, but not a 3x3
        # matrix; read flat it would pass as a matrix and fail as "not orthogonal"
        data = scheme_to_dict(cyclic_scheme(2))
        _move_last_entry(data["steps"][0]["rotations"][1], 1, 0)
        assert list(map(len, data["steps"][0]["rotations"][1])) == [4, 2, 3]
        text = json.dumps(data)
        assert schemes._read_own_layout(text) is None
        with pytest.raises(ValueError, match="numeric") as err:
            schemes._read_scheme(text)
        assert "orthogonal" not in str(err.value)

    def test_falls_back_once_a_file_repeats_few_rotations(self):
        rng = np.random.default_rng(11)
        distinct = Scheme._from_arrays(SchemeKind.INVERSION, np.ones(4), _haar_rotations(rng, (4, 65)))
        text = "".join(schemes._scheme_json_chunks(distinct))
        assert schemes._read_own_layout(text) is None
        few = Scheme._from_arrays(SchemeKind.INVERSION, np.ones(4), _haar_rotations(rng, (4, 64)))
        assert schemes._read_own_layout("".join(schemes._scheme_json_chunks(few))) is not None
        assert schemes._read_scheme(text).rotations.tobytes() == distinct.rotations.tobytes()


def _as_strings(rotations):
    return [[[str(x) for x in row] for row in R] for R in rotations]


def _replace_unit_entry(rotations, value):
    # a JSON true where the rotation holds 1.0: numerically the same matrix
    for R in rotations:
        for row in R:
            for j, x in enumerate(row):
                if x == 1.0:
                    row[j] = value
                    return


def _move_last_entry(R, src, dst):
    R[dst].append(R[src].pop())


def _nest_leaves(rotations):
    # a 4-deep nest: each leaf x becomes [x]
    return [[[[x] for x in row] for row in R] for R in rotations]


def _mix_bool_and_string(R):
    # one spin holding a JSON true and a numeric string
    _replace_unit_entry([R], True)
    R[2][2] = str(R[2][2])


class TestNumpyScalarTimes:
    def _doc(self, t, n=1):
        return {"kind": "inversion", "n": n, "steps": [{"t": t, "rotations": [np.eye(3).tolist()]}]}

    def test_numpy_float_time_and_integer_n_parse(self):
        scheme = scheme_from_dict(self._doc(np.float64(1.0), n=np.int64(1)))
        assert scheme.steps[0].t == 1.0
        assert scheme.n == 1

    def test_numpy_boolean_time_still_fails(self):
        with pytest.raises(ValueError, match='step "t" must be a number'):
            scheme_from_dict(self._doc(np.bool_(True)))
