"""Spectral lower bounds and the scheme audit."""

import numpy as np
import pytest

from spinrev import (
    SchemeStats,
    audit_stats_against_bounds,
    bounds_report,
    check_scheme_against_bounds,
    complete_weights,
    dipole_type,
    scalar_type,
    scheme_stats,
    steps_lower_bound,
    steps_lower_bound_case2,
    synthesize_case1,
    tensor_coupling,
    tau_lower_bound,
)
from spinrev.schemes import Scheme, SchemeKind, Step

from helpers import block_diag_rotations, random_rotation, random_scheme


class TestTauLowerBound:
    def test_complete_heisenberg_is_n_minus_one(self):
        for n in (2, 3, 5, 9, 16):
            J = tensor_coupling(complete_weights(n), scalar_type())
            assert abs(tau_lower_bound(J) - (n - 1)) <= 1e-9

    def test_two_spin_dipole(self):
        # W eigenvalues {1,-1} times A eigenvalues {1,1,-2}: J spectrum
        # {+-1, +-1, +-2}, so the bound is 2/2 = 1
        J = tensor_coupling(complete_weights(2), dipole_type())
        assert abs(tau_lower_bound(J) - 1.0) <= 1e-12

    def test_three_spin_dipole_values(self):
        # complete graph: W eigs {2,-1,-1} x A eigs {1,1,-2} -> lam_max 2,
        # lam_min -4, rho 0.5, so -J's bound 1/rho = 2 binds, which the
        # 2-step collective scheme meets; the 3-chain has a symmetric spectrum -> 1
        J = tensor_coupling(complete_weights(3), dipole_type())
        assert tau_lower_bound(J) == pytest.approx(2.0, abs=1e-12)
        chain = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert abs(tau_lower_bound(tensor_coupling(chain, dipole_type())) - 1.0) <= 1e-12

    def test_scale_invariance(self):
        J = tensor_coupling(complete_weights(4), dipole_type())
        assert abs(tau_lower_bound(J) - tau_lower_bound(17.0 * J)) <= 1e-12

    def test_invariant_under_block_rotations(self):
        rng = np.random.default_rng(51)
        J = tensor_coupling(complete_weights(3), dipole_type())
        base = tau_lower_bound(J)
        for _ in range(5):
            V = block_diag_rotations(np.stack([random_rotation(rng) for _ in range(3)]))
            assert abs(tau_lower_bound(V @ J @ V.T) - base) <= 1e-9

    def test_monotone_in_n_for_semidefinite_types(self):
        values = [
            tau_lower_bound(tensor_coupling(complete_weights(n), scalar_type()))
            for n in range(2, 10)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            tau_lower_bound(np.zeros((6, 6)))


class TestStepsLowerBound:
    def test_heisenberg(self):
        assert steps_lower_bound(complete_weights(5), scalar_type()) == 4
        assert steps_lower_bound(complete_weights(2), scalar_type()) == 1

    def test_rank_deficient_type(self):
        # the bound is n-1 independent of rank(A)
        assert steps_lower_bound(complete_weights(5), np.diag([1.0, 1.0, 0.0])) == 4

    def test_every_class_gets_the_inertia_bound(self):
        # no class is refused: W eigs {3,-1,-1,-1} x A eigs {1,1,-2} give
        # nu+ = 2 + 3 = 5 and nu- = 1 + 6 = 7, so ceil(7/5) = 2 steps
        assert steps_lower_bound(complete_weights(4), dipole_type()) == 2

    def test_non_complete_weights_get_the_inertia_bound(self):
        # any W: one weakened pair keeps W's one positive and n-1 negative
        # eigenvalues, so the scalar type still needs n-1 steps
        W = complete_weights(4)
        W[0, 1] = W[1, 0] = 0.5
        assert steps_lower_bound(W, scalar_type()) == 3


class TestStepsLowerBoundCase2:
    def test_exact_power(self):
        assert steps_lower_bound_case2(16, 2) == 4

    def test_rounds_up(self):
        assert steps_lower_bound_case2(10, 3) == 3  # ceil(2.095...)

    def test_smallest(self):
        for p in (2, 3, 7):
            assert steps_lower_bound_case2(2, p) == 1

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError, match="p"):
            steps_lower_bound_case2(4, 1)
        with pytest.raises(ValueError, match="^need at least 2 spins$"):
            steps_lower_bound_case2(1, 2)


class TestBoundsReport:
    def test_heisenberg(self):
        n = 6
        report = bounds_report(
            tensor_coupling(complete_weights(n), scalar_type()),
            complete_weights(n),
            scalar_type(),
        )
        assert report.case.value == "3"
        assert abs(report.tau_lower - 5.0) <= 1e-9
        assert report.steps_lower == 5
        assert report.lambda_min < 0.0 < report.lambda_max

    def test_dipole_needs_two_steps(self):
        # W eigs {5, -1 x 5} x A eigs {1, 1, -2}: nu+ = 7, nu- = 11
        n = 6
        report = bounds_report(
            tensor_coupling(complete_weights(n), dipole_type()),
            complete_weights(n),
            dipole_type(),
        )
        assert report.case.value == "1"
        assert report.steps_lower == 2
        assert any("inertia" in note for note in report.notes)

    def test_mixed_sign_with_partition(self):
        n = 9
        A = np.diag([2.0, 1.0, -1.0])
        report = bounds_report(tensor_coupling(complete_weights(n), A), complete_weights(n), A, p=3)
        assert report.case.value == "2"
        assert report.steps_lower == 2  # ceil(log 9 / log 3)

    def test_raw_coupling_gets_both_bounds(self):
        # the step bound needs no factors: the raw 4-spin scalar J has nu+ = 3, nu- = 9
        report = bounds_report(tensor_coupling(complete_weights(4), scalar_type()))
        assert report.case is None
        assert report.tau_lower == pytest.approx(3.0, abs=1e-12)
        assert report.steps_lower == 3

    def test_serialization_keys(self):
        report = bounds_report(
            tensor_coupling(complete_weights(3), scalar_type()),
            complete_weights(3),
            scalar_type(),
        )
        data = report.to_dict()
        assert set(data) == {"case", "tau_lower", "steps_lower", "spectral", "notes"}
        assert set(data["spectral"]) == {"lambda_min", "lambda_max"}

    def test_factors_that_do_not_match_j_are_refused(self):
        W = complete_weights(3)
        with pytest.raises(ValueError, match="does not equal W"):
            bounds_report(tensor_coupling(W, dipole_type()), W, scalar_type())
        with pytest.raises(ValueError, match="does not equal W"):
            bounds_report(tensor_coupling(complete_weights(4), scalar_type()), W, scalar_type())
        # the same mismatch, W doubled, at every scale of J
        for c in (1e-170, 1e-7, 1.0, 1e160):
            with pytest.raises(ValueError, match="does not equal W"):
                bounds_report(c * tensor_coupling(W, dipole_type()), 2 * c * W, dipole_type())
        # rounding-level differences pass
        J = tensor_coupling(W, scalar_type()) * (1.0 + 1e-15)
        assert bounds_report(J, W, scalar_type()).case.value == "3"

    @pytest.mark.parametrize("factor", ["W", "A"])
    def test_one_factor_alone_is_refused(self, factor):
        W = complete_weights(3)
        J = tensor_coupling(W, scalar_type())
        with pytest.raises(ValueError, match="factored bounds need both W and A"):
            bounds_report(J, **{factor: W if factor == "W" else scalar_type()})

    @pytest.mark.parametrize("p", [0, 1, -3])
    @pytest.mark.parametrize("form", ["class1", "class3", "raw"])
    def test_partition_size_is_checked_for_every_class(self, form, p):
        # the same rule and message as the class-2 step bound, whatever applies
        W = complete_weights(3)
        A = dipole_type() if form == "class1" else scalar_type()
        factors = {} if form == "raw" else {"W": W, "A": A}
        with pytest.raises(ValueError, match=r"^partition size p must be an integer >= 2$"):
            bounds_report(tensor_coupling(W, A), p=p, **factors)


class TestAudit:
    def test_case1_scheme_passes(self):
        W = complete_weights(3)
        scheme = synthesize_case1(W, dipole_type())
        audit = check_scheme_against_bounds(scheme, W, dipole_type())
        assert audit.passed
        assert audit.tau == 2.0
        assert audit.tau_margin >= 0.0
        # both bounds are met exactly: tau 2 and 2 steps
        assert audit.steps_lower == 2 and audit.steps_margin == 0

    def test_heisenberg_search_witness_passes(self):
        from spinrev import find_inversion_nnls, pair_pi_pool

        W = complete_weights(2)
        result = find_inversion_nnls(tensor_coupling(W, scalar_type()), pair_pi_pool(2))
        audit = check_scheme_against_bounds(result.scheme, W, scalar_type())
        assert audit.passed
        assert audit.tau_margin == pytest.approx(2.0, abs=1e-9)
        assert audit.steps_lower == 1 and audit.steps_margin == 2

    def test_unverified_scheme_is_refused(self):
        W = complete_weights(2)
        s = Scheme(SchemeKind.INVERSION, (Step(1.0, np.tile(np.eye(3), (2, 1, 1))),))
        with pytest.raises(ValueError, match="audit refused"):
            check_scheme_against_bounds(s, W, scalar_type())

    def test_synthetic_violation_fails_with_negative_margin(self):
        # hand-edited statistics exercise the failure path directly
        W = complete_weights(4)
        fake = SchemeStats(n_steps=2, tau=0.1, collective=False)
        audit = audit_stats_against_bounds(fake, W, scalar_type())
        assert not audit.passed
        assert audit.tau_margin < 0.0
        assert audit.steps_margin == 2 - 3

    def test_a_loose_tol_allows_the_error_verify_allowed(self):
        # n = 4 complete scalar: tau_lower 3, J's eigenvalues 3 (x 3) and
        # -1 (x 9), ||J||_F = 6
        W = complete_weights(4)
        cases = [
            (1e-9, 2.5, 3, False, 3),
            (0.1, 2.5, 3, True, 3),  # tau may fall by 0.1 * 6 / 1
            (0.1, 2.3, 3, False, 3),
            (0.1, 3.0, 2, False, 3),  # 0.6 < 1: -J + E keeps all 9 positive eigenvalues
            (0.2, 3.0, 2, True, 1),  # 1.2 > 1: it keeps none, and 3 negative ones need 1 step
        ]
        for tol, tau, n_steps, passed, steps_lower in cases:
            stats = SchemeStats(n_steps=n_steps, tau=tau, collective=False)
            audit = audit_stats_against_bounds(stats, W, scalar_type(), tol)
            assert (audit.passed, audit.steps_lower) == (passed, steps_lower)
            assert audit.tau_margin == tau - audit.tau_lower
            assert audit.tau_lower == pytest.approx(3.0, abs=1e-12)

    def test_unfactored_coupling_gets_both_bounds(self):
        from spinrev.coupling import _checked

        J = tensor_coupling(complete_weights(4), scalar_type())
        for n_steps, tau, passed in ((3, 3.5, True), (3, 2.5, False), (2, 3.5, False)):
            stats = SchemeStats(n_steps=n_steps, tau=tau, collective=False)
            audit = audit_stats_against_bounds(stats, _checked(J))
            assert audit.passed is passed
            assert audit.tau_lower == tau_lower_bound(J)
            assert audit.tau_margin == tau - tau_lower_bound(J)
            assert audit.steps_lower == 3 and audit.steps_margin == n_steps - 3

    @pytest.mark.parametrize("form", ["raw", "checked", "factored"])
    def test_every_coupling_form_gets_the_same_audit(self, form):
        # the 3-spin complete dipole and its 2-step scheme meet both bounds
        from spinrev.coupling import _checked

        W, A = complete_weights(3), dipole_type()
        J = tensor_coupling(W, A)
        coupling = {"raw": (J,), "checked": (_checked(J),), "factored": (W, A)}[form]
        scheme = synthesize_case1(W, A)
        audit = audit_stats_against_bounds(scheme_stats(scheme), *coupling)
        assert audit == audit_stats_against_bounds(scheme_stats(scheme), W, A)
        assert audit.passed and audit.steps_lower == 2 and audit.steps_margin == 0
        assert check_scheme_against_bounds(scheme, *coupling) == audit

    def test_the_audit_reads_the_spectrum_alone(self, monkeypatch):
        # no audit field reads the type's class, so the audit classifies nothing
        import spinrev.bounds

        real = spinrev.bounds.classify_type
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spinrev.bounds, "classify_type", counting)
        stats = SchemeStats(n_steps=3, tau=3.0, collective=False)
        audit = audit_stats_against_bounds(stats, complete_weights(4), scalar_type())
        assert calls == []
        report = bounds_report(tensor_coupling(complete_weights(4), scalar_type()))
        assert audit.passed
        assert (audit.tau, audit.tau_lower, audit.tau_margin) == (3.0, report.tau_lower, 3.0 - report.tau_lower)
        assert (audit.n_steps, audit.steps_lower, audit.steps_margin) == (3, 3, 0)

    def test_a_zero_coupling_is_refused(self):
        stats = SchemeStats(n_steps=3, tau=3.0, collective=False)
        with pytest.raises(ValueError, match="zero coupling"):
            audit_stats_against_bounds(stats, np.zeros((3, 3)), scalar_type())

    def test_decoupling_schemes_are_rejected(self):
        rng = np.random.default_rng(52)
        s = random_scheme(rng, 2, kind=SchemeKind.DECOUPLING)
        with pytest.raises(ValueError, match="inversion"):
            check_scheme_against_bounds(s, complete_weights(2), scalar_type())
