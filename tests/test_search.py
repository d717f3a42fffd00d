"""Octahedral pools, the active-set NNLS core, and scheme search."""

import json

import numpy as np
import pytest
import scipy.optimize

from spinrev import (
    axis_cycle,
    collective_cyclic_pool,
    complete_weights,
    dipole_type,
    find_inversion_nnls,
    greedy_pool_growth,
    merge_pools,
    octahedral_group,
    pair_pi_pool,
    pi_rotation,
    random_octahedral_pool,
    rotation_about,
    scalar_type,
    search_result_to_dict,
    tau_lower_bound,
    tensor_coupling,
    verify,
)
from spinrev.schemes import Scheme, SchemeKind, Step
from spinrev.search import (
    _BATCH,
    CandidatePool,
    _finalize,
    _group_indices,
    _lawson_hanson,
    _PassiveQR,
    _problem,
    _steepest,
    _table_columns,
    minimize_tau,
)


class TestOctahedralGroup:
    def test_order(self):
        assert len(octahedral_group()) == 24

    def test_closed_under_products(self):
        group = octahedral_group()
        for g1 in group:
            for g2 in group:
                product = g1 @ g2
                assert any(np.abs(product - g).max() <= 1e-12 for g in group)

    def test_contains_the_named_rotations(self):
        group = octahedral_group()

        def member(R):
            return any(np.abs(R - g).max() <= 1e-12 for g in group)

        assert member(axis_cycle())
        for axis in ("x", "y", "z"):
            assert member(pi_rotation(axis))

    def test_entries_and_determinants(self):
        for g in octahedral_group():
            assert set(np.unique(g)) <= {-1.0, 0.0, 1.0}
            assert abs(np.linalg.det(g) - 1.0) <= 1e-12


class TestNnls:
    def test_known_small_problem(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x, rnorm, _, _ = _lawson_hanson(A, np.array([2.0, 1.0, 1.0]))
        assert np.abs(x - [1.5, 1.0]).max() <= 1e-12
        assert abs(rnorm - np.sqrt(0.5)) <= 1e-12

    def test_all_negative_target_clamps_to_zero(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x, rnorm, _, _ = _lawson_hanson(A, np.array([-1.0, -1.0, -1.0]))
        assert np.array_equal(x, [0.0, 0.0])
        assert abs(rnorm - np.sqrt(3.0)) <= 1e-12

    def test_recovers_interior_solutions(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            A = rng.normal(size=(8, 4))
            x_true = rng.uniform(0.5, 2.0, size=4)
            x, rnorm, _, _ = _lawson_hanson(A, A @ x_true)
            assert np.abs(x - x_true).max() <= 1e-10
            assert rnorm <= 1e-10

    def test_matches_scipy_objective(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            A = rng.normal(size=(10, 6))
            b = rng.normal(size=10)
            x, rnorm, _, _ = _lawson_hanson(A, b)
            x_ref, rnorm_ref = scipy.optimize.nnls(A, b)
            assert x.min() >= 0.0
            assert abs(rnorm - rnorm_ref) <= 1e-8 * max(rnorm_ref, 1.0)

    def test_duplicate_columns_keep_the_lowest_index(self):
        col = np.array([1.0, 2.0, 3.0])
        A = np.column_stack([col, col, col])
        x, rnorm, _, _ = _lawson_hanson(A, 2.0 * col)
        assert np.abs(x - [2.0, 0.0, 0.0]).max() <= 1e-12
        assert rnorm <= 1e-12

    def test_wide_and_rank_deficient_blocks_are_lstsqs_own_answer(self):
        # the factor hands these blocks to lstsq, bit for bit
        rng = np.random.default_rng(65)
        for A_P in (rng.normal(size=(4, 6)), np.column_stack([np.ones(5), np.ones(5)])):
            b = rng.normal(size=A_P.shape[0])
            qr = _PassiveQR(A_P.shape[0])
            for j in range(A_P.shape[1]):
                qr.insert(A_P, b, j)
            trial = qr.solve(A_P, b, np.ones(A_P.shape[1], dtype=bool))
            assert np.array_equal(trial, np.linalg.lstsq(A_P, b, rcond=None)[0])
            assert not qr.held

    @pytest.mark.parametrize("seed, lstsq_rnorm", [(1867, 5.1523668886212e-06), (1983, 7.7991007026134e-04)])
    def test_rank_deficient_passive_blocks_fall_back(self, seed, lstsq_rnorm):
        # column scales spanning 12 decades let the passive set outgrow the
        # 25 rows; the R-factor solve must hand those blocks to lstsq, and
        # the residual must be no worse than the one reached with lstsq
        # solving every block
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(25, 52)) * 10.0 ** rng.integers(-6, 7, size=52)
        b = rng.normal(size=25) * 10.0 ** rng.integers(-6, 7)
        x, rnorm, _, _ = _lawson_hanson(A, b)
        assert np.isfinite(x).all()
        assert x.min() >= 0.0
        assert rnorm <= lstsq_rnorm * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [1867, 1983])
    def test_rejected_columns_end_the_rank_guard_solves_unconverged(self, seed):
        # the same inputs never pass the dual test with every column in it:
        # rounding gives an entering column a nonpositive value, so it is
        # rejected, and the solve stops well before its insertion cap
        # 3 * ncols + 10 (where it used to cycle) and says it has not converged
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(25, 52)) * 10.0 ** rng.integers(-6, 7, size=52)
        b = rng.normal(size=25) * 10.0 ** rng.integers(-6, 7)
        _, _, iterations, converged = _lawson_hanson(A, b)
        assert iterations < 3 * 52 + 10
        assert not converged
        # the cap still ends a solve, and the solve says so
        x, _, iterations, converged = _lawson_hanson(A, b, cap=10)
        assert iterations == 10
        assert not converged
        assert x.min() >= 0.0


def test_tied_candidates_keep_the_lowest_index_whatever_the_last_bits():
    # against r = (-1, -1), columns 1 and 3 both score -2; moving r by a few
    # ulps breaks that tie for argmin either way, and never for the pick
    columns = np.array([[0.5, 1.0, 1.5, 2.0], [0.5, 1.0, 0.0, 0.0]])
    for k in range(-4, 5):
        resid = np.array([-1.0 - k * 2.0**-52, -1.0 + k * 2.0**-52])
        scores = columns.T @ resid
        assert int(np.argmin(scores)) == (3 if k > 0 else 1)
        assert _steepest(scores) == 1


def _cold_reference(J, base, target_tol=1e-9, max_pool=500):
    """`greedy_pool_growth` with every round solved cold by `_lawson_hanson`,
    and the same tie rule for the pick."""
    coupling, norm, table, target = _problem(J)
    picks = _group_indices(base.assemblies, coupling.n)
    columns = _table_columns(table, picks)
    rng = np.random.default_rng(base.seed)
    x, rnorm, _, _ = _lawson_hanson(columns, target)
    rounds = 0
    while rnorm * np.sqrt(2.0) / norm > target_tol and len(picks) < max_pool:
        candidates = rng.integers(0, len(octahedral_group()), size=(_BATCH, base.n))
        candidate_columns = _table_columns(table, candidates)
        best = _steepest(candidate_columns.T @ (columns @ x - target))
        picks = np.concatenate([picks, candidates[best : best + 1]])
        columns = np.column_stack([columns, candidate_columns[:, best]])
        x, rnorm, _, _ = _lawson_hanson(columns, target)
        rounds += 1
    return _finalize(coupling, norm, picks, x, rnorm, rounds, target_tol)


def _positive_weights(n, seed):
    rng = np.random.default_rng(seed)
    W = np.triu(rng.uniform(0.2, 1.5, size=(n, n)), 1)
    return W + W.T


class TestWarmStart:
    def test_warm_solves_of_grown_problems_reach_the_cold_residual(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            rows, cols = int(rng.integers(6, 12)), int(rng.integers(8, 16))
            A = rng.normal(size=(rows, cols))
            b = rng.normal(size=rows)
            # one factor carried from solve to solve, as a growth round does
            qr = _PassiveQR(rows)
            _lawson_hanson(np.ascontiguousarray(A[:, :2]), b, qr)
            for k in range(3, cols + 1):
                grown = np.ascontiguousarray(A[:, :k])
                x, rnorm, _, converged = _lawson_hanson(grown, b, qr, cap=rows)
                _, rnorm_cold, _, _ = _lawson_hanson(grown, b)
                assert converged
                assert x.min() >= 0.0
                assert abs(rnorm - rnorm_cold) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize(
        "n, weights, seed",
        [(4, "complete", 434751714), (3, "complete", 1), (3, "positive", 2), (4, "positive", 3), (5, "complete", 4)],
    )
    def test_growth_equals_a_cold_solve_every_round(self, n, weights, seed):
        W = complete_weights(n) if weights == "complete" else _positive_weights(n, seed)
        J = tensor_coupling(W, scalar_type())
        base = merge_pools(pair_pi_pool(n), collective_cyclic_pool(n), seed=seed)
        result = greedy_pool_growth(J, base)
        assert result.scheme is not None
        assert json.dumps(search_result_to_dict(result)) == json.dumps(search_result_to_dict(_cold_reference(J, base)))

    def test_a_warm_solve_rejects_what_it_used_to_cycle_on(self, monkeypatch):
        # the type's third eigenvalue sits at the search tolerance; one warm
        # solve there gave an entering column a nonpositive value from an
        # ill-conditioned passive block, dropped it and let it in again until
        # its budget of m = 54 insertions. Rejecting that column stops the
        # solve after one insertion; unconverged, the round is solved cold
        J = tensor_coupling(complete_weights(4), np.diag([1.0, 1.0, 0.5e-9 * np.sqrt(2.0)]))
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=0)
        warm = []

        def recording(A, b, start=None, cap=None):
            solved = _lawson_hanson(A, b, start, cap)
            if cap is not None:
                warm.append((solved[2], cap, solved[3]))
            return solved

        monkeypatch.setattr("spinrev.search._lawson_hanson", recording)
        result = greedy_pool_growth(J, base)
        assert result.scheme is not None
        assert max(insertions for insertions, _, _ in warm) <= 3
        assert [(insertions, cap) for insertions, cap, converged in warm if not converged] == [(1, 54)]

    def test_a_round_that_falls_back_still_equals_the_cold_reference(self, monkeypatch):
        # the type's third eigenvalue sits at the search tolerance; a warm
        # solve there does not converge and is redone cold
        J = tensor_coupling(complete_weights(4), np.diag([1.0, 1.0, 0.5e-9 * np.sqrt(2.0)]))
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=0)
        warm = []

        def recording(A, b, start=None, cap=None):
            solved = _lawson_hanson(A, b, start, cap)
            if cap is not None:  # only warm solves carry the budget of m insertions
                warm.append(solved[3])
            return solved

        monkeypatch.setattr("spinrev.search._lawson_hanson", recording)
        result = greedy_pool_growth(J, base)
        assert False in warm
        assert json.dumps(search_result_to_dict(result)) == json.dumps(search_result_to_dict(_cold_reference(J, base)))


class TestPools:
    def test_pair_pi_pool_shape(self):
        pool = pair_pi_pool(3)
        assert len(pool.assemblies) == 9
        assert pool.n == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CandidatePool(())
        with pytest.raises(ValueError, match="^pool size must be at least 1$"):
            random_octahedral_pool(3, 0)

    def test_random_pool_is_seeded(self):
        a = random_octahedral_pool(3, 10, seed=5)
        b = random_octahedral_pool(3, 10, seed=5)
        for x, y in zip(a.assemblies, b.assemblies):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 5), (5, 123)])
    def test_random_pool_is_not_the_first_growth_batch(self, n, seed):
        # `greedy_pool_growth` draws its batches from default_rng(seed); a
        # pool drawn from that stream too would be offered to itself
        pool = np.stack(random_octahedral_pool(n, 32, seed).assemblies)
        picks = np.random.default_rng(seed).integers(0, 24, size=(_BATCH, n))
        assert not np.array_equal(pool, octahedral_group()[picks[:32]])

    def test_user_pool_rejects_nan_rotation(self):
        bad = np.tile(axis_cycle(), (2, 1, 1))
        bad[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="not orthogonal"):
            CandidatePool([bad])

    @pytest.mark.parametrize("build", ["pair-pi", "collective-cyclic", "random", "merged", "user"])
    def test_every_builder_gives_one_read_only_array_of_its_own(self, build):
        source = np.stack([np.tile(np.eye(3), (3, 1, 1)), np.tile(axis_cycle(), (3, 1, 1))])
        pool, size = {
            "pair-pi": lambda: (pair_pi_pool(3), 9),
            "collective-cyclic": lambda: (collective_cyclic_pool(3), 2),
            "random": lambda: (random_octahedral_pool(3, 5, seed=1), 5),
            "merged": lambda: (merge_pools(pair_pi_pool(3), collective_cyclic_pool(3)), 11),
            "user": lambda: (CandidatePool(source), 2),
        }[build]()
        assemblies = pool.assemblies
        assert type(assemblies) is np.ndarray and assemblies.dtype == np.float64
        assert assemblies.shape == (size, 3, 3, 3) and pool.n == 3
        assert assemblies.flags.owndata and not assemblies.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            assemblies[0, 0] = np.eye(3)
        source[0, 0] = pi_rotation("x")
        if build == "user":
            assert np.array_equal(assemblies[0, 0], np.eye(3))

    def test_a_ragged_user_pool_is_refused_with_the_shape_rule(self):
        ragged = [np.tile(np.eye(3), (2, 1, 1)), np.tile(np.eye(3), (3, 1, 1))]
        with pytest.raises(ValueError, match=r"shape \(n, 3, 3\)"):
            CandidatePool(ragged)

    def test_user_and_merge(self):
        pool = merge_pools(pair_pi_pool(2), collective_cyclic_pool(2))
        assert len(pool.assemblies) == 8
        assert CandidatePool([np.tile(np.eye(3), (2, 1, 1))]).n == 2


class TestOctahedralRule:
    # the search reads every column off the octahedral image table of J, so
    # a rotation outside the group is refused by every entry point
    RULE = "search rotations must be octahedral"

    @staticmethod
    def _base(n):
        return merge_pools(pair_pi_pool(n), collective_cyclic_pool(n))

    @staticmethod
    def _turned(assemblies, step, spin):
        turned = np.array(assemblies)
        turned[step, spin] = rotation_about([1.0, 1.0, 1.0], 0.1) @ turned[step, spin]
        return turned

    @pytest.mark.parametrize("entry", [find_inversion_nnls, greedy_pool_growth])
    def test_a_pool_with_one_spin_turned_off_the_group_is_refused(self, entry):
        J = tensor_coupling(complete_weights(3), scalar_type())
        pool = CandidatePool(self._turned(self._base(3).assemblies, 4, 1))
        with pytest.raises(ValueError, match=self.RULE):
            entry(J, pool)

    def test_a_bare_start_with_one_step_turned_off_the_group_is_refused(self):
        J = tensor_coupling(complete_weights(3), scalar_type())
        start = greedy_pool_growth(J, self._base(3), seed=1).scheme
        turned = self._turned(start.rotations, 0, 2)
        bare = Scheme(SchemeKind.INVERSION, tuple(Step(t, R) for t, R in zip(start.times, turned)))
        with pytest.raises(ValueError, match=self.RULE):
            minimize_tau(J, bare)

    def test_negative_zeros_match_the_group_and_come_back_positive(self):
        # -0.0 == 0.0, so a pool written with negative zeros is octahedral;
        # a found scheme's rotations are the group's own, with +0.0
        J = tensor_coupling(complete_weights(2), scalar_type())
        pool = np.array(pair_pi_pool(2).assemblies)
        pool[pool == 0.0] = -0.0
        assert np.signbit(pool[pool == 0.0]).all()
        rotations = find_inversion_nnls(J, CandidatePool(pool)).scheme.rotations
        assert not np.signbit(rotations[rotations == 0.0]).any()


class TestFindInversion:
    def test_two_spin_heisenberg_pi_pool(self):
        # flipping one spin about all three axes sums the half turns to -1:
        # diag(1,-1,-1) + diag(-1,1,-1) + diag(-1,-1,1) = -identity
        total = pi_rotation("x") + pi_rotation("y") + pi_rotation("z")
        assert np.array_equal(total, -np.eye(3))
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = find_inversion_nnls(J, pair_pi_pool(2))
        assert result.scheme is not None
        assert abs(result.tau - 3.0) <= 1e-9
        assert result.residual <= 1e-10
        assert len(result.scheme.steps) == 3
        assert verify(result.scheme, J, tol=1e-10).ok

    def test_dipole_collective_cyclic_recovers_the_synthesizer(self):
        J = tensor_coupling(complete_weights(3), dipole_type())
        result = find_inversion_nnls(J, collective_cyclic_pool(3))
        assert result.scheme is not None
        assert abs(result.tau - 2.0) <= 1e-12
        assert all(abs(step.t - 1.0) <= 1e-12 for step in result.scheme.steps)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            find_inversion_nnls(np.zeros((6, 6)), pair_pi_pool(2))

    def test_dimension_mismatch(self):
        J = tensor_coupling(complete_weights(3), scalar_type())
        with pytest.raises(ValueError, match="mismatch"):
            find_inversion_nnls(J, pair_pi_pool(2))

    def test_infeasible_pool_reports_no_scheme(self):
        # collective rotations cannot invert a semidefinite type
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = find_inversion_nnls(J, collective_cyclic_pool(2))
        assert result.scheme is None
        assert result.residual > 0.5


class TestGreedyGrowth:
    def test_two_spin_heisenberg_from_infeasible_base(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = greedy_pool_growth(
            J, collective_cyclic_pool(2, seed=42), target_tol=1e-9, max_pool=200
        )
        assert result.scheme is not None
        assert result.residual <= 1e-9
        assert result.tau >= tau_lower_bound(J) - 1e-6
        assert result.iterations > 0

    def test_three_spin_heisenberg_audited_when_found(self):
        from spinrev import check_scheme_against_bounds, scheme_stats

        W = complete_weights(3)
        J = tensor_coupling(W, scalar_type())
        result = greedy_pool_growth(J, pair_pi_pool(3, seed=7), target_tol=1e-9, max_pool=300)
        if result.scheme is not None:
            stats = scheme_stats(result.scheme)
            assert stats.tau >= 2.0 - 1e-9
            assert stats.n_steps >= 2
            assert check_scheme_against_bounds(result.scheme, W, scalar_type()).passed

    def test_feasible_base_needs_no_growth(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = greedy_pool_growth(J, pair_pi_pool(2), target_tol=1e-9, max_pool=50)
        assert result.scheme is not None
        assert result.iterations == 0

    def test_deterministic_at_the_json_level(self):
        J = tensor_coupling(complete_weights(2), scalar_type())

        def run():
            result = greedy_pool_growth(
                J, collective_cyclic_pool(2, seed=42), target_tol=1e-9, max_pool=200
            )
            return json.dumps(search_result_to_dict(result, seed=42), sort_keys=True)

        assert run() == run()

    def test_pinned_four_spin_heisenberg_run(self):
        # complete-graph candidate scores tie exactly, so the winner depends
        # on the summation order of the scoring product; a change of the
        # column layout shows up here as a different scheme
        seed = 434751714
        J = tensor_coupling(complete_weights(4), scalar_type())
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=seed)
        result = greedy_pool_growth(J, base)
        assert result.scheme is not None
        assert result.tau == pytest.approx(9.396004395763269, rel=1e-9)
        assert len(result.scheme.steps) == 54
        assert result.iterations == 44

    def test_pinned_run_replays_the_previous_path(self, monkeypatch):
        # a cold re-solve per growth round makes 1,165 lstsq calls here; the
        # R-factor passive solves leave none, and warm-started rounds make
        # 150 passive solves in all
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        seed = 434751714
        J = tensor_coupling(complete_weights(4), scalar_type())
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=seed)
        monkeypatch.setattr(np.linalg, "lstsq", counting)
        result = greedy_pool_growth(J, base)
        assert result.iterations == 44
        assert len(calls) <= 300

    def test_pinned_run_solves_every_passive_block_from_its_updated_factor(self, monkeypatch):
        # one factor is carried through all 44 rounds: 150 solves, none of
        # them by lstsq and none from a fresh factorization
        solves, refactors, fallbacks = [], [], []
        solve, refactor, lstsq = _PassiveQR.solve, _PassiveQR._refactor, np.linalg.lstsq

        def counting_solve(self, A, b, passive):
            solves.append(int(passive.sum()))
            return solve(self, A, b, passive)

        def counting_refactor(self, A, b, passive):
            refactors.append(int(passive.sum()))
            return refactor(self, A, b, passive)

        def counting_lstsq(*args, **kwargs):
            fallbacks.append(args[0].shape)
            return lstsq(*args, **kwargs)

        seed = 434751714
        J = tensor_coupling(complete_weights(4), scalar_type())
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=seed)
        monkeypatch.setattr(_PassiveQR, "solve", counting_solve)
        monkeypatch.setattr(_PassiveQR, "_refactor", counting_refactor)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        result = greedy_pool_growth(J, base)
        assert result.iterations == 44
        assert 0 < len(solves) <= 150
        assert refactors == []
        assert fallbacks == []

    def test_result_reverifies_at_reported_residual(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = greedy_pool_growth(J, pair_pi_pool(2), target_tol=1e-9, max_pool=50)
        recheck = verify(result.scheme, J, tol=1e-9)
        assert recheck.ok
        assert recheck.residual == result.residual

    def test_pool_budget_respected(self):
        # an unreachable tolerance drains the budget without blowing up
        rng = np.random.default_rng(63)
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = greedy_pool_growth(
            J, collective_cyclic_pool(2, seed=int(rng.integers(1000))),
            target_tol=1e-30, max_pool=30,
        )
        assert result.scheme is None or result.residual > 0.0


def _nan_coupling():
    J = tensor_coupling(complete_weights(2), scalar_type())
    J[0, 4] = J[4, 0] = np.nan
    return J


@pytest.mark.parametrize("search", [find_inversion_nnls, greedy_pool_growth], ids=["fixed", "growth"])
@pytest.mark.parametrize(
    "J,pool,message",
    [
        (np.zeros((6, 6)), pair_pi_pool(2), "zero coupling: nothing to invert"),
        (
            tensor_coupling(complete_weights(2), scalar_type()),
            pair_pi_pool(3),
            "dimension mismatch: pool addresses 3 spins, coupling has 2",
        ),
        (_nan_coupling(), pair_pi_pool(2), "coupling matrix has non-finite entries (NaN or infinity)"),
    ],
    ids=["zero", "mismatch", "nan"],
)
def test_both_searches_reject_the_same_inputs(search, J, pool, message):
    with pytest.raises(ValueError) as err:
        search(J, pool)
    assert str(err.value) == message


def test_growth_rejects_a_budget_below_the_base_pool():
    J = tensor_coupling(complete_weights(2), scalar_type())
    with pytest.raises(ValueError, match="max_pool is smaller than the base pool"):
        greedy_pool_growth(J, pair_pi_pool(2), max_pool=5)


def test_search_result_serialization_shape():
    J = tensor_coupling(complete_weights(2), scalar_type())
    found = search_result_to_dict(find_inversion_nnls(J, pair_pi_pool(2)), seed=3)
    assert found["found"] is True
    assert found["kind"] == "inversion"
    assert set(found["meta"]) == {"residual", "iterations", "tau", "seed"}
    missing = search_result_to_dict(find_inversion_nnls(J, collective_cyclic_pool(2)))
    assert missing["found"] is False
    assert missing["scheme"] is None
