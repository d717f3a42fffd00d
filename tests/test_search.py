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
    nnls_active_set,
    octahedral_group,
    pair_pi_pool,
    pi_rotation,
    random_octahedral_pool,
    scalar_type,
    search_result_to_dict,
    tau_lower_bound,
    tensor_coupling,
    user_pool,
    verify,
)
from spinrev.search import CandidatePool, PoolSource, _lawson_hanson, _passive_solve


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
        x, rnorm, _ = nnls_active_set(A, np.array([2.0, 1.0, 1.0]))
        assert np.abs(x - [1.5, 1.0]).max() <= 1e-12
        assert abs(rnorm - np.sqrt(0.5)) <= 1e-12

    def test_all_negative_target_clamps_to_zero(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x, rnorm, _ = nnls_active_set(A, np.array([-1.0, -1.0, -1.0]))
        assert np.array_equal(x, [0.0, 0.0])
        assert abs(rnorm - np.sqrt(3.0)) <= 1e-12

    def test_recovers_interior_solutions(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            A = rng.normal(size=(8, 4))
            x_true = rng.uniform(0.5, 2.0, size=4)
            x, rnorm, _ = nnls_active_set(A, A @ x_true)
            assert np.abs(x - x_true).max() <= 1e-10
            assert rnorm <= 1e-10

    def test_matches_scipy_objective(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            A = rng.normal(size=(10, 6))
            b = rng.normal(size=10)
            x, rnorm, _ = nnls_active_set(A, b)
            x_ref, rnorm_ref = scipy.optimize.nnls(A, b)
            assert x.min() >= 0.0
            assert abs(rnorm - rnorm_ref) <= 1e-8 * max(rnorm_ref, 1.0)

    def test_duplicate_columns_keep_the_lowest_index(self):
        col = np.array([1.0, 2.0, 3.0])
        A = np.column_stack([col, col, col])
        x, rnorm, _ = nnls_active_set(A, 2.0 * col)
        assert np.abs(x - [2.0, 0.0, 0.0]).max() <= 1e-12
        assert rnorm <= 1e-12

    def test_passive_solve_matches_lstsq(self):
        rng = np.random.default_rng(65)
        for rows, cols in [(9, 1), (27, 9), (54, 54), (90, 40)]:
            A_P = rng.normal(size=(rows, cols))
            b = rng.normal(size=rows)
            reference = np.linalg.lstsq(A_P, b, rcond=None)[0]
            x = _passive_solve(A_P, b)
            scale = np.linalg.cond(A_P) * max(np.abs(reference).max(), 1.0)
            assert np.abs(x - reference).max() <= 64 * np.finfo(float).eps * scale
        # wide and rank-deficient blocks are lstsq's own answer, bit for bit
        for A_P in (rng.normal(size=(4, 6)), np.column_stack([np.ones(5), np.ones(5)])):
            b = rng.normal(size=A_P.shape[0])
            assert np.array_equal(_passive_solve(A_P, b), np.linalg.lstsq(A_P, b, rcond=None)[0])

    @pytest.mark.parametrize("seed, lstsq_rnorm", [(1867, 5.1523668886212e-06), (1983, 7.7991007026134e-04)])
    def test_rank_deficient_passive_blocks_fall_back(self, seed, lstsq_rnorm):
        # column scales spanning 12 decades let the passive set outgrow the
        # 25 rows; the R-factor solve must hand those blocks to lstsq, and
        # the residual must be no worse than the one reached with lstsq
        # solving every block
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(25, 52)) * 10.0 ** rng.integers(-6, 7, size=52)
        b = rng.normal(size=25) * 10.0 ** rng.integers(-6, 7)
        x, rnorm, _ = nnls_active_set(A, b)
        assert np.isfinite(x).all()
        assert x.min() >= 0.0
        assert rnorm <= lstsq_rnorm * (1.0 + 1e-9)


class TestPathReplay:
    @staticmethod
    def drop_steps(path):
        """Insertions whose inner loop dropped a variable from the passive set."""
        sizes = [0] + [int(passive.sum()) for _, _, passive in path]
        return [s for s in range(len(path)) if sizes[s + 1] < sizes[s] + 1]

    @staticmethod
    def shared_prefix(prior, path):
        """Number of leading insertions that entered the same columns."""
        shared = 0
        for (j_prior, _, _), (j, _, _) in zip(prior, path):
            if j_prior != j:
                break
            shared += 1
        return shared

    def test_grown_problems_match_a_cold_solve_bit_for_bit(self):
        rng = np.random.default_rng(64)
        mid_path_entries = replayed_drops = 0
        for _ in range(30):
            rows, cols = int(rng.integers(6, 12)), int(rng.integers(8, 16))
            A = rng.normal(size=(rows, cols))
            b = rng.normal(size=rows)
            *_, path = _lawson_hanson(np.ascontiguousarray(A[:, :2]), b, ())
            for k in range(3, cols + 1):
                grown = np.ascontiguousarray(A[:, :k])
                x, rnorm, iterations, new_path = _lawson_hanson(grown, b, path)
                x_cold, rnorm_cold, iterations_cold = nnls_active_set(grown, b)
                assert np.array_equal(x, x_cold)
                assert rnorm == rnorm_cold
                assert iterations == iterations_cold
                shared = self.shared_prefix(path, new_path)
                if 0 < shared < len(path) and new_path[shared][0] == k - 1:
                    mid_path_entries += 1
                if any(s < shared for s in self.drop_steps(path)):
                    replayed_drops += 1
                path = new_path
        # the problems must cover a new column entering after a replayed
        # prefix, and a replayed insertion whose inner loop dropped a variable
        assert mid_path_entries > 0
        assert replayed_drops > 0


class TestPools:
    def test_pair_pi_pool_shape(self):
        pool = pair_pi_pool(3)
        assert pool.source is PoolSource.PAIR_PI
        assert len(pool.assemblies) == 9
        assert pool.n == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CandidatePool((), PoolSource.USER)

    def test_random_pool_is_seeded(self):
        a = random_octahedral_pool(3, 10, seed=5)
        b = random_octahedral_pool(3, 10, seed=5)
        for x, y in zip(a.assemblies, b.assemblies):
            assert np.array_equal(x, y)

    def test_user_pool_rejects_nan_rotation(self):
        bad = np.tile(axis_cycle(), (2, 1, 1))
        bad[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="not orthogonal"):
            user_pool([bad])

    def test_user_and_merge(self):
        pool = merge_pools(pair_pi_pool(2), collective_cyclic_pool(2))
        assert len(pool.assemblies) == 8
        single = user_pool([np.tile(np.eye(3), (2, 1, 1))])
        assert single.source is PoolSource.USER


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

    def test_max_steps_cap_reports_no_solution(self):
        J = tensor_coupling(complete_weights(2), scalar_type())
        result = find_inversion_nnls(J, pair_pi_pool(2), max_steps=2)
        assert result.scheme is None
        assert result.residual > 0.0


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
        # a cold re-solve per growth round makes 1,165 lstsq calls here;
        # replaying the previous round's path up to where it diverges, 275
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

    def test_pinned_run_solves_every_passive_block_from_its_r_factor(self, monkeypatch):
        solves, fallbacks = [], []
        lstsq = np.linalg.lstsq

        def counting_solve(A_P, b):
            solves.append(A_P.shape)
            return _passive_solve(A_P, b)

        def counting_lstsq(*args, **kwargs):
            fallbacks.append(args[0].shape)
            return lstsq(*args, **kwargs)

        seed = 434751714
        J = tensor_coupling(complete_weights(4), scalar_type())
        base = merge_pools(pair_pi_pool(4), collective_cyclic_pool(4), seed=seed)
        monkeypatch.setattr("spinrev.search._passive_solve", counting_solve)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        result = greedy_pool_growth(J, base)
        assert result.iterations == 44
        assert 0 < len(solves) <= 300
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


def test_search_result_serialization_shape():
    J = tensor_coupling(complete_weights(2), scalar_type())
    found = search_result_to_dict(find_inversion_nnls(J, pair_pi_pool(2)), seed=3)
    assert found["found"] is True
    assert found["kind"] == "inversion"
    assert set(found["meta"]) == {"residual", "iterations", "tau", "seed"}
    missing = search_result_to_dict(find_inversion_nnls(J, collective_cyclic_pool(2)))
    assert missing["found"] is False
    assert missing["scheme"] is None
