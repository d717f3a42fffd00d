"""Phase 2 of the search: `minimize_tau`, minimum-tau re-timing by LP column generation."""

import itertools
import json

import numpy as np
import pytest
import scipy.optimize

from helpers import random_coupling, random_weights, upper_block_columns
from spinrev import (
    cli,
    collective_cyclic_pool,
    complete_weights,
    find_inversion_nnls,
    greedy_pool_growth,
    merge_pools,
    octahedral_group,
    pair_pi_pool,
    scalar_type,
    scheme_from_dict,
    search_result_to_dict,
    tensor_coupling,
    verify,
)
from spinrev.schemes import Scheme, SchemeKind, Step
from spinrev.search import (
    _PRICE_TOP,
    _image_table,
    _octahedral_optimum,
    _optimal_orbit,
    _pricer,
    _upper_blocks,
    minimize_tau,
)


def _auto_pool(n):
    return merge_pools(pair_pi_pool(n), collective_cyclic_pool(n))


def _highs_tau(J, assemblies):
    """min 1^T t subject to C t = -vec(J), t >= 0 over the given assemblies, by HiGHS."""
    columns = upper_block_columns(J, assemblies)
    lp = scipy.optimize.linprog(
        np.ones(columns.shape[1]), A_eq=columns, b_eq=-_upper_blocks(J), bounds=(0, None), method="highs"
    )
    assert lp.status == 0
    return float(lp.fun)


def _every_assembly(n, fix_first=False):
    group = octahedral_group()
    picks = np.array(list(itertools.product(range(len(group)), repeat=n - fix_first)))
    if fix_first:
        picks = np.column_stack([np.zeros(len(picks), dtype=int), picks])
    return group[picks]


def test_matches_highs_over_the_full_four_spin_pool():
    # spin 0 held at the identity: 24^3 = 13,824 columns, every octahedral
    # scheme of a scalar coupling up to a common right rotation
    J = tensor_coupling(complete_weights(4), scalar_type())
    assemblies = _every_assembly(4, fix_first=True)
    assert assemblies.shape == (13824, 4, 3, 3)
    reference = _highs_tau(J, assemblies)
    start = greedy_pool_growth(J, _auto_pool(4), seed=42)
    result = minimize_tau(J, start.scheme, seed=42)
    assert abs(reference - 3.0) <= 1e-9
    assert abs(result.tau - reference) <= 1e-9
    assert result.certified
    assert verify(result.scheme, J, 1e-9).ok


def _full_support(n, weights):
    """Complete, positive or signed weights on every pair."""
    W = random_weights(np.random.default_rng(n), n)
    return {"complete": complete_weights(n), "positive": np.abs(W), "signed": W}[weights]


@pytest.mark.parametrize("weights", ["complete", "positive", "signed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_closed_form_is_the_octahedral_optimum(n, weights):
    # a scalar J's columns read only R_k R_l^T, so spin 0 at the identity
    # gives every octahedral column: 24^(n-1) of them
    J = tensor_coupling(_full_support(n, weights), scalar_type())
    assert abs(_highs_tau(J, _every_assembly(n, fix_first=True)) - _octahedral_optimum(n)) <= 1e-9


@pytest.mark.parametrize("weights", ["complete", "signed"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_the_orbit_alone_reaches_the_closed_form(n, weights):
    J = tensor_coupling(_full_support(n, weights), scalar_type())
    orbit = _optimal_orbit(n)
    # spin 0 at the identity, and one assembly per distinct column
    assert np.all(orbit[:, 0] == 0)
    assert np.unique(upper_block_columns(J, octahedral_group()[orbit]), axis=1).shape[1] == len(orbit)
    assert abs(_highs_tau(J, octahedral_group()[orbit]) - _octahedral_optimum(n)) <= 1e-9


def test_the_closed_form_and_the_orbit_by_spin_count():
    assert [_octahedral_optimum(n) for n in range(2, 10)] == [3, 3, 3, 5, 5, 7, 7, 9]
    # an orbit for prime n and n = 4 only, and its sizes
    assert [None if _optimal_orbit(n) is None else len(_optimal_orbit(n)) for n in range(2, 10)] == [
        3, 6, 6, 60, None, 126, None, None
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_short_start_is_completed_by_zero_level_artificials(seed):
    # the pair-pi start has 3 steps against 9 rows at n=2; the artificial
    # columns that fill the basis must all leave, since the optimum has 9
    J = random_coupling(np.random.default_rng(seed), 2)
    start = find_inversion_nnls(J, pair_pi_pool(2))
    assert len(start.scheme.steps) == 3
    result = minimize_tau(J, start.scheme)
    assert result.certified
    assert result.tau < start.tau
    assert abs(result.tau - _highs_tau(J, _every_assembly(2))) <= 1e-9
    assert verify(result.scheme, J, 1e-9).ok


def test_an_optimal_start_comes_back_unchanged():
    J = tensor_coupling(complete_weights(2), scalar_type())
    start = find_inversion_nnls(J, pair_pi_pool(2))
    result = minimize_tau(J, start.scheme)
    assert result.scheme is start.scheme
    assert result.tau == start.tau == 3.0
    assert result.residual == start.residual
    assert result.certified


def test_a_start_within_rounding_of_the_optimum_comes_back():
    # the start is an optimum with its times scaled by 1 + 1e-12; phase 2
    # pivots away from it to another basis of tau 3, lower only by
    # rounding, so the hand-over keeps the start, as it keeps a final
    # point against a checkpoint no lower than _PRICE_TOL * max(tau, 1)
    J = tensor_coupling(random_weights(np.random.default_rng(0), 3), np.diag([1.0, 1.0, -0.1]))
    optimum = minimize_tau(J, greedy_pool_growth(J, _auto_pool(3), seed=0)).scheme
    start = Scheme._from_arrays(SchemeKind.INVERSION, optimum.times * (1.0 + 1e-12), optimum.rotations)
    result = minimize_tau(J, start)
    assert result.iterations > 0
    assert result.scheme is start
    assert result.certified
    assert 0.0 < result.tau - 3.0 <= 1e-11


def test_five_spins_reach_the_octahedral_optimum():
    # tau* = 5 at n=5, above the spectral bound 4: the closed form
    # certifies it, which the ascent pricing alone cannot
    J = tensor_coupling(complete_weights(5), scalar_type())
    start = greedy_pool_growth(J, _auto_pool(5), seed=42)
    result = minimize_tau(J, start.scheme, seed=42)
    assert abs(result.tau - 5.0) <= 1e-9
    assert result.certified
    assert verify(result.scheme, J, 1e-9).ok


# a 4-spin coupling whose blocks are not multiples of I, so phase 2 runs
# without the closed form and its orbit: pricing by ascent, from its own
# start, to the spectral bound 3
ANISOTROPIC4 = tensor_coupling(complete_weights(4), np.diag([1.0, 1.0, 0.5]))


def test_budgets_hold(monkeypatch):
    J = ANISOTROPIC4
    start = greedy_pool_growth(J, _auto_pool(4), seed=7)
    # the run reaches its certificate, well inside 20 pivots a row
    full = minimize_tau(J, start.scheme, seed=7)
    assert full.certified
    assert abs(full.tau - 3.0) <= 1e-9
    assert full.iterations < 20 * 54
    monkeypatch.setattr("spinrev.search._PIVOTS_PER_ROW", 3)
    budgeted = minimize_tau(J, start.scheme, seed=7)
    assert budgeted.iterations == 3 * 54
    monkeypatch.setattr("spinrev.search._PIVOTS_PER_ROW", 1)
    few = minimize_tau(J, start.scheme, seed=7)
    assert few.iterations == 54
    assert full.tau < budgeted.tau < few.tau < start.tau


def test_ascent_pricing_stops_at_its_own_budget():
    # at n=6 ascent pricing still finds improving columns after 20 pivots
    # a row, and ends above the bound 5, which it cannot certify
    J = tensor_coupling(complete_weights(6), scalar_type())
    start = greedy_pool_growth(J, _auto_pool(6), seed=7)
    result = minimize_tau(J, start.scheme, seed=7)
    assert result.iterations == 20 * 135
    assert not result.certified
    assert 5.0 < result.tau < start.tau


def test_a_pricing_round_that_no_pivot_follows_ends_the_run(monkeypatch):
    # pricing and the pool's reduced costs are computed in different
    # arithmetic; a column that passes one and not the other would be priced
    # again and again, so a round with no pivot after it ends the run (a
    # type that is not scalar, whose first round is priced)
    J = tensor_coupling(complete_weights(3), np.diag([1.0, 1.0, 0.5]))
    start = greedy_pool_growth(J, _auto_pool(3), seed=1)
    group = octahedral_group()
    basic = [[int(np.flatnonzero((group == R).all(axis=(1, 2)))[0]) for R in start.scheme.steps[0].rotations]]
    calls = []

    def stale_pricer(table, n, seed):
        def price(y):
            calls.append(y)
            return np.array(basic)  # a basic column: reduced cost 0

        return price, True

    monkeypatch.setattr("spinrev.search._pricer", stale_pricer)
    result = minimize_tau(J, start.scheme)
    assert len(calls) == 1
    assert result.scheme is start.scheme
    assert not result.certified


def _pricer_of(J, seed=0):
    return _pricer(_image_table(J), J.shape[0] // 3, seed)


def test_pricing_enumerates_only_small_groups():
    rng = np.random.default_rng(0)
    assert _pricer_of(tensor_coupling(complete_weights(4), scalar_type()))[1]
    assert not _pricer_of(tensor_coupling(complete_weights(5), scalar_type()))[1]
    assert _pricer_of(random_coupling(rng, 3))[1]
    assert not _pricer_of(random_coupling(rng, 4))[1]


def test_pricing_scores_are_the_column_products():
    # y^T a from the 24 x 24 pair tables equals y^T a from the built column
    rng = np.random.default_rng(3)
    J = random_coupling(rng, 3)
    price, exact = _pricer_of(J)
    assert exact
    y = rng.normal(size=27)
    picks = price(y)
    scores = upper_block_columns(J, octahedral_group()[picks]).T @ y
    every = upper_block_columns(J, _every_assembly(3)).T @ y
    assert len(picks) == _PRICE_TOP
    assert np.all(np.diff(scores) <= 1e-12)
    assert abs(scores[0] - every.max()) <= 1e-12
    assert scores[-1] >= np.sort(every)[-_PRICE_TOP] - 1e-12


def test_rejects_what_is_no_lp_start():
    J = tensor_coupling(complete_weights(2), scalar_type())
    start = find_inversion_nnls(J, pair_pi_pool(2)).scheme
    with pytest.raises(ValueError, match="needs an inversion scheme"):
        minimize_tau(J, Scheme(SchemeKind.DECOUPLING, start.steps))
    with pytest.raises(ValueError, match="linearly dependent"):
        minimize_tau(J, Scheme(SchemeKind.INVERSION, start.steps + start.steps[:1]))
    with pytest.raises(ValueError, match="dimension mismatch: pool addresses 2 spins, coupling has 3"):
        minimize_tau(tensor_coupling(complete_weights(3), scalar_type()), start)


def test_a_start_that_does_not_invert_j_is_refused():
    # phase 1's times scaled by 0.01: the simplex would return a tau far
    # below the spectral bound 2 for a scheme with residual 0.99
    J = tensor_coupling(complete_weights(3), scalar_type())
    start = greedy_pool_growth(J, _auto_pool(3), seed=1).scheme
    short = Scheme(SchemeKind.INVERSION, tuple(Step(0.01 * step.t, step.rotations) for step in start.steps))
    with pytest.raises(ValueError, match=r"does not invert J \(residual 0\.99 > tol 1e-09\)"):
        minimize_tau(J, short)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phase_one_result_and_its_bare_scheme_give_the_same_json(n):
    # the found result's residual and tau are the ones a fresh verify gives
    J = tensor_coupling(complete_weights(n), scalar_type())
    start = greedy_pool_growth(J, _auto_pool(n), seed=5)
    first, second = (search_result_to_dict(minimize_tau(J, s, seed=5), seed=5) for s in (start, start.scheme))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("call", ["inv", "solve"])
def test_a_singular_basis_ends_phase_two_at_its_start(monkeypatch, call):
    # a basis that rounding leaves singular is a numerical breakdown, not
    # invalid input: the refactor's inverse or the final solve failing
    # hands back the best checkpoint, the lowest-tau refactor point within
    # tol, or the verified start when there is none
    J = ANISOTROPIC4
    start = greedy_pool_growth(J, _auto_pool(4), seed=7)
    monkeypatch.setattr("spinrev.search._REFACTOR", 54)
    monkeypatch.setattr("spinrev.search._PIVOTS_PER_ROW", 3)
    cut = minimize_tau(J, start, seed=7)  # ends at its budget, on a refactor
    assert (cut.iterations, cut.certified) == (3 * 54, False)
    real = getattr(np.linalg, call)
    calls = []

    def singular(*args):
        calls.append(call)
        if call == "inv" and len(calls) == 1:  # the start basis itself
            return real(*args)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, call, singular)
    result = minimize_tau(J, start, seed=7)
    assert not result.certified
    if call == "inv":
        # the first refactor fails, before any checkpoint
        assert result.scheme is start.scheme
        assert (result.tau, result.residual) == (start.tau, start.residual)
        assert result.iterations == 54
        assert len(calls) == 2
        return
    # the last checkpoint is where the budget ended
    assert result.iterations == 3 * 54
    assert len(calls) == 1
    assert abs(result.tau - cut.tau) <= 1e-9
    assert result.tau < start.tau - 1.0
    assert verify(result.scheme, J, 1e-9).ok
    monkeypatch.setattr("spinrev.search._REFACTOR", 1000)  # no refactor, so no checkpoint
    bare = minimize_tau(J, start, seed=7)
    assert bare.scheme is start.scheme
    assert not bare.certified


def test_an_improving_column_that_no_row_bounds_ends_phase_two_at_its_start(monkeypatch):
    # no entry of B^-1 a passes the pivot tolerance, so no row bounds the
    # entering step: as at a failed refactor, only the checkpoint is left
    J = tensor_coupling(complete_weights(4), scalar_type())
    start = greedy_pool_growth(J, _auto_pool(4), seed=7)
    monkeypatch.setattr("spinrev.search._PIVOT_TOL", np.inf)
    result = minimize_tau(J, start, seed=7)
    assert result.scheme is start.scheme
    assert (result.iterations, result.certified) == (0, False)


@pytest.mark.parametrize("c", [-1.5, 0.5])
def test_cli_search_at_the_type_boundary_returns_the_phase_one_scheme(tmp_path, capsys, c):
    # a type eigenvalue at the search's own 1e-9 tolerance leaves phase 2's
    # basis singular to rounding; the search still exits 0 with a scheme
    # that verifies, and says it is not certified
    coupling, out = tmp_path / "c.json", tmp_path / "found.json"
    A = np.diag([1.0, 1.0, c * 1e-9 * np.sqrt(2.0)])
    coupling.write_text(json.dumps({"n": 3, "W": complete_weights(3).tolist(), "A": A.tolist()}))
    code = cli.main(["search", "--coupling", str(coupling), "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    printed = json.loads(captured.out)
    assert printed["found"] is True
    assert printed["certified"] is False
    assert cli.main(["verify", "--coupling", str(coupling), "--scheme", str(out)]) == 0
    verified = json.loads(capsys.readouterr().out)
    assert verified["ok"] is True
    assert verified["tau"] == printed["meta"]["tau"]
    assert len(scheme_from_dict(json.loads(out.read_text())).steps) == verified["N"]


@pytest.mark.parametrize("c, seed, ceiling", [(0.5, 0, 5.507), (0.5, 1, 5.711), (1.5, 3, 5.375)])
def test_cli_search_at_the_type_boundary_keeps_its_best_checkpoint(tmp_path, capsys, c, seed, ceiling):
    # on these 4-spin inputs the final basis is singular to rounding or its
    # scheme misses tol, after 600-1,080 pivots; the best refactor point
    # within tol (tau 3) is what the search prints, not phase 1's start at
    # tau 11-13. The ceilings are what a 3-pivot-a-row budget reached
    coupling, out = tmp_path / "c.json", tmp_path / "found.json"
    A = np.diag([1.0, 1.0, c * 1e-9 * np.sqrt(2.0)])
    coupling.write_text(json.dumps({"n": 4, "W": complete_weights(4).tolist(), "A": A.tolist()}))
    code = cli.main(["search", "--coupling", str(coupling), "--seed", str(seed), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    printed = json.loads(captured.out)
    assert printed["meta"]["tau"] <= ceiling
    assert cli.main(["verify", "--coupling", str(coupling), "--scheme", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == printed["meta"]["tau"]
