"""Property tests of the Lawson-Hanson NNLS core, of `spinrev search`, of
the scheme file writer and of the exact oracle over generated inputs.

The search solves NNLS over columns of equal norm: every column is the
stacked upper-triangle blocks of a rotated coupling V J V^T, and a block
rotation leaves each block's Frobenius norm unchanged.  The generators
keep to that domain and add what the search can produce: duplicate
columns, dependent columns and more columns than rows.  Examples are
derandomized and their counts bounded, so each run checks the same cases.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from helpers import hand_built_errors, random_coupling, random_rotation, random_weights
from spinrev import (
    axis_cycle,
    check_scheme_against_bounds,
    cli,
    collective_cyclic_pool,
    complete_weights,
    coupling_from_dict,
    error_scaling,
    greedy_pool_growth,
    merge_pools,
    pair_pi_pool,
    pi_rotation,
    rotation_about,
    scalar_type,
    scheme_from_dict,
    scheme_stats,
    scheme_to_dict,
    search_result_to_dict,
    synthesize_case1,
    synthesize_case2,
    tau_lower_bound,
    tensor_coupling,
    verify,
)
from spinrev import hilbert
from spinrev.schemes import Scheme, SchemeKind, Step, _scheme_json_chunks
from spinrev.search import (
    _lawson_hanson,
    _upper_block_columns,
    _upper_blocks,
    find_inversion_nnls,
    minimize_tau,
    nnls_active_set,
    octahedral_group,
    user_pool,
)

bounded = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _spread(rng, A, duplicates, dependents):
    """A with copies of some columns and combinations of others at the common norm, shuffled."""
    extra = [A[:, rng.integers(A.shape[1])] for _ in range(duplicates)]
    for _ in range(dependents):
        picks = rng.choice(A.shape[1], size=min(3, A.shape[1]), replace=False)
        combo = A[:, picks] @ rng.uniform(0.2, 1.0, size=picks.size)
        extra.append(combo * (np.linalg.norm(A[:, 0]) / np.linalg.norm(combo)))
    A = np.column_stack([A, *extra]) if extra else A
    return np.ascontiguousarray(A[:, rng.permutation(A.shape[1])])


@st.composite
def generic_problems(draw):
    """Gaussian columns scaled to one common norm, with a random or reachable b."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(2, 16))
    A = rng.normal(size=(rows, draw(st.integers(1, 14))))
    A *= 10.0 ** draw(st.integers(-3, 3)) / np.linalg.norm(A, axis=0)
    A = _spread(rng, A, draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    if draw(st.booleans()):
        b = A @ (rng.uniform(0.0, 2.0, size=A.shape[1]) * (rng.random(A.shape[1]) < 0.5))
    else:
        b = rng.normal(size=rows) * 10.0 ** draw(st.integers(-3, 3))
    return A, b


@st.composite
def search_problems(draw):
    """Columns of rotated couplings over random octahedral assemblies, b = -vec(J)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        J = tensor_coupling(complete_weights(n), scalar_type())
    else:
        J = random_coupling(rng, n)
    group = octahedral_group()
    assemblies = group[rng.integers(0, len(group), size=(draw(st.integers(1, 36)), n))]
    A = _spread(rng, _upper_block_columns(J, assemblies), draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    return A, -_upper_blocks(J)


problems = st.one_of(generic_problems(), search_problems())


def _check_solution(A, b):
    x, rnorm, _ = nnls_active_set(A, b)
    assert np.isfinite(x).all()
    assert x.min() >= 0.0
    # KKT: the gradient A^T r vanishes on the support and points nowhere
    # uphill off it, to a tolerance of the problem's own scale
    resid = b - A @ x
    w = A.T @ resid
    colnorm = float(np.linalg.norm(A[:, 0]))
    kkt_tol = 1e-9 * colnorm * (float(np.linalg.norm(b)) + colnorm * float(x.sum()))
    support = x > 0.0
    assert np.abs(w[support]).max(initial=0.0) <= kkt_tol
    assert w[~support].max(initial=0.0) <= kkt_tol
    assert abs(rnorm - float(np.linalg.norm(resid))) <= 1e-12 * max(1.0, float(np.linalg.norm(b)))
    # scipy's rnorm can disagree with its own x on degenerate inputs (a
    # 9 x 13 duplicate-column case reported 1.30 for an x whose residual is
    # 1.64, against an optimum of 1.41), so the reference is the residual of
    # the x it returns; KKT above already bounds the gap from below
    x_ref, _ = scipy.optimize.nnls(A, b, maxiter=50 * A.shape[1])
    assert rnorm <= float(np.linalg.norm(A @ x_ref - b)) + 1e-8 * max(1.0, float(np.linalg.norm(b)))


@bounded
@given(problems)
def test_solution_is_nonnegative_kkt_and_matches_scipy(problem):
    _check_solution(*problem)


@bounded
@given(search_problems())
def test_search_problems_stop_by_the_dual_test(problem):
    # iterations == 3 * ncols + 10 would mean the safety cap ended the
    # solve; on the search's own domain the dual test must end it first
    A, b = problem
    x, _, iterations = nnls_active_set(A, b)
    assert iterations < 3 * A.shape[1] + 10
    w = A.T @ (b - A @ x)
    assert w[x == 0.0].max(initial=0.0) <= 1e-12 * float(np.abs(A.T @ b).max())


@bounded
@given(problems)
def test_warm_starts_on_grown_matrices_reach_the_cold_residual(problem):
    # each solve starts from the previous optimum with a zero for the new
    # column, as a growth round does; the optimal residual is unique, x is not
    A, b = problem
    x, *_ = _lawson_hanson(np.ascontiguousarray(A[:, :1]), b)
    for k in range(2, A.shape[1] + 1):
        grown = np.ascontiguousarray(A[:, :k])
        x, rnorm, _, converged = _lawson_hanson(grown, b, np.append(x, 0.0))
        _, rnorm_cold, _ = nnls_active_set(grown, b)
        assert converged
        assert x.min() >= 0.0
        assert abs(rnorm - rnorm_cold) <= 1e-12 * float(np.linalg.norm(b))
        w = grown.T @ (b - grown @ x)
        assert w[x == 0.0].max(initial=0.0) <= 1e-12 * float(np.abs(grown.T @ b).max())


# Phase 2 of the search runs a full phase 1 first, so fewer examples
phase_two = settings(derandomize=True, max_examples=15, deadline=None, database=None)


@st.composite
def phase_two_problems(draw):
    """A phase-1 search result at n = 2-4 on complete, positive-weight or raw couplings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    weights = draw(st.sampled_from(["complete", "positive", "raw"]))
    if weights == "raw":
        J = random_coupling(rng, n)
    else:
        W = complete_weights(n)
        if weights == "positive":
            W = W * rng.uniform(0.2, 1.5, size=(n, n))
            W = np.triu(W, 1) + np.triu(W, 1).T
        J = tensor_coupling(W, scalar_type())
    seed = draw(st.integers(0, 2**31 - 1))
    start = greedy_pool_growth(J, merge_pools(pair_pi_pool(n), collective_cyclic_pool(n)), seed=seed)
    assume(start.scheme is not None)
    return J, start, seed


@phase_two
@given(phase_two_problems())
def test_minimize_tau_improves_verifies_and_respects_the_bound(problem):
    J, start, seed = problem
    result = minimize_tau(J, start.scheme, seed=seed)
    rows = 9 * start.scheme.n * (start.scheme.n - 1) // 2
    assert result.tau <= start.tau
    assert verify(result.scheme, J, 1e-9).ok
    assert result.tau >= tau_lower_bound(J) - 1e-6
    assert len(result.scheme.steps) <= rows


@phase_two
@given(phase_two_problems())
def test_minimize_tau_is_deterministic(problem):
    J, start, seed = problem
    first, second = (minimize_tau(J, start.scheme, seed=seed) for _ in range(2))
    assert json.dumps(search_result_to_dict(first)) == json.dumps(search_result_to_dict(second))
    assert (first.iterations, first.certified) == (second.iterations, second.certified)


# Each example runs a whole `spinrev search` and a `verify` in-process;
# shrinking would rerun them, so a failure reports the example as drawn
cli_search = settings(
    derandomize=True,
    max_examples=20,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


@st.composite
def search_documents(draw, types):
    """A coupling file at n = 2-4: complete, positive or zero-containing
    weights with the scalar type, or with diag(1, 1, ±delta) for
    `types == "near-boundary"`, |delta| just inside or just beyond the
    classifier's cut 1e-9 ||A||_F."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = draw(st.sampled_from(["complete", "positive", "zeros"]))
    # zeros leave at least one of the n(n-1)/2 pairs coupled, so n >= 3
    n = draw(st.integers(3 if weights == "zeros" else 2, 4))
    W = complete_weights(n)
    if weights != "complete":
        W = np.triu(W * rng.uniform(0.2, 1.5, size=(n, n)), 1)
        if weights == "zeros":
            pairs = np.flatnonzero(W)
            W.flat[rng.choice(pairs, size=rng.integers(1, pairs.size), replace=False)] = 0.0
        W = W + W.T
    A = scalar_type()
    if types == "near-boundary":
        factor = draw(st.sampled_from([-1.5, -0.5, 0.5, 1.5]))
        A = np.diag([1.0, 1.0, factor * 1e-9 * np.sqrt(2.0)])
    return W, A, draw(st.integers(0, 2**31 - 1))


def _cli(argv):
    """(exit code, stdout) of `cli.main(argv)` run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("types", ["scalar", "near-boundary"])
@cli_search
@given(data=st.data())
def test_cli_search_finds_verified_schemes_within_both_bounds(types, data):
    W, A, seed = data.draw(search_documents(types))
    # a scheme verified at a loose tol may sit below the exact bounds by what
    # its averaging error allows, and no further
    tol = data.draw(st.sampled_from(["1e-9", "1e-6", "1e-3", "0.3", "0.7", "0.95"]))
    n = W.shape[0]
    with tempfile.TemporaryDirectory() as tmp:
        coupling, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "found.json")
        with open(coupling, "w") as handle:
            json.dump({"n": n, "W": W.tolist(), "A": A.tolist()}, handle)
        runs = []
        for name in ("found.json", "again.json"):
            path = os.path.join(tmp, name)
            code, printed = _cli(["search", "--coupling", coupling, "--seed", str(seed), "--tol", tol, "--out", path])
            written = pathlib.Path(path).read_bytes() if os.path.exists(path) else None
            runs.append((code, printed, written))
        # the same document and seed give the same stdout and the same file bytes
        assert runs[0] == runs[1]
        assert code in (0, 1)
        printed = json.loads(printed)
        if code == 1:
            assert printed["found"] is False
            return
        code, verified = _cli(["verify", "--coupling", coupling, "--scheme", out, "--tol", tol])
        assert code == 0
        verified = json.loads(verified)
        assert verified["ok"] is True
        assert printed["meta"]["tau"] == verified["tau"]
        with open(out) as handle:
            scheme = scheme_from_dict(json.load(handle))
    assert check_scheme_against_bounds(scheme, W, A, float(tol)).passed


@st.composite
def written_schemes(draw):
    """A scheme whose spins draw from a small palette of octahedral,
    Hadamard-fragment (a frame times a coordinate half turn times the
    frame's transpose) and generic rotations, so steps repeat rotations;
    each pick may write some of its zeros as -0.0, the same rotation with
    other bytes.  Times span 1e-300 to 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = octahedral_group()
    sources = draw(st.lists(st.sampled_from(["octahedral", "fragment", "generic"]), min_size=1, max_size=4))
    palette = []
    for source in sources:
        generic = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        if source == "octahedral":
            palette.append(group[rng.integers(len(group))])
        elif source == "fragment":
            frame = group[rng.integers(len(group))] if rng.random() < 0.5 else generic
            palette.append(frame @ pi_rotation("xyz"[rng.integers(3)]) @ frame.T)
        else:
            palette.append(generic)
    n = draw(st.integers(1, 6))
    times = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=6))
    steps = []
    for t in times:
        rotations = np.array([palette[k] for k in rng.integers(len(palette), size=n)])
        negative = (rotations == 0.0) & (rng.random(rotations.shape) < 0.5)
        rotations[negative] = -0.0
        steps.append(Step(t, rotations))
    return Scheme(draw(st.sampled_from(list(SchemeKind))), tuple(steps))


@bounded
@given(written_schemes())
def test_written_scheme_is_the_dumped_dict(scheme):
    chunks = list(_scheme_json_chunks(scheme))
    assert len(chunks) == len(scheme.steps) + 2
    assert "".join(chunks) == json.dumps(scheme_to_dict(scheme))


@st.composite
def oracle_problems(draw):
    """(W, A, scheme, factored) at n = 2-4: signed weights with zeros, so
    that uncoupled spins split H into more blocks; a class-1 (traceless)
    or class-2 (mixed-sign) type, diagonal or turned off its eigenframe,
    which makes H complex; its synthesized scheme; and, for a turned type,
    whether the coupling goes in factored, so that the oracle runs the
    cycle in A's eigenframe."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    W = np.triu(rng.uniform(0.2, 1.5, size=(n, n)) * rng.choice([-1.0, 0.0, 1.0], size=(n, n)), 1)
    if not W.any():
        k = rng.integers(n - 1)
        W[k, k + 1] = 1.0
    W = W + W.T
    a, b = rng.uniform(0.2, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    class2 = draw(st.booleans())
    if class2:
        A = np.diag(rng.permutation([a, -b if a * b > 0 else b, rng.uniform(-1.5, 1.5)]))
    else:
        A = np.diag([a, b, -a - b])
    rotated = draw(st.booleans())
    if rotated:
        R = random_rotation(rng)
        A = R @ A @ R.T
        A = 0.5 * (A + A.T)
    scheme = synthesize_case2(W, A) if class2 else synthesize_case1(W, A)
    return W, A, scheme, rotated and draw(st.booleans())


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(oracle_problems())
def test_error_scaling_matches_the_dense_cycle(problem):
    # eps scaled to the coupling and the scheme's overhead keeps errors of
    # a non-commuting cycle near 1e-3, far above rounding; a commuting
    # cycle (every class-1 one at n = 2) has errors at rounding on both
    # sides, hence the absolute floor
    W, A, scheme, factored = problem
    J = tensor_coupling(W, A)
    coupling = coupling_from_dict({"n": len(W), "W": W.tolist(), "A": A.tolist()}) if factored else J
    scale = float(np.abs(W).max() * np.abs(np.linalg.eigvalsh(A)).max()) * scheme_stats(scheme).tau
    eps_list = [0.4 / scale, 0.2 / scale, 0.1 / scale]
    errors = error_scaling(coupling, scheme, eps_list).errors
    assert np.allclose(errors, hand_built_errors(J, scheme, eps_list), rtol=1e-11, atol=1e-13)


@st.composite
def odd_cycles(draw):
    """(W, A, scheme, width, factored) at n = 3 or 5, `width` the columns
    the error is normed on and `factored` whether the coupling is given as
    W and A.  Cycles that are axis-diagonal in some frame take the even
    parity sector: signed weights with zeros, a diagonal type of class 1
    or 2 and its synthesized scheme, and a class-1 type turned off its
    eigenframe, given raw or factored.  An NNLS scheme over assemblies
    that cycle the axes of spin 0, spin 1 and the rest by different
    powers takes every column: its conjugated blocks are not symmetric,
    so no frame makes them diagonal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([3, 5]))
    kind = draw(st.sampled_from(["class1", "class2", "rotated", "rotated-factored", "mixed"]))
    W = np.triu(rng.uniform(0.2, 1.5, size=(n, n)) * rng.choice([-1.0, 0.0, 1.0], size=(n, n)), 1)
    if not W.any():
        k = rng.integers(n - 1)
        W[k, k + 1] = 1.0
    W = W + W.T
    a, b = rng.uniform(0.2, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    if kind == "class2":
        A = np.diag(rng.permutation([a, -b if a * b > 0 else b, rng.uniform(-1.5, 1.5)]))
        return W, A, synthesize_case2(W, A), 2 ** (n - 1), False
    A = np.diag([a, b, -a - b])
    if kind == "class1":
        return W, A, synthesize_case1(W, A), 2 ** (n - 1), False
    if kind.startswith("rotated"):
        R = random_rotation(rng)
        A = R @ A @ R.T
        A = 0.5 * (A + A.T)
        return W, A, synthesize_case1(W, A), 2 ** (n - 1), kind == "rotated-factored"
    W = random_weights(rng, n)
    powers = [np.eye(3), axis_cycle(), axis_cycle().T]
    pool = [
        np.stack([powers[x], powers[y]] + [powers[z]] * (n - 2))
        for x, y, z in itertools.product(range(3), repeat=3)
        if len({x, y, z}) > 1
    ]
    return W, A, find_inversion_nnls(tensor_coupling(W, A), user_pool(pool)).scheme, 2**n, False


@settings(derandomize=True, max_examples=24, deadline=None, database=None)
@given(odd_cycles())
def test_odd_cycles_norm_the_even_sector_only_when_it_is_exact(problem):
    # the cycle's own sector block reaches the norm: the sector's half of
    # the rows and columns for cycles that are axis-diagonal in some frame,
    # all 2^n for every other one, and the errors match the dense cycle
    # either way
    W, A, scheme, width, factored = problem
    J = tensor_coupling(W, A)
    coupling = coupling_from_dict({"n": len(W), "W": W.tolist(), "A": A.tolist()}) if factored else J
    scale = float(np.abs(W).max() * np.abs(np.linalg.eigvalsh(A)).max())
    eps_list = [0.2 / scale, 0.1 / scale, 0.05 / scale]
    shapes = []
    norm = hilbert._lanczos_norm

    def spy(M):
        shapes.append(M.shape)
        return norm(M)

    with mock.patch.object(hilbert, "_lanczos_norm", spy):
        errors = error_scaling(coupling, scheme, eps_list).errors
    assert shapes == [(width, width)] * len(eps_list)
    assert np.allclose(errors, hand_built_errors(J, scheme, eps_list), rtol=1e-11, atol=1e-13)
