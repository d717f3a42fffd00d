"""Command-line interface: JSON contracts and the exit-code discipline."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import random_weights
from spinrev import (
    axis_cycle,
    complete_weights,
    dipole_type,
    scalar_type,
    scheme_from_dict,
    scheme_to_dict,
    synthesize_case2,
    verify,
)
from spinrev.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def coupling_doc(n, A):
    return {"n": n, "W": complete_weights(n).tolist(), "A": np.asarray(A).tolist()}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestClassify:
    def test_traceless(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(4, dipole_type()))
        code, out = run(capsys, ["classify", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] == "1"
        assert payload["eigenvalues"] == [1.0, 1.0, -2.0]
        assert payload["trace_margin"] == 0.0

    def test_semidefinite(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(3, scalar_type()))
        code, out = run(capsys, ["classify", "--coupling", path])
        assert code == 0
        assert json.loads(out)["case"] == "3"

    def test_mixed(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(3, np.diag([2.0, 1.0, -1.0])))
        code, out = run(capsys, ["classify", "--coupling", path])
        assert code == 0
        assert json.loads(out)["case"] == "2"

    def test_raw_coupling_is_invalid_here(self, files, capsys):
        _, write = files
        J = np.kron(complete_weights(2), dipole_type())
        path = write("c.json", {"n": 2, "J": J.tolist()})
        code, _ = run(capsys, ["classify", "--coupling", path])
        assert code == 2


class TestSynthesize:
    def test_dipole_scheme_and_stats(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(4, dipole_type()))
        out_path = str(tmp / "scheme.json")
        code, out = run(capsys, ["synthesize", "--coupling", path, "--out", out_path])
        payload = json.loads(out)
        assert code == 0
        assert (payload["N"], payload["tau"], payload["collective"]) == (2, 2.0, True)
        scheme = scheme_from_dict(json.loads((tmp / "scheme.json").read_text()))
        J = np.kron(complete_weights(4), dipole_type())
        assert verify(scheme, J, tol=1e-9).ok

    def test_mixed_sign_overhead(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(4, np.diag([2.0, 1.0, -1.0])))
        code, out = run(capsys, ["synthesize", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["tau"] == 3.5
        assert payload["collective"] is False
        assert "scheme" in payload  # embedded when --out is absent

    def test_mixed_sign_output_passes_verify(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(3, np.diag([2.0, 1.0, -1.0])))
        out_path = str(tmp / "scheme.json")
        code, _ = run(capsys, ["synthesize", "--coupling", path, "--out", out_path])
        assert code == 0
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_semidefinite_is_routed_to_search(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(3, scalar_type()))
        code, out = run(capsys, ["synthesize", "--coupling", path])
        assert code == 1
        assert out == ""


class TestVerify:
    def test_good_scheme(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", path, "--out", str(tmp / "s.json")])
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", str(tmp / "s.json")])
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["residual"] <= 1e-12
        assert (payload["N"], payload["tau"]) == (2, 2.0)

    def test_failing_scheme_exits_one(self, files, capsys):
        tmp, write = files
        coupling = write("c.json", coupling_doc(2, scalar_type()))
        scheme = write(
            "s.json",
            {"kind": "inversion", "n": 2, "steps": [{"t": 1.0, "rotations": [np.eye(3).tolist()] * 2}]},
        )
        code, out = run(capsys, ["verify", "--coupling", coupling, "--scheme", scheme])
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["residual"] == pytest.approx(2.0)

    def test_dimension_mismatch_exits_two(self, files, capsys):
        tmp, write = files
        coupling = write("c.json", coupling_doc(3, dipole_type()))
        scheme = write(
            "s.json",
            {"kind": "inversion", "n": 2, "steps": [{"t": 1.0, "rotations": [np.eye(3).tolist()] * 2}]},
        )
        code, _ = run(capsys, ["verify", "--coupling", coupling, "--scheme", scheme])
        assert code == 2

    def test_nan_rotation_exits_two(self, files, capsys):
        _, write = files
        coupling = write("c.json", coupling_doc(2, dipole_type()))
        rotation = axis_cycle()
        rotation[2, 1] = np.nan
        scheme = write(
            "s.json",
            {"kind": "inversion", "n": 2, "steps": [{"t": 1.0, "rotations": [rotation.tolist()] * 2}]},
        )
        code = main(["verify", "--coupling", coupling, "--scheme", scheme])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not orthogonal" in captured.err

    @pytest.mark.parametrize("offset,code", [(1e-14, 0), (1e-10, 2)])
    def test_scheme_rotations_are_checked_at_1e_12(self, files, capsys, offset, code):
        # spinrev writes exact float64 rotations, so scheme files are held to
        # 1e-12 rather than the 1e-9 default of check_rotation
        _, write = files
        coupling = write("c.json", coupling_doc(2, dipole_type()))
        cycle = axis_cycle()
        perturbed = cycle.copy()
        perturbed[0, 0] += offset
        steps = [
            {"t": 1.0, "rotations": [perturbed.tolist(), cycle.tolist()]},
            {"t": 1.0, "rotations": [(cycle @ cycle).tolist()] * 2},
        ]
        scheme = write("s.json", {"kind": "inversion", "n": 2, "steps": steps})
        assert main(["verify", "--coupling", coupling, "--scheme", scheme]) == code
        if code == 2:
            assert "not orthogonal" in capsys.readouterr().err

    def test_raw_coupling_is_accepted(self, files, capsys):
        tmp, write = files
        factored = write("f.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", factored, "--out", str(tmp / "s.json")])
        J = np.kron(complete_weights(3), dipole_type())
        raw = write("raw.json", {"n": 3, "J": J.tolist()})
        code, out = run(capsys, ["verify", "--coupling", raw, "--scheme", str(tmp / "s.json")])
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1", "10"])
    def test_nonpositive_tolerance_exits_two(self, files, capsys, tol):
        _, write = files
        path = write("c.json", coupling_doc(2, dipole_type()))
        code, out = run(capsys, ["classify", "--coupling", path, "--tol", tol])
        assert code == 2
        assert out == ""


class TestBounds:
    def test_heisenberg(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(6, scalar_type()))
        code, out = run(capsys, ["bounds", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] == "3"
        assert payload["tau_lower"] == pytest.approx(5.0, abs=1e-9)
        assert payload["steps_lower"] == 5

    def test_dipole_needs_two_steps(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(6, dipole_type()))
        code, out = run(capsys, ["bounds", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] == "1"
        assert payload["steps_lower"] == 2
        assert payload["tau_lower"] > 0.0

    def test_partition_bound_flag(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(10, np.diag([2.0, 1.0, -1.0])))
        code, out = run(capsys, ["bounds", "--coupling", path, "--p", "3"])
        payload = json.loads(out)
        assert code == 0
        assert payload["steps_lower"] == 3  # ceil(log 10 / log 3)

    def test_raw_coupling_gets_the_step_bound(self, files, capsys):
        # the 4-spin complete scalar J given raw: nu+ = 3, nu- = 9
        _, write = files
        J = np.kron(complete_weights(4), scalar_type())
        path = write("c.json", {"n": 4, "J": J.tolist()})
        code, out = run(capsys, ["bounds", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] is None
        assert payload["steps_lower"] == 3

    def test_raw_coupling_accepted(self, files, capsys):
        _, write = files
        J = np.kron(complete_weights(2), scalar_type())
        path = write("c.json", {"n": 2, "J": J.tolist()})
        code, out = run(capsys, ["bounds", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] is None
        assert payload["tau_lower"] == pytest.approx(1.0, abs=1e-9)


class TestSearch:
    def test_heisenberg_pair(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))
        out_path = str(tmp / "found.json")
        code = main(["search", "--coupling", path, "--seed", "42", "--out", out_path])
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert code == 0
        assert err == ""
        assert payload["found"] is True
        assert payload["meta"]["seed"] == 42
        assert payload["meta"]["residual"] <= 1e-9
        scheme = scheme_from_dict(json.loads((tmp / "found.json").read_text()))
        assert verify(scheme, np.kron(complete_weights(2), scalar_type()), tol=1e-9).ok

    def test_deterministic_output(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))
        argv = ["search", "--coupling", path, "--seed", "7"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_phase_one_keeps_only_the_assemblies_it_grows(self, files, capsys, monkeypatch):
        # each chosen assembly is kept as its row of octahedral indices, not
        # as a view holding its round's whole (64, n, 3, 3) candidate batch:
        # about 80 growth rounds at n = 5 would keep 1.9 MB of batches.  The
        # peak is read per phase, reset between them, since phase 2's arrays
        # would otherwise decide a bound on the whole job
        import spinrev.search

        _, write = files
        run(capsys, ["search", "--coupling", write("w.json", coupling_doc(2, scalar_type())), "--seed", "1"])
        path = write("c.json", coupling_doc(5, scalar_type()))
        real, peaks = spinrev.search.minimize_tau, []

        def phase_two(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])  # phase 1, and the job's setup
            tracemalloc.reset_peak()
            try:
                return real(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()

        monkeypatch.setattr(spinrev.search, "minimize_tau", phase_two)
        tracemalloc.start()
        try:
            code = main(["search", "--coupling", path, "--seed", "1"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["found"] is True
        phase_one, phase_two_peak, _ = peaks
        assert phase_one <= 1.1e6  # 0.99 MB on numpy 2.4
        assert phase_two_peak <= 1.4e6  # 0.89 MB, phase 1's image table included
        assert max(peaks) <= 1.5e6

    def test_budget_exhaustion_exits_one(self, files, capsys, monkeypatch):
        # a budget of the base pool's 3n + 2 = 14 assemblies leaves no growth
        # round, and the base pool alone does not invert the 4-spin coupling
        _, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        monkeypatch.setattr("spinrev.search._pool_budget", lambda n: 3 * n + 2)
        code = main(["search", "--coupling", path, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["found"] is False
        assert captured.err.startswith("search exhausted its pool budget")

    def test_a_search_job_never_conjugates(self, files, capsys, monkeypatch):
        # both phases read every column and every price off one octahedral
        # image table of J, and refuse rotations outside the group, so no
        # rotation of a search job is conjugated with J
        import spinrev.search
        from spinrev import schemes

        def refuse(rotations, J):
            raise AssertionError("a search job conjugated")

        assert not hasattr(spinrev.search, "conjugate")
        monkeypatch.setattr(schemes, "conjugate", refuse)
        _, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "1"])
        assert code == 0
        assert json.loads(out)["found"] is True

    def test_an_nnls_solve_that_does_not_converge_ends_the_search(self, files, capsys):
        # the type's third eigenvalue sits at the search tolerance; a growth
        # round's cold solve there rejects a column that rounding gives a
        # nonpositive value and passes the dual test only without it, so it
        # has not converged: phase 1 ends (exit 1) instead of failing its
        # monotonicity self-check
        tmp, write = files
        A = np.diag([1.0, 1.0, -1.5e-9 * np.sqrt(2.0)])
        path = write("c.json", coupling_doc(4, A))
        out_path = tmp / "found.json"
        code = main(["search", "--coupling", path, "--seed", "0", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1, captured.err
        assert json.loads(captured.out)["found"] is False
        assert "exhausted its pool budget" not in captured.err
        assert "an NNLS solve did not converge" in captured.err
        assert not out_path.exists()

    def test_a_loose_tol_finds_what_verify_accepts_at_it(self, files, capsys):
        # tau 0.74 in 3 steps sits far below the exact bound tau 3, but at
        # tol 0.9 the averaging error allows it: exit 0, not an internal defect
        tmp, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        out_path = str(tmp / "found.json")
        code, out = run(capsys, ["search", "--coupling", path, "--tol", "0.9", "--seed", "0", "--out", out_path])
        assert code == 0
        assert json.loads(out)["meta"]["tau"] < 3.0
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path, "--tol", "0.9"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_negative_seed_exits_two_naming_the_flag(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))
        code = main(["search", "--coupling", path, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --seed must be a non-negative integer"]

    def test_the_pool_budget_is_no_option(self, files, capsys):
        # phase 1's budget is two assemblies per LP row, not a flag
        _, write = files
        path = write("c.json", coupling_doc(3, scalar_type()))
        with pytest.raises(SystemExit) as exc:
            main(["search", "--coupling", path, "--max-pool", "500"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-pool 500" in capsys.readouterr().err


class TestSimulate:
    def test_slope_report(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", path, "--out", str(tmp / "s.json")])
        code, out = run(
            capsys,
            ["simulate", "--coupling", path, "--scheme", str(tmp / "s.json"), "--eps", "0.2,0.1,0.05,0.025"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["exact"] is False
        assert 1.8 <= payload["slope"] <= 2.2

    def test_an_eps_whose_phase_overflows_exits_two_naming_it(self, files, capsys):
        # lambda * t * eps is inf at eps = 1e308: refused before any cycle
        # runs, with no overflow warning (an error under this suite's filter)
        tmp, write = files
        path = write("c.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", path, "--out", str(tmp / "s.json")])
        code = main(["simulate", "--coupling", path, "--scheme", str(tmp / "s.json"), "--eps", "1e308,1e307,1e306"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: epsilon value 1e+308 is too large: a phase lambda * t * eps overflows"]

    def test_unverified_scheme_exits_one(self, files, capsys):
        tmp, write = files
        coupling = write("c.json", coupling_doc(2, scalar_type()))
        scheme = write(
            "s.json",
            {"kind": "inversion", "n": 2, "steps": [{"t": 1.0, "rotations": [np.eye(3).tolist()] * 2}]},
        )
        code, out = run(capsys, ["simulate", "--coupling", coupling, "--scheme", scheme])
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_unverified_scheme_output_and_what_comes_before_the_verdict(self, files, capsys):
        # the verdict is the oracle's own gate, after the --eps and kind checks
        _, write = files
        eye = [np.eye(3).tolist()] * 3
        coupling = write("c.json", coupling_doc(3, dipole_type()))
        zero = write("z.json", {"n": 3, "W": np.zeros((3, 3)).tolist(), "A": dipole_type().tolist()})
        identity = write("s.json", {"kind": "inversion", "n": 3, "steps": [{"t": 1.0, "rotations": eye}]})
        decoupling = write("d.json", {"kind": "decoupling", "n": 3, "steps": [{"t": 1.0, "rotations": eye}] * 2})
        cases = [
            (coupling, identity, [], 1, '{"ok": false, "residual": 2.0}\n',
             "scheme does not invert this coupling (residual 2); nothing to simulate"),
            (coupling, identity, ["--eps", "0.1,0.2"], 2, "", "error: need at least three epsilon values"),
            (coupling, decoupling, [], 2, "", "error: cycle simulation expects an inversion scheme"),
            (zero, identity, [], 2, "", "error: zero coupling: verification is undefined"),
            (coupling, identity, ["--eps", "0.1,abc,0.05"], 2, "",
             "error: --eps must be a comma-separated float list, got '0.1,abc,0.05'"),
        ]
        for path, scheme, extra, code, out, err in cases:
            assert main(["simulate", "--coupling", path, "--scheme", scheme, *extra]) == code
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (out, err + "\n")

    def test_bad_eps_exits_two(self, files, capsys):
        tmp, write = files
        path = write("c.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", path, "--out", str(tmp / "s.json")])
        code, _ = run(
            capsys, ["simulate", "--coupling", path, "--scheme", str(tmp / "s.json"), "--eps", "0.1,0.2"]
        )
        assert code == 2

    @pytest.mark.parametrize("eps", ["nan,0.1,0.05", "inf,0.1,0.05"])
    def test_non_finite_eps_exits_two(self, files, capsys, eps):
        tmp, write = files
        path = write("c.json", coupling_doc(3, dipole_type()))
        run(capsys, ["synthesize", "--coupling", path, "--out", str(tmp / "s.json")])
        code = main(["simulate", "--coupling", path, "--scheme", str(tmp / "s.json"), "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: epsilon values must be finite, positive and distinct"]


class TestInputDiscipline:
    def test_unreadable_file(self, capsys):
        code, _ = run(capsys, ["classify", "--coupling", "/nonexistent/file.json"])
        assert code == 2

    @pytest.mark.parametrize("broken", ["coupling", "scheme"])
    def test_json_nested_past_the_decoders_depth_exits_two(self, files, capsys, broken):
        # the decoder's RecursionError is a RuntimeError, which would read as exit 3
        from spinrev import scheme_to_dict, synthesize_case1

        _, write = files
        paths = {
            "coupling": write("c.json", coupling_doc(2, dipole_type())),
            "scheme": write("s.json", scheme_to_dict(synthesize_case1(complete_weights(2), dipole_type()))),
        }
        with open(paths[broken], "w") as handle:
            handle.write("[" * 100_000 + "]" * 100_000)
        code = main(["verify", "--coupling", paths["coupling"], "--scheme", paths["scheme"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {paths[broken]} nests JSON too deeply to decode"]

    @pytest.mark.parametrize(
        "command,A",
        [("synthesize", dipole_type()), ("search", scalar_type())],
    )
    def test_unwritable_out_exits_two(self, files, capsys, command, A):
        tmp, write = files
        path = write("c.json", coupling_doc(2, A))
        out_path = str(tmp / "missing-dir" / "s.json")
        code = main([command, "--coupling", path, "--out", out_path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command,A",
        [("synthesize", dipole_type()), ("search", scalar_type())],
    )
    def test_unwritable_out_prints_nothing(self, files, capsys, command, A):
        tmp, write = files
        path = write("c.json", coupling_doc(2, A))
        code, out = run(capsys, [command, "--coupling", path, "--out", str(tmp / "missing-dir" / "s.json")])
        assert code == 2
        assert out == ""

    def test_failed_out_write_leaves_old_file(self, files, capsys, monkeypatch):
        tmp, write = files
        path = write("c.json", coupling_doc(2, dipole_type()))
        out_path = tmp / "s.json"
        out_path.write_bytes(b"previous scheme")

        real_open = open

        def open_failing_second_write(file, mode="r", **kwargs):
            handle = real_open(file, mode, **kwargs)
            if "w" in mode:
                write, calls = handle.write, []

                def second_write_fails(text):
                    calls.append(text)
                    if len(calls) == 2:
                        raise OSError("disk full")
                    return write(text)

                handle.write = second_write_fails
            return handle

        monkeypatch.setattr("spinrev.cli.open", open_failing_second_write, raising=False)
        code, out = run(capsys, ["synthesize", "--coupling", path, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert out_path.read_bytes() == b"previous scheme"
        assert sorted(p.name for p in tmp.iterdir()) == ["c.json", "s.json"]

    def test_defect_exits_three_without_traceback(self, files, capsys, monkeypatch):
        _, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))

        def defective(*args, **kwargs):
            raise RuntimeError("NNLS objective increased while the pool grew; active-set defect")

        monkeypatch.setattr("spinrev.search.greedy_pool_growth", defective)
        code = main(["search", "--coupling", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: internal defect: NNLS objective increased while the pool grew; active-set defect"
        ]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("t", [None, [1], True, "2.5"], ids=["null", "list", "true", "string"])
    def test_non_numeric_step_time_exits_two(self, files, capsys, t):
        _, write = files
        coupling = write("c.json", coupling_doc(2, dipole_type()))
        scheme = write(
            "s.json",
            {"kind": "inversion", "n": 2, "steps": [{"t": t, "rotations": [np.eye(3).tolist()] * 2}]},
        )
        code = main(["verify", "--coupling", coupling, "--scheme", scheme])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ['error: step "t" must be a number']
        assert "Traceback" not in captured.err

    def test_malformed_json(self, files, capsys):
        tmp, _ = files
        path = tmp / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["classify", "--coupling", str(path)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--coupling", "--scheme"])
    def test_non_utf8_file_is_named(self, files, capsys, flag):
        tmp, write = files
        paths = {
            "--coupling": write("c.json", coupling_doc(2, dipole_type())),
            "--scheme": write("s.json", {"kind": "inversion", "n": 2, "steps": []}),
        }
        bad = tmp / "latin1.json"
        bad.write_bytes(b"\xff{}")
        paths[flag] = str(bad)
        code = main(["verify", "--coupling", paths["--coupling"], "--scheme", paths["--scheme"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(bad) in captured.err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"n": 2, "W": [[0, 1], [1, 0.5]], "A": np.eye(3).tolist()}, "weight matrix diagonal must be exactly zero"),
            ({"n": 2}, 'coupling file needs either "W" and "A" or "J"'),
        ],
        ids=["weights", "no-matrix"],
    )
    def test_invalid_coupling(self, files, capsys, doc, message):
        _, write = files
        path = write("c.json", doc)
        code = main(["classify", "--coupling", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


def test_module_entry_point(files):
    _, write = files
    path = write("c.json", coupling_doc(2, dipole_type()))
    result = subprocess.run(
        [sys.executable, "-m", "spinrev.cli", "classify", "--coupling", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["case"] == "1"


MIXED = {"n": 3, "W": [[0, 1, -1], [1, 0, 1], [-1, 1, 0]], "A": [[2, 0, 0], [0, 1, 0], [0, 0, -1]]}


class TestProcessEntry:
    """`python -m spinrev.cli` runs `cli.run()`: the cyclic collector off,
    `main()`, then a stdout flush and `gc.freeze()` before `sys.exit`. The
    process prints what `main()` prints in process, and only `run()` turns
    the collector off and freezes."""

    @pytest.fixture
    def env(self, monkeypatch):
        # argparse wraps --help at the terminal width; COLUMNS fixes it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    @pytest.fixture
    def paths(self, files):
        tmp, write = files
        dipole = {"n": 3, "W": complete_weights(3).tolist(), "A": dipole_type().tolist()}
        # a scheme written for the signed coupling, read against the complete-graph one
        scheme = synthesize_case2(np.array(MIXED["W"], float), np.array(MIXED["A"], float))
        return {
            "mixed": write("mixed.json", MIXED),
            "dipole": write("dipole.json", dipole),
            "scheme": write("scheme.json", scheme_to_dict(scheme)),
            "out": str(tmp / "out.json"),
            "missing": str(tmp / "missing.json"),
        }

    def module(self, env, argv, **kwargs):
        kwargs.setdefault("stdout", subprocess.PIPE)
        return subprocess.run(
            [sys.executable, "-m", "spinrev.cli", *argv], stderr=subprocess.PIPE, env=env, timeout=120, **kwargs
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bounds", "--coupling", "{mixed}"], 0),
            (["synthesize", "--coupling", "{mixed}", "--out", "{out}"], 0),
            (["verify", "--coupling", "{dipole}", "--scheme", "{scheme}"], 1),
            (["bounds", "--no-such-flag"], 2),
            (["bounds", "--coupling", "{mixed}", "--tol", "1"], 2),
            (["bounds", "--coupling", "{missing}"], 2),
            (["--help"], 0),
        ],
        ids=["bounds", "synthesize-out", "verify-other-coupling", "bad-flag", "tol-1", "unreadable", "help"],
    )
    def test_module_prints_what_main_prints(self, paths, env, capsys, argv, code):
        argv = [arg.format(**paths) for arg in argv]
        result = self.module(env, argv)
        out = Path(paths["out"])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        before = gc.get_freeze_count()
        try:
            in_process = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            in_process = exc.code
        assert gc.get_freeze_count() == before
        captured = capsys.readouterr()
        assert result.returncode == in_process == code
        assert result.stdout == captured.out.encode()
        assert result.stderr == captured.err.encode()
        if written is not None:
            assert out.read_bytes() == written

    def test_run_freezes_before_exit(self, paths, env):
        # atexit handlers run after run()'s freeze, since normal finalization still runs
        probe = (
            "import atexit, gc\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "from spinrev.cli import run\n"
            "run()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, "bounds", "--coupling", paths["mixed"]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report, frozen = result.stdout.splitlines()
        assert json.loads(report)["steps_lower"] == 2
        label, count = frozen.split()
        assert label == "frozen" and int(count) > 0

    def test_run_calls_the_handler_with_the_collector_off(self, paths, monkeypatch):
        from spinrev.cli import run as process_entry

        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr("spinrev.cli.cmd_bounds", handler)
        monkeypatch.setattr(sys, "argv", ["spinrev", "bounds", "--coupling", paths["mixed"]])
        enabled = gc.isenabled()
        try:
            with pytest.raises(SystemExit) as stopped:
                process_entry()
            # main() leaves the collector as it finds it, off or on
            assert main(sys.argv[1:]) == 0
            assert not gc.isenabled()
            gc.enable()
            assert main(sys.argv[1:]) == 0
            assert gc.isenabled()
        finally:
            gc.unfreeze()
            (gc.enable if enabled else gc.disable)()
        assert stopped.value.code == 0
        assert seen == [False, False, True]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_without_traceback(self, paths, env, unbuffered):
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.module(env, ["bounds", "--coupling", paths["mixed"]], stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr.decode().splitlines() == ["error: stdout was closed before the output was written"]


class TestSearchPhaseTwo:
    """`search` re-times the phase-1 scheme by `minimize_tau` before printing."""

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"], ["--seed", "2"]])
    def test_four_spin_complete_scalar_is_certified_optimal(self, files, capsys, seed):
        # exact pricing runs to its certificate, so the seed changes the
        # steps but not tau
        tmp, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        out_path = str(tmp / "found.json")
        code, out = run(capsys, ["search", "--coupling", path, "--out", out_path, *seed])
        payload = json.loads(out)
        assert code == 0
        assert payload["certified"] is True
        assert abs(payload["meta"]["tau"] - 3.0) <= 1e-9
        assert set(payload["meta"]) == {"residual", "iterations", "tau", "seed"}
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_phase_two_is_not_cut_short_by_the_pool_budget(self, files, capsys):
        # a 4-spin positive-weight input on which phase 2, given only the
        # pool room phase 1 left, stopped at tau 3 uncertified; the orbit
        # start now reaches the closed form 3 in 3 steps
        _, write = files
        W = [
            [0.0, 0.7641380279894014, 0.388960711372778, 0.27984720805855345],
            [0.7641380279894014, 0.0, 1.1538560848617012, 0.2522109991028557],
            [0.388960711372778, 1.1538560848617012, 0.0, 1.1507455339443897],
            [0.27984720805855345, 0.2522109991028557, 1.1507455339443897, 0.0],
        ]
        path = write("c.json", {"n": 4, "W": W, "A": scalar_type().tolist()})
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "2104143361"])
        payload = json.loads(out)
        assert code == 0
        assert payload["certified"] is True
        assert abs(payload["meta"]["tau"] - 3.0) <= 1e-9
        assert len(payload["steps"]) == 3

    def test_tied_phase_one_candidates_keep_the_three_step_scheme(self, files, capsys):
        # the benchmark's search-oracle seed 902, round 2, first job: phase 1's
        # round 1 has two candidates tied at -14/3, and picking the later one
        # (which the last bits of x can favour) costs a round and ends phase 2
        # at 9 steps instead of 3
        _, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "380087905"])
        payload = json.loads(out)
        assert code == 0
        assert payload["meta"]["iterations"] == 43
        assert len(payload["steps"]) == 3
        assert abs(payload["meta"]["tau"] - 3.0) <= 1e-9

    def test_five_spin_complete_scalar_reaches_the_octahedral_optimum(self, files, capsys):
        # tau* = 5 over octahedral schemes, above the spectral bound 4: the
        # closed form certifies what ascent pricing could not
        _, write = files
        path = write("c.json", coupling_doc(5, scalar_type()))
        code, out = run(capsys, ["search", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["meta"]["tau"] - 5.0) <= 1e-9
        assert payload["certified"] is True

    @pytest.mark.parametrize("weights", ["complete", "signed"])
    @pytest.mark.parametrize("n, tau", [(3, 3.0), (4, 3.0), (5, 5.0), (7, 7.0)])
    def test_scalar_full_support_is_certified_at_the_closed_form(self, files, capsys, n, tau, weights):
        # tau*_oct = 3n(n-1) / (3n - m_n) for a scalar type on any W with
        # full support; at n = 5 and 7 it is one above the spectral bound
        tmp, write = files
        W = random_weights(np.random.default_rng(n), n) if weights == "signed" else complete_weights(n)
        path = write("c.json", {"n": n, "W": W.tolist(), "A": scalar_type().tolist()})
        out_path = str(tmp / "found.json")
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "1", "--out", out_path])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["meta"]["tau"] - tau) <= 1e-9
        assert payload["certified"] is True
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path])
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "n, form, expected",
        [
            (4, "zero-pair", (34, True, 6)),
            (5, "zero-pair", (68, False, 6)),
            (4, "anisotropic", (43, True, 3)),
            (5, "anisotropic", (77, False, 85)),
        ],
    )
    def test_other_couplings_take_neither_the_closed_form_nor_the_orbit(
        self, files, capsys, monkeypatch, n, form, expected
    ):
        # a W with one zero pair, or a type that is not a multiple of I: phase
        # 2 certifies against the spectral bound and prices its first round,
        # and prints what it printed before the closed form (phase-1 rounds,
        # certified, steps)
        def refuse(n):
            raise AssertionError("the scalar full-support path was taken")

        monkeypatch.setattr("spinrev.search._octahedral_optimum", refuse)
        monkeypatch.setattr("spinrev.search._optimal_orbit", refuse)
        _, write = files
        W, A = complete_weights(n), np.diag([1.0, 1.0, 0.5])
        if form == "zero-pair":
            W[0, n - 1] = W[n - 1, 0] = 0.0
            A = scalar_type()
        path = write("c.json", {"n": n, "W": W.tolist(), "A": A.tolist()})
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "0"])
        payload = json.loads(out)
        assert code == 0
        assert (payload["meta"]["iterations"], payload["certified"], len(payload["steps"])) == expected

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.5])
    def test_four_spin_anisotropic_types_are_certified_at_three(self, files, capsys, alpha, seed):
        # on types that are not multiples of I, ascent pricing (24^4
        # assemblies, no spin held) reaches the spectral bound n-1 = 3,
        # which certifies it; at alpha = -0.1, seed 1, only within the last
        # 54 of its 1,080 pivots
        _, write = files
        path = write("c.json", coupling_doc(4, np.diag([1.0, 1.0, alpha])))
        code, out = run(capsys, ["search", "--coupling", path, "--seed", seed])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["meta"]["tau"] - 3.0) <= 1e-9
        assert payload["certified"] is True

    def test_uncertified_when_the_budget_ends_first(self, files, capsys):
        # ascent pricing at n=6 stops at its budget, above the bound 5
        _, write = files
        path = write("c.json", coupling_doc(6, scalar_type()))
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "1"])
        payload = json.loads(out)
        assert code == 0
        assert payload["certified"] is False
        assert 5.0 < payload["meta"]["tau"] < 6.0

    def test_no_scheme_is_not_certified(self, files, capsys, monkeypatch):
        _, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        monkeypatch.setattr("spinrev.search._pool_budget", lambda n: 3 * n + 2)
        argv = ["search", "--coupling", path, "--seed", "1"]
        code, out = run(capsys, argv)
        assert code == 1
        assert json.loads(out)["certified"] is False

    def test_a_basis_that_rounding_leaves_singular_returns_the_start(self, files, capsys):
        # the type's third eigenvalue sits at the search tolerance; rounding
        # leaves phase 2's basis singular, so after 200 pivots the inverse at
        # a refactor (or the final solve) raises LinAlgError, and phase 1's
        # verified scheme comes back uncertified. The exit through an
        # improving column that no row bounds is tested in test_minimize_tau.py
        tmp, write = files
        path = write("c.json", coupling_doc(3, np.diag([1.0, 1.0, 1.5e-9 * np.sqrt(2.0)])))
        out_path = str(tmp / "found.json")
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "0", "--out", out_path])
        assert code == 0
        assert json.loads(out)["certified"] is False
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_phase_two_defect_exits_three(self, files, capsys, monkeypatch):
        tmp, write = files
        path = write("c.json", coupling_doc(3, scalar_type()))

        def defective(*args, **kwargs):
            raise RuntimeError("phase-2 LP is unbounded although tau >= 0; simplex defect")

        monkeypatch.setattr("spinrev.search.minimize_tau", defective)
        code = main(["search", "--coupling", path, "--out", str(tmp / "found.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: internal defect: phase-2 LP is unbounded although tau >= 0; simplex defect"
        ]
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp.iterdir()) == ["c.json"]

    def test_printed_tau_is_the_verified_tau(self, files, capsys):
        # seed 0 at n=5 is a search whose phase-2 tau, summed by numpy from
        # the step-time vector, differed from `verify`'s in the last digit
        tmp, write = files
        path = write("c.json", coupling_doc(5, scalar_type()))
        out_path = str(tmp / "found.json")
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "0", "--out", out_path])
        assert code == 0
        tau = json.loads(out)["meta"]["tau"]
        code, out = run(capsys, ["verify", "--coupling", path, "--scheme", out_path])
        assert code == 0
        assert tau == json.loads(out)["tau"]

    @pytest.mark.parametrize(
        "target,planted",
        [
            # phase 2 finds a 3-step scheme, below a planted n+1 = 5
            ("spinrev.bounds._inertia_steps", lambda lam, *allowance: lam.size // 3 + 1),
            # `minimize_tau` holds its own reference, so only the audit sees it
            ("spinrev.bounds._spectral_bound", lambda J: (-1.0, 1.0, 1e6)),
        ],
        ids=["steps", "overhead"],
    )
    def test_found_scheme_below_a_bound_exits_three(self, files, capsys, monkeypatch, target, planted):
        tmp, write = files
        path = write("c.json", coupling_doc(4, scalar_type()))
        monkeypatch.setattr(target, planted)
        code = main(["search", "--coupling", path, "--out", str(tmp / "found.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: internal defect: verified scheme beats a lower bound; this is a software defect"
        ]
        assert sorted(p.name for p in tmp.iterdir()) == ["c.json"]

    def test_search_checks_the_coupling_once_per_phase(self, files, capsys, monkeypatch):
        # W, A and J = W (x) A once each while parsing; both phases take
        # the parsed coupling as checked
        import spinrev.coupling

        _, write = files
        path = write("c.json", coupling_doc(5, scalar_type()))
        real = spinrev.coupling.check_symmetric
        calls = []

        def counting(M, name, *args):
            calls.append(name)
            return real(M, name, *args)

        monkeypatch.setattr(spinrev.coupling, "check_symmetric", counting)
        code, _ = run(capsys, ["search", "--coupling", path])
        assert code == 0
        assert sorted(calls) == ["coupling matrix", "type matrix", "weight matrix"]


# W and A each pass their own checks, but W (x) A misses the coupling
# matrix's symmetry tolerance: rejected at the parse by every subcommand
EDGE_DOC = {
    "n": 2,
    "W": [[0.0, 1.0], [1.0 - 1.4e-12, 0.0]],
    "A": [[0.0, 1.0, 0.0], [1.0 - 1.4e-12, 0.0, 0.0], [0.0, 0.0, 0.0]],
}


def _job_argv(command, coupling, scheme):
    argv = [command, "--coupling", coupling]
    return argv + ["--scheme", scheme] if command in ("verify", "simulate") else argv


COMMANDS = ["classify", "synthesize", "verify", "bounds", "search", "simulate"]
# averages of a scheme per job: `search` averages phase 1's scheme, and
# phase 2's when it improves on it
AVERAGES = {"classify": (0,), "synthesize": (0,), "verify": (1,), "bounds": (0,), "search": (1, 2), "simulate": (1,)}
# every subcommand on the class-2 coupling, factored and raw, and a
# search on the 4-spin scalar one, whose phase 2 re-times its scheme
JOB_FORMS = [(command, form) for command in COMMANDS for form in ("factored", "raw")] + [("search", "scalar")]


class TestOneCheckPerJob:
    @pytest.fixture
    def mixed(self, files):
        # a class-2 coupling, factored and raw, and a scheme that inverts it
        from spinrev import scheme_to_dict, synthesize_case2

        _, write = files
        W, A = complete_weights(3), np.diag([2.0, 1.0, -1.0])
        return {
            "factored": write("factored.json", coupling_doc(3, A)),
            "raw": write("raw.json", {"n": 3, "J": np.kron(W, A).tolist()}),
            "scheme": write("scheme.json", scheme_to_dict(synthesize_case2(W, A))),
        }

    @pytest.mark.parametrize("form", ["factored", "raw"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_matrix_is_checked_at_most_once(self, mixed, capsys, monkeypatch, command, form):
        import spinrev.bounds
        import spinrev.coupling
        import spinrev.hilbert
        import spinrev.rotations
        import spinrev.schemes
        import spinrev.search

        calls = []

        def counting(real):
            def check(M, name, *args):
                calls.append(name)
                return real(M, name, *args)

            return check

        def counting_eig(M):
            calls.append("sym_eig")
            return real_eig(M)

        real_eig = spinrev.rotations.sym_eig
        for module in (spinrev.coupling, spinrev.rotations):
            monkeypatch.setattr(module, "check_symmetric", counting(module.check_symmetric))
        modules = [spinrev.coupling, spinrev.rotations, spinrev.schemes]
        for module in modules + [spinrev.bounds, spinrev.search, spinrev.hilbert]:
            if hasattr(module, "sym_eig"):
                monkeypatch.setattr(module, "sym_eig", counting_eig)
        code, _ = run(capsys, _job_argv(command, mixed[form], mixed["scheme"]))
        assert code == (2 if form == "raw" and command in ("classify", "synthesize") else 0)
        for name in ("weight matrix", "type matrix", "coupling matrix", "sym_eig"):
            assert calls.count(name) <= 1, (name, calls)
        assert calls.count("coupling matrix") == 1

    @pytest.mark.parametrize(
        "command, pair, counts",
        [(command, False, AVERAGES[command]) for command in COMMANDS] + [("search", True, (1,))],
        ids=COMMANDS + ["search-two-spin"],
    )
    def test_each_scheme_is_averaged_at_most_once(self, mixed, files, capsys, monkeypatch, command, pair, counts):
        # phase 2 takes phase 1's verdict, so only a re-timed scheme is
        # averaged a second time; at n=2 phase 1's three half turns on one
        # spin are already optimal
        import spinrev.schemes

        real = spinrev.schemes.average_coupling
        schemes = []

        def counting(scheme, J):
            schemes.append(tuple((step.t, step.rotations.tobytes()) for step in scheme.steps))
            return real(scheme, J)

        monkeypatch.setattr(spinrev.schemes, "average_coupling", counting)
        _, write = files
        coupling = write("pair.json", coupling_doc(2, scalar_type())) if pair else mixed["factored"]
        code, _ = run(capsys, _job_argv(command, coupling, mixed["scheme"]))
        assert code == 0
        assert len(schemes) in counts
        assert len(set(schemes)) == len(schemes)

    @pytest.mark.parametrize(
        "command, form", [(command, form) for command in COMMANDS for form in ("factored", "raw")] + [("search", "scalar")]
    )
    def test_each_coupling_spectrum_is_solved_at_most_once(self, mixed, files, capsys, monkeypatch, command, form):
        # both search phases' audits and phase 2's certificate bound read one
        # eigvalsh of J; the 4-spin scalar search re-times its phase-1 scheme,
        # so its phase 2 audits a second scheme
        real = np.linalg.eigvalsh
        shapes = []

        def counting(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _, write = files
        n, coupling = (4, write("scalar.json", coupling_doc(4, scalar_type()))) if form == "scalar" else (3, mixed[form])
        code, _ = run(capsys, _job_argv(command, coupling, mixed["scheme"]))
        if command == "search":
            assert code == 0
        assert shapes.count((3 * n, 3 * n)) <= 1, shapes

    def run_job(self, mixed, files, capsys, command, form):
        # the class-2 coupling in either form, or the 4-spin scalar one
        _, write = files
        coupling = write("scalar.json", coupling_doc(4, scalar_type())) if form == "scalar" else mixed[form]
        code, _ = run(capsys, _job_argv(command, coupling, mixed["scheme"]))
        assert code == (2 if form == "raw" and command in ("classify", "synthesize") else 0)

    @pytest.mark.parametrize("command, form", JOB_FORMS)
    def test_each_type_spectrum_is_solved_only_where_read(self, mixed, files, capsys, monkeypatch, command, form):
        # A's spectrum is solved on first use: the class and the synthesizers
        # read it, so `classify`, `synthesize` and `bounds` solve it once and
        # the other subcommands never
        import spinrev.coupling

        real = spinrev.coupling.sym_eig
        calls = []

        def counting(M):
            calls.append(np.shape(M))
            return real(M)

        monkeypatch.setattr(spinrev.coupling, "sym_eig", counting)
        self.run_job(mixed, files, capsys, command, form)
        assert len(calls) <= (1 if command in ("classify", "synthesize", "bounds") else 0), calls

    @pytest.mark.parametrize("command, form", JOB_FORMS)
    def test_each_coupling_norm_is_taken_at_most_once(self, mixed, files, capsys, monkeypatch, command, form):
        # `verify`'s residual scale, the audits' allowance and the step
        # bound's zero cut all read the coupling's one ||J||_F
        import spinrev

        n, A = (4, scalar_type()) if form == "scalar" else (3, np.diag([2.0, 1.0, -1.0]))
        J = np.kron(complete_weights(n), A)
        real = spinrev.rotations._frobenius
        norms = []

        def counting(M):
            if np.shape(M) == J.shape and np.array_equal(M, J):
                norms.append(M)
            return real(M)

        for name in ("rotations", "coupling", "schemes", "bounds", "search", "hilbert"):
            module = getattr(spinrev, name)
            if hasattr(module, "_frobenius"):
                monkeypatch.setattr(module, "_frobenius", counting)
        self.run_job(mixed, files, capsys, command, form)
        assert len(norms) == (0 if command in ("classify", "synthesize") else 1)

    @pytest.mark.parametrize("form", ["factored", "raw", "scalar"])
    def test_a_search_job_resolves_its_coupling_once(self, mixed, files, capsys, monkeypatch, form):
        # one `_problem` serves both phases: ||scaled J||_F, which the
        # residual tests and `_finalize` read, and the image table, which
        # every column and price of both phases reads, are taken once; the
        # other norms search takes are of residual vectors
        import spinrev.search

        real, real_table = np.linalg.norm, spinrev.search._image_table
        matrices, tables = [], []

        def counting(x, *args, **kwargs):
            if np.ndim(x) == 2 and sys._getframe(1).f_code.co_filename == spinrev.search.__file__:
                matrices.append(np.shape(x))
            return real(x, *args, **kwargs)

        def counting_table(J):
            tables.append(np.shape(J))
            return real_table(J)

        monkeypatch.setattr(np.linalg, "norm", counting)
        monkeypatch.setattr(spinrev.search, "_image_table", counting_table)
        self.run_job(mixed, files, capsys, "search", form)
        n = 4 if form == "scalar" else 3
        assert matrices == tables == [(3 * n, 3 * n)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_edge_document_is_rejected_by_every_subcommand(self, files, capsys, command):
        from spinrev import scheme_to_dict, synthesize_case1

        _, write = files
        coupling = write("edge.json", EDGE_DOC)
        scheme = write("scheme.json", scheme_to_dict(synthesize_case1(complete_weights(2), dipole_type())))
        code = main(_job_argv(command, coupling, scheme))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: coupling matrix is not symmetric (block (l,k) must be the transpose of block (k,l))"
        ]

    @pytest.mark.parametrize("p", ["1", "0", "-3"])
    @pytest.mark.parametrize("A", [np.diag([2.0, 1.0, -1.0]), scalar_type()], ids=["class2", "class3"])
    def test_partition_size_below_two_exits_two_naming_the_flag(self, files, capsys, A, p):
        _, write = files
        path = write("c.json", coupling_doc(4, A))
        code = main(["bounds", "--coupling", path, "--p", p])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --p must be an integer >= 2"]


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def _raw_asymmetric_doc():
    # a raw J whose two mirrored entries differ tenfold near overflow
    J = np.zeros((6, 6))
    J[0, 3], J[3, 0] = 1e308, 1e307
    return {"n": 2, "J": J.tolist()}


class TestExtremeScales:
    """Finite inputs at the ends of float64's range get the verdict they
    get at scale 1, in one stderr line and without a numpy warning."""

    def assert_rejected(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["bounds", "classify", "synthesize"])
    def test_asymmetric_weights_near_overflow(self, files, capsys, command):
        _, write = files
        path = write("c.json", {"n": 2, "W": [[0.0, 1e308], [1e307, 0.0]], "A": np.diag([0.5, 0.5, -1.0]).tolist()})
        self.assert_rejected(capsys, [command, "--coupling", path], "weight matrix is not symmetric")

    @pytest.mark.parametrize("command", ["bounds", "search"])
    def test_asymmetric_raw_coupling_near_overflow(self, files, capsys, command):
        _, write = files
        path = write("c.json", _raw_asymmetric_doc())
        self.assert_rejected(
            capsys,
            [command, "--coupling", path],
            "coupling matrix is not symmetric (block (l,k) must be the transpose of block (k,l))",
        )

    def test_overflowing_tensor_product_is_named(self, files, capsys):
        # W and A are finite, their Kronecker product is not
        _, write = files
        path = write("c.json", {"n": 2, "W": [[0.0, 1e308], [1e308, 0.0]], "A": np.diag([1e308, 1.0, -2.0]).tolist()})
        self.assert_rejected(capsys, ["bounds", "--coupling", path], "coupling matrix W (x) A overflows float64")

    def test_simulate_verifies_a_coupling_whose_norm_underflows(self, files, capsys):
        # the squares of J's entries underflow to 0 although J is not zero:
        # the one-step identity scheme leaves J as it is, so it misses -J by
        # 2 ||J||_F, in `verify` and in the oracle's gate alike
        _, write = files
        n = 3
        path = write("c.json", {"n": n, "W": (1e-170 * complete_weights(n)).tolist(), "A": dipole_type().tolist()})
        scheme = write("s.json", {"kind": "inversion", "n": n, "steps": [{"t": 1.0, "rotations": [np.eye(3).tolist()] * n}]})
        for command in ("verify", "simulate"):
            code = main([command, "--coupling", path, "--scheme", scheme])
            captured = capsys.readouterr()
            assert code == 1
            assert json.loads(captured.out)["residual"] == 2.0
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("A", [dipole_type(), scalar_type()], ids=["dipole", "identity"])
    def test_every_subcommand_keeps_its_scale_one_verdict(self, files, capsys, A):
        # W and, apart, A scaled so far that ||J||_F^2 underflows or
        # overflows: each job prints strict JSON, warns nothing, writes no
        # more stderr than at scale 1 and reaches the scale-1 verdict
        tmp, write = files
        n = 3
        scheme, found = str(tmp / "s.json"), str(tmp / "f.json")
        jobs = {
            "classify": ["classify"],
            "synthesize": ["synthesize", "--out", scheme],
            "bounds": ["bounds"],
            "search": ["search", "--out", found],
            "verify": ["verify", "--scheme", found],
        }
        if np.trace(A) == 0.0:
            jobs["verify-synthesized"] = ["verify", "--scheme", scheme]
            jobs["simulate"] = ["simulate", "--scheme", scheme]

        def verdicts(W, A):
            """{job: (exit, stderr lines, verdict fields)} and {job: tau}."""
            path = write("c.json", {"n": n, "W": W.tolist(), "A": A.tolist()})
            out, taus = {}, {}
            for name, (command, *extra) in jobs.items():
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main([command, "--coupling", path, *extra])
                captured = capsys.readouterr()
                assert caught == [], (name, [str(w.message) for w in caught])
                printed = json.loads(captured.out, parse_constant=_reject) if captured.out else {}
                # not "N": a search at another scale may stop at another optimal vertex
                keys = ("case", "steps_lower", "ok", "collective", "found", "certified")
                out[name] = (code, len(captured.err.splitlines()), {k: printed[k] for k in keys if k in printed})
                taus[name] = printed.get("meta", printed).get("tau", printed.get("tau_lower"))
            return out, taus

        W = complete_weights(n)
        reference, reference_taus = verdicts(W, A)
        assert reference["search"][0] == 0 and reference["verify"][2]["ok"]
        for scale in (1e-170, 1e160):
            for scaled in ((scale * W, A), (W, scale * A)):
                got, taus = verdicts(*scaled)
                assert got == reference
                for name, tau in reference_taus.items():
                    assert tau is None or abs(taus[name] - tau) <= 1e-9 * tau, name

    @pytest.mark.parametrize("n", [11, 64, 65])
    def test_simulate_above_the_spin_cap_names_the_cap(self, files, capsys, n):
        # the cap is met before the oracle sizes anything by 2^n
        from spinrev import scheme_to_dict, synthesize_case1

        _, write = files
        path = write("c.json", coupling_doc(n, dipole_type()))
        scheme = write("s.json", scheme_to_dict(synthesize_case1(complete_weights(n), dipole_type())))
        self.assert_rejected(
            capsys, ["simulate", "--coupling", path, "--scheme", scheme], f"{n} spins exceed the dense-oracle cap of 10"
        )
