"""Command-line interface: JSON contracts and the exit-code discipline."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spinrev import axis_cycle, complete_weights, dipole_type, scalar_type, scheme_from_dict, verify
from spinrev.cli import main


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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
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

    def test_dipole_spectral_only(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(6, dipole_type()))
        code, out = run(capsys, ["bounds", "--coupling", path])
        payload = json.loads(out)
        assert code == 0
        assert payload["case"] == "1"
        assert payload["steps_lower"] == 1
        assert payload["tau_lower"] > 0.0

    def test_partition_bound_flag(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(10, np.diag([2.0, 1.0, -1.0])))
        code, out = run(capsys, ["bounds", "--coupling", path, "--p", "3"])
        payload = json.loads(out)
        assert code == 0
        assert payload["steps_lower"] == 3  # ceil(log 10 / log 3)

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
        code, out = run(capsys, ["search", "--coupling", path, "--seed", "42", "--out", out_path])
        payload = json.loads(out)
        assert code == 0
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

    def test_budget_exhaustion_exits_one(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))
        code, out = run(
            capsys,
            ["search", "--coupling", path, "--pool", "collective-cyclic", "--max-pool", "3", "--seed", "1"],
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["found"] is False

    def test_negative_seed_exits_two_naming_the_flag(self, files, capsys):
        _, write = files
        path = write("c.json", coupling_doc(2, scalar_type()))
        code = main(["search", "--coupling", path, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --seed must be a non-negative integer"]


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

        monkeypatch.setattr("spinrev.cli.greedy_pool_growth", defective)
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

    def test_invalid_coupling(self, files, capsys):
        _, write = files
        path = write("c.json", {"n": 2, "W": [[0, 1], [1, 0.5]], "A": np.eye(3).tolist()})
        code, _ = run(capsys, ["classify", "--coupling", path])
        assert code == 2


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
