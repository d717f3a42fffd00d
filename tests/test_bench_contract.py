"""The traced benchmark replay imports public names from spinrev and calls
them as the CLI does; a refactor that breaks either breaks only
`--trace 1` runs, so pin both here."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "spinbench" / "replay.py"


def test_replay_imports_exist():
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "spinrev"
        for alias in node.names
    ]
    assert imports, "replay.py imports nothing from spinrev"
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _replay_module():
    spec = importlib.util.spec_from_file_location("spinbench_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_runs_jobs_and_probes(tmp_path):
    # a 3-spin class-2 coupling through the jobs and probes that a traced
    # run replays, so a change to the Scheme API that breaks them fails here
    replay = _replay_module()
    coupling, scheme = str(tmp_path / "c.json"), str(tmp_path / "s.json")
    W = [[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]]
    A = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
    Path(coupling).write_text(json.dumps({"n": 3, "W": W, "A": A}))
    jobs = [
        ("synthesize", ["--coupling", coupling, "--out", scheme]),
        ("verify", ["--coupling", coupling, "--scheme", scheme]),
        ("simulate", ["--coupling", coupling, "--scheme", scheme, "--eps", "0.02,0.01,0.005"]),
    ]
    runner = replay.Replay(replay.NullTracer())
    counts = {}
    for command, args in jobs:
        state = runner.job(command, args)
        assert state["scheme"].n == 3
        counts[command] = runner.probe(command, state)
    steps = len(state["scheme"].steps)
    assert counts["synthesize"] == {"rotations.validated": 3 * steps, "schemes.steps": steps}
    assert counts["verify"] == {}
    assert counts["simulate"] == {"hilbert.dim": 8}


def test_replay_runs_the_search_job_and_its_probe(tmp_path):
    # the search job and its fixed-pool probe call the pool API: base pools,
    # `greedy_pool_growth`, `random_octahedral_pool` and `find_inversion_nnls`
    replay = _replay_module()
    coupling, scheme = str(tmp_path / "c.json"), str(tmp_path / "s.json")
    W = [[0.0 if k == l else 1.0 for l in range(4)] for k in range(4)]
    Path(coupling).write_text(json.dumps({"n": 4, "W": W, "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
    runner = replay.Replay(replay.NullTracer())
    state = runner.job("search", ["--coupling", coupling, "--seed", "5", "--out", scheme])
    counts = runner.probe("search", state)
    assert (state["rounds"], state["pool_size"]) == (45, 59)
    assert counts == {
        "rotations.validated": 4 * 54,
        "schemes.steps": 54,
        "search.rounds": 45,
        "search.fixed_pool_insertions": 26,
    }
    assert json.loads(Path(scheme).read_text())["n"] == 4
