"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest spinbench/test_smoke.py -q
"""

import json
from pathlib import Path

import pytest

import run  # pins BLAS threads before numpy loads
import cases

ROOT = Path(__file__).resolve().parent.parent
TINY = (cases.Case("synth", "class2", 4, "signed", eps_scale=0.07),)


def _run_tiny(tmp_path, tamper=None):
    runner = cases.Runner(ROOT, tmp_path)
    (item,) = cases.make_round(TINY, seed=3, round_index=0, workdir=tmp_path)
    cases.run_case(runner, item, 0, tamper=tamper)
    return runner.records


def _reflect_rotation(path):
    data = json.loads(Path(path).read_text())
    row = data["steps"][0]["rotations"][0][0]
    data["steps"][0]["rotations"][0][0] = [-x for x in row]  # determinant -1
    Path(path).write_text(json.dumps(data))


def _double_first_time(path):
    data = json.loads(Path(path).read_text())
    data["steps"][0]["t"] *= 2.0
    Path(path).write_text(json.dumps(data))


def _truncate(path):
    text = Path(path).read_text()
    Path(path).write_text(text[: len(text) // 2])


def test_clean_pipeline_has_no_failures(tmp_path):
    records = _run_tiny(tmp_path)
    assert [rec["command"] for rec in records] == ["synthesize", "verify", "bounds", "simulate"]
    assert cases.tally(records) == (4, 0)


@pytest.mark.parametrize("tamper", [_reflect_rotation, _double_first_time, _truncate])
def test_corrupted_scheme_file_counts_as_failed(tmp_path, tamper):
    records = _run_tiny(tmp_path, tamper)
    attempted, failed = cases.tally(records)
    # verify rejects the file; bounds and simulate are skipped and count as failed
    assert (attempted, failed) == (4, 3)
    assert not records[1]["ok"] and records[0]["ok"]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(cases.WORKLOADS)
