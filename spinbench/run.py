"""spinrev benchmark: closed loop, one client, every job a fresh `spinrev` process.

    python3 spinbench/run.py --workload synth-large --seed 1 --seconds 55 --trace 0

A run repeats rounds of the workload's job list (cases.py): as many as fit
in --seconds at the round length in ROUND_SECONDS, and at least MIN_ROUNDS;
no round starts that would end after ROUND_CAP x --seconds.  Round r draws
its inputs from (--seed, r).  Each job is `python -m spinrev.cli` with
PYTHONPATH set to this checkout's `src`, so interpreter start and JSON file
I/O are part of every time.  After the rounds, one synthesize and one
search job of round 0 run again and must print byte-identical stdout and
write byte-identical scheme files.

--trace 0 prints the end-to-end metrics (job times are medians over the
rounds, see median_of_rounds, scaled to reference speed, see REFERENCE).  --trace 1 also replays every successful job
in-process, untraced and then traced (replay.py), and prints the per-layer
metrics instead.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the full
record (environment, rounds, jobs, spans) goes to
.spinbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import os

# One BLAS thread for this process (the in-process replay) and, through the
# inherited environment, for every job; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402

COMMANDS = ("synthesize", "verify", "bounds", "search", "simulate")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"{command}_s": "s" for command in COMMANDS},
    "peak_rss_mb": "MB",
    "search_tau_gmean": "ratio",
    "search_steps_mean": "count",
}

PER_LAYER = {
    "cli.overhead_s": "s",
    "cli.scheme_bytes": "count",
    "coupling.parse_s": "s",
    "coupling.classify_s": "s",
    "rotations.validate_s": "s",
    "rotations.validated": "count",
    "rotations.sym_eig_s": "s",
    "schemes.synthesize_s": "s",
    "schemes.parse_s": "s",
    "schemes.average_s": "s",
    "schemes.verify_s": "s",
    "schemes.steps": "count",
    "bounds.tau_lower_s": "s",
    "bounds.report_s": "s",
    "search.pool_s": "s",
    "search.grow_s": "s",
    "search.rounds": "count",
    "search.round_ms": "ms",
    "search.fixed_pool_s": "s",
    "search.fixed_pool_insertions": "count",
    "hilbert.scaling_s": "s",
    "hilbert.build_s": "s",
    "hilbert.evolve_s": "s",
    "hilbert.lift_s": "s",
    "hilbert.norm_s": "s",
    "hilbert.dim": "count",
    **{f"{layer}.self_s": "s" for layer in ("cli", "coupling", "schemes", "bounds", "search", "hilbert")},
    "trace.overhead_s": "s",
}

# Seconds one round of each workload takes on the 2-core VM the benchmark
# was tuned on; a traced round also replays every job twice in-process.
# The round count comes from --seconds and these, so that runs on a steady
# machine take the same number of rounds; ROUND_CAP only stops a run that
# a slow machine would stretch past its time.
ROUND_SECONDS = {"synth-large": 13.5, "search-oracle": 14.5}
TRACED_ROUND_FACTOR = 3.0
MIN_ROUNDS = {0: 2, 1: 1}
ROUND_CAP = 1.15

# The reference: fixed work that does not touch spinrev, in the mix a job
# has (interpreter start, numpy import, small dense linear algebra, Python
# loops, JSON).  It runs in a fresh process before every case.  The speed
# of the shared machine's cores changes by 20-50 % over minutes, and CPU
# time follows wall time, so no statistic of one run's job times removes
# it.  Every time metric is therefore scaled by REFERENCE_S over the median
# reference time of the run: the time the jobs would take on a core that
# runs the reference in REFERENCE_S.  The raw times go to the results file.
REFERENCE = """
import json
import numpy as np
rng = np.random.default_rng(0)
M = rng.standard_normal((40, 40))
M = M + M.T
acc = 0.0
for _ in range(20):
    w, v = np.linalg.eigh(M)
    M = (v * w) @ v.T + 1e-3 * np.eye(40)
    acc += float(w[0])
counts = {}
for i in range(30000):
    counts[i % 331] = counts.get(i % 331, 0) + i
text = json.dumps([[float(x) for x in row] for row in M] * 20)
print(len(json.loads(text)), len(counts), round(acc, 3))
"""
REFERENCE_S = 0.2


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source, or it does not import)."""


def import_wall(runner: cases.Runner, src: Path) -> tuple[float, str]:
    """Wall time of one fresh interpreter importing spinrev.cli, and the
    spinrev file it imported, which must be this checkout's."""
    argv = [sys.executable, "-c", "import spinrev, spinrev.cli; print(spinrev.__file__)"]
    out, err = runner.workdir / "setup.out", runner.workdir / "setup.err"
    wall, code, _ = runner.spawn(argv, out, err)
    if code != 0:
        raise SetupError(f"`import spinrev.cli` failed: {err.read_text(errors='replace')[-500:]}")
    imported = Path(out.read_text().strip()).resolve()
    if not imported.is_relative_to(src.resolve()):
        raise SetupError(f"jobs import spinrev from {imported}, not from {src}")
    return wall, str(imported)


def reference_wall(runner: cases.Runner) -> float:
    out, err = runner.workdir / "reference.out", runner.workdir / "reference.err"
    wall, code, _ = runner.spawn([sys.executable, "-c", REFERENCE], out, err)
    if code != 0:
        raise SetupError(f"the reference run failed: {err.read_text(errors='replace')[-500:]}")
    return wall


def environment(root: Path, spinrev_file: str) -> dict:
    git = {"git_sha": None, "git_dirty": None}
    if (root / ".git").exists():
        def run_git(*args):
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                                  check=True).stdout.strip()
        try:
            git = {"git_sha": run_git("rev-parse", "HEAD"),
                   "git_dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        **git,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "spinrev_file": spinrev_file,
    }


def traced_round(records: list[dict], replay) -> tuple[dict, list[dict]]:
    """Replay a round's successful jobs in-process, each once untraced and
    once traced followed by its probes; returns the round's per-layer
    metrics and its spans.  A job whose replay raises is marked failed."""
    untraced = replay.Replay(replay.NullTracer())
    tracer = replay.Tracer()
    traced = replay.Replay(tracer)
    counts = {"rotations.validated": 0, "schemes.steps": 0, "search.rounds": 0,
              "search.fixed_pool_insertions": 0, "hilbert.dim": 0}
    overhead = {"cli": 0.0, "trace": 0.0}
    for rec in records:
        if not rec["ok"] or rec["args"] is None:
            continue
        try:
            start = time.perf_counter()
            untraced.job(rec["command"], rec["args"])
            plain = time.perf_counter() - start
            tracer.job, tracer.kind = rec["id"], "replay"
            first_span = len(tracer.spans)
            state = traced.job(rec["command"], rec["args"])
            tracer.kind = "probe"
            found = traced.probe(rec["command"], state)
        except Exception:  # recorded as a failed job; the run goes on
            rec["ok"], rec["error"] = False, "replay: " + traceback.format_exc(limit=3)
            continue
        root = tracer.spans[first_span]
        overhead["cli"] += rec["wall_s"] - plain
        overhead["trace"] += root["end"] - root["start"] - plain
        for key, value in found.items():
            counts[key] = max(counts[key], value) if key == "hilbert.dim" else counts[key] + value
    metrics = replay.layer_metrics(tracer.spans)
    metrics.update(counts)
    metrics["cli.overhead_s"] = overhead["cli"]
    metrics["trace.overhead_s"] = overhead["trace"]
    metrics["cli.scheme_bytes"] = sum(rec.get("scheme_bytes", 0) for rec in records)
    grow_rounds = metrics["search.rounds"]
    metrics["search.round_ms"] = 1000.0 * metrics["search.grow_s"] / grow_rounds if grow_rounds else 0.0
    return metrics, tracer.spans


def check_determinism(runner: cases.Runner, workload, seed: int) -> None:
    """Run one synthesize and one search job of round 0 again, on
    regenerated inputs; stdout and the scheme file must match byte for
    byte.  The seed picks which job of each kind, so runs with different
    seeds check different cases without repeating the whole round."""
    cases.make_round(workload, seed, 0, runner.workdir)
    for command in ("synthesize", "search"):
        candidates = [rec for rec in runner.records
                      if rec["round"] == 0 and rec["command"] == command and rec["ok"]]
        if not candidates:
            continue
        orig = candidates[seed % len(candidates)]
        try:
            rec = runner.job("repeat", orig["case"], command, orig["args"])
        except cases.JobFailure as exc:
            exc.record["ok"], exc.record["error"] = False, str(exc)
            continue
        out_path = Path(orig["args"][orig["args"].index("--out") + 1])
        try:
            same_out = cases.sha256_file(out_path) == orig["out_sha256"]
        except OSError:
            same_out = False
        if rec["stdout_sha256"] != orig["stdout_sha256"] or not same_out:
            rec["ok"] = False
            rec["error"] = f"not deterministic: job {orig['id']} gave different output on the same seed"


def median_of_rounds(records: list[dict]) -> dict:
    """Each job slot's median wall time over the run's rounds (a slot being
    one case position and subcommand, run once per round), summed per
    subcommand and in total."""
    walls = {}
    for rec in records:
        if rec["round"] == "repeat" or rec["wall_s"] is None:
            continue
        walls.setdefault((rec["case"].rsplit("c", 1)[1], rec["command"]), []).append(rec["wall_s"])
    median = {slot: statistics.median(v) for slot, v in walls.items()}
    out = {f"{c}_s": sum(v for (_, command), v in median.items() if command == c) for c in COMMANDS}
    out["wall_s"] = sum(median.values())
    return out


def run(workload_name: str, seed: int, seconds: float, trace: int, root: Path, workdir: Path) -> dict:
    src = root / "src"
    if not (src / "spinrev" / "cli.py").is_file():
        raise SetupError(f"no spinrev source at {src}")
    workload = cases.WORKLOADS[workload_name]
    runner = cases.Runner(root, workdir)
    # untimed: the first import may compile the bytecode
    _, spinrev_file = import_wall(runner, src)
    replay = None
    if trace:
        sys.path.insert(0, str(src))
        import replay  # noqa: F811  (imports spinrev from src)
        import spinrev

        if not Path(spinrev.__file__).resolve().is_relative_to(src.resolve()):
            raise SetupError(f"the replay imported spinrev from {spinrev.__file__}, not from {src}")

    # a reference sample before every case, and set-up samples before the
    # first and the middle case of every round
    reference_walls, setup_walls, rounds, spans = [], [], [], []
    start = time.perf_counter()
    nominal = ROUND_SECONDS[workload_name] * (TRACED_ROUND_FACTOR if trace else 1.0)
    for index in range(max(MIN_ROUNDS[trace], round(seconds / nominal))):
        elapsed = time.perf_counter() - start
        if index >= MIN_ROUNDS[trace] and elapsed * (index + 1) / index > ROUND_CAP * seconds:
            break
        items = cases.make_round(workload, seed, index, workdir)
        first = len(runner.records)
        for c, item in enumerate(items):
            reference_walls.append(reference_wall(runner))
            if c in (0, len(items) // 2):
                setup_walls.append(import_wall(runner, src)[0])
            cases.run_case(runner, item, index)
        records = runner.records[first:]
        done = [rec for rec in records if rec["wall_s"] is not None]
        entry = {
            "wall_s": sum(r["wall_s"] for r in done),
            **{f"{c}_s": sum(r["wall_s"] for r in done if r["command"] == c) for c in COMMANDS},
            "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        }
        if trace:
            entry["layers"], round_spans = traced_round(records, replay)
            spans.append(round_spans)
        rounds.append(entry)
    check_determinism(runner, workload, seed)

    unscaled = {**median_of_rounds(runner.records), "setup_s": statistics.median(setup_walls)}
    scale = REFERENCE_S / statistics.median(reference_walls)
    found = [rec for rec in runner.records
             if rec["command"] == "search" and rec["round"] != "repeat" and rec["ok"]]
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in rounds) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {name: value * scale for name, value in unscaled.items()}
        metrics["peak_rss_mb"] = max((r["peak_rss_mb"] for r in rounds))
        metrics["search_tau_gmean"] = statistics.geometric_mean(r["tau"] for r in found) if found else 0.0
        metrics["search_steps_mean"] = statistics.fmean(r["steps"] for r in found) if found else 0.0
        units = END_TO_END
    attempted, failed = cases.tally(runner.records)
    return {
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        },
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fail_frac": failed / attempted,
        "environment": environment(root, spinrev_file),
        "scale": scale,
        "unscaled": unscaled,
        "reference_walls_s": reference_walls,
        "setup_walls_s": setup_walls,
        "rounds": rounds,
        "jobs": runner.records,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path(__file__).resolve().parent.parent
    base = root / ".spinbench"
    workdir = base / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace, root, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["run_s"] = time.perf_counter() - started
    results = base / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    line = report["line"]
    print(
        f"{args.workload}: {len(report['rounds'])} rounds in {report['run_s']:.1f} s, {line['attempted']} jobs, "
        f"{line['failed']} failed (fail_frac {report['fail_frac']:.3g}); details in {path}",
        file=sys.stderr,
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
