"""Workloads of the spinrev benchmark: seeded inputs and checked job pipelines.

A workload is a list of cases.  A case is one coupling and the pipeline a
user runs on it, each step a `spinrev` subcommand in a fresh subprocess:

- route "synth" (classes 1 and 2): synthesize --out, verify, bounds, and
  simulate when the case sets an eps scale;
- route "search" (class 3): search --seed --out, verify, bounds, and
  simulate when the case sets an eps scale.

Every job's output is checked; a job that fails a check, and every later
job of its case, counts as failed.  README.md says why each workload holds
the cases it does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TYPES = {
    "class2": np.diag([2.0, 1.0, -1.0]),  # mixed signs: selective Hadamard scheme
    "dipole": np.diag([1.0, 1.0, -2.0]),  # traceless: collective 2-step scheme
    "scalar": np.eye(3),  # semidefinite (class 3): numerical search only
}

SLOPE_WINDOW = (1.8, 2.2)  # quadratic first-order averaging error
TAU_SLACK = 1e-6  # relative slack on the spectral overhead bound
JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Case:
    """One coupling and its pipeline.

    `weights` is "signed" (magnitudes in [0.2, 1.5], random signs),
    "positive" (same magnitudes, all positive) or "complete" (all ones).
    With `eps_scale` set, the scheme is simulated at
    eps = eps_scale / tau * (1, 1/2, 1/4, 1/8), which keeps the errors of
    schemes with very different overheads inside the slope-fit window.
    """

    route: str
    type_name: str
    n: int
    weights: str
    eps_scale: float | None = None


WORKLOADS = {
    "synth-large": (
        Case("synth", "class2", 72, "signed"),
        Case("synth", "class2", 48, "signed"),
        Case("synth", "dipole", 48, "signed"),
        # companions: every subcommand on every workload, and three searches
        # a round so that the median tau of the found schemes is steady
        Case("search", "scalar", 4, "complete", eps_scale=0.02),
        Case("search", "scalar", 4, "complete", eps_scale=0.02),
        Case("search", "scalar", 4, "complete"),
    ),
    "search-oracle": (
        # class-3 search on structured and unstructured weights
        Case("search", "scalar", 4, "complete", eps_scale=0.02),
        Case("search", "scalar", 4, "positive"),
        Case("search", "scalar", 5, "complete"),
        Case("search", "scalar", 5, "positive"),
        # the exact Hilbert oracle: one large dimension, one many-step scheme
        Case("synth", "dipole", 9, "signed", eps_scale=0.02),
        Case("synth", "class2", 7, "signed", eps_scale=0.07),
    ),
}


def weight_matrix(rng, n: int, pattern: str) -> np.ndarray:
    if pattern == "complete":
        return np.ones((n, n)) - np.eye(n)
    iu = np.triu_indices(n, 1)
    values = rng.uniform(0.2, 1.5, size=iu[0].size)
    if pattern == "signed":
        values *= np.where(rng.random(iu[0].size) < 0.5, 1.0, -1.0)
    elif pattern != "positive":
        raise ValueError(f"unknown weight pattern {pattern!r}")
    W = np.zeros((n, n))
    W[iu] = values
    return W + W.T


@dataclass(frozen=True)
class CaseInput:
    case: Case
    tag: str  # unique within a run, e.g. "r0c2"
    coupling: str  # absolute path of the coupling JSON
    scheme: str  # absolute path the synthesized or found scheme goes to
    search_seed: int


def make_round(cases, seed: int, round_index: int, workdir: Path) -> list[CaseInput]:
    """Write the coupling files of one round; the same (seed, round) gives
    the same files."""
    rng = np.random.default_rng([seed % 2**63, round_index])
    out = []
    for c, case in enumerate(cases):
        tag = f"r{round_index}c{c}"
        W = weight_matrix(rng, case.n, case.weights)
        search_seed = int(rng.integers(0, 2**31))
        path = workdir / f"{tag}-coupling.json"
        path.write_text(
            json.dumps({"n": case.n, "W": W.tolist(), "A": TYPES[case.type_name].tolist()})
        )
        out.append(CaseInput(case, tag, str(path), str(workdir / f"{tag}-scheme.json"), search_seed))
    return out


def child_env(root: Path) -> dict:
    """Environment of every job: this process's, which run.py pins to one
    BLAS thread, with PYTHONPATH set to the checkout's own source only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) jobs; a skipped job counts as attempted and failed."""
    return len(records), sum(not rec["ok"] for rec in records)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class JobFailure(Exception):
    """A job's output failed a correctness check; `record` is that job's."""

    def __init__(self, record: dict, message: str):
        super().__init__(message)
        self.record = record


class Runner:
    """Runs `python -m spinrev.cli` jobs one at a time and keeps a record
    of each: arguments, wall time, max RSS, exit code, parsed stdout."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.records: list[dict] = []

    def spawn(self, argv: list[str], out_path: Path, err_path: Path):
        """Run argv to completion; returns (wall_s, exit_code, maxrss_kb)."""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def job(self, round_tag, case_tag: str, command: str, args: list[str]) -> dict:
        """Run one subcommand; raises JobFailure on a non-zero exit or on
        stdout that is not JSON."""
        index = len(self.records)
        out_path = self.workdir / f"job{index}.out"
        err_path = self.workdir / f"job{index}.err"
        argv = [sys.executable, "-m", "spinrev.cli", command, *args]
        wall, code, maxrss = self.spawn(argv, out_path, err_path)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace").strip()
        out_path.unlink()
        err_path.unlink()
        rec = {
            "id": index,
            "round": round_tag,
            "case": case_tag,
            "command": command,
            "args": args,
            "wall_s": wall,
            "rss_mb": maxrss / 1024.0,
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "ok": True,
            "error": None,
        }
        self.records.append(rec)
        if code != 0:
            raise JobFailure(rec, f"exit code {code}: {stderr[-300:]}")
        try:
            rec["result"] = json.loads(stdout)
        except ValueError:
            raise JobFailure(rec, "stdout is not JSON") from None
        if not isinstance(rec["result"], dict):
            raise JobFailure(rec, "stdout is not a JSON object")
        return rec


def _field(rec: dict, *path, kind=None):
    """A field of a job's JSON output, converted by `kind` when given; a
    missing or malformed one fails the job."""
    value = rec["result"]
    try:
        for key in path:
            value = value[key]
        return value if kind is None else kind(value)
    except (KeyError, IndexError, TypeError, ValueError):
        raise JobFailure(rec, f"stdout has no valid field {'.'.join(path)}") from None


def _eps_arg(scale: float, tau: float) -> str:
    base = scale / tau
    return ",".join(repr(base / 2**k) for k in range(4))


def case_commands(case: Case) -> list[str]:
    first = "synthesize" if case.route == "synth" else "search"
    return [first, "verify", "bounds"] + (["simulate"] if case.eps_scale else [])


def run_case(runner: Runner, item: CaseInput, round_tag, tamper=None) -> None:
    """Run one case's pipeline and check every output.

    A failed check marks its job failed; the rest of the case is skipped
    and each skipped job is recorded as failed too.  `tamper`, when given,
    is called with the scheme path after the scheme is written and before
    any job reads it (the smoke test corrupts the file this way).
    """
    case = item.case
    commands = case_commands(case)
    stage = 0
    try:
        if case.route == "synth":
            first = runner.job(round_tag, item.tag, "synthesize",
                               ["--coupling", item.coupling, "--out", item.scheme])
            tau, steps = _field(first, "tau", kind=float), _field(first, "N", kind=int)
        else:
            first = runner.job(round_tag, item.tag, "search",
                               ["--coupling", item.coupling, "--seed", str(item.search_seed),
                                "--out", item.scheme])
            if _field(first, "found") is not True:
                raise JobFailure(first, "search found no scheme")
            tau, steps = _field(first, "meta", "tau", kind=float), _field(first, "steps", kind=len)
            del first["result"]["steps"]  # the scheme itself; the --out file has it too
        first["tau"], first["steps"] = tau, steps
        try:
            first["out_sha256"] = sha256_file(item.scheme)
        except OSError:
            raise JobFailure(first, "no scheme file written") from None
        first["scheme_bytes"] = os.path.getsize(item.scheme)
        if tamper is not None:
            tamper(item.scheme)
        stage = 1
        rec = runner.job(round_tag, item.tag, "verify",
                         ["--coupling", item.coupling, "--scheme", item.scheme])
        rec["scheme_bytes"] = os.path.getsize(item.scheme)
        if _field(rec, "ok") is not True:
            raise JobFailure(rec, "scheme does not verify")
        stage = 2
        rec = runner.job(round_tag, item.tag, "bounds", ["--coupling", item.coupling])
        tau_lower = _field(rec, "tau_lower", kind=float)
        if not tau >= tau_lower - TAU_SLACK * max(1.0, tau_lower):
            raise JobFailure(first, f"tau {tau!r} is below the lower bound {tau_lower!r}")
        stage = 3
        if case.eps_scale:
            rec = runner.job(round_tag, item.tag, "simulate",
                             ["--coupling", item.coupling, "--scheme", item.scheme,
                              "--eps", _eps_arg(case.eps_scale, tau)])
            rec["scheme_bytes"] = os.path.getsize(item.scheme)
            slope = _field(rec, "slope")
            if not isinstance(slope, float) or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
                raise JobFailure(rec, f"error-scaling slope {slope!r} outside {list(SLOPE_WINDOW)}")
    except JobFailure as exc:
        exc.record["ok"] = False
        exc.record["error"] = str(exc)
        for command in commands[stage + 1:]:
            runner.records.append(
                {"id": len(runner.records), "round": round_tag, "case": item.tag,
                 "command": command, "args": None, "wall_s": None, "rss_mb": None,
                 "exit": None, "ok": False, "error": "skipped: an earlier job of its case failed"}
            )
