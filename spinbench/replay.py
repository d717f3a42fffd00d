"""In-process replay of recorded CLI jobs, with spans from the benchmark's side.

Each replayed job calls the same public spinrev functions, in the same
order, as the `cmd_*` handler in `spinrev.cli` that ran it, so nothing in
`src/` is instrumented.  A span (layer, name, start, end, parent, job) is
kept in memory around every call; the caller writes the spans out when the
run ends.  After a job's replay, probes call single layer functions on the
job's own inputs to isolate work the handler does inside one call (the
validation inside `Scheme(...)`, the eigen-solve inside `bounds_report`,
the Hamiltonian build inside `error_scaling`).  Probe spans are kept apart
from the replay spans, so they enter neither the self times nor the
tracing overhead.

Imports spinrev; the caller puts the checkout's `src` on `sys.path` first.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from spinrev.bounds import bounds_report, tau_lower_bound
from spinrev.coupling import CouplingClass, classify_type, coupling_from_dict
from spinrev.hilbert import (
    build_hamiltonian,
    error_scaling,
    evolve,
    kron_all,
    lift_rotations,
    operator_norm,
)
from spinrev.rotations import sym_eig
from spinrev.schemes import (
    Scheme,
    average_coupling,
    scheme_from_dict,
    scheme_stats,
    scheme_to_dict,
    synthesize_case1,
    synthesize_case2,
    verify,
)
from spinrev.search import (
    collective_cyclic_pool,
    find_inversion_nnls,
    greedy_pool_growth,
    merge_pools,
    pair_pi_pool,
    random_octahedral_pool,
    search_result_to_dict,
)

# defaults of the spinrev CLI flags the jobs leave unset
TOL = 1e-9
MAX_POOL = 500

LAYERS = ("cli", "coupling", "schemes", "bounds", "search", "hilbert")

# per-layer metric -> span names whose durations it sums
SPAN_METRICS = {
    "coupling.parse_s": ("coupling.coupling_from_dict",),
    "coupling.classify_s": ("coupling.classify_type",),
    "rotations.validate_s": ("rotations.validate",),
    "rotations.sym_eig_s": ("rotations.sym_eig",),
    "schemes.synthesize_s": ("schemes.synthesize_case1", "schemes.synthesize_case2"),
    "schemes.parse_s": ("schemes.scheme_from_dict",),
    "schemes.average_s": ("schemes.average_coupling",),
    "schemes.verify_s": ("schemes.verify",),
    "bounds.tau_lower_s": ("bounds.tau_lower_bound",),
    "bounds.report_s": ("bounds.bounds_report",),
    "search.pool_s": ("search.base_pool",),
    "search.grow_s": ("search.greedy_pool_growth",),
    "search.fixed_pool_s": ("search.find_inversion_nnls",),
    "hilbert.scaling_s": ("hilbert.error_scaling",),
    "hilbert.build_s": ("hilbert.build_hamiltonian",),
    "hilbert.evolve_s": ("hilbert.evolve",),
    "hilbert.lift_s": ("hilbert.lift",),
    "hilbert.norm_s": ("hilbert.operator_norm",),
}


class Tracer:
    """Spans kept in memory; `kind` tells replay spans from probe spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None
        self.kind = "replay"

    @contextmanager
    def span(self, layer: str, name: str):
        rec = {
            "layer": layer,
            "name": name,
            "job": self.job,
            "kind": self.kind,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


_NO_SPAN = nullcontext()


class NullTracer:
    """Same span interface, records nothing: the untraced replay."""

    def span(self, layer, name):
        return _NO_SPAN


def _options(args: list[str]) -> dict:
    return {flag[2:]: value for flag, value in zip(args[::2], args[1::2])}


class Replay:
    """Replays jobs as the CLI handlers run them, under a tracer."""

    def __init__(self, tracer):
        self.span = tracer.span

    def job(self, command: str, args: list[str]) -> dict:
        """Replay one job; returns the objects its probes need."""
        with self.span("cli", f"cli.{command}"):
            return getattr(self, command)(_options(args))

    def _load(self, path):
        with self.span("cli", "cli.load_json"):
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)

    def _write(self, path, obj):
        with self.span("cli", "cli.write_json"):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)

    def _emit(self, obj):
        with self.span("cli", "cli.emit"):
            return json.dumps(obj, sort_keys=True)

    def _coupling(self, path):
        data = self._load(path)
        with self.span("coupling", "coupling.coupling_from_dict"):
            return coupling_from_dict(data)

    def _scheme(self, path):
        data = self._load(path)
        with self.span("schemes", "schemes.scheme_from_dict"):
            return scheme_from_dict(data)

    def synthesize(self, opts):
        coupling = self._coupling(opts["coupling"])
        with self.span("coupling", "coupling.classify_type"):
            label = classify_type(coupling.A, TOL)
        if label is CouplingClass.SEMIDEFINITE:
            return {"coupling": coupling}
        synth = synthesize_case1 if label is CouplingClass.TRACELESS else synthesize_case2
        with self.span("schemes", f"schemes.{synth.__name__}"):
            scheme = synth(coupling.W, coupling.A, TOL)
        with self.span("schemes", "schemes.scheme_stats"):
            stats = scheme_stats(scheme)
        payload = {"N": stats.n_steps, "tau": stats.tau, "collective": stats.collective}
        with self.span("schemes", "schemes.scheme_to_dict"):
            data = scheme_to_dict(scheme)
        self._write(opts["out"], data)  # every benchmark job passes --out
        payload["out"] = opts["out"]
        self._emit(payload)
        return {"coupling": coupling, "scheme": scheme}

    def verify(self, opts):
        coupling = self._coupling(opts["coupling"])
        scheme = self._scheme(opts["scheme"])
        with self.span("schemes", "schemes.verify"):
            result = verify(scheme, coupling.J, TOL)
        with self.span("schemes", "schemes.scheme_stats"):
            stats = scheme_stats(scheme)
        self._emit({"ok": result.ok, "residual": result.residual, "N": stats.n_steps, "tau": stats.tau})
        return {"coupling": coupling, "scheme": scheme}

    def bounds(self, opts):
        coupling = self._coupling(opts["coupling"])
        with self.span("bounds", "bounds.bounds_report"):
            report = bounds_report(coupling.J, coupling.W, coupling.A, p=None, tol=TOL)
        self._emit(report.to_dict())
        return {"coupling": coupling}

    def search(self, opts):
        coupling = self._coupling(opts["coupling"])
        seed = int(opts["seed"])
        with self.span("search", "search.base_pool"):
            pool = merge_pools(pair_pi_pool(coupling.n), collective_cyclic_pool(coupling.n), seed=seed)
        with self.span("search", "search.greedy_pool_growth"):
            result = greedy_pool_growth(coupling.J, pool, target_tol=TOL, max_pool=MAX_POOL, seed=seed)
        with self.span("search", "search.search_result_to_dict"):
            data = search_result_to_dict(result, seed=seed)
        self._emit(data)
        if result.scheme is not None:
            with self.span("schemes", "schemes.scheme_to_dict"):
                out = scheme_to_dict(result.scheme)
            self._write(opts["out"], out)
        return {
            "coupling": coupling,
            "scheme": result.scheme,
            "rounds": result.iterations,
            "pool_size": len(pool.assemblies) + result.iterations,
            "seed": seed,
        }

    def simulate(self, opts):
        coupling = self._coupling(opts["coupling"])
        scheme = self._scheme(opts["scheme"])
        with self.span("schemes", "schemes.verify"):
            result = verify(scheme, coupling.J, TOL)
        if not result.ok:
            return {"coupling": coupling}
        eps = [float(tok) for tok in opts["eps"].split(",") if tok.strip()]
        with self.span("hilbert", "hilbert.error_scaling"):
            scaling = error_scaling(coupling.J, scheme, eps, tol=TOL)
        self._emit(scaling.to_dict())
        return {"coupling": coupling, "scheme": scheme, "eps": eps}

    def probe(self, command: str, state: dict) -> dict:
        """Single-layer calls on one replayed job's inputs; returns counts."""
        span = self.span
        J = state["coupling"].J
        scheme = state.get("scheme")
        counts = {}
        if command in ("synthesize", "search") and scheme is not None:
            with span("rotations", "rotations.validate"):
                Scheme(scheme.kind, scheme.steps)
            counts["rotations.validated"] = len(scheme.steps) * scheme.n
            counts["schemes.steps"] = len(scheme.steps)
        if command == "search" and scheme is not None:
            pool = random_octahedral_pool(state["coupling"].n, state["pool_size"], state["seed"])
            with span("search", "search.find_inversion_nnls"):
                fixed = find_inversion_nnls(J, pool, TOL)
            counts["search.rounds"] = state["rounds"]
            counts["search.fixed_pool_insertions"] = fixed.iterations
        if command == "verify":
            with span("schemes", "schemes.average_coupling"):
                average_coupling(scheme, J)
        if command == "bounds":
            with span("rotations", "rotations.sym_eig"):
                sym_eig(J)
            with span("bounds", "bounds.tau_lower_bound"):
                tau_lower_bound(J)
        if command == "simulate" and "eps" in state:
            with span("hilbert", "hilbert.build_hamiltonian"):
                H = build_hamiltonian(J)
            step = scheme.steps[0]
            with span("hilbert", "hilbert.evolve"):
                evolve(H, step.t * state["eps"][0])
            with span("hilbert", "hilbert.lift"):
                kron_all(lift_rotations(step.rotations))
            with span("hilbert", "hilbert.operator_norm"):
                operator_norm(H)
            counts["hilbert.dim"] = H.shape[0]
        return counts


def layer_metrics(spans: list[dict]) -> dict:
    """Span sums per named metric, plus self time per layer of the replay
    spans (a span's duration minus its children's)."""
    out = {name: 0.0 for name in SPAN_METRICS}
    by_name = {}
    for rec in spans:
        by_name[rec["name"]] = by_name.get(rec["name"], 0.0) + rec["end"] - rec["start"]
    for metric, names in SPAN_METRICS.items():
        out[metric] = sum(by_name.get(name, 0.0) for name in names)
    self_time = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    for i, rec in enumerate(spans):
        if rec["kind"] == "replay":
            self_time[rec["layer"]] += rec["end"] - rec["start"] - child_time[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    return out
