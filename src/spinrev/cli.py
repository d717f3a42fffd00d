"""Command-line front end.

Subcommands: classify, synthesize, verify, bounds, search, simulate.
Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 success, 1 domain failure (verification failed, no
constructive scheme for the coupling class, search exhausted its budget),
2 invalid input, 3 internal defect (a self-check of the program failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import bounds_report
from .coupling import CouplingClass, classification_margins, classify_type, coupling_from_dict
from .hilbert import error_scaling
from .schemes import (
    _scheme_json_chunks,
    scheme_from_dict,
    scheme_stats,
    scheme_to_dict,
    synthesize_case1,
    synthesize_case2,
    verify,
)
from .search import (
    collective_cyclic_pool,
    greedy_pool_growth,
    merge_pools,
    pair_pi_pool,
    random_octahedral_pool,
    search_result_to_dict,
)

_POOL_CHOICES = ("auto", "pair-pi", "collective-cyclic", "octahedral-random")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _write_scheme(path: str, scheme) -> None:
    """Write through a temp file beside `path` and `os.replace`: never half-written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for chunk in _scheme_json_chunks(scheme):
                handle.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def _load_coupling(path: str):
    return coupling_from_dict(_load_json(path))


def _load_scheme(path: str):
    return scheme_from_dict(_load_json(path))


def _parse_eps(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--eps must be a comma-separated float list, got {text!r}") from None


def cmd_classify(args) -> int:
    coupling = _load_coupling(args.coupling)
    if not coupling.factored:
        raise ValueError("classification needs the factored W/A coupling form")
    _emit(classification_margins(coupling.A, args.tol))
    return 0


def cmd_synthesize(args) -> int:
    coupling = _load_coupling(args.coupling)
    if not coupling.factored:
        raise ValueError("synthesis needs the factored W/A coupling form")
    label = classify_type(coupling.A, args.tol)
    if label is CouplingClass.SEMIDEFINITE:
        _diag(
            "no constructive scheme for a semidefinite type matrix (class 3); "
            "use the `search` subcommand"
        )
        return 1
    if label is CouplingClass.TRACELESS:
        scheme = synthesize_case1(coupling.W, coupling.A, args.tol)
    else:
        scheme = synthesize_case2(coupling.W, coupling.A, args.tol)
    stats = scheme_stats(scheme)
    payload = {"N": stats.n_steps, "tau": stats.tau, "collective": stats.collective}
    if args.out:
        _write_scheme(args.out, scheme)
        payload["out"] = args.out
    else:
        payload["scheme"] = scheme_to_dict(scheme)
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    coupling = _load_coupling(args.coupling)
    scheme = _load_scheme(args.scheme)
    result = verify(scheme, coupling.J, args.tol)
    stats = scheme_stats(scheme)
    _emit({"ok": result.ok, "residual": result.residual, "N": stats.n_steps, "tau": stats.tau})
    if not result.ok:
        _diag(f"verification failed: residual {result.residual:.3g} > tol {args.tol:g}")
        return 1
    return 0


def cmd_bounds(args) -> int:
    coupling = _load_coupling(args.coupling)
    report = bounds_report(coupling.J, coupling.W, coupling.A, p=args.p, tol=args.tol)
    _emit(report.to_dict())
    return 0


def _base_pool(name: str, n: int, seed: int, max_pool: int):
    if name == "pair-pi":
        return pair_pi_pool(n, seed)
    if name == "collective-cyclic":
        return collective_cyclic_pool(n, seed)
    if name == "octahedral-random":
        return random_octahedral_pool(n, min(32, max_pool), seed)
    return merge_pools(pair_pi_pool(n), collective_cyclic_pool(n), seed=seed)


def cmd_search(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    coupling = _load_coupling(args.coupling)
    pool = _base_pool(args.pool, coupling.n, args.seed, args.max_pool)
    result = greedy_pool_growth(
        coupling.J, pool, target_tol=args.tol, max_pool=args.max_pool, seed=args.seed
    )
    if args.out and result.scheme is not None:
        _write_scheme(args.out, result.scheme)
    _emit(search_result_to_dict(result, seed=args.seed))
    if result.scheme is None:
        _diag(
            f"search exhausted its pool budget (best residual {result.residual:.3g} > tol {args.tol:g})"
        )
        return 1
    return 0


def cmd_simulate(args) -> int:
    coupling = _load_coupling(args.coupling)
    scheme = _load_scheme(args.scheme)
    result = verify(scheme, coupling.J, args.tol)
    if not result.ok:
        _emit({"ok": False, "residual": result.residual})
        _diag(
            f"scheme does not invert this coupling (residual {result.residual:.3g}); nothing to simulate"
        )
        return 1
    scaling = error_scaling(coupling.J, scheme, _parse_eps(args.eps), tol=args.tol)
    _emit(scaling.to_dict())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinrev",
        description="Synthesize, verify, bound, search, and simulate time-reversal "
        "and decoupling pulse schemes for n-spin couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, scheme_flag=False, out_flag=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--coupling", required=True, help="coupling JSON file")
        cmd.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
        if scheme_flag:
            cmd.add_argument("--scheme", required=True, help="scheme JSON file")
        if out_flag:
            cmd.add_argument("--out", default=None, help="write the scheme JSON here")
        cmd.set_defaults(func=func)
        return cmd

    add("classify", cmd_classify, "classify a factored coupling by its type matrix")
    add("synthesize", cmd_synthesize, "construct an inversion scheme (classes 1 and 2)", out_flag=True)
    add("verify", cmd_verify, "check a scheme against a coupling", scheme_flag=True)

    bounds_cmd = add("bounds", cmd_bounds, "lower bounds on steps and overhead")
    bounds_cmd.add_argument("--p", type=int, default=None, help="partition size for the class-2 step bound")

    search_cmd = add("search", cmd_search, "numerical scheme search (class 3 and raw couplings)", out_flag=True)
    search_cmd.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    search_cmd.add_argument("--max-pool", type=int, default=500, help="candidate pool budget (default 500)")
    search_cmd.add_argument("--pool", choices=_POOL_CHOICES, default="auto", help="base pool source")

    simulate_cmd = add("simulate", cmd_simulate, "per-cycle averaging error scaling", scheme_flag=True)
    simulate_cmd.add_argument(
        "--eps",
        default="0.2,0.1,0.05,0.025",
        help="comma-separated cycle time scales (default 0.2,0.1,0.05,0.025)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # written as not (0 < tol < inf) so that a NaN tolerance fails the check
        if not (0.0 < getattr(args, "tol", 1.0) < math.inf):
            raise ValueError("--tol must be finite and positive")
        return args.func(args)
    except ValueError as exc:
        _diag(f"error: {exc}")
        return 2
    except RuntimeError as exc:
        _diag(f"error: internal defect: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
