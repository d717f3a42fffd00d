"""Command-line front end.

Subcommands: classify, synthesize, verify, bounds, search, simulate.
Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 success, 1 domain failure (verification failed, no
constructive scheme for the coupling class, search ended without a scheme),
2 invalid input, 3 internal defect (a self-check of the program failed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# Each handler imports the modules it runs, so a job loads only those and
# `--help` or a bad flag loads none of them (nor numpy).


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(path: str, loads=json.loads):
    """`loads` of the file's text; a file that cannot be read, is not UTF-8,
    is not JSON or nests deeper than the decoder recurses raises a
    ValueError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} nests JSON too deeply to decode") from None


def _write_scheme(path: str, scheme) -> None:
    """Write through a temp file beside `path` and `os.replace`: never half-written."""
    from .schemes import _scheme_json_chunks

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
    from .coupling import coupling_from_dict

    return coupling_from_dict(_load_json(path))


def _load_scheme(path: str):
    from .schemes import _read_scheme

    return _load_json(path, _read_scheme)


def _parse_eps(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--eps must be a comma-separated float list, got {text!r}") from None


def cmd_classify(args) -> int:
    from .coupling import classification_margins

    coupling = _load_coupling(args.coupling)
    if not coupling.factored:
        raise ValueError("classification needs the factored W/A coupling form")
    _emit(classification_margins(coupling, args.tol))
    return 0


def cmd_synthesize(args) -> int:
    from .coupling import CouplingClass, classify_type
    from .schemes import scheme_stats, scheme_to_dict, synthesize_case1, synthesize_case2

    coupling = _load_coupling(args.coupling)
    if not coupling.factored:
        raise ValueError("synthesis needs the factored W/A coupling form")
    label = classify_type(coupling, args.tol)
    if label is CouplingClass.SEMIDEFINITE:
        _diag(
            "no constructive scheme for a semidefinite type matrix (class 3); "
            "use the `search` subcommand"
        )
        return 1
    if label is CouplingClass.TRACELESS:
        scheme = synthesize_case1(coupling, tol=args.tol)
    else:
        scheme = synthesize_case2(coupling, tol=args.tol)
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
    from .schemes import scheme_stats, verify

    coupling = _load_coupling(args.coupling)
    scheme = _load_scheme(args.scheme)
    result = verify(scheme, coupling, args.tol)
    stats = scheme_stats(scheme)
    _emit({"ok": result.ok, "residual": result.residual, "N": stats.n_steps, "tau": stats.tau})
    if not result.ok:
        _diag(f"verification failed: residual {result.residual:.3g} > tol {args.tol:g}")
        return 1
    return 0


def cmd_bounds(args) -> int:
    from .bounds import bounds_report

    if args.p is not None and args.p < 2:
        raise ValueError("--p must be an integer >= 2")
    report = bounds_report(_load_coupling(args.coupling), p=args.p, tol=args.tol)
    _emit(report.to_dict())
    return 0


def cmd_search(args) -> int:
    from .search import _search_job, search_result_to_dict

    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    result, cause = _search_job(_load_coupling(args.coupling), args.tol, args.seed)
    if args.out and result.scheme is not None:
        _write_scheme(args.out, result.scheme)
    _emit(search_result_to_dict(result, seed=args.seed))
    if cause is not None:
        _diag(cause)
        return 1
    return 0


def cmd_simulate(args) -> int:
    from .hilbert import NotAnInversion, error_scaling

    coupling = _load_coupling(args.coupling)
    scheme = _load_scheme(args.scheme)
    try:
        scaling = error_scaling(coupling, scheme, _parse_eps(args.eps), tol=args.tol)
    except NotAnInversion as exc:
        _emit({"ok": False, "residual": exc.residual})
        _diag(f"scheme does not invert this coupling (residual {exc.residual:.3g}); nothing to simulate")
        return 1
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
        # written as not (0 < tol < 1) so that a NaN tolerance fails the check;
        # at tol >= 1 even the empty average, 0, lies within tol ||J||_F of -J
        if not (0.0 < args.tol < 1.0):
            raise ValueError("--tol must lie in (0, 1)")
        return args.func(args)
    except ValueError as exc:
        _diag(f"error: {exc}")
        return 2
    except RuntimeError as exc:
        _diag(f"error: internal defect: {exc}")
        return 3


def run() -> None:
    """Process entry of the `spinrev` command and of `python -m spinrev.cli`.

    Turns the cyclic collector off, runs `main()` on `sys.argv`, flushes
    stdout, then freezes every live object before `sys.exit`: atexit and
    the stdio flush still run, but the interpreter's shutdown collection
    skips numpy's and spinrev's objects.  A job leaves a few hundred
    objects of cyclic garbage, whatever its size, so the collector has
    nothing to reclaim that pays for its passes.  A reader that closed
    stdout early gets exit 1 and one stderr line.
    """
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's descriptor goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _diag("error: stdout was closed before the output was written")
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
