"""Command-line front end: construct, verify, reconstruct, search, gauss.

A thin shell over the library: every subcommand parses flags, calls one
module operation, and serializes the result.  No numerical logic lives
here.  Family documents are written by :func:`mubkit.io.save_family`, the
certificate and the search log by :func:`mubkit.io.write_json`; each goes
to a file or, without a path, to stdout, as one line of compact JSON, and
all diagnostics go to stderr.  Exit codes: 0 success or verification
pass, 1 verification failure, non-convergence or a failed reconstruction
or polish, 2 usage or IO error.  :func:`cli_dispatch` maps every
``OSError`` and ``ValueError`` to exit 2 in one place, so no command can
leak a traceback for bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timezone

from . import __version__
from .algebra import _check_tolerance
from .construct import build_family
from .gauss import GaussSumParams, gauss_sum
from .io import load_family, report_payload, save_family, write_json
from .reconstruct import reconstruct_all
from .search import SearchConfig, polish, run_search
from .verify import verify_family

__all__ = ["cli_dispatch", "main"]


def _metadata(generator: str, **extra) -> dict:
    meta = {
        "generator": generator,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    meta.update(extra)
    return meta


def _cmd_construct(args) -> int:
    family, report = build_family(args.d, with_report=True)
    # The self-certificate cached the family's eigenvector stack; saving
    # needs only the projectors, so the stack is dropped before encoding.
    vars(family).pop("spectrum", None)
    save_family(family, args.out, metadata=_metadata("construct", dimension=args.d))
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    family = load_family(args.family)
    report = verify_family(family, tolerance=args.tol, keep_gram=args.full_gram)
    if args.report:
        write_json(report_payload(report, __version__, source_path=args.family), args.report)
    print(report.summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_reconstruct(args) -> int:
    _check_tolerance(args.tol)  # a usage error (exit 2), not a failed reconstruction
    family = load_family(args.family)
    try:
        states = reconstruct_all(family, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = _metadata("reconstruct", source=args.family)
    save_family(family, args.out, states=states, metadata=meta)
    print(
        f"reconstructed {family.num_bases * family.dim} states "
        f"(d={family.dim}, bases={family.num_bases})",
        file=sys.stderr,
    )
    return 0


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        dim=args.d,
        num_bases=args.bases,
        restarts=args.restarts,
        max_iterations=args.iters,
        seed=args.seed,
        target_residual=args.target,
    )
    if args.from_family:
        start = load_family(args.from_family)
        try:
            result = polish(start, cfg)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        result = run_search(cfg)

    meta = _metadata(
        "search",
        seed=cfg.seed,
        dimension=cfg.dim,
        num_bases=cfg.num_bases,
        best_objective=result.best_objective,
        converged=result.converged,
    )
    save_family(result.best_family, args.out, metadata=meta)
    if args.log:
        write_json(
            {
                "tool_version": __version__,
                "config": dataclasses.asdict(cfg),
                "best_objective": result.best_objective,
                "converged": result.converged,
                "iterations_used": result.iterations_used,
                "restarts_used": result.restarts_used,
                "restart_objectives": list(result.history),
                "restart_iterations": list(result.restart_iterations),
                "restart_stops": list(result.stop_reasons),
            },
            args.log,
        )
    status = "converged" if result.converged else "residual floor reached"
    print(
        f"{status}: best objective {result.best_objective:.3e} after "
        f"{result.restarts_used} restart(s), {result.iterations_used} iteration(s)",
        file=sys.stderr,
    )
    return 0 if result.converged else 1


def _cmd_gauss(args) -> int:
    params = GaussSumParams(u=args.u, v=args.v, w=args.w)
    value = gauss_sum(params)
    print(f"S({params.u}, {params.v}, {params.w}) = {value.real!r} + {value.imag!r}j")
    print(f"|S|^2 = {abs(value) ** 2!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct, verify, reconstruct, and search for mutually unbiased bases.",
    )
    parser.add_argument("--version", action="version", version=f"mubkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser(
        "construct", help="build the closed-form complete family for prime d"
    )
    p_construct.add_argument("--d", type=int, required=True, help="dimension (prime)")
    p_construct.add_argument("--out", default=None, help="output family JSON path")
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="check a family document against the overlap targets")
    p_verify.add_argument("family", help="family JSON path")
    p_verify.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p_verify.add_argument("--report", default=None, help="write a certificate JSON here")
    p_verify.add_argument(
        "--full-gram", action="store_true", help="include the full Gram matrix in the report"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_reconstruct = sub.add_parser(
        "reconstruct", help="extract state vectors from a family's projectors"
    )
    p_reconstruct.add_argument("family", help="family JSON path")
    p_reconstruct.add_argument("--out", default=None, help="output JSON path (family + states)")
    p_reconstruct.add_argument("--tol", type=float, default=1e-10, help="rank-1 tolerance")
    p_reconstruct.set_defaults(func=_cmd_reconstruct)

    p_search = sub.add_parser("search", help="numerically search for unbiased bases")
    p_search.add_argument("--d", type=int, required=True, help="dimension")
    p_search.add_argument("--bases", type=int, required=True, help="number of bases")
    p_search.add_argument("--restarts", type=int, default=20)
    p_search.add_argument("--iters", type=int, default=50000, help="max iterations per restart")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--target", type=float, default=1e-16, help="objective target")
    p_search.add_argument("--out", default=None, help="output family JSON path")
    p_search.add_argument("--log", default=None, help="per-restart log JSON path")
    p_search.add_argument(
        "--from",
        dest="from_family",
        default=None,
        metavar="FAMILY",
        help="refine this family instead of random restarts",
    )
    p_search.set_defaults(func=_cmd_search)

    p_gauss = sub.add_parser("gauss", help="evaluate a quadratic exponential sum")
    p_gauss.add_argument("--u", type=int, required=True)
    p_gauss.add_argument("--v", type=int, required=True)
    p_gauss.add_argument("--w", type=int, required=True)
    p_gauss.set_defaults(func=_cmd_gauss)

    return parser


def cli_dispatch(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Unreadable or unwritable files and rejected input, from any command.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())
