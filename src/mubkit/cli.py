"""Command-line front end: construct, verify, reconstruct, search, gauss.

A thin shell over the library: every subcommand parses flags, calls one
module operation, and serializes the result.  No numerical logic lives
here.  Family documents are written by :func:`mubkit.io.save_family`; the
certificate and the search log are laid out here and written, arrays and
all, by :func:`mubkit.io.write_json`.  Each goes to a file or, without a
path or with an empty one, to stdout, as one line of compact JSON, and all
diagnostics go to stderr.  Exit codes: 0 success or verification pass, 1
verification failure, non-convergence or a failed reconstruction, 2 usage
or IO error; ``search --from`` exits 1 only when its polish does not
converge.  :func:`cli_dispatch` maps every ``OSError`` and ``ValueError``
to exit 2 in one place, so no command can leak a traceback for bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import __version__
from .algebra import _check_tolerance
from .construct import build_family
from .gauss import GaussSumParams, gauss_sum
from .io import LOAD_TOLERANCE, _load_family, load_family, save_family, write_json
from .reconstruct import reconstruct_all
from .search import SearchConfig, polish, run_search
from .verify import VerificationReport, verify_family

__all__ = ["cli_dispatch", "main"]


def _metadata(generator: str, **extra) -> dict:
    meta = {
        "generator": generator,
        "tool_version": __version__,
    }
    meta.update(extra)
    return meta


def _report_payload(report: VerificationReport, source: tuple) -> dict:
    """JSON payload for a verification certificate, with provenance fields.

    Every report field is a key, in field order; array fields (the Gram
    matrix) come last, after the provenance, and fields left at ``None``
    are omitted.  ``source`` is the (path, SHA-256 hex digest) of the
    document the report judged, digested in the read that loaded it.
    """
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    arrays = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
    payload = {"tool_version": __version__}
    payload.update((k, v) for k, v in values.items() if k not in arrays and v is not None)
    payload["input_path"], payload["input_sha256"] = source
    payload.update(arrays)
    return payload


def _cmd_construct(args) -> int:
    family = build_family(args.d)
    report = verify_family(family)
    if not report.passed:
        raise ValueError(f"constructed family failed its own certificate: {report.summary()}")
    save_family(family, args.out, metadata=_metadata("construct", dimension=args.d))
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _check_tolerance(args.tol)  # refused before the document is read
    certify = args.report is not None  # an empty path writes the certificate to stdout
    family, sha256 = _load_family(args.family, max(LOAD_TOLERANCE, args.tol), certify)
    report = verify_family(family, tolerance=args.tol, keep_gram=args.full_gram and certify)
    if certify:
        write_json(_report_payload(report, (args.family, sha256)), args.report)
    print(report.summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_reconstruct(args) -> int:
    _check_tolerance(args.tol)  # a usage error (exit 2), not a failed reconstruction
    family = load_family(args.family, max(LOAD_TOLERANCE, args.tol))
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
    polishing = args.from_family is not None  # an empty path is still a path
    # polish ignores --restarts and --seed, so they are not checked either.
    restart_settings = {} if polishing else {"restarts": args.restarts, "seed": args.seed}
    cfg = SearchConfig(
        dim=args.d,
        num_bases=args.bases,
        max_iterations=args.iters,
        target_residual=args.target,
        **restart_settings,
    )
    if polishing:
        start = load_family(args.from_family)
        result = polish(start, cfg)  # a loaded family always starts
        del start  # freed before the polished family is written
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
    config = dataclasses.asdict(cfg)
    if polishing:  # a polish is one descent from the family: no restarts, no seed
        del meta["seed"], config["restarts"], config["seed"]
    save_family(result.best_family, args.out, metadata=meta)
    if args.log is not None:
        write_json(
            {
                "tool_version": __version__,
                "config": config,
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
    # |S| is sqrt|w| rounded once, so the square's last bit is noise
    # (2.9999999999999996 for w = 3): 15 digits are all a double holds.
    print(f"|S|^2 = {abs(value) ** 2:#.15g}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser as it was, so every dispatch shares it.  A
    parser is a web of cycles that only the cyclic collector frees, so one
    built per command would be garbage left behind by each.  The commands
    look the library's functions up when they run, so a patched one applies.
    """
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
    p_search.add_argument(
        "--restarts", type=int, default=20, help="random restarts (ignored with --from)"
    )
    p_search.add_argument("--iters", type=int, default=50000, help="max iterations per restart")
    p_search.add_argument(
        "--seed", type=int, default=0, help="seed of the first restart (ignored with --from)"
    )
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
