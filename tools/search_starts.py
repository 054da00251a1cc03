"""Measure random searches restart by restart, one JSON record per line.

Each named set is a problem (dimension, number of bases) and a range of
restart keys.  Every key runs as its own single-restart search,
``run_search(SearchConfig(dim, num_bases, restarts=1, seed=key))``, and its
family is certified with ``verify_family`` at 1e-6.  The script reads
nothing but ``run_search``, ``SearchConfig``, ``verify_family`` and
``SearchResult`` fields, so one copy measures any tree of the package:

    PYTHONPATH=src python tools/search_starts.py > change.jsonl
    PYTHONPATH=../parent/src python tools/search_starts.py > parent.jsonl

Output, in order: one ``environment`` record (Python, numpy, the OpenBLAS
build and the kernel it runs), then per set one ``restart`` record per key
and one ``set`` record summing them.  ``seconds`` times the search alone,
not its certificate.  ``--sets`` picks sets by name and ``--keys`` keeps the
first keys of each.

Each ``restart`` record also fingerprints its result bit for bit:
``family_sha256`` is the SHA-256 of ``best_family.projectors.tobytes()`` and
``objective_hex`` is ``float.hex`` of ``best_objective``.  Two trees that
should give the same results are compared by diffing their restart records
with the ``seconds`` fields dropped:

    jq -c 'select(.record == "restart") | del(.seconds)' parent.jsonl > parent.txt
    jq -c 'select(.record == "restart") | del(.seconds)' change.jsonl > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from mubkit import SearchConfig, run_search, verify_family

# name: (dimension, bases, number of keys from 0)
SETS = {
    "d6_b3": (6, 3, 30),
    "complete_d4": (4, 5, 40),
    "complete_d5": (5, 6, 20),
    "complete_d7": (7, 8, 200),
    "complete_d8": (8, 9, 20),
    "complete_d9": (9, 10, 20),
    "d10_b3": (10, 3, 20),
    "d12_b3": (12, 3, 10),
    "d6_b4": (6, 4, 20),
    "d2_b3": (2, 3, 40),
    "d3_b4": (3, 4, 40),
    # The Gauss-Newton window's traffic (below 3e-2): d7_b3's converging
    # restarts, whose counts follow where the window starts, d12_b4 with the
    # only floors seen inside it, and d10_b4, whose lowest floors lie just
    # above it (3.39e-2).
    "d7_b3": (7, 3, 20),
    "d10_b4": (10, 4, 40),
    "d12_b4": (12, 4, 40),
    # A rare basin: about 1 key in 100 converges.
    "d11_b4": (11, 4, 100),
}

CERTIFY_TOLERANCE = 1e-6


def openblas_kernel():
    """The core name OpenBLAS dispatches to in this process, or None if it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "record": "environment",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_kernel": openblas_kernel(),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(name, dim, bases, keys):
    """Yield one record per restart key of a set, then the set's totals."""
    restarts = []
    for key in range(keys):
        cfg = SearchConfig(dim=dim, num_bases=bases, restarts=1, seed=key)
        start = time.perf_counter()
        result = run_search(cfg)
        seconds = time.perf_counter() - start
        report = verify_family(result.best_family, tolerance=CERTIFY_TOLERANCE)
        record = {
            "record": "restart",
            "set": name,
            "dim": dim,
            "bases": bases,
            "key": key,
            "converged": result.converged,
            "iterations": result.iterations_used,
            "stop": result.stop_reasons[0],
            "objective": result.best_objective,
            "objective_hex": float(result.best_objective).hex(),
            "family_sha256": hashlib.sha256(result.best_family.projectors.tobytes()).hexdigest(),
            "seconds": seconds,
            "certified": report.passed,
        }
        restarts.append(record)
        yield record
    converged = sum(r["converged"] for r in restarts)
    seconds = sum(r["seconds"] for r in restarts)
    yield {
        "record": "set",
        "set": name,
        "dim": dim,
        "bases": bases,
        "keys": keys,
        "converged": converged,
        "certified": sum(r["certified"] for r in restarts),
        "iterations": sum(r["iterations"] for r in restarts),
        "seconds": seconds,
        "seconds_per_family": seconds / converged if converged else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", choices=sorted(SETS), default=list(SETS),
                        help="sets to run (default: all)")
    parser.add_argument("--keys", type=int, default=None,
                        help="run only the first KEYS keys of each set")
    args = parser.parse_args(argv)
    if args.keys is not None and args.keys < 1:
        parser.error(f"--keys must be positive, got {args.keys}")
    print(json.dumps(environment()), flush=True)
    for name in args.sets:
        dim, bases, keys = SETS[name]
        if args.keys is not None:
            keys = min(keys, args.keys)
        for record in measure(name, dim, bases, keys):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
