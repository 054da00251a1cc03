"""Run one mubkit benchmark workload and print its metrics.

    python3 bench/run.py --workload closed_form_d13 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the package under ``src/`` next to this
directory, never an installed copy.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, every operation and the exact counters.  Exits 2
without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# One BLAS thread: every workload is a single caller on small matrices, and
# a second thread on a 2-core machine mostly adds noise.  Set before numpy loads.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds() -> float:
    """Seconds from launching a fresh interpreter until ``import mubkit`` returns.

    The child stamps the time right after the import on the same monotonic
    clock, so interpreter teardown is not counted.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, mubkit; print(time.monotonic())"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    """Digest of the measured sources, which identifies the code where no git history exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mubkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mubkit" / "__init__.py").is_file():
        print(f"error: no mubkit sources at {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import Tracer, aggregate

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    record = {"environment": environment(args)}
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.trace:
            tracer = Tracer()
            outcome = workloads.run(args.workload, args.seed, args.seconds, str(work_dir), tracer)
            metrics = workloads.per_layer(outcome, tracer)
            record["spans"] = aggregate(tracer.spans)
            missing = sorted(name for name, value in metrics.items() if value is None)
            if missing:
                probe, probed, record["probe_spans"] = workloads.run_probe(
                    args.seed, str(work_dir / "probe")
                )
                metrics.update({name: probed[name] for name in missing})
                outcome.attempted += probe.attempted
                outcome.failures += probe.failures
                record["probe_metrics"] = missing
                record["probe_ops"] = probe.ops
        else:
            # The set-up launches run between operations, outside their timers.
            outcome = workloads.run(
                args.workload, args.seed, args.seconds, str(work_dir), launch=setup_seconds
            )
            metrics = workloads.end_to_end(outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    record.update(
        op_times=workloads.op_times(outcome),
        ops=outcome.ops,
        counters=outcome.counters,
        failures=outcome.failures,
    )
    print(json.dumps(record))
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
