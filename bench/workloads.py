"""The benchmark's workloads: what each one runs, how its outputs are checked, what it reports.

Every workload is a single caller in a closed loop: the next operation
starts when the previous one returns.  The amount of work is fixed by
``--seconds`` through the nominal cost of one unit of work before any
optimisation (on a shared 2-core x86-64 machine), so a given (seed,
seconds) pair always runs the same operations and every exact counter
repeats; a faster program then shows as a shorter ``wall_norm_s`` instead of
as more work done.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import mubkit
import mubkit.cli
from reference import Sampler
from tracing import CERT_RESIDUALS, Tracer, aggregate, layer_metrics

# Restart keys of workload seed s are s * KEY_STRIDE + i, so two seeds never
# share a key as long as a run stays below KEY_STRIDE restarts.
KEY_STRIDE = 1 << 20

# Acceptance-suite tolerances (tests/test_acceptance.py).
CERT_TOL = 1e-10
STATES_TOL = 1e-9
SEARCH_CERT_TOL = 1e-6
GAUSS_TOL = 1e-10


def config_label(dim: int, bases: int) -> str:
    return f"d{dim}b{bases}"


@dataclass(frozen=True)
class ClosedForm:
    """The CLI pipeline construct -> verify -> reconstruct -> search --from at prime ``dim``."""

    name: str
    dim: int
    pass_s: float  # nominal seconds of one pass
    gauss_labels: int  # label quadruples for the traced-only Gauss cross-check

    def units(self, seconds: float) -> int:
        return max(1, int(seconds // self.pass_s))


@dataclass(frozen=True)
class Search:
    """Independent single-restart searches for ``bases`` unbiased bases in dimension ``dim``."""

    name: str
    dim: int
    bases: int
    restart_s: float  # nominal seconds of one restart

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.restart_s))


WORKLOADS = {
    "closed_form_d13": ClosedForm("closed_form_d13", dim=13, pass_s=4.0, gauss_labels=200),
    "search_mub3_d6": Search("search_mub3_d6", dim=6, bases=3, restart_s=0.28),
}

# Layers a workload never calls are measured on this small probe in the
# traced run, so every per-layer metric is a measurement on every workload.
PROBE_PIPELINE = ClosedForm("probe", dim=5, pass_s=0.1, gauss_labels=20)
PROBE_SEARCH = Search("probe", dim=6, bases=3, restart_s=0.28)
PROBE_RESTARTS = 2


def restart_keys(seed: int, count: int) -> list:
    if not 0 <= count < KEY_STRIDE:
        raise ValueError(f"restart count must lie in 0..{KEY_STRIDE - 1}, got {count}")
    return [seed * KEY_STRIDE + i for i in range(count)]


@dataclass
class Outcome:
    """What a workload did: timed operations, failures, and exact counters."""

    ops: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    counters: dict = field(default_factory=dict)
    sampler: Sampler = field(default_factory=Sampler)

    @property
    def wall_s(self) -> float:
        return sum(op["seconds"] for op in self.ops)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(call):
    """(result, seconds, error) of one operation; an exception is an outcome, not a crash."""
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # the benchmark counts the failure and goes on
        traceback.print_exc()
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, error


# ---------------------------------------------------------------- checks


def _payload_array(blocks, items: str, value: str) -> np.ndarray:
    """Complex array of a document's per-basis ``items``, ordered by basis and vector label."""
    ordered = sorted(blocks, key=lambda b: b["basis_index"])
    raw = np.array(
        [[e[value] for e in sorted(b[items], key=lambda e: e["alpha"])] for b in ordered],
        dtype=float,
    )
    return raw[..., 0] + 1j * raw[..., 1]


def independent_residual(projectors: np.ndarray) -> float:
    """Worst unbiasedness residual of an (n, d, d, d) projector stack, via LAPACK, not mubkit."""
    n, d = projectors.shape[:2]
    hermiticity = np.abs(projectors - projectors.conj().swapaxes(-1, -2)).max()
    trace = np.abs(np.einsum("abii->ab", projectors) - 1.0).max()
    negative = -np.linalg.eigvalsh(projectors).min()
    vectors = projectors.reshape(n * d, d * d)
    gram = (vectors.conj() @ vectors.T).real
    same_basis = np.kron(np.eye(n), np.ones((d, d))) == 1.0
    target = np.where(same_basis, np.eye(n * d), 1.0 / d)
    return float(max(hermiticity, trace, negative, np.abs(gram - target).max()))


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_family(path, reference, counters):
    loaded = mubkit.load_family(path)
    counters["bytes.family"] = os.path.getsize(path)
    if loaded.projectors.tobytes() != reference.projectors.tobytes():
        return f"save -> load of {path} is not bit-exact against build_family({reference.dim})"
    return None


def _check_certificate(path, counters):
    cert = _read_json(path)
    worst = max(cert[name] for name in CERT_RESIDUALS)
    counters["cert_residual_max"] = worst
    if not cert["passed"] or cert["tolerance"] != CERT_TOL or worst > CERT_TOL:
        return f"certificate does not pass at {CERT_TOL}: worst residual {worst!r}"
    return None


def _check_states(path, counters, traced):
    states = _payload_array(_read_json(path)["states"], "vectors", "amplitudes")
    counters["bytes.states"] = os.path.getsize(path)
    with traced:
        report = mubkit.verify_states(states, tolerance=STATES_TOL)
    if not report.passed:
        return f"reconstructed states fail verify_states at {STATES_TOL}: {report.summary()}"
    return None


def _check_polished(path, counters):
    payload = _read_json(path)
    counters["bytes.polished"] = os.path.getsize(path)
    meta = payload["metadata"]
    counters["polish_objective"] = meta["best_objective"]
    residual = independent_residual(_payload_array(payload["bases"], "projectors", "matrix"))
    if meta["converged"] is not True or residual > CERT_TOL:
        return f"polished family not certified: converged={meta['converged']}, residual {residual!r}"
    return None


def check_pass(files, exits, reference, counters, traced=nullcontext()) -> dict:
    """Failure message per CLI command of one pipeline pass; empty when every output is right."""
    tests = {
        "construct": lambda: _check_family(files["family"], reference, counters),
        "verify": lambda: _check_certificate(files["cert"], counters),
        "reconstruct": lambda: _check_states(files["states"], counters, traced),
        "search": lambda: _check_polished(files["polished"], counters),
    }
    failures = {}
    for command, test in tests.items():
        if exits.get(command) != 0:
            failures[command] = f"exit code {exits.get(command)}"
            continue
        try:
            problem = test()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures[command] = problem
    return failures


def certify_restart(result, traced=nullcontext()):
    """(certified, problem) for one single-restart search result.

    A restart that did not converge is an outcome, not a failure.  One
    that reports convergence must pass verify_family at the acceptance
    suite's search tolerance, or it is a failed operation.
    """
    if result.restarts_used != 1 or result.history != (result.best_objective,):
        return False, "search result accounting is inconsistent for a single restart"
    if not result.converged:
        return False, None
    with traced:
        report = mubkit.verify_family(result.best_family, tolerance=SEARCH_CERT_TOL)
    if not report.passed:
        return False, f"converged but fails verify_family at {SEARCH_CERT_TOL}: {report.summary()}"
    return True, None


# ------------------------------------------------------------- workloads


def _pipeline(dim: int, files: dict) -> list:
    return [
        ("construct", ["construct", "--d", str(dim), "--out", files["family"]]),
        ("verify", ["verify", files["family"], "--report", files["cert"]]),
        ("reconstruct", ["reconstruct", files["family"], "--out", files["states"]]),
        (
            "search",
            ["search", "--d", str(dim), "--bases", str(dim + 1), "--from", files["states"],
             "--out", files["polished"]],
        ),
    ]


def run_closed_form(
    wl: ClosedForm, seed: int, passes: int, work_dir: str, tracer=None, launch=None
) -> Outcome:
    """Run the CLI pipeline ``passes`` times; in a traced run also the Gauss cross-check."""
    traced = tracer if tracer is not None else nullcontext()
    outcome = Outcome(sampler=Sampler(launch))
    runs = []
    names = {key: f"{key}.json" for key in ("family", "cert", "states", "polished")}
    home = os.getcwd()
    with traced:
        for index in range(passes):
            pass_dir = os.path.join(work_dir, f"pass{index}")
            os.makedirs(pass_dir)
            exits = {}
            # Bare file names keep the documents, which record their source
            # path, the same size wherever the run happens.
            os.chdir(pass_dir)
            try:
                for command, argv in _pipeline(wl.dim, names):
                    outcome.sampler.before(wl.pass_s / 4)
                    code, seconds, error = _timed(lambda: mubkit.cli.cli_dispatch(argv))
                    exits[command] = code
                    outcome.ops.append(
                        {"op": command, "config": config_label(wl.dim, wl.dim + 1), "seconds": seconds}
                    )
            finally:
                os.chdir(home)
            files = {key: os.path.join(pass_dir, name) for key, name in names.items()}
            runs.append((files, exits))
    outcome.peak_rss_mb = _peak_rss_mb()

    if tracer is not None:
        _gauss_cross_check(wl, seed, outcome, tracer)
        _probe_objective_gradient(wl.dim, wl.dim + 1, seed, tracer)

    reference = mubkit.build_family(wl.dim)
    for index, (files, exits) in enumerate(runs):
        counters = {}
        failures = check_pass(files, exits, reference, counters, traced)
        outcome.attempted += len(exits)
        for command, problem in failures.items():
            outcome.failures.append(f"pass {index} {command}: {problem}")
        for op in outcome.ops[4 * index : 4 * index + 4]:
            op["ok"] = op["op"] not in failures
        outcome.ops[4 * index + 3]["certified"] = "search" not in failures
        outcome.counters[f"pass{index}"] = counters
    return outcome


def _gauss_cross_check(wl: ClosedForm, seed: int, outcome: Outcome, tracer: Tracer) -> None:
    d = wl.dim
    rng = np.random.default_rng([seed, d])
    worst = 0.0
    with tracer:
        for _ in range(wl.gauss_labels):
            a, b = (int(x) for x in rng.choice(d, size=2, replace=False))
            alpha, beta = (int(x) for x in rng.integers(0, d, size=2))
            residual = mubkit.check_factoring(a, b, alpha, beta, d)
            worst = max(worst, residual)
            outcome.attempted += 1
            if not residual < GAUSS_TOL:
                outcome.failures.append(f"check_factoring({a}, {b}, {alpha}, {beta}, {d}) = {residual!r}")
    outcome.counters["gauss_worst_residual"] = worst


def _probe_objective_gradient(dim: int, bases: int, seed: int, tracer: Tracer) -> None:
    """Time the public objective and gradient, three calls each at three seeded random states."""
    rng = np.random.default_rng([seed, dim, bases])
    shape = (bases, dim, dim, dim)
    for _ in range(3):
        state = mubkit.SearchState(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        )
        with tracer:
            for _ in range(3):
                mubkit.objective(state)
                mubkit.gradient(state)


def run_search(wl: Search, seed: int, restarts: int, tracer=None, launch=None) -> Outcome:
    """Single-restart searches keyed from the seed, each certified after the timed loop."""
    traced = tracer if tracer is not None else nullcontext()
    outcome = Outcome(sampler=Sampler(launch))
    label = config_label(wl.dim, wl.bases)
    results = []
    with traced:
        for key in restart_keys(seed, restarts):
            cfg = mubkit.SearchConfig(dim=wl.dim, num_bases=wl.bases, restarts=1, seed=key)
            outcome.sampler.before(wl.restart_s)
            result, seconds, error = _timed(lambda: mubkit.run_search(cfg))
            results.append(result)
            outcome.ops.append(
                {"op": "restart", "config": label, "key": key, "seconds": seconds, "error": error}
            )
    outcome.peak_rss_mb = _peak_rss_mb()

    if tracer is not None:
        _probe_objective_gradient(wl.dim, wl.bases, seed, tracer)

    for op, result in zip(outcome.ops, results):
        outcome.attempted += 1
        problem = op.pop("error")
        certified = False
        if result is not None:
            certified, problem = certify_restart(result, traced)
            op.update(
                objective=result.best_objective,
                iterations=result.restart_iterations[0],
                converged=result.converged,
            )
        op.update(ok=problem is None, certified=certified)
        if problem is not None:
            outcome.failures.append(f"restart {op['config']} key {op['key']}: {problem}")
    outcome.counters[label] = {
        "restarts": len(outcome.ops),
        "certified": sum(op["certified"] for op in outcome.ops),
        "iterations": sum(op.get("iterations", 0) for op in outcome.ops),
    }
    return outcome


def run(name: str, seed: int, seconds: float, work_dir: str, tracer=None, launch=None) -> Outcome:
    """Run a workload; ``launch``, when given, times one set-up launch at each sample point."""
    wl = WORKLOADS[name]
    if isinstance(wl, ClosedForm):
        return run_closed_form(wl, seed, wl.units(seconds), work_dir, tracer, launch)
    return run_search(wl, seed, wl.units(seconds), tracer, launch)


# --------------------------------------------------------------- metrics


def tail(values) -> float:
    """Highest order statistic with at least ten samples beyond it; the maximum below 11 samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def op_times(outcome: Outcome) -> dict:
    """Operation-time summary for the run record, with the sample count behind each figure.

    Times are in measured seconds; the end-to-end metrics scale them to the
    reference speed by ``reference_scale``.
    """
    times = [op["seconds"] for op in outcome.ops]
    n = len(times)
    return {
        "samples": n,
        "wall_s": outcome.wall_s,
        "reference_samples": len(outcome.sampler.samples),
        "reference_median_s": statistics.median(outcome.sampler.samples),
        "reference_scale": outcome.sampler.scale(),
        "setup_launches": outcome.sampler.launches,
        "p50_s": statistics.median(times),
        "tail_s": tail(times),
        "tail_percentile": 100.0 * (n - 10) / n if n > 10 else 100.0,
    }


def end_to_end(outcome: Outcome) -> dict:
    scale = outcome.sampler.scale()
    return {
        "setup_s": statistics.median(outcome.sampler.launches),
        "wall_norm_s": outcome.wall_s * scale,
        "op_p50_norm_s": statistics.median(op["seconds"] for op in outcome.ops) * scale,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def search_layer(outcome: Outcome) -> dict:
    """Per-layer search outcomes: certified families against search calls attempted."""
    searches = [op for op in outcome.ops if op["op"] in ("restart", "search")]
    certified = sum(op.get("certified", False) for op in searches)
    seconds = [op["seconds"] for op in searches]
    return {
        "search.successes": certified,
        "search.success_rate": certified / len(searches) if searches else None,
        "search.solutions_per_s": certified / sum(seconds) if searches else None,
        "search.restart_tail_s": tail(seconds) if searches else None,
    }


def per_layer(outcome: Outcome, tracer: Tracer) -> dict:
    metrics = layer_metrics(tracer.spans)
    metrics.update(search_layer(outcome))
    metrics["trace.wall_s"] = outcome.wall_s
    return metrics


def run_probe(seed: int, work_dir: str) -> tuple:
    """(outcome, per-layer metrics, span totals) of the small probe that reaches every layer."""
    tracer = Tracer()
    probe = run_closed_form(PROBE_PIPELINE, seed, 1, work_dir, tracer)
    searched = run_search(PROBE_SEARCH, seed, PROBE_RESTARTS, tracer)
    probe.ops += searched.ops
    probe.attempted += searched.attempted
    probe.failures += searched.failures
    return probe, per_layer(probe, tracer), aggregate(tracer.spans)
