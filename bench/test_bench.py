"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import dataclasses
import json

import numpy as np
import pytest

import mubkit
import reference
import run
import workloads
from tracing import Tracer

SMALL_PIPELINE = dataclasses.replace(workloads.WORKLOADS["closed_form_d13"], dim=5, pass_s=1.0)


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_emitted_metric_names_match_benchmark_json(workload, trace, tmp_path, capsys, monkeypatch):
    # The d = 13 pipeline takes seconds a pass; its d = 5 twin emits the same names.
    monkeypatch.setitem(workloads.WORKLOADS, "closed_form_d13", SMALL_PIPELINE)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "search_mub3_d6", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""


def _corrupted_family(d=3):
    projectors = mubkit.build_family(d).projectors.copy()
    projectors[1, 0] = projectors[1, 1]
    return mubkit.MubFamily(projectors)


def test_converged_restart_with_corrupted_projector_is_a_failed_operation(monkeypatch):
    corrupted = _corrupted_family()

    def fake_search(cfg):
        return mubkit.SearchResult(
            best_family=corrupted,
            best_objective=1e-20,
            iterations_used=1,
            restarts_used=1,
            converged=True,
            history=(1e-20,),
            restart_iterations=(1,),
        )

    monkeypatch.setattr(mubkit, "run_search", fake_search)
    wl = workloads.Search("corrupt", dim=3, bases=4, restart_s=1.0)
    outcome = workloads.run_search(wl, seed=0, restarts=2)
    assert outcome.attempted == 2
    assert len(outcome.failures) == 2
    assert all("fails verify_family" in f for f in outcome.failures)
    assert [op["certified"] for op in outcome.ops] == [False, False]


def test_saved_family_with_corrupted_projector_is_a_failed_operation(tmp_path):
    files = {key: str(tmp_path / f"{key}.json") for key in ("family", "cert", "states", "polished")}
    exits = {
        command: mubkit.cli.cli_dispatch(argv) for command, argv in workloads._pipeline(3, files)
    }
    payload = json.loads(open(files["family"]).read())
    payload["bases"][1]["projectors"][0]["matrix"] = payload["bases"][1]["projectors"][1]["matrix"]
    with open(files["family"], "w") as handle:
        json.dump(payload, handle)

    failures = workloads.check_pass(files, exits, mubkit.build_family(3), {})
    assert list(failures) == ["construct"]
    assert "bit-exact" in failures["construct"]


def test_two_seeds_give_disjoint_restart_keys():
    count = workloads.WORKLOADS["search_mub3_d6"].units(60)
    first, second = set(workloads.restart_keys(0, count)), set(workloads.restart_keys(1, count))
    assert len(first) == len(second) == count
    assert not first & second


def test_one_seed_reproduces_identical_counters(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["search_mub3_d6"]

    def search_counters():
        outcome = workloads.run_search(wl, seed=7, restarts=3)
        exact = [
            (op["key"], op["iterations"], op["objective"], op["certified"]) for op in outcome.ops
        ]
        return exact, outcome.counters

    assert search_counters() == search_counters()

    def pipeline_counters(index):
        tracer = Tracer()
        outcome = workloads.run_closed_form(SMALL_PIPELINE, 7, 1, str(tmp_path / str(index)), tracer)
        metrics = workloads.per_layer(outcome, tracer)
        counts = ("reconstruct.eigen_solves", "reconstruct.jacobi_sweeps", "io.bytes_written",
                  "io.bytes_read", "search.iterations")
        return [metrics[name] for name in counts], outcome.counters

    monkeypatch.chdir(tmp_path)
    assert pipeline_counters(0) == pipeline_counters(1)


def test_independent_residual_flags_what_verify_family_flags():
    assert workloads.independent_residual(mubkit.build_family(5).projectors) < 1e-14
    assert workloads.independent_residual(_corrupted_family().projectors) > 0.1


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(100))
    assert workloads.tail(values) == 89
    assert workloads.tail(values[:5]) == 4
    assert np.isclose(workloads.tail([0.5] * 11), 0.5)


def test_sampler_follows_nominal_work_and_scales_by_the_reference_median(monkeypatch):
    samples = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(samples))
    monkeypatch.setattr(reference, "SAMPLE_INTERVAL_S", 1.5)
    launches = iter([0.5, 0.7])
    sampler = reference.Sampler(lambda: next(launches))
    for _ in range(6):  # 3 s of nominal work, one sample point per 1.5 s
        sampler.before(0.5)
    assert sampler.samples == [0.1, 0.3]
    assert sampler.launches == [0.5, 0.7]
    assert sampler.scale() == pytest.approx(reference.REFERENCE_NOMINAL_S / 0.2)
