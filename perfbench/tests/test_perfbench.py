"""Tests of the benchmark itself, on tiny instances; a few seconds in all.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")


@pytest.fixture
def work():
    path = REPO / ".bench_out" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:  # another run's output is still there
        pass


@pytest.fixture
def cli():
    return run.import_quiverkit()


def smoke_pass(cli, work, name, tracer=None):
    runner = run.Runner(cli, work, run.Clock())
    jobs = workloads.WORKLOADS[name].job_list(1, smoke=True)
    with runner.capture:
        return jobs, runner.run_pass(jobs, list(range(len(jobs))), tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    plain = run.run_workload(name, seed=5, seconds=0, trace=False, smoke=True)
    assert (plain["correct"], plain["failed"]) == (True, 0)
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(name, seed=5, seconds=0, trace=True, smoke=True)
    assert (traced["correct"], traced["failed"]) == (True, 0)  # traced outputs pass the same checks
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    again = run.run_workload(name, seed=5, seconds=0, trace=True, smoke=True)
    for key in spans.COUNTS:
        assert traced["metrics"][key] == again["metrics"][key], key


def test_main_prints_json_last(monkeypatch, capsys):
    verify = workloads.WORKLOADS["verify"]
    monkeypatch.setitem(workloads.WORKLOADS, "verify", dataclasses.replace(verify, jobs=verify.smoke_jobs))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "verify", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert any(line.strip().startswith("failed_frac 0 ratio") for line in lines)


def test_wrong_answer_is_a_failure(cli, work, monkeypatch):
    monkeypatch.setattr(cli, "to_dot", lambda tq, name="quiver": "digraph wrong {}\n")
    jobs, result = smoke_pass(cli, work, "structure")
    # cli.to_dot renders single quivers; power --components uses components_dot
    dot_jobs = {i for i, j in enumerate(jobs) if "dot" in j.argv and "--components" not in j.argv}
    assert dot_jobs
    assert set(result["failures"]) == dot_jobs
    assert set(result["wrong"]) == dot_jobs
    assert all(reason.startswith("sha256") for reason in result["failures"].values())


def test_wrong_cluster_count_is_a_failure(cli, work, monkeypatch):
    real = cli.enumerate_cluster_variables

    def one_seed_short(M, cap=10000):
        res = real(M, cap)
        return dataclasses.replace(res, seed_count=res.seed_count - 1)

    monkeypatch.setattr(sys.modules["quiverkit.mutation"], "enumerate_cluster_variables", one_seed_short)
    monkeypatch.setattr(cli, "enumerate_cluster_variables", one_seed_short)
    jobs, result = smoke_pass(cli, work, "closure")
    assert sorted(result["wrong"]) == list(range(len(jobs)))


def test_escaping_exception_is_a_failure_and_run_goes_on(cli, work, monkeypatch):
    def boom(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "gamma", boom)
    monkeypatch.setattr(cli, "_cmd_orbit", lambda args: 1)
    jobs, result = smoke_pass(cli, work, "structure")
    kinds = {jobs[i].argv[0]: reason for i, reason in result["failures"].items()}
    assert kinds["gamma"].startswith("escaped: RecursionError")
    assert kinds["power"].startswith("escaped: RecursionError")
    assert kinds["orbit"] == "undocumented exit code 1"
    assert "angulations" not in kinds  # later jobs still ran and passed
    assert result["wrong"] == []  # a crash is a failure, not a wrong answer


def test_span_counts_match_an_independent_spy(cli, work):
    iso = sys.modules["quiverkit.iso"].iso_translation_quivers
    orbit = sys.modules["quiverkit.orbit"].orbit_quiver
    frac = sys.modules["quiverkit.mutation"].LaurentFraction
    codes = {
        iso.__code__: "iso", orbit.__code__: "orbit",
        **{getattr(frac, op).__code__: "frac" for op in ("__add__", "__mul__", "__truediv__", "__pow__")},
    }
    seen = {"iso": 0, "orbit": 0, "frac": 0}

    def spy(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    metrics = {}
    for name in ("classify", "closure"):
        runner = run.Runner(cli, work, run.Clock())
        jobs = workloads.WORKLOADS[name].job_list(1, smoke=True)
        with runner.capture:
            tracer = spans.Tracer()
            with tracer:
                sys.setprofile(spy)
                try:
                    result = runner.run_pass(jobs, list(range(len(jobs))), tracer)
                finally:
                    sys.setprofile(None)
        assert result["failures"] == {}
        for key, value in spans.layer_metrics(tracer.spans, 0).items():
            metrics[key] = metrics.get(key, 0) + value
    assert seen["iso"] > 0 and seen["orbit"] > 0 and seen["frac"] > 0
    assert metrics["iso.ok.calls"] + metrics["iso.fail.calls"] + metrics["iso.error.calls"] == seen["iso"]
    assert metrics["orbit.orbit_quiver.calls"] == seen["orbit"]
    assert metrics["mutation.fraction_ops.calls"] == seen["frac"]


def test_tracer_patches_every_binding_and_restores_them(cli):
    import quiverkit

    iso = sys.modules["quiverkit.iso"].iso_translation_quivers
    frac = sys.modules["quiverkit.mutation"].LaurentFraction
    holders = [quiverkit] + [sys.modules[f"quiverkit.{m}"] for m in ("iso", "orbit", "power", "verify")]
    add = vars(frac)["__add__"]
    with spans.Tracer():
        assert all(getattr(h, "iso_translation_quivers") is not iso for h in holders)
        assert vars(frac)["__radd__"] is vars(frac)["__add__"] is not add
    assert all(getattr(h, "iso_translation_quivers") is iso for h in holders)
    assert vars(frac)["__radd__"] is vars(frac)["__add__"] is add


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8 (which has a child 5..6)
    fake = [
        ["cli.main", 0.0, 10.0, -1, 0, "ok", 0, None],
        ["power.power", 1.0, 3.0, 0, 0, "ok", 0, None],
        ["power.power", 4.0, 8.0, 0, 0, "ok", 0, None],
        ["power.sectional_paths", 5.0, 6.0, 2, 0, "ok", 7, None],
    ]
    m = spans.layer_metrics(fake, 0)
    assert m["cli.self_s"] == 4.0
    assert m["power.power.self_s"] == 5.0
    assert (m["power.sectional_paths.calls"], m["power.sectional_paths.paths"]) == (1, 7)
    # a probe pause inside the first power span leaves every duration
    m = spans.layer_metrics(fake, 0, [(1.5, 1.75)])
    assert (m["cli.self_s"], m["power.power.self_s"]) == (4.0, 4.75)


def test_without_sources_exits_nonzero_and_prints_no_result(work):
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
