"""Smoke tests for the benchmark, at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
BATCH = [name for name in WORKLOADS if name != "serve-mixed"]

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import calibration  # noqa: E402
import layers  # noqa: E402


def run_bench(workload, trace, seconds=0.3, env=None, cwd=ROOT, run=RUN):
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
        check=False,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return {name: result_of(run_bench(name, 0)) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: result_of(run_bench(name, 1)) for name in WORKLOADS}


def check_shape(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        value = emitted["value"]
        assert isinstance(value, (int, float)), metric["name"]
        assert not isinstance(value, bool), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(untraced, workload):
    lines, result = untraced[workload]
    check_shape(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "metric error_rate 0.0 fraction" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_error_rate_is_zero(untraced, traced, workload):
    for _lines, result in (untraced[workload], traced[workload]):
        assert result["correct"] is True
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_with_units(traced, workload):
    check_shape(traced[workload][1], SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_traced_wall_clock(traced, workload):
    metrics = {
        name: m["value"] for name, m in traced[workload][1]["metrics"].items()
    }
    run_s = metrics["trace.run_s"]
    parts = [metrics[name] for name in layers.SELF_METRICS]
    parts.append(metrics["driver.s"])
    for value in parts:
        assert value >= -1e-6 * run_s
    # ``driver.s`` is the remainder, so the parts sum to ``run_s`` by
    # definition.  ``trace.gap_s`` is the round time that no root span
    # covers: negative if spans were counted twice, large if the root
    # spans missed work.
    gap = metrics["trace.gap_s"]
    assert gap >= -1e-6 * run_s
    if workload in BATCH:
        # The root span is the whole round.
        assert gap <= 0.02 * run_s
    else:
        # The slot thread's job spans cover the round, except the
        # hand-offs between jobs.
        assert gap <= 0.2 * run_s


def test_udf_pipeline_gives_every_task_data(traced):
    metrics = traced["udf-pipeline"][1]["metrics"]
    assert metrics["scheduler.useful_task_ratio"]["value"] == 1.0


def test_backend_layers_run_only_on_the_process_backend(traced):
    for workload in WORKLOADS:
        metrics = traced[workload][1]["metrics"]
        on_process = workload == "nested-process"
        assert (metrics["backend.s"]["value"] > 0) == on_process, workload
        assert (metrics["serde.bytes"]["value"] > 0) == on_process, workload


def test_fingerprint_is_stable_across_rounds(untraced):
    for workload in WORKLOADS:
        lines, _result = untraced[workload]
        line = next(l for l in lines if l.startswith("fingerprint "))
        assert " stable True " in line and line.endswith("sim_stable True")


def test_speed_scale_maps_the_calibration_to_its_reference():
    assert calibration.speed_scale(
        calibration.REFERENCE_S, calibration.REFERENCE_S
    ) == pytest.approx(1.0)
    # A host running the calibration twice as slowly runs a span twice
    # as slowly too: half its seconds are reference-host seconds.
    slow = 2 * calibration.REFERENCE_S
    assert calibration.speed_scale(slow, slow) == pytest.approx(0.5)
    assert calibration.calibrate() > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_s_is_the_calibrated_wall_clock(untraced, workload):
    lines, result = untraced[workload]
    _, _, wall, _, scale = next(
        l for l in lines if l.startswith("wall-clock ")
    ).split()
    # Both are medians over the rounds, so they agree only roughly.
    assert result["metrics"]["run_s"]["value"] == pytest.approx(
        float(wall) * float(scale), rel=0.5
    )


def test_repro_environment_cannot_change_the_workload():
    env = dict(os.environ, REPRO_COMPILE="1", REPRO_BACKEND="process",
               REPRO_SCHEDULER="dag", REPRO_TRACE="1")
    lines, result = result_of(run_bench("nested-paper", 0, env=env))
    config = json.loads(
        next(l for l in lines if l.startswith("config "))[len("config "):]
    )
    for resolved in config.values():
        assert resolved["compile_pipelines"] is False
        assert resolved["backend"] == "serial"
        assert resolved["scheduler"] == "serial"
    assert result["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(
        "nested-paper", 0, cwd=tmp_path,
        run=str(tmp_path / "perfbench" / "run.py"),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
