"""The per-partition driver fast paths change no trace quantity.

Empty partitions short-circuit inside the fused pipeline task, and the
executor and scheduler credit stage metrics in bulk, one call per task
set.  Neither may change a record count, a task count, or a simulated
second: the expected values below were captured from the per-task
implementation these fast paths replaced.
"""

import hashlib

import pytest

from repro.data import grouped_points, initial_centroids, visits_log
from repro.engine import EngineContext, paper_cluster_config
from repro.engine.codegen import plan_compiled_task
from repro.engine.columnar import ColumnarPartition
from repro.engine.metrics import StageMetrics
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    FusedPipelineTask,
)
from repro.engine.validate import trace_signature
from repro.tasks import bounce_rate, kmeans


def _double(x):
    return x * 2


def _odd(x):
    return x % 2 == 1


def _pair(x):
    return [x, x + 1]


STEPS = [
    (STEP_MAP, _double, "double#0"),
    (STEP_FLATMAP, _pair, "pair#1"),
    (STEP_FILTER, _odd, "odd#2"),
]


def _empty_columnar():
    column = ColumnarPartition.from_records([1, 2]).columns[0]
    return ColumnarPartition("i", True, [column[:0]], 0)


def _fused():
    return FusedPipelineTask(STEPS)


def _compiled():
    task, reason = plan_compiled_task(STEPS)
    assert reason is None, reason
    return task


class TestEmptyPartitions:
    @pytest.mark.parametrize("make_task", [_fused, _compiled],
                             ids=["fused", "compiled"])
    @pytest.mark.parametrize("make_part", [list, _empty_columnar],
                             ids=["list", "columnar"])
    def test_empty_partition_counts_nothing(self, make_task, make_part):
        out, counts, works = make_task()(make_part())
        assert list(out) == []
        assert counts == [0, 0, 0]
        assert works == [0, 0, 0]

    def test_non_empty_columnar_still_runs(self):
        part = ColumnarPartition.from_records([1, 2, 3])
        out, counts, works = _fused()(part)
        assert out == [3, 5, 7]
        assert counts == [3, 3, 6]
        assert works == [0, 0, 0]


def _stage(initial):
    stage = StageMetrics(stage_id=0)
    stage.task_records = list(initial)
    stage.task_seconds = [float(value) for value in initial]
    return stage


INITIAL = pytest.mark.parametrize(
    "initial", [[], [5, 0], [1, 2, 3, 4, 5, 6]],
    ids=["fresh", "shorter", "longer"],
)


class TestBulkCredits:
    """Bulk credits equal one per-task call per entry, including the
    zero entries: a task that processed nothing still occupies a slot."""

    @INITIAL
    def test_records_match_per_task_calls(self, initial):
        counts = [3, 0, 7, 0]
        want, got = _stage(initial), _stage(initial)
        for index, count in enumerate(counts):
            want.add_task_records(index, count)
        got.add_task_records_bulk(counts)
        assert got.task_records == want.task_records

    @INITIAL
    def test_seconds_match_per_task_calls(self, initial):
        seconds = [0.25, 0.0, 1e-7, 0.0]
        want, got = _stage(initial), _stage(initial)
        for index, value in enumerate(seconds):
            want.add_task_seconds(index, value)
        got.add_task_seconds_bulk(seconds)
        assert got.task_seconds == want.task_seconds

    def test_sparse_seconds_match_per_task_calls(self):
        indices, seconds = [4, 0, 2], [0.5, 0.125, 0.0]
        want, got = _stage([1]), _stage([1])
        for index, value in zip(indices, seconds):
            want.add_task_seconds(index, value)
        got.add_task_seconds_bulk(seconds, indices=indices)
        assert got.task_seconds == want.task_seconds


#: Captured from the per-task implementation on the program below.
PAPER_SIGNATURE = "2ffe30a659fd657d"
PAPER_SIMULATED_SECONDS = 23.876864012400304
PAPER_NUM_TASKS = 61890
PAPER_TASKS_LAUNCHED = 78222


def _paper_run(trace=None, faults=False):
    config = paper_cluster_config(
        backend="serial", scheduler="serial", optimize_shuffles=True,
        optimize_caching=False, speculative_execution=False,
    )
    ctx = EngineContext(config, trace=trace)
    if faults:
        ctx.fault_injector.kill_task(task_index=3, stage=1, times=2)
        ctx.fault_injector.kill_task(task_index=1199, times=1)
    try:
        points = grouped_points(3, 48, 3, seed=7)
        centroids = initial_centroids(3, 3, seed=8)
        kmeans.kmeans_nested_grouped(
            ctx.bag_of(points), centroids, max_iterations=2,
            tolerance=None,
        ).collect()
        bounce_rate.bounce_rate_nested(
            ctx.bag_of(visits_log(3, 96, seed=9))
        ).collect()
        signature = hashlib.sha256(
            repr(trace_signature(ctx.trace)).encode()
        ).hexdigest()[:16]
        return (
            signature,
            ctx.simulated_seconds(),
            ctx.trace.num_tasks,
            ctx.runtime.tasks_launched - ctx.runtime.tasks_retried,
            ctx.runtime.tasks_retried,
        )
    finally:
        ctx.close()


class TestPaperScaleTrace:
    """1,200 partitions per stage, mostly empty, on every dispatch path:
    the serial fast path, the outcome path (tracing on), and retry
    waves (injected faults, with and without tracing)."""

    @pytest.mark.parametrize("trace, faults", [
        (None, False), ("null", False), (None, True), ("null", True),
    ], ids=["fast-path", "traced", "faults", "traced-faults"])
    def test_trace_matches_per_task_accounting(self, trace, faults):
        assert _paper_run(trace, faults) == (
            PAPER_SIGNATURE,
            PAPER_SIMULATED_SECONDS,
            PAPER_NUM_TASKS,
            PAPER_TASKS_LAUNCHED,
            3 if faults else 0,
        )
