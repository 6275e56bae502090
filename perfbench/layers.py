"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Profiler` replaces the public entry points of each engine layer
with timing wrappers (and restores them afterwards), so no program file
changes.  Spans nest per thread: a span's *self* time is its duration
minus the spans it encloses, and the self times of one thread's spans
add up exactly to the duration of its outermost (root) span.

Two rules keep time from being counted twice:

* a call into a layer that is already open on the calling thread
  (re-entrancy, e.g. ``job_cost`` calling ``stage_cost``) opens no new
  span -- it is still counted;
* spans open only on a thread that holds a root span: the benchmark's
  round on the main thread, or a job on the service's slot thread.
  Calls from other threads (a dispatch pool, a client) are counted
  but not timed; the root thread that waits for them is billed.

Task bodies are not wrapped.  Their time is the measured per-task
seconds the scheduler records in the stage metrics (``task.s``); it is
moved out of the enclosing span's self time -- the backend's on the
process path, where tasks run inside ``run_invocations``, else the
scheduler's -- into the ``task`` layer.
"""

import collections
import functools
import itertools
import statistics
import threading
import time

import repro.analysis.effects as effects
import repro.engine.codegen as codegen
import repro.engine.context as context
import repro.engine.dag as dag
import repro.engine.executor as executor
import repro.engine.runtime.serde as serde
import repro.observe.report as report
from repro.engine.columnar import ColumnarPartition
from repro.engine.costmodel import CostModel
from repro.engine.metrics import StageMetrics
from repro.engine.runtime.backends import ProcessPoolBackend, SerialBackend
from repro.engine.runtime.scheduler import TaskScheduler
from repro.serve.service import JobService

ROOT = "driver"

#: Reported self-time metric -> layer.  With ``driver.s`` these
#: partition the traced round time.
SELF_METRICS = {
    "scheduler.dispatch_s": "scheduler",
    "executor.self_s": "executor",
    "costmodel.s": "costmodel",
    "report.s": "report",
    "task.self_s": "task",
    "codegen.s": "codegen",
    "columnar.s": "columnar",
    "backend.s": "backend",
    "serde.s": "serde",
    "optimize.s": "optimize",
    "dag.s": "dag",
    "validate.s": "validate",
    "partitioner.s": "partitioner",
    "analysis.s": "analysis",
    "serve.end_job_s": "serve.end_job",
}

#: Per-layer metric -> unit, in report order.
UNITS = {
    "scheduler.stage_s": "s",
    "scheduler.stages": "count",
    "scheduler.tasks": "count",
    "scheduler.dispatch_s": "s",
    "scheduler.useful_task_ratio": "fraction",
    "metrics.calls": "count",
    "executor.action_s": "s",
    "executor.jobs": "count",
    "executor.self_s": "s",
    "costmodel.s": "s",
    "costmodel.stages": "count",
    "report.s": "s",
    "task.s": "s",
    "task.self_s": "s",
    "codegen.s": "s",
    "codegen.compiled_ratio": "fraction",
    "columnar.s": "s",
    "columnar.partitions": "count",
    "backend.s": "s",
    "backend.calls": "count",
    "serde.s": "s",
    "serde.bytes": "bytes",
    "optimize.s": "s",
    "dag.s": "s",
    "validate.s": "s",
    "partitioner.s": "s",
    "analysis.s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.cache_hit_ratio": "fraction",
    "serve.evictions": "count",
    "serve.end_job_s": "s",
    "driver.s": "s",
    "trace.run_s": "s",
    "trace.gap_s": "s",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("layer", "start", "child", "backend_child")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.backend_child = 0.0


class Profiler:
    """Nesting-aware layer spans over patched entry points."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.self_s = collections.defaultdict(float)
        self.inclusive_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.task_s = 0.0

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer, root=False):
        """Open a span; ``None`` when this call must not be timed."""
        stack = self._stack()
        if not root:
            if not stack:
                return None
            for frame in stack:
                if frame.layer == layer:
                    return None
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame):
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.self_s[frame.layer] += duration - frame.child
            self.inclusive_s[frame.layer] += duration
        if stack:
            parent = stack[-1]
            parent.child += duration
            if frame.layer == "backend":
                parent.backend_child += duration

    def root(self):
        """Context manager for a root span on the calling thread."""
        return _RootSpan(self)

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def _credit_tasks(self, frame, seconds):
        """Move ``seconds`` of task bodies into the ``task`` layer."""
        with self._lock:
            self.task_s += seconds
            if frame is None:
                return
            if frame.backend_child > 0:
                self.self_s["backend"] -= seconds
                self.self_s["task"] += seconds
            else:
                # Every span under a serial dispatch ran inside a task.
                inner = seconds - frame.child
                self.self_s["scheduler"] -= inner
                self.self_s["task"] += inner

    # -- wrappers ------------------------------------------------------

    def timed(self, layer, fn, count=None, after=None, root=False):
        """``fn`` wrapped in a ``layer`` span."""
        enter, exit_, tally = self.enter, self.exit, self.count

        def wrapper(*args, **kwargs):
            tally(count or layer + ".calls")
            frame = enter(layer, root)
            if frame is None:
                result = fn(*args, **kwargs)
            else:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_stage(self, fn):
        enter, exit_, tally = self.enter, self.exit, self.count
        credit = self._credit_tasks

        def run_stage(sched, task, args_list, stage=None, ordinal=None):
            tally("scheduler.calls")
            tally("scheduler.tasks", len(args_list))
            before = stage.measured_seconds if stage is not None else 0.0
            frame = enter("scheduler")
            try:
                return fn(sched, task, args_list, stage, ordinal)
            finally:
                if frame is not None:
                    exit_(frame)
                if stage is not None:
                    credit(frame, stage.measured_seconds - before)

        run_stage.__wrapped__ = fn
        return run_stage

    # -- installation --------------------------------------------------

    def install(self):
        patch = functools.partial(_patch, self._patches)
        timed = self.timed
        for name in ("collect", "count", "save", "reduce", "fold"):
            patch(executor.Executor, name,
                  lambda fn: timed("executor", fn))
        patch(TaskScheduler, "run_stage", self._run_stage)
        for cls in (SerialBackend, ProcessPoolBackend):
            patch(cls, "run_invocations", lambda fn: timed("backend", fn))
        patch(serde, "ensure_serializable", lambda fn: timed(
            "serde", fn, after=lambda a, r: self.count("serde.bytes", len(r))
        ))
        patch(serde, "loads", lambda fn: timed(
            "serde", fn,
            after=lambda a, r: self.count("serde.bytes", len(a[0])),
        ))
        patch(CostModel, "stage_cost",
              lambda fn: timed("costmodel", fn, count="costmodel.stages"))
        for name in ("job_cost", "trace_cost", "simulated_seconds"):
            patch(CostModel, name, lambda fn: timed("costmodel", fn))
        for name in ("entry_from_context", "entry_from_jobs"):
            patch(report, name, lambda fn: timed("report", fn))
        patch(executor, "validate_job", lambda fn: timed("validate", fn))
        patch(context, "validate_trace", lambda fn: timed("validate", fn))
        for name in ("plan_shuffle_elisions", "plan_auto_caches"):
            patch(executor, name, lambda fn: timed("optimize", fn))
        for name in ("plan_units", "total_ordinal_budget"):
            patch(dag, name, lambda fn: timed("dag", fn))
        patch(executor, "build_balanced_assignment",
              lambda fn: timed("partitioner", fn))
        for name in ("plan_compiled_task", "plan_chain_schema"):
            patch(codegen, name, lambda fn: timed("codegen", fn))
        for name in ("maybe_columnar", "encode_committed"):
            patch(executor, name, lambda fn: timed(
                "columnar", fn, after=self._count_columnar
            ))
        patch(executor, "as_records", lambda fn: timed("columnar", fn))
        for name in ("analyze_effects", "fingerprint_function"):
            patch(effects, name, lambda fn: timed("analysis", fn))
        patch(context.EngineContext, "end_job",
              lambda fn: timed("serve.end_job", fn))
        patch(JobService, "_execute",
              lambda fn: timed(ROOT, fn, root=True))
        return self

    def uninstall(self):
        _restore(self._patches)

    def _count_columnar(self, _args, result):
        if isinstance(result, ColumnarPartition):
            self.count("columnar.partitions")

    # -- results -------------------------------------------------------

    def metrics(self, traced, untraced, hot):
        """Per-round per-layer metrics from the traced rounds.

        ``traced``/``untraced`` are the :class:`~workloads.Round` lists
        of the traced and the preceding untraced phase; ``hot`` is the
        :class:`HotCounts` of the counting round.
        """
        n = len(traced)
        run_s = sum(r.seconds for r in traced) / n
        values = {
            "scheduler.stage_s": self.inclusive_s["scheduler"] / n,
            "scheduler.stages": self.counts["scheduler.calls"] / n,
            "scheduler.tasks": self.counts["scheduler.tasks"] / n,
            "scheduler.useful_task_ratio": _ratio(hot.useful, hot.tasks),
            "metrics.calls": hot.metrics_calls,
            "executor.action_s": self.inclusive_s["executor"] / n,
            "executor.jobs": self.counts["executor.calls"] / n,
            "costmodel.stages": self.counts["costmodel.stages"] / n,
            "task.s": self.task_s / n,
            "codegen.compiled_ratio": _ratio(
                sum(r.compiled[0] for r in traced),
                sum(r.compiled[1] for r in traced),
            ),
            "columnar.partitions": self.counts["columnar.partitions"] / n,
            "backend.calls": self.counts["backend.calls"] / n,
            "serde.bytes": self.counts["serde.bytes"] / n,
            "serve.queue_wait_p50_s": (
                statistics.median(w for r in traced for w in r.queue_waits)
                if any(r.queue_waits for r in traced) else 0.0
            ),
            "serve.cache_hit_ratio": _ratio(
                sum(r.cache_hits for r in traced),
                sum(r.cache_hits + r.cache_misses for r in traced),
            ),
            "serve.evictions": sum(r.evictions for r in traced) / n,
        }
        for metric, layer in SELF_METRICS.items():
            values[metric] = self.self_s[layer] / n
        attributed = sum(values[metric] for metric in SELF_METRICS)
        values["driver.s"] = run_s - attributed
        values["trace.run_s"] = run_s
        values["trace.gap_s"] = values["driver.s"] - self.self_s[ROOT] / n
        values["trace.overhead_s"] = (
            statistics.median(r.seconds for r in traced)
            - statistics.median(r.seconds for r in untraced)
        )
        return {name: values[name] for name in UNITS}


class HotCounts:
    """Counts on the hottest paths, taken in one untimed round.

    ``StageMetrics.add_task_*`` runs hundreds of thousands of times a
    round on ``nested-paper``, and every task's partition would have to
    be inspected; wrapping either would bill its cost to the spans
    around it.  So the traced rounds do neither, and one extra round
    after them runs with only these counters installed.  The counts
    are per round and the same for every round of a seed.
    """

    def __init__(self):
        self._patches = []
        self._calls = itertools.count()
        self.metrics_calls = 0
        self.tasks = 0
        self.useful = 0

    def install(self):
        tick = self._calls.__next__

        def counted(fn):
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        patch = functools.partial(_patch, self._patches)
        for name in ("add_task_records", "add_task_seconds",
                     "add_failed_attempt_seconds", "add_task_retries",
                     "add_straggler_tasks"):
            patch(StageMetrics, name, counted)
        patch(TaskScheduler, "run_stage", self._run_stage)
        return self

    def _run_stage(self, fn):
        def run_stage(sched, task, args_list, stage=None, ordinal=None):
            self.tasks += len(args_list)
            self.useful += sum(1 for args in args_list if _non_empty(args))
            return fn(sched, task, args_list, stage, ordinal)

        run_stage.__wrapped__ = fn
        return run_stage

    def uninstall(self):
        _restore(self._patches)
        # ``next`` returns how many calls came before it.
        self.metrics_calls = next(self._calls)


def _patch(patches, owner, name, wrapper_factory):
    original = owner.__dict__[name]
    patches.append((owner, name, original))
    setattr(owner, name, wrapper_factory(original))


def _restore(patches):
    while patches:
        owner, name, original = patches.pop()
        setattr(owner, name, original)


class _RootSpan:
    def __init__(self, profiler):
        self._profiler = profiler
        self._frame = None

    def __enter__(self):
        self._frame = self._profiler.enter(ROOT, root=True)
        return self

    def __exit__(self, *exc):
        self._profiler.exit(self._frame)
        return False


def _non_empty(args):
    """A task does useful work when any partition argument holds data."""
    for arg in args:
        if isinstance(arg, (list, tuple, ColumnarPartition)) and len(arg):
            return True
    return False


def _ratio(part, whole):
    return part / whole if whole else 0.0
