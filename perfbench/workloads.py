"""The benchmark's workloads.

Each workload generates its inputs from a seed at construction time,
then runs *rounds*: one round is the fixed unit of work whose
wall-clock is ``run_s``.  A round runs several *ops* (program runs or
service jobs); every op is checked against a plain-Python reference,
and its traces are validated and fingerprinted.

Every :class:`~repro.engine.config.ClusterConfig` is built with each
environment-backed field given explicitly (see :func:`pinned`), so a
``REPRO_*`` variable in the caller's environment cannot change what a
workload runs.
"""

import collections
import contextlib
import dataclasses
import functools
import hashlib
import math
import random
import time
import types

from calibration import speed_scale
from repro.data import grouped_edges, grouped_points, initial_centroids, visits_log
from repro.engine import ClusterConfig, EngineContext, paper_cluster_config
from repro.engine.validate import trace_signature, validate_job
from repro.observe import report as observe_report
from repro.serve import JobService
from repro.serve.client import program as service_program
from repro.tasks import bounce_rate, kmeans, pagerank

#: Every ClusterConfig field whose default reads a ``REPRO_*`` variable,
#: plus the scheduling knobs that default from the host CPU count.
PINNED = {
    "backend": "serial",
    "num_workers": 1,
    "scheduler": "serial",
    "max_concurrent_stages": 1,
    "straggler_factor": 1.5,
    "optimize_shuffles": True,
    "optimize_caching": False,
    "speculative_execution": False,
    "compile_pipelines": False,
    "schema_inference": False,
    "validate_traces": True,
}

#: Relative tolerance for float results (summation order differs
#: between the engine and the references).
REL_TOL = 1e-9
ABS_TOL = 1e-12

def pinned(factory=ClusterConfig, **overrides):
    """A config with every environment-backed field set explicitly."""
    fields = dict(PINNED)
    fields.update(overrides)
    return factory(**fields)


def describe_config(config):
    """The resolved config as a JSON-ready dict."""
    return dataclasses.asdict(config)


def near(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_floats(got, want):
    """Element-wise ``close`` over equally shaped nested tuples."""
    if isinstance(want, (tuple, list)):
        return (
            isinstance(got, (tuple, list))
            and len(got) == len(want)
            and all(same_floats(g, w) for g, w in zip(got, want))
        )
    return near(got, want)


def same_float_maps(got, want):
    return set(got) == set(want) and all(
        near(got[key], want[key]) for key in want
    )


def digest(signatures):
    """Short stable digest of a list of trace signatures."""
    return hashlib.sha256(repr(signatures).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Round:
    """Outcome of one round."""

    seconds: float
    ops: int = 0
    failed: int = 0
    sim_s: float = 0.0
    fingerprint: str = ""
    job_latencies: list = dataclasses.field(default_factory=list)
    #: Optimizer decisions of kind ``compiled-pipeline``: (compiled, all).
    compiled: tuple = (0, 0)
    #: Service-only: per-job queue waits and artifact-cache deltas.
    queue_waits: list = dataclasses.field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    errors: list = dataclasses.field(default_factory=list)
    #: Reference-host seconds per wall-clock second of the round and
    #: of each job (see ``calibration.py``); 1.0 when not calibrated.
    #: ``seconds`` and ``job_latencies`` stay wall-clock.
    scale: float = 1.0
    job_scales: list = dataclasses.field(default_factory=list)
    #: Seconds spent checking results and fingerprinting traces after
    #: the round's clock stopped.  Reference answers are built lazily
    #: (``functools.cache``) on the first check, so they fall in here and
    #: not in the set-up time.
    check_s: float = 0.0


def _compile_decisions(decisions):
    kinds = [d for d in decisions if d.kind == "compiled-pipeline"]
    return sum(1 for d in kinds if d.choice == "compile"), len(kinds)


@dataclasses.dataclass
class Program:
    """One batch op: ``run(ctx)`` on a fresh context, then ``check``."""

    name: str
    config: ClusterConfig
    run: object
    check: object


class BatchWorkload:
    """Rounds of figure-cell program runs, one fresh context each.

    The timed part of an op is what one figure cell costs a user: the
    program run, ``ctx.validate_trace()``, ``ctx.simulated_seconds()``
    and :func:`repro.observe.entry_from_context`.  Results are checked
    after the round's clock stops.
    """

    name = ""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.programs = []

    def configs(self):
        return {prog.name: describe_config(prog.config) for prog in self.programs}

    def start(self):
        pass

    def close(self):
        pass

    def round(self, root=None, calibrate=None):
        """Run every program once; ``root`` wraps the timed region.

        Each program run is one job: its latency is the op's wall-clock.
        ``calibrate``, if given, runs before the first op and after
        every op, off the round's clock, and scales each job by the
        two calibrations around it.
        """
        outcomes = []
        latencies = []
        calibrations = [calibrate()] if calibrate is not None else []
        calibrating = 0.0
        start = time.perf_counter()
        with root() if root is not None else contextlib.nullcontext():
            for prog in self.programs:
                began = time.perf_counter()
                outcomes.append(self._run_op(prog))
                ended = time.perf_counter()
                latencies.append(ended - began)
                if calibrate is not None:
                    calibrations.append(calibrate())
                    calibrating += time.perf_counter() - ended
        checked = time.perf_counter()
        result = Round(seconds=checked - start - calibrating,
                       job_latencies=latencies)
        if calibrate is None:
            result.job_scales = [1.0] * len(latencies)
        else:
            result.job_scales = [
                speed_scale(before, after)
                for before, after in zip(calibrations, calibrations[1:])
            ]
            result.scale = sum(
                lat * scale
                for lat, scale in zip(latencies, result.job_scales)
            ) / sum(latencies)
        signatures = []
        compiled = [0, 0]
        for prog, (value, error, sim, ctx) in zip(self.programs, outcomes):
            result.ops += 1
            result.sim_s += sim
            signatures.append(trace_signature(ctx.trace))
            done, total = _compile_decisions(ctx.optimizer_decisions)
            compiled[0] += done
            compiled[1] += total
            if error is None and not prog.check(value):
                error = "%s: result differs from the reference" % prog.name
            if error is not None:
                result.failed += 1
                result.errors.append(error)
        result.fingerprint = digest(signatures)
        result.compiled = tuple(compiled)
        result.check_s = time.perf_counter() - checked
        return result

    @staticmethod
    def _run_op(prog):
        ctx = EngineContext(prog.config, trace=False)
        value, error, sim = None, None, 0.0
        try:
            value = prog.run(ctx)
            ctx.validate_trace()
            sim = ctx.simulated_seconds()
            observe_report.entry_from_context(ctx, prog.name, 0)
        except Exception as exc:  # noqa: BLE001 -- counted as a failed op
            error = "%s: %s: %s" % (prog.name, type(exc).__name__, exc)
        finally:
            ctx.close()
        return value, error, sim, ctx


# ---------------------------------------------------------------------------
# Paper programs in flattened form
# ---------------------------------------------------------------------------

_K = 4


def _kmeans_program(name, config, groups, points, iterations, seed):
    records = grouped_points(groups, points, _K, seed=seed)
    configs = initial_centroids(_K, groups, seed=seed + 1)

    @functools.cache
    def want():
        by_group = collections.defaultdict(list)
        for config_id, point in records:
            by_group[config_id].append(point)
        return {
            config_id: kmeans.kmeans_reference(
                by_group[config_id], centroids,
                max_iterations=iterations, tolerance=None,
            )[0]
            for config_id, centroids in configs
            if by_group[config_id]
        }

    def run(ctx):
        return kmeans.kmeans_nested_grouped(
            ctx.bag_of(records), configs,
            max_iterations=iterations, tolerance=None,
        ).collect(label="kmeans models")

    def check(got):
        got, expected = dict(got), want()
        return set(got) == set(expected) and all(
            same_floats(got[key], expected[key]) for key in expected
        )

    return Program(name, config, run, check)


def _pagerank_program(name, config, groups, edges, iterations, seed):
    records = grouped_edges(groups, edges, seed=seed)

    @functools.cache
    def want():
        by_group = collections.defaultdict(list)
        for group_id, edge in records:
            by_group[group_id].append(edge)
        return {
            (group_id, vertex): rank
            for group_id, group_edges in by_group.items()
            for vertex, rank in pagerank.pagerank_reference(
                group_edges, iterations=iterations
            )[0].items()
        }

    def run(ctx):
        return pagerank.pagerank_nested(
            ctx.bag_of(records), iterations=iterations
        ).collect(label="pagerank ranks")

    def check(got):
        ranks = {(group_id, vertex): rank for group_id, (vertex, rank) in got}
        return len(ranks) == len(got) and same_float_maps(ranks, want())

    return Program(name, config, run, check)


def _bounce_rate_program(name, config, groups, visits, seed):
    records = visits_log(groups, visits, seed=seed)
    want = functools.cache(
        lambda: bounce_rate.bounce_rate_reference(records)
    )

    def run(ctx):
        return bounce_rate.bounce_rate_nested(ctx.bag_of(records)).collect(
            label="bounce rates"
        )

    def check(got):
        return len(dict(got)) == len(got) and same_float_maps(
            dict(got), want()
        )

    return Program(name, config, run, check)


class NestedPaper(BatchWorkload):
    """The paper's three flattened programs at 1,200 partitions per stage.

    One iteration each keeps an op short (20 to 25 stages), so that a
    run holds as many program runs as the 1,200-task stages allow.
    """

    name = "nested-paper"
    SIZES = {
        "full": {"groups": 8, "points": 512, "edges": 1024, "visits": 2048,
                 "iterations": 1},
        "tiny": {"groups": 2, "points": 64, "edges": 64, "visits": 128,
                 "iterations": 1},
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        s = self.SIZES[size]
        config = pinned(paper_cluster_config)
        self.programs = [
            _kmeans_program("kmeans_nested_grouped", config, s["groups"],
                            s["points"], s["iterations"], seed),
            _pagerank_program("pagerank_nested", config, s["groups"],
                              s["edges"], s["iterations"], seed + 2),
            _bounce_rate_program("bounce_rate_nested", config, s["groups"],
                                 s["visits"], seed + 3),
        ]


class NestedProcess(BatchWorkload):
    """The K-means program on the process backend with one worker.

    Six partitions per stage (one machine of two cores, the paper's
    parallelism factor of 3) and half of ``nested-paper``'s groups keep
    an op near 0.15 s, so a 25 s run holds well over 100 program runs.
    Every stage still makes a round trip to the worker.
    """

    name = "nested-process"
    SIZES = {
        "full": {"groups": 4, "points": 256, "iterations": 1},
        "tiny": {"groups": 2, "points": 64, "iterations": 1},
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        s = self.SIZES[size]
        config = pinned(
            paper_cluster_config, machines=1, cores_per_machine=2,
            backend="process", num_workers=1,
        )
        self.programs = [
            _kmeans_program("kmeans_nested_grouped", config, s["groups"],
                            s["points"], s["iterations"], seed),
        ]


# ---------------------------------------------------------------------------
# UDF pipelines: compiled loops over dense partitions
# ---------------------------------------------------------------------------
#
# Module-level and provably pure on purpose: the codegen gate compiles
# only chains whose UDFs the effect analysis proves pure.


def _u_scale(x):
    return x * 3 + 1


def _u_mix(x):
    return x ^ (x >> 3)


def _u_keep(x):
    return x % 7 != 0


def _u_pair(x):
    return [x, x + 1]


def _u_shift(x):
    return x * 2 - 5


def _u_sparse(x):
    return x % 11 != 3


def _u_offset(x):
    return x + 13


def _u_odd(x):
    return x % 2 == 1


def _u_bucket(x):
    return x % 1000


def _k_pair(x):
    return ("k%02d" % (x % 64), x * 0.5)


def _k_keep(kv):
    return kv[1] % 3.0 != 1.0


def _k_scale(kv):
    return (kv[0], kv[1] * 1.5 + 1.0)


def _k_split(kv):
    return [kv, (kv[0], kv[1] * 0.25)]


def _k_damp(kv):
    return (kv[0], kv[1] * 0.001)


def _k_add(a, b):
    return a + b


_INT_HEAD = ((map, _u_scale), (map, _u_mix), (filter, _u_keep),
             ("flat_map", _u_pair), (map, _u_shift), (filter, _u_sparse))
_INT_TAIL = ((map, _u_offset), (filter, _u_odd), (map, _u_bucket))
_KEYED = ((map, _k_pair), (filter, _k_keep), (map, _k_scale),
          ("flat_map", _k_split), (map, _k_damp))


def _apply_plain(steps, records):
    """The chain in plain Python: the reference semantics."""
    out = list(records)
    for kind, fn in steps:
        if kind is map:
            out = [fn(x) for x in out]
        elif kind is filter:
            out = [x for x in out if fn(x)]
        else:
            out = [y for x in out for y in fn(x)]
    return out


def _apply_bag(steps, bag):
    for kind, fn in steps:
        if kind is map:
            bag = bag.map(fn)
        elif kind is filter:
            bag = bag.filter(fn)
        else:
            bag = bag.flat_map(fn)
    return bag


class UdfPipeline(BatchWorkload):
    """Long compiled map/filter/flat_map chains over 8 dense partitions.

    The int chain's schema is proven: its head commits to columnar
    storage and, after a cache boundary, its tail reads the columns
    directly.  The keyed ``(str, float)`` chain's schema is refuted
    (no encode) and it ends in ``reduce_by_key`` over 8 buckets.
    """

    name = "udf-pipeline"
    PARTITIONS = 8
    SIZES = {"full": {"records": 40000}, "tiny": {"records": 4000}}

    def __init__(self, seed, size):
        super().__init__(seed, size)
        n = self.SIZES[size]["records"]
        rng = random.Random(seed)
        ints = [rng.randrange(1 << 20) for _ in range(n)]
        keyed = [rng.randrange(1 << 16) for _ in range(n)]
        config = pinned(
            machines=2, cores_per_machine=4, parallelism_factor=1,
            compile_pipelines=True, schema_inference=True,
        )
        parts = self.PARTITIONS

        @functools.cache
        def want():
            sums = {}
            for key, value in _apply_plain(_KEYED, keyed):
                sums[key] = sums.get(key, 0.0) + value
            return (
                sorted(_apply_plain(_INT_TAIL, _apply_plain(_INT_HEAD, ints))),
                sums,
            )

        def run(ctx):
            head = _apply_bag(
                _INT_HEAD, ctx.bag_of(ints, num_partitions=parts)
            ).cache()
            int_out = _apply_bag(_INT_TAIL, head).collect(label="int chain")
            keyed_out = _apply_bag(
                _KEYED, ctx.bag_of(keyed, num_partitions=parts)
            ).reduce_by_key(_k_add, num_partitions=parts).collect(
                label="keyed chain"
            )
            return int_out, keyed_out

        def check(got):
            int_out, keyed_out = got
            want_ints, sums = want()
            return (
                sorted(int_out) == want_ints
                and len(dict(keyed_out)) == len(keyed_out)
                and same_float_maps(dict(keyed_out), sums)
            )

        self.programs = [Program("udf-pipeline", config, run, check)]


# ---------------------------------------------------------------------------
# The job service under a mixed read/write job stream
# ---------------------------------------------------------------------------


def _service_edges(num_groups, total_edges, seed):
    """The edge list the registered ``pagerank`` program builds."""
    return [
        ("%s:%d" % (gid, src), "%s:%d" % (gid, dst))
        for gid, (src, dst) in grouped_edges(num_groups, total_edges, seed=seed)
    ]


def _service_reference(params):
    """Reference ranks of one ``pagerank`` service job."""
    edges = _service_edges(
        params["num_groups"], params["total_edges"], params["seed"]
    )
    return pagerank.pagerank_reference(
        edges, iterations=params["iterations"]
    )[0]


class ServeMixed:
    """A one-slot :class:`JobService` fed by one closed-loop client.

    The client keeps two jobs outstanding and alternates two tenants.
    The job mix follows the ``serve-pagerank`` cells of ``repro.bench``
    (``repro/bench/baseline.py``), which submit the registered
    ``pagerank`` program three times with the same parameters
    (``_SERVE_REPEATS``) at 1,024 edges and 2 iterations: the first
    submission builds the graph's artifacts and the other two read
    them and adopt its layout.  A round walks ``graphs`` graphs that
    way.  The artifact budget holds one graph's artifacts (about
    300 KB at full size) but not two, so every build evicts the
    previous graph.  Every timed round starts with the last graph of
    the round before it (the warm-up round's, for the first) in the
    cache, so every timed round starts from the same cache state.
    """

    name = "serve-mixed"
    TENANTS = ("alpha", "beta")
    OUTSTANDING = 2
    #: Submissions per graph, as in the ``serve-pagerank`` bench cells.
    REPEATS = 3
    SIZES = {
        "full": {"groups": 8, "edges": 1024, "iterations": 2,
                 "graphs": 8, "budget": 448 * 1024},
        "tiny": {"groups": 2, "edges": 120, "iterations": 2,
                 "graphs": 3, "budget": 56 * 1024},
    }

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        s = self.SIZES[size]
        self.config = pinned(machines=2, cores_per_machine=4,
                             parallelism_factor=2)
        rng = random.Random(seed)
        self.params = [
            {"num_groups": s["groups"], "total_edges": s["edges"],
             "iterations": s["iterations"], "seed": graph_seed}
            for graph_seed in rng.sample(range(1, 1 << 20), s["graphs"])
        ]
        self.want = [
            functools.cache(functools.partial(_service_reference, p))
            for p in self.params
        ]
        # Job i of every round: (tenant, index into params).
        self.jobs = [
            (self.TENANTS[i % 2], i // self.REPEATS)
            for i in range(s["graphs"] * self.REPEATS)
        ]
        self.budget = s["budget"]
        self.service = None

    def configs(self):
        return {"service": describe_config(self.config),
                "cache_limit_bytes": self.budget,
                "num_slots": 1, "outstanding": self.OUTSTANDING}

    def start(self):
        self.service = JobService(
            config=self.config, num_slots=1,
            cache_limit_bytes=self.budget, seed=self.seed,
        )
        for tenant in self.TENANTS:
            self.service.add_tenant(tenant, max_pending=self.OUTSTANDING)
        self.service.start()

    def close(self):
        if self.service is not None:
            self.service.shutdown(timeout=60)
            self.service = None

    def round(self, root=None, calibrate=None):
        # ``root`` is unused: service jobs run on the service's own
        # slot thread, whose root span is JobService._execute.  Jobs
        # overlap, so ``calibrate`` runs only before and after the
        # round, off its clock, and every job gets the round's scale.
        before_s = calibrate() if calibrate is not None else None
        cache = self.service.cache
        before = (cache.hits, cache.misses, cache.evictions)
        handles = []
        pending = collections.deque()
        refused = []
        start = time.perf_counter()
        for tenant, which in self.jobs:
            if len(pending) == self.OUTSTANDING:
                _wait(pending.popleft())
            try:
                handle = self.service.submit(
                    tenant, service_program("pagerank", **self.params[which]),
                    label="pagerank-%d" % which,
                )
            except Exception as exc:  # noqa: BLE001 -- refused job
                refused.append("%s: %s" % (type(exc).__name__, exc))
                continue
            handles.append((which, handle))
            pending.append(handle)
        while pending:
            _wait(pending.popleft())
        checked = time.perf_counter()
        result = Round(seconds=checked - start, ops=len(self.jobs))
        if calibrate is not None:
            result.scale = speed_scale(before_s, calibrate())
        result.failed = len(refused)
        result.errors.extend(refused)
        signatures = []
        compiled = [0, 0]
        for which, handle in handles:
            try:
                value = handle.result(timeout=0)
            except Exception as exc:  # noqa: BLE001 -- counted as a failed op
                result.failed += 1
                result.errors.append("%s: %s" % (type(exc).__name__, exc))
                continue
            accounting = handle.accounting
            result.job_latencies.append(
                handle.queue_wait_seconds + handle.wall_seconds
            )
            result.queue_waits.append(handle.queue_wait_seconds)
            result.sim_s += accounting.simulated_seconds
            signatures.append(
                trace_signature(types.SimpleNamespace(jobs=accounting.jobs))
            )
            done, total = _compile_decisions(accounting.decisions)
            compiled[0] += done
            compiled[1] += total
            try:
                for job in accounting.jobs:
                    validate_job(job)
            except Exception as exc:  # noqa: BLE001 -- counted as a failed op
                result.failed += 1
                result.errors.append("trace: %s" % exc)
                continue
            if not same_float_maps(value, self.want[which]()):
                result.failed += 1
                result.errors.append(
                    "pagerank-%d: result differs from the reference" % which
                )
        result.job_scales = [result.scale] * len(result.job_latencies)
        result.fingerprint = digest(signatures)
        result.compiled = tuple(compiled)
        result.cache_hits = cache.hits - before[0]
        result.cache_misses = cache.misses - before[1]
        result.evictions = cache.evictions - before[2]
        result.check_s = time.perf_counter() - checked
        return result


def _wait(handle):
    """Block until ``handle`` is done; errors are read after the round."""
    try:
        handle.result(timeout=120)
    except Exception:  # noqa: BLE001 -- read again after the round
        pass


WORKLOADS = {
    cls.name: cls
    for cls in (NestedPaper, UdfPipeline, ServeMixed, NestedProcess)
}
