"""Differential verification of the engine's execution-strategy flags.

Each config flag that changes *how* the engine runs a program, not what
it computes, is proven on real programs instead of assumed.  Every
entry of :data:`COMPARISONS` names a base and a variant config, and
:func:`verify_program` runs a program once under each on a fresh
context.  Both runs must pass :func:`repro.engine.validate.validate_trace`
and have the same outcome: equivalent values (up to collection order
and ulp-level float drift, see :func:`results_equivalent`) or the same
exception type (for a :class:`~repro.errors.UdfError`, also the type
the UDF raised).  Each comparison's invariant class then adds:

* ``observational`` (``schedulers``, ``compiled``, ``schema``): an
  identical trace signature and equal run-report totals, simulated
  seconds included, up to the fields derived from measured wall-clock;
* ``optimizing`` (``elision``, ``caching``): the variant is never slower
  in simulated seconds.  ``elision`` also pins each job's action, label
  and stage kinds and bounds its shuffle volume by the base run's;
  ``caching`` compares no stage shapes, since replacing recompute
  stages with a ``cached`` read is the rewrite's point.

:func:`library_programs` covers the whole :mod:`repro.tasks` library.
Without ``--compare`` the CLI runs all five comparisons::

    PYTHONPATH=src python -m repro.analysis.equivalence --backend serial
    PYTHONPATH=src python -m repro.analysis.equivalence --compare schema
"""

import argparse
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, replace

from ..data.generators import (
    clustered_points, component_graph, grouped_edges, grouped_points,
    initial_centroids, visits_log,
)
from ..engine.config import laptop_config
from ..engine.context import EngineContext
from ..engine.validate import trace_signature, validate_trace
from ..errors import PlanError, UdfError
from ..observe.report import entry_from_context
from ..tasks.avg_distances import avg_distances_inner, avg_distances_nested
from ..tasks.bounce_rate import (
    bounce_rate_diql, bounce_rate_flat, bounce_rate_nested,
)
from ..tasks.graphs import connected_components
from ..tasks.kmeans import kmeans_nested_grouped, kmeans_parallel
from ..tasks.matrix import matrix_bag, matrix_vector_product, row_norms
from ..tasks.pagerank import pagerank_nested, pagerank_parallel

__all__ = [
    "COMPARISONS",
    "Comparison",
    "EquivalenceError",
    "Verification",
    "library_programs",
    "results_equivalent",
    "verify_library",
    "verify_program",
    "main",
]


class EquivalenceError(PlanError):
    """The two sides of a comparison disagreed on a program."""


@dataclass(frozen=True)
class Comparison:
    """One differentially verified config flag.

    Attributes:
        base: Config overrides of the reference run.
        variant: Config overrides of the run under test.
        invariant: ``"observational"`` or ``"optimizing"``.
        decision_kind: Optimizer decision kind the variant counts.
        decision_choice: Count only decisions with this choice; None
            counts every choice.
        same_stages: Also pin each job's action, label and stage kinds
            and bound its shuffle volume by the base run's.
    """

    base: dict
    variant: dict
    invariant: str
    decision_kind: str
    decision_choice: str = None
    same_stages: bool = False


#: Every verified flag; the CLI runs them in this order.
COMPARISONS = {
    "elision": Comparison(
        {"optimize_shuffles": False}, {"optimize_shuffles": True},
        "optimizing", "shuffle-elision", same_stages=True,
    ),
    "caching": Comparison(
        {"optimize_caching": False}, {"optimize_caching": True},
        "optimizing", "auto-cache",
    ),
    "schedulers": Comparison(
        {"scheduler": "serial"}, {"scheduler": "dag"},
        "observational", "shuffle-elision",
    ),
    "compiled": Comparison(
        {"compile_pipelines": False}, {"compile_pipelines": True},
        "observational", "compiled-pipeline", "compile",
    ),
    "schema": Comparison(
        {"compile_pipelines": True, "schema_inference": False},
        {"compile_pipelines": True, "schema_inference": True},
        "observational", "columnar-commit", "commit",
    ),
}


@dataclass
class Verification:
    """Outcome of one verified program under one comparison.

    Attributes:
        name: Registry name of the program.
        shuffle_records: Shuffle volume of the base run.
        shuffle_records_variant: Shuffle volume of the variant run.
        shuffle_records_saved: Volume the variant declared elided.
        decisions: The variant's optimizer decisions of the
            comparison's kind (and choice, if it names one).
        seconds_base: Measured wall-clock of the base run; reported,
            never asserted on (machine noise is not correctness).
        seconds_variant: Measured wall-clock of the variant run.
        error: Exception types both runs raised: the error's, then a
            UdfError's wrapped cause's; None if both returned.
    """

    name: str
    shuffle_records: int
    shuffle_records_variant: int
    shuffle_records_saved: int
    decisions: int
    seconds_base: float
    seconds_variant: float
    error: tuple = None


# ----------------------------------------------------------------------
# Program registry: the whole repro.tasks library, seeded and small
# ----------------------------------------------------------------------


def _bounce_rate_flat(ctx):
    visits = ctx.bag_of(visits_log(4, 240, seed=7))
    return sorted(bounce_rate_flat(visits).collect())


def _bounce_rate_nested(ctx):
    visits = ctx.bag_of(visits_log(3, 180, seed=7))
    return sorted(bounce_rate_nested(visits).collect())


def _bounce_rate_diql(ctx):
    visits = ctx.bag_of(visits_log(3, 150, seed=9))
    return sorted(bounce_rate_diql(visits).collect())


def _pagerank_parallel(ctx):
    edges = [edge for _group, edge in grouped_edges(2, 80, seed=13)]
    return pagerank_parallel(ctx, edges, iterations=3)


def _pagerank_nested(ctx):
    grouped = ctx.bag_of(grouped_edges(3, 90, seed=13))
    return sorted(pagerank_nested(grouped, iterations=3).collect())


def _connected_components(ctx):
    edges = component_graph(3, 6, seed=3)
    labels = connected_components(ctx, ctx.bag_of(edges))
    return sorted(labels.collect())


def _avg_distances_nested(ctx):
    edges = component_graph(2, 5, seed=3)
    return sorted(avg_distances_nested(ctx, edges).collect())


def _avg_distances_inner(ctx):
    edges = component_graph(2, 4, seed=9)
    return sorted(avg_distances_inner(ctx, edges))


def _kmeans_nested(ctx):
    points = ctx.bag_of(grouped_points(3, 90, 3, seed=11))
    configs = initial_centroids(3, 3, seed=11)
    result = kmeans_nested_grouped(points, configs, max_iterations=3)
    return sorted(result.collect())


def _kmeans_parallel(ctx):
    points = clustered_points(60, 3, seed=5)
    centroids = initial_centroids(3, 1, seed=5)[0][1]
    return kmeans_parallel(ctx, points, centroids, max_iterations=3)


def _matrix_row_norms(ctx):
    rows = [[(i + j) % 5 + 0.5 for j in range(6)] for i in range(8)]
    return sorted(row_norms(matrix_bag(ctx, rows)).collect())


def _matrix_vector(ctx):
    rows = [[(3 * i + j) % 7 for j in range(5)] for i in range(6)]
    vector = ctx.bag_of([(j, float(j + 1)) for j in range(5)])
    product = matrix_vector_product(matrix_bag(ctx, rows), vector)
    return sorted(product.collect())


def library_programs():
    """``(name, program)`` pairs covering every :mod:`repro.tasks`
    module; each program takes a fresh context and returns a
    deterministic-up-to-partitioning value."""
    return [
        ("bounce-rate-flat", _bounce_rate_flat),
        ("bounce-rate-nested", _bounce_rate_nested),
        ("bounce-rate-diql", _bounce_rate_diql),
        ("pagerank-parallel", _pagerank_parallel),
        ("pagerank-nested", _pagerank_nested),
        ("connected-components", _connected_components),
        ("avg-distances-nested", _avg_distances_nested),
        ("avg-distances-inner", _avg_distances_inner),
        ("kmeans-nested-grouped", _kmeans_nested),
        ("kmeans-parallel", _kmeans_parallel),
        ("matrix-row-norms", _matrix_row_norms),
        ("matrix-vector-product", _matrix_vector),
    ]


# ----------------------------------------------------------------------
# Result comparison
# ----------------------------------------------------------------------


def _blurred(value):
    """Round floats so ulp-level drift cannot change sort order, and
    sort equal bools and ints (``True == 1``) alike."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, tuple):
        return tuple(_blurred(v) for v in value)
    if isinstance(value, list):
        return [_blurred(v) for v in value]
    return value


def _canonical(value):
    """Sort lists recursively: cross-partition order is not meaning."""
    if isinstance(value, list):
        return sorted(
            (_canonical(v) for v in value),
            key=lambda v: repr(_blurred(v)),
        )
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def _approx_equal(a, b, rel_tol=1e-9, abs_tol=1e-12):
    if isinstance(a, float) or isinstance(b, float):
        numbers = isinstance(a, (int, float)) and isinstance(b, (int, float))
        return numbers and math.isclose(
            a, b, rel_tol=rel_tol, abs_tol=abs_tol
        )
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_approx_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(_approx_equal(x, y) for x, y in zip(a, b))
    return a == b


def results_equivalent(a, b):
    """Are two program results equal up to partitioning artifacts?

    Lists are compared as multisets (collection order across partitions
    is an executor artifact) and floats with a tight relative tolerance
    (driver-side folds sum partitions in layout order).
    """
    return _approx_equal(_canonical(a), _canonical(b))


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

#: Run-report total fields derived from measured wall-clock; the only
#: totals an observational flag may change.
_MEASURED_TOTAL_KEYS = frozenset(
    {"retries", "stragglers", "failed_attempt_seconds"}
)


def _comparable_totals(entry):
    """An entry's run-report totals minus the measured-time fields."""
    totals = {key: value for key, value in entry["totals"].items()
              if key not in _MEASURED_TOTAL_KEYS}
    totals["simulated_seconds"] = entry["simulated_seconds"]
    return totals


def _job_shuffle(job):
    return sum(stage.shuffle_read_records for stage in job.stages)


#: Everything one side of a comparison is checked on.
_Run = namedtuple("_Run", "value error trace entry decisions seconds")


def _outcome(exc):
    """An exception's type and, for a UDF failure, its cause's type;
    ``original`` survives the process backend's pickling."""
    if isinstance(exc, UdfError):
        return (UdfError, type(exc.original))
    return (type(exc),)


def _describe(error):
    names = [kind.__name__ for kind in error or ()]
    return " from ".join(names) or "a value"


def _run(program, config, comparison, name):
    with EngineContext(config) as ctx:
        started = time.perf_counter()
        try:
            value, error = program(ctx), None
        except Exception as exc:  # any program failure is an outcome
            value, error = None, _outcome(exc)
        seconds = time.perf_counter() - started
        validate_trace(ctx.trace)
        decisions = sum(
            1 for d in ctx.optimizer_decisions
            if d.kind == comparison.decision_kind
            and comparison.decision_choice in (None, d.choice)
        )
        entry = entry_from_context(ctx, "equivalence", name)
        return _Run(value, error, ctx.trace, entry, decisions, seconds)


def _check_outcomes(name, base, variant):
    if base.error != variant.error:
        raise EquivalenceError(
            "%s: outcomes diverged: %s (variant) vs %s (base)"
            % (name, _describe(variant.error), _describe(base.error))
        )
    if not results_equivalent(base.value, variant.value):
        raise EquivalenceError(
            "%s: variant result differs from base result:\n%r\nvs\n%r"
            % (name, variant.value, base.value)
        )


def _check_observational(name, base, variant):
    signatures = [trace_signature(run.trace) for run in (variant, base)]
    if signatures[0] != signatures[1]:
        raise EquivalenceError(
            "%s: variant run produced a different trace signature:\n"
            "%r\nvs\n%r" % (name, *signatures)
        )
    totals = [_comparable_totals(run.entry) for run in (variant, base)]
    if totals[0] != totals[1]:
        raise EquivalenceError(
            "%s: variant run reports different totals:\n%r\nvs\n%r"
            % (name, *totals)
        )


def _check_optimizing(name, base, variant):
    seconds = [run.entry["simulated_seconds"] for run in (variant, base)]
    if seconds[0] > seconds[1] + 1e-9:
        raise EquivalenceError(
            "%s: variant run is slower: %.6f simulated seconds vs %.6f "
            "for the base run" % (name, *seconds)
        )


def _check_stages(name, base_trace, variant_trace):
    if len(base_trace.jobs) != len(variant_trace.jobs):
        raise EquivalenceError(
            "%s: traces diverged: variant run submitted %d jobs, base %d"
            % (name, len(variant_trace.jobs), len(base_trace.jobs))
        )
    for base, variant in zip(base_trace.jobs, variant_trace.jobs):
        where = "%s job %d" % (name, base.job_id)
        shapes = [
            (job.action, job.label, [stage.kind for stage in job.stages])
            for job in (variant, base)
        ]
        if shapes[0] != shapes[1]:
            raise EquivalenceError(
                "%s: action, label or stage kinds diverged: %r vs %r"
                % (where, *shapes)
            )
        shuffles = _job_shuffle(variant), _job_shuffle(base)
        if shuffles[0] > shuffles[1]:
            raise EquivalenceError(
                "%s: the variant run shuffles more (%d) than the base "
                "run (%d)" % (where, *shuffles)
            )


def verify_program(program, compare="elision", config=None,
                   name="<program>"):
    """Prove one program unchanged by one comparison's flag.

    Args:
        program: Callable taking a fresh :class:`EngineContext` and
            returning a comparable value.
        compare: Key of the comparison in :data:`COMPARISONS`.
        config: Config the comparison's overrides apply to; defaults
            to ``laptop_config()``.
        name: Label for error messages and the report line.

    Returns:
        A :class:`Verification` of the two runs.

    Raises:
        EquivalenceError: When an invariant of the comparison fails.
    """
    comparison = COMPARISONS[compare]
    config = config if config is not None else laptop_config()
    base, variant = (
        _run(program, replace(config, **overrides), comparison, name)
        for overrides in (comparison.base, comparison.variant)
    )
    _check_outcomes(name, base, variant)
    if comparison.invariant == "observational":
        _check_observational(name, base, variant)
    else:
        _check_optimizing(name, base, variant)
    if comparison.same_stages:
        _check_stages(name, base.trace, variant.trace)
    return Verification(
        name=name,
        shuffle_records=sum(map(_job_shuffle, base.trace.jobs)),
        shuffle_records_variant=sum(map(_job_shuffle, variant.trace.jobs)),
        shuffle_records_saved=sum(
            stage.shuffle_records_saved
            for job in variant.trace.jobs
            for stage in job.stages
        ),
        decisions=variant.decisions,
        seconds_base=base.seconds,
        seconds_variant=variant.seconds,
        error=base.error,
    )


def _selected(only):
    """Registry programs whose name contains a fragment of ``only``;
    all of them if ``only`` is empty."""
    return [
        (name, program) for name, program in library_programs()
        if not only or any(fragment in name for fragment in only)
    ]


def verify_library(compare="elision", config=None, only=None):
    """Verify the registry programs :func:`_selected` by ``only``;
    returns the Verification list."""
    return [
        verify_program(program, compare=compare, config=config, name=name)
        for name, program in _selected(only)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.equivalence",
        description="Differential verifier: every repro.tasks program "
        "must give equivalent results, and keep its comparison's "
        "invariants, on both sides of each verified config flag.",
    )
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="task runtime backend for every run (default: serial)",
    )
    parser.add_argument(
        "--compare", choices=tuple(COMPARISONS), default=None,
        help="verify this comparison only (default: all five)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the process backend (default: 2)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="SUBSTRING",
        help="verify only programs whose name contains SUBSTRING "
        "(repeatable)",
    )
    args = parser.parse_args(argv)
    config = replace(
        laptop_config(), backend=args.backend, num_workers=args.workers
    )
    failures = verified = 0
    for compare in [args.compare] if args.compare else COMPARISONS:
        for name, program in _selected(args.only):
            try:
                v = verify_program(
                    program, compare=compare, config=config, name=name
                )
                if v.error is not None:
                    # Every library program is meant to return a value.
                    raise EquivalenceError(
                        "%s: both sides raised %s"
                        % (name, _describe(v.error))
                    )
            except EquivalenceError as error:
                failures += 1
                print("FAIL %-10s %s" % (compare, error))
                continue
            verified += 1
            print(
                "ok   %-10s %-24s shuffle %6d -> %6d  (saved %d, %d %s, "
                "wall %.3fs -> %.3fs)"
                % (
                    compare, v.name, v.shuffle_records,
                    v.shuffle_records_variant, v.shuffle_records_saved,
                    v.decisions, COMPARISONS[compare].decision_kind,
                    v.seconds_base, v.seconds_variant,
                )
            )
    print(
        "repro.analysis.equivalence: %d verification(s) on the %s "
        "backend, %d failure(s)" % (verified, args.backend, failures)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
