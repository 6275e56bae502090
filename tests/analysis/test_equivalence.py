"""The table-driven differential verifier, over every comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import equivalence
from repro.analysis.equivalence import (
    COMPARISONS,
    EquivalenceError,
    library_programs,
    main,
    results_equivalent,
    verify_library,
    verify_program,
)
from repro.engine import EngineContext
from repro.errors import UdfError

ALL = sorted(COMPARISONS)
OBSERVATIONAL = [
    compare for compare in ALL
    if COMPARISONS[compare].invariant == "observational"
]


def is_variant(ctx, compare):
    """Does ``ctx`` run the variant side of ``compare``?"""
    return all(
        getattr(ctx.config, key) == value
        for key, value in COMPARISONS[compare].variant.items()
    )


def _scale(x):
    return x * 3 + 1


def _keep(x):
    return x % 7 != 0


def _split(x):
    return [x, x + 1]


def _pair(x):
    return (x % 5, x)


def _add(a, b):
    return a + b


def _tag(x):
    return "v%d" % x


# ---------------------------------------------------------------------------
# Registry and result comparison
# ---------------------------------------------------------------------------


def test_registry_covers_every_task_module():
    names = [name for name, _program in library_programs()]
    assert len(names) == len(set(names))
    for fragment in (
        "bounce-rate", "pagerank", "connected", "avg-distances",
        "kmeans", "matrix",
    ):
        assert any(fragment in name for name in names)


def test_results_equivalent_is_order_and_ulp_insensitive():
    assert results_equivalent([(1, 0.1 + 0.2)], [(1, 0.3)])
    assert results_equivalent([("b", 2), ("a", 1)], [("a", 1), ("b", 2)])
    assert not results_equivalent([("a", 1)], [("a", 2)])
    assert not results_equivalent([("a", 1)], [("a", 1), ("a", 1)])
    # Equal keys of different types (True == 1) must sort alike.
    assert results_equivalent([(True, 3), (2, 4)], [(2, 4), (1, 3)])


# ---------------------------------------------------------------------------
# Passing programs and what a Verification reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compare", ALL)
def test_verify_library_subset(compare):
    subset = verify_library(compare=compare, only=["bounce-rate-flat"])
    assert [v.name for v in subset] == ["bounce-rate-flat"]
    assert subset[0].error is None
    if COMPARISONS[compare].invariant == "observational":
        # The signature check pins both sides to the same volume.
        assert (
            subset[0].shuffle_records == subset[0].shuffle_records_variant
        )


def test_verify_program_reports_savings():
    subset = verify_library(compare="elision", only=["bounce-rate-flat"])
    verification = subset[0]
    assert verification.decisions >= 1
    assert verification.shuffle_records_saved > 0
    assert (
        verification.shuffle_records_variant
        < verification.shuffle_records
    )


def test_verify_program_without_elisions_still_passes():
    subset = verify_library(compare="elision", only=["matrix-row-norms"])
    assert subset[0].decisions == 0
    assert (
        subset[0].shuffle_records_variant == subset[0].shuffle_records
    )


def branching_program(ctx):
    left = (
        ctx.bag_of(range(30))
        .map(lambda x: (x % 3, x))
        .reduce_by_key(lambda a, b: a + b)
    )
    right = (
        ctx.bag_of(range(30))
        .map(lambda x: (x % 3, 1))
        .group_by_key()
    )
    return sorted(left.cogroup(right).collect())


@pytest.mark.parametrize("compare", OBSERVATIONAL)
def test_observational_comparisons_pin_shuffle_volume(compare):
    verification = verify_program(
        branching_program, compare=compare, name="branching"
    )
    assert verification.name == "branching"
    assert verification.shuffle_records > 0
    assert (
        verification.shuffle_records
        == verification.shuffle_records_variant
    )


def reuse_program(ctx):
    feats = ctx.bag_of(range(50)).map(lambda x: x * 2)
    return (
        feats.map(lambda x: x + 1).union(feats.map(lambda x: -x)).sum()
    )


def linear_program(ctx):
    return ctx.bag_of(range(30)).map(lambda x: x + 1).sum()


def chain_program(ctx):
    return sorted(
        ctx.bag_of(range(120), num_partitions=4)
        .map(_scale)
        .filter(_keep)
        .flat_map(_split)
        .map(_pair)
        .reduce_by_key(_add)
        .collect()
    )


_impure_calls = {"n": 0}


def _impure(x):
    _impure_calls["n"] += 1
    return x + 1


def impure_program(ctx):
    # The compiler refuses this chain and the compiled run falls back
    # to the interpreter: the comparison is off-vs-on of the flag, not
    # of compilation success.
    return sorted(ctx.bag_of(range(20)).map(_impure).collect())


def proven_program(ctx):
    """All-int chains: schemas prove, commits replace probes."""
    return sorted(
        ctx.bag_of(range(200), num_partitions=4)
        .map(_scale)
        .filter(_keep)
        .map(_pair)
        .reduce_by_key(_add)
        .collect()
    )


def refuted_program(ctx):
    """A str chain: the schema refutes columnar encoding."""
    return sorted(
        ctx.bag_of(range(50), num_partitions=2).map(_tag).collect()
    )


def mixed_program(ctx):
    """Mixed driver data: unknown schemas keep the probe behavior."""
    return sorted(
        ctx.bag_of([1, 2.5, 3, 4.5] * 10, num_partitions=2)
        .map(_scale)
        .collect(),
        key=repr,
    )


@pytest.mark.parametrize(
    "compare, program, low, high",
    [
        ("caching", reuse_program, 1, 1),
        ("caching", linear_program, 0, 0),
        ("compiled", chain_program, 1, None),
        ("compiled", impure_program, 0, 0),
        ("schema", proven_program, 1, None),
        ("schema", refuted_program, 0, 0),
        ("schema", mixed_program, 0, 0),
    ],
    ids=[
        "caching-reuse", "caching-linear", "compiled-chain",
        "compiled-impure", "schema-proven", "schema-refuted",
        "schema-mixed",
    ],
)
def test_decision_count(compare, program, low, high):
    verification = verify_program(program, compare=compare)
    assert verification.decisions >= low
    if high is not None:
        assert verification.decisions <= high
    assert verification.seconds_base > 0
    assert verification.seconds_variant > 0


# ---------------------------------------------------------------------------
# Divergence detection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compare", ALL)
def test_verify_program_rejects_divergent_results(compare):
    def rigged(ctx):
        return [1] if is_variant(ctx, compare) else [0]

    with pytest.raises(EquivalenceError, match="differs"):
        verify_program(rigged, compare=compare, name="rigged")


@pytest.mark.parametrize("compare", ALL)
def test_trace_divergence_is_detected(compare):
    def rigged(ctx):
        bag = ctx.bag_of(range(12)).map(lambda x: (x % 2, x))
        result = sorted(bag.reduce_by_key(lambda a, b: a + b).collect())
        if is_variant(ctx, compare):
            bag.count()  # an extra job only the variant runs
        return result

    # Optimizing comparisons may change stage shapes; they catch the
    # extra job as added simulated time.
    with pytest.raises(EquivalenceError, match="trace|slower"):
        verify_program(rigged, compare=compare, name="rigged-trace")


@pytest.mark.parametrize("compare", ALL)
def test_measured_totals_are_not_compared(compare):
    # A retry is measured runtime behavior: a fault injected on one side
    # only changes nothing deterministic, so it must not fail.
    def program(ctx):
        if is_variant(ctx, compare):
            ctx.fault_injector.kill_task(task_index=0, stage=0)
        return sorted(
            ctx.bag_of(range(16))
            .map(lambda x: (x % 2, x))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )

    verify_program(program, compare=compare, name="retry-wobble")


# ---------------------------------------------------------------------------
# Errors are outcomes
# ---------------------------------------------------------------------------


def _reciprocal(x):
    return 1 // (x - 3)


def _lookup(x):
    return {}[x]


@pytest.mark.parametrize("compare", ALL)
def test_errors_compare_as_outcomes(compare):
    def program(ctx):
        return sorted(ctx.bag_of(range(10)).map(_reciprocal).collect())

    verification = verify_program(program, compare=compare, name="raises")
    assert verification.error == (UdfError, ZeroDivisionError)


@pytest.mark.parametrize("base_udf", [None, _lookup], ids=["value", "cause"])
@pytest.mark.parametrize("compare", ALL)
def test_one_sided_error_raises(compare, base_udf):
    # The base side returns a value, or fails in a different UDF error:
    # both sides then raise UdfError, but with different causes.
    def program(ctx):
        bag = ctx.bag_of(range(10))
        if is_variant(ctx, compare):
            bag = bag.map(_reciprocal)
        elif base_udf is not None:
            bag = bag.map(base_udf)
        return sorted(bag.collect())

    with pytest.raises(EquivalenceError, match="outcomes diverged"):
        verify_program(program, compare=compare, name="one-sided")


# ---------------------------------------------------------------------------
# Resource lifetime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compare", ALL)
def test_every_context_is_closed(compare, monkeypatch):
    closed = []
    original = EngineContext.close

    def counting_close(ctx):
        closed.append(ctx)
        original(ctx)

    monkeypatch.setattr(EngineContext, "close", counting_close)
    verify_program(linear_program, compare=compare)
    with pytest.raises(EquivalenceError):
        verify_program(
            lambda ctx: is_variant(ctx, compare), compare=compare
        )
    assert len(closed) == 4


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_subset_run(capsys):
    assert main(["--only", "pagerank-parallel"]) == 0
    out = capsys.readouterr().out
    for compare in COMPARISONS:
        assert "ok   %-10s pagerank-parallel" % compare in out
    assert "%d verification(s)" % len(COMPARISONS) in out
    assert "0 failure(s)" in out


@pytest.mark.parametrize("compare", ALL)
def test_cli_compare_runs_one_comparison(compare, capsys):
    assert main(["--compare", compare, "--only", "matrix-row-norms"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 1
    assert "ok   %-10s matrix-row-norms" % compare in out


def test_cli_rigged_program_exits_nonzero(capsys, monkeypatch):
    def rigged(ctx):
        return ctx.config.optimize_shuffles

    monkeypatch.setattr(
        equivalence, "library_programs", lambda: [("rigged", rigged)]
    )
    assert main(["--compare", "elision"]) == 1
    out = capsys.readouterr().out
    assert "FAIL elision" in out
    assert "1 failure(s)" in out


def test_cli_program_raising_on_both_sides_fails(capsys, monkeypatch):
    # The same error on both sides is an equivalent outcome, but every
    # library program is meant to return a value.
    def raising(ctx):
        return sorted(ctx.bag_of(range(10)).map(_reciprocal).collect())

    monkeypatch.setattr(
        equivalence, "library_programs", lambda: [("raising", raising)]
    )
    assert main([]) == 1
    out = capsys.readouterr().out
    for compare in COMPARISONS:
        assert (
            "FAIL %-10s raising: both sides raised UdfError from "
            "ZeroDivisionError" % compare
        ) in out
    assert "0 verification(s)" in out
    assert "%d failure(s)" % len(COMPARISONS) in out


# ---------------------------------------------------------------------------
# Random programs against a plain-list reference
# ---------------------------------------------------------------------------

# Keys collide across types: True == 1 and False == 0 hash alike.
_keys = st.sampled_from([0, 1, 2, True, False])
_records = st.lists(st.tuples(_keys, st.integers(-4, 4)), max_size=8)
_ops = st.lists(
    st.sampled_from([
        "map", "filter", "flat_map", "reduce_by_key", "group_by_key",
        "join", "distinct", "union",
    ]),
    min_size=1,
    max_size=4,
)


def _rec_scale(record):
    return (record[0], record[1] * 2 + 1)


def _rec_keep(record):
    return record[1] % 3 != 0


def _rec_split(record):
    return [record, (record[0], record[1] + 1)]


def _fold_sorted(record):
    # Order-sensitive, so an unsorted group would show.
    values = sorted(record[1])
    return (record[0], sum(i * v for i, v in enumerate(values, 1)))


def _joined_diff(record):
    return (record[0], record[1][0] - record[1][1])


def _engine_step(bag, op, other):
    if op == "map":
        return bag.map(_rec_scale)
    if op == "filter":
        return bag.filter(_rec_keep)
    if op == "flat_map":
        return bag.flat_map(_rec_split)
    if op == "reduce_by_key":
        return bag.reduce_by_key(_add)
    if op == "group_by_key":
        return bag.group_by_key().map(_fold_sorted)
    if op == "join":
        return bag.join(other).map(_joined_diff)
    if op == "distinct":
        return bag.distinct()
    return bag.union(other)


def _groups(records):
    groups = {}
    for key, value in records:
        groups.setdefault(key, []).append(value)
    return groups


def _list_step(records, op, other):
    if op == "map":
        return [_rec_scale(r) for r in records]
    if op == "filter":
        return [r for r in records if _rec_keep(r)]
    if op == "flat_map":
        return [out for r in records for out in _rec_split(r)]
    if op == "reduce_by_key":
        return [(k, sum(vs)) for k, vs in _groups(records).items()]
    if op == "group_by_key":
        return [_fold_sorted(item) for item in _groups(records).items()]
    if op == "join":
        return [
            (k, v - w) for k, v in records for k2, w in other if k == k2
        ]
    if op == "distinct":
        return list(dict.fromkeys(records))
    return records + other


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=_records,
    other=_records,
    parts=st.integers(1, 3),
    ops=_ops,
)
def test_random_programs_agree_everywhere(data, other, parts, ops):
    expected = data
    for op in ops:
        expected = _list_step(expected, op, other)
    results = []

    def program(ctx):
        bag = ctx.bag_of(data, num_partitions=parts)
        other_bag = ctx.bag_of(other, num_partitions=1)
        for op in ops:
            bag = _engine_step(bag, op, other_bag)
        results.append(bag.collect())
        return results[-1]

    for compare in ALL:
        verify_program(program, compare=compare, name="random")
    assert len(results) == 2 * len(ALL)
    for result in results:
        assert results_equivalent(result, expected), (ops, result)
