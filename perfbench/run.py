"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nested-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer spans;
``--trace 1`` runs an untraced phase and then a traced phase and
reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every ``REPRO_*`` environment variable is removed before the engine is
imported, so the caller's environment cannot change what runs.
"""

import os
import sys
import time

from calibration import calibrate, pin_to_one_cpu, speed_scale

pin_to_one_cpu()
CALIBRATION_AT_START = calibrate()
START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

#: Fresh-interpreter set-ups per ``--trace 0`` run, on top of the run's
#: own; ``setup_s`` is the median of all of them.
SETUP_PROBES = 2
#: Minimum rounds per measured phase, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Share of ``--seconds`` the traced run spends untraced (the baseline
#: for ``trace.overhead_s``).
UNTRACED_SHARE = 1 / 3
PROBE_TIMEOUT_S = 150
#: The seed used when ``--seed`` is not given.
DEFAULT_SEED = 1


def _import_engine():
    """Import the benchmark modules; the program comes from ``src/``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    import workloads

    return workloads, layers


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time, exit")
    return parser.parse_args(argv)


def set_up(workloads, args):
    """Build inputs and the workload, start it, run one warm-up round.

    Returns ``(workload, reference-host seconds, warm-up round)``.  The
    seconds run from interpreter start and leave out the calibrations
    and the warm-up round's checks, reference answers included: they
    are the benchmark's own work, not the program's.
    """
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workload.start()
    ready = time.perf_counter()
    started_s = (ready - START) * speed_scale(CALIBRATION_AT_START, calibrate())
    warm = workload.round(calibrate=calibrate)
    return workload, started_s + warm.seconds * warm.scale, warm


def probe_setups(args):
    """Set-up times of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--size", args.size,
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(
                "set-up probe failed (exit %d): %s"
                % (done.returncode, done.stderr.strip()[-2000:])
            )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(workload, seconds, root=None):
    """Whole rounds until ``seconds`` have passed (at least MIN_ROUNDS).

    Untraced rounds calibrate the host's speed around their ops (see
    ``calibration.py``); traced rounds do not.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(workload.round(
            root, calibrate=calibrate if root is None else None
        ))
    return rounds


def percentile(values, share):
    """The ``share`` quantile (``statistics.quantiles``' default method)."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[int(round(share * 100)) - 1]


def end_to_end(rounds, setups):
    """The end-to-end metrics; times are in reference-host seconds."""
    latencies = [
        lat * scale
        for r in rounds
        for lat, scale in zip(r.job_latencies, r.job_scales)
    ]
    return {
        "run_s": (statistics.median(r.seconds * r.scale for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "sim_s": (statistics.median(r.sim_s for r in rounds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (percentile(latencies, 0.90), "s"),
    }


def report(workload, args, rounds, warm, metrics):
    """Print the human-readable lines and the final JSON line."""
    # The warm-up round's ops are checked like every other op.
    attempted = sum(r.ops for r in rounds) + warm.ops
    failed = sum(r.failed for r in rounds) + warm.failed
    fingerprints = {r.fingerprint for r in rounds}
    sims = {r.sim_s for r in rounds}
    jobs = sum(len(r.job_latencies) for r in rounds)
    print("workload %s seed %d size %s trace %d"
          % (args.workload, args.seed, args.size, args.trace))
    print("config %s" % json.dumps(workload.configs(), sort_keys=True))
    quartiles = statistics.quantiles([r.seconds for r in rounds], n=4)
    print("rounds %d ops %d jobs %d round_s_quartiles %s" % (
        len(rounds), attempted, jobs,
        " ".join("%.6f" % q for q in quartiles),
    ))
    print("wall-clock run_s %r speed_scale %r" % (
        statistics.median(r.seconds for r in rounds),
        statistics.median(r.scale for r in rounds),
    ))
    print("fingerprint %s stable %s sim_s %r sim_stable %s" % (
        rounds[0].fingerprint, len(fingerprints) == 1,
        rounds[0].sim_s, len(sims) == 1,
    ))
    print("metric error_rate %r fraction" % (failed / attempted))
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    for error in [e for r in [warm] + rounds for e in r.errors][:5]:
        print("error %s" % error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None):
    try:
        workloads, layers = _import_engine()
    except ImportError as exc:
        print("perfbench: cannot import the engine from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    from repro.engine.runtime.backends import shutdown_pools

    probes = (
        probe_setups(args) if not (args.trace or args.setup_probe) else []
    )
    workload, setup_s, warm = set_up(workloads, args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if not args.trace:
            rounds = measure(workload, args.seconds)
            metrics = end_to_end(rounds, probes + [setup_s])
        else:
            untraced = measure(workload, args.seconds * UNTRACED_SHARE)
            profiler = layers.Profiler().install()
            try:
                traced = measure(
                    workload, args.seconds * (1 - UNTRACED_SHARE),
                    root=profiler.root,
                )
            finally:
                profiler.uninstall()
            hot = layers.HotCounts().install()
            try:
                counted = workload.round()
            finally:
                hot.uninstall()
            rounds = untraced + traced + [counted]
            metrics = {
                name: (value, layers.UNITS[name])
                for name, value in profiler.metrics(
                    traced, untraced, hot
                ).items()
            }
        report(workload, args, rounds, warm, metrics)
        return 0
    finally:
        workload.close()
        shutdown_pools()


if __name__ == "__main__":
    sys.exit(main())
