"""Host-speed calibration for the timed metrics.

The benchmark runs on a shared host whose speed drifts by a third
within a minute, and the engine's rounds drift with it.  A fixed
pure-Python loop, timed just before and just after each timed span,
measures that drift; :func:`speed_scale` then turns the span's
wall-clock seconds into *reference-host seconds*: the seconds the span
would have taken had the loop run at its reference speed.

The virtual CPUs of such a host drift apart, too, so the loop only
measures the CPU it runs on.  :func:`pin_to_one_cpu` therefore keeps
every thread of the run, and every process it starts, on one CPU.
"""

import gc
import os
import time

#: Iterations of the calibration's dictionary loop and of its
#: arithmetic loop: about 35 ms and 10 ms on the reference host.
DICT_ITERATIONS = 30000
ARITHMETIC_ITERATIONS = 100000
#: The calibration's median seconds on the reference host, a 2-vCPU VM.
REFERENCE_S = 0.045


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU.

    The service's slot thread and the process backend's worker then
    run on the CPU the calibration measures.  The driver mostly waits
    while they run: the client thread for its jobs, the process
    backend for the worker's results.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _key(i):
    return (i * 31 + 7) % 1009


def calibrate():
    """Seconds the calibration takes now.

    It is two fixed loops: one of calls, dictionary updates, tuple
    allocation and a sort, and one of integer arithmetic in a
    generator.  Each alone tracks the drift of the engine's rounds
    less closely than the two together.  The collector is off while
    they run, so that they never time a collection of the workload's
    heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        pairs = []
        for i in range(DICT_ITERATIONS):
            key = _key(i)
            counts[key] = counts.get(key, 0) + 1
            pairs.append((key, i))
        pairs.sort()
        sum(x * x for x in range(ARITHMETIC_ITERATIONS))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(before, after):
    """Reference-host seconds per wall-clock second of a span timed
    between a calibration taking ``before`` and one taking ``after``."""
    return 2 * REFERENCE_S / (before + after)


calibrate()  # warm the loop's bytecode before the first measured call
