"""Run metadata and the host reference loop.

The reference loop is a fixed pure-Python workload timed before and
after each measured phase.  It is a diagnostic, not a metric: when a
metric's spread across runs tracks the reference time, the host's own
speed moved, not the program.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Dict

#: ``REPRO_*`` variables that change which code path a workload measures.
LOUD_ENV = ("REPRO_DISABLE_RING", "REPRO_BACKEND", "REPRO_STREAM_THRESHOLD")


def reference_loop_ms() -> float:
    """Wall time of a fixed dict-and-arithmetic loop (about 20 ms here)."""
    table = {(i & 3, s): ((s * 7 + i) & 15, i ^ s) for i in range(4) for s in range(16)}
    started = time.perf_counter()
    state = 0
    acc = 0
    for k in range(200_000):
        state, out = table[(k & 3, state)]
        acc += out
    elapsed = time.perf_counter() - started
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def metadata() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.procfleet.ring import ring_enabled
    from repro.procfleet.session import default_start_method

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "procfleet_start_method": default_start_method(),
        "ring_enabled": ring_enabled(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def warn_env() -> None:
    """Loudly name every set variable that changes the measured path."""
    for name in LOUD_ENV:
        if name in os.environ:
            print(
                f"WARNING: {name}={os.environ[name]!r} is set; this run does "
                "not measure the default code path",
                file=sys.stderr,
            )
