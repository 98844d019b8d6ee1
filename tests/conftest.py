"""Shared fixtures: paper machines, random migration pairs, fast EA config."""

from __future__ import annotations

import sys

import pytest

from repro.core.ea import EAConfig
from repro.engine import streams as _streams
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    fig7_m,
    fig7_m_prime,
    ones_detector,
    table1_target,
    zeros_detector,
)
from repro.workloads.mutate import workload_pair


@pytest.fixture
def steer_kernel(monkeypatch):
    """``steer(kernel)`` makes the engine's lane-count policy
    (:func:`repro.engine.streams.stream_kernel`) pick ``kernel`` at
    every lane count, through its one knob, ``STREAM_THRESHOLD``."""

    def steer(kernel: str) -> None:
        threshold = 1 if kernel == "numpy" else sys.maxsize
        monkeypatch.setattr(_streams, "STREAM_THRESHOLD", threshold)

    return steer


@pytest.fixture
def stream_kernels(monkeypatch):
    """``stream_kernels()``: the ``kernel`` attribute of every
    ``engine.run_streams`` span recorded since the test began (tracing
    is on for the test)."""
    from repro.obs.tracing import TRACER

    monkeypatch.setattr(TRACER, "enabled", True)
    TRACER.clear()
    yield lambda: [
        record.attrs.get("kernel") for record in TRACER.spans
        if record.name == "engine.run_streams"
    ]
    TRACER.clear()


@pytest.fixture
def engine(request, steer_kernel):
    """Indirect ``engine`` parameter for fleet tests: a kernel name
    (``python`` / ``numpy``) serves on ``table`` with that kernel
    steered; any backend spelling passes through unchanged."""
    leg = request.param
    if leg not in ("python", "numpy"):
        return leg
    steer_kernel(leg)
    return "table"


@pytest.fixture
def fig6_pair():
    """The Fig. 6 migration pair (3-state M into 4-state M')."""
    return fig6_m(), fig6_m_prime()


@pytest.fixture
def fig7_pair():
    """The Fig. 7 / Example 4.2 pair (single delta transition)."""
    return fig7_m(), fig7_m_prime()


@pytest.fixture
def table1_pair():
    """The Example 2.1 / Table 1 pair (ones detector into Table-1 target)."""
    return ones_detector(), table1_target()


@pytest.fixture
def detector():
    """The Example 2.1 ones detector on its own."""
    return ones_detector()


@pytest.fixture
def mirror():
    """The mirrored zeros detector."""
    return zeros_detector()


@pytest.fixture
def random_pair():
    """A medium random migration pair (8 states, 6 deltas)."""
    return workload_pair(8, 6, seed=11)


@pytest.fixture
def fast_ea():
    """A small EA budget that keeps the test suite quick but effective."""
    return EAConfig(population_size=20, generations=20, seed=1)


def all_input_words(inputs, length):
    """Every input word of the given length (for exhaustive equivalence)."""
    words = [[]]
    for _ in range(length):
        words = [w + [i] for w in words for i in inputs]
    return words
