"""Vectorized batch execution engine (the serving fast path).

Public surface:

* :class:`CompiledFSM` — an FSM / live RAM snapshot lowered to dense
  next-state and output tables; ``run_word`` walks one stream,
  ``run_streams`` / ``run_stream_batch`` walk many, with the kernel
  picked per call (``kernel=``);
* :func:`stream_kernel` / :func:`numpy_available` — the lane-count
  policy (pure Python always works; numpy is the optional ``fast``
  extra and is used only when importable, ``REPRO_DISABLE_NUMPY`` is
  unset and enough lanes amortize it);
* :class:`StreamBatch` / :class:`StreamRun` / :class:`StreamTables` —
  the multi-stream plane: many independent sessions encoded once and
  stepped together through pre-scaled lane-gather tables;
* :class:`EngineError` / :class:`UnconfiguredEntry` — failure modes that
  mirror the cycle-accurate datapath's, so callers can fall back to it.

See ``docs/engine.md`` for the compile/invalidate lifecycle and the
fleet integration (when batching kicks in, when serving falls back to
the cycle-accurate netlist).
"""

from .compiled import (
    CompiledFSM,
    EngineError,
    UnconfiguredEntry,
    WordRun,
    numpy_available,
)
from .streams import (
    ExpectedOutputs,
    StreamBatch,
    StreamRun,
    StreamTables,
    stream_dtype_name,
    stream_kernel,
)

__all__ = [
    "CompiledFSM",
    "EngineError",
    "ExpectedOutputs",
    "StreamBatch",
    "StreamRun",
    "StreamTables",
    "UnconfiguredEntry",
    "WordRun",
    "numpy_available",
    "stream_dtype_name",
    "stream_kernel",
]
