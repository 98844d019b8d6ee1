"""Instrumented stream batches through the execution layer.

:func:`run_streams` serves N independent *symbol streams* through one
backend's stream plane in a single call, with the ``exec.stream_batch``
journal event recorded per batch.  This is the seam the fleet's
cross-session coalescing and the EA's population replays ride;
:func:`run_stream_plane` is its unmaterialised twin.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.fsm import Input, State
from ..engine.compiled import WordRun
from ..engine.streams import StreamBatch
from ..obs import journal as _journal

__all__ = ["run_stream_plane", "run_streams"]


def run_streams(
    backend,
    words: Sequence[Sequence[Input]],
    starts: Optional[Sequence[Optional[State]]] = None,
    site: str = "exec",
) -> Sequence[WordRun]:
    """Serve many independent streams as one instrumented stream batch.

    Thin accounting shell over ``backend.run_streams`` (same contract:
    submission order, no commit, whole-call
    :class:`~repro.exec.protocol.TableMiss` when any stream cannot be
    served).  ``site`` labels who batched — the fleet's serve path, the
    EA's fitness evaluation, or ad-hoc exec callers.  ``words`` may be a
    pre-encoded :class:`~repro.engine.StreamBatch` (encode once, replay
    against every backend sharing the alphabet) where the backend
    supports it — the in-process table backends do.
    """
    runs = backend.run_streams(words, starts=starts)
    _journal_stream_batch(backend.name, words, site)
    return runs


def run_stream_plane(
    backend,
    batch: StreamBatch,
    starts: Optional[Sequence[Optional[State]]] = None,
    site: str = "exec",
):
    """Serve a pre-encoded batch, returning the raw
    :class:`~repro.engine.StreamRun` (no per-stream materialisation).

    Same accounting as :func:`run_streams`; for consumers that score
    vectorized off the packed matrices — the EA's population scorer —
    through :meth:`~repro.exec.TableBackend.run_stream_plane`.
    """
    run = backend.run_stream_plane(batch, starts=starts)
    _journal_stream_batch(backend.name, batch, site)
    return run


def _journal_stream_batch(name: str, words, site: str) -> None:
    """Journal one served batch (``words`` raw, or a StreamBatch)."""
    journal = _journal.JOURNAL
    if not journal.enabled or not len(words):
        return
    if isinstance(words, StreamBatch):
        n_symbols = words.n_symbols
    else:
        n_symbols = sum(map(len, words))
    journal.record(
        _journal.EXEC_STREAM_BATCH,
        backend=name,
        site=site,
        streams=len(words),
        symbols=n_symbols,
    )
