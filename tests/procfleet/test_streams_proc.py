"""Multi-stream ``serve`` frames to the worker process.

One coalesced stream batch crosses the process boundary as a single
round-trip (ring, or pipe); the worker serves every lane from the
shared-memory tables and the whole frame is atomic — all lanes answer,
or the frame misses and nothing is committed.  Epoch skew (a republish
landing between submit and serve) stays invisible: the backend retries
once against the fresh epoch (``run_batch``, its 1-lane case, too).
"""

import os
import signal

import pytest

from repro.exec import TableMiss
from repro.procfleet import (
    ControlBlock,
    ShmTableBackend,
    WorkerCrashed,
    WorkerSession,
)
from repro.workloads.library import ones_detector, sequence_detector
from repro.workloads.suite import traffic_words


@pytest.fixture
def session():
    ctl = ControlBlock.create(1)
    sess = WorkerSession(ctl, slot=0, label="t")
    yield sess
    sess.close()
    ctl.close()


class TestServeStreamsFrame:
    def test_one_frame_serves_ragged_lanes_with_mixed_starts(self, session):
        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        words = [
            w[: (i * 3) % 7]
            for i, w in enumerate(traffic_words(machine, 10, 6, seed=2))
        ]
        starts = [
            None if i % 2 else machine.states[i % len(machine.states)]
            for i in range(len(words))
        ]
        runs = backend.run_streams(words, starts=starts)
        assert len(runs) == len(words)
        for word, start, run in zip(words, starts, runs):
            want = machine.run(
                word, start=machine.reset_state if start is None else start
            )
            assert run.outputs == want

    def test_frame_is_a_pure_query(self, session):
        machine = sequence_detector("1011")
        backend = ShmTableBackend(machine, session)
        words = [list("1011"), list("0110")]
        first = backend.run_streams(words)
        # Serving streams commits nothing: the same frame replays
        # identically, and the sequential lane still starts from reset.
        second = backend.run_streams(words)
        assert [r.outputs for r in first] == [r.outputs for r in second]
        assert backend.run_batch(
            list("1011"), commit=False
        ).outputs == machine.run(list("1011"))

    def test_starts_length_mismatch_refused_in_the_parent(self, session):
        backend = ShmTableBackend(ones_detector(), session)
        with pytest.raises(ValueError, match="start states"):
            backend.run_streams([["0"], ["1"]], starts=["off"])

    def test_epoch_skew_retries_once_transparently(self, session):
        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        words = [list("0110"), list("11")]
        # Another publish moves the shared slot past the backend's
        # remembered epoch; the worker refuses the stale frame, the
        # backend republishes its tables and retries once — nothing
        # surfaces to the caller.
        session.publish(backend.compiled)
        runs = backend.run_streams(words)
        assert [r.outputs for r in runs] == [machine.run(w) for w in words]

    def test_dead_worker_surfaces_as_table_miss(self, session):
        backend = ShmTableBackend(ones_detector(), session)
        backend.run_streams([["0"]])
        os.kill(session.pid, signal.SIGKILL)
        with pytest.raises((TableMiss, WorkerCrashed)):
            backend.run_streams([list("0110"), list("11")])
