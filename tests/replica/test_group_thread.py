"""Replica groups against the thread-mode baseline.

Replication is process-mode only; a thread-mode fleet serves one
unreplicated datapath per shard.  These tests pin that a 3-replica
process group is indistinguishable from that baseline to a client:
serving returns the same words, membership changes move the quorum
and come back to three in-sync replicas, and divergence injected into
one replica is detected, healed and leaves serving unchanged.
"""

import os

import pytest

from repro.fleet import FSMFleet
from repro.obs import configure
from repro.obs.journal import JOURNAL, REPLICA_CATCH_UP, REPLICA_DIVERGED
from repro.replica import ReplicaConfig
from repro.workloads.library import sequence_detector
from repro.workloads.suite import traffic_words

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="no /dev/shm for the process fleet's shared-memory tables",
)


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


@pytest.fixture
def fleet():
    source, target = pattern_pair()
    pool = FSMFleet(
        source,
        n_workers=2,
        family=[target],
        queue_depth=256,
        fleet_mode="process",
        replication=ReplicaConfig(n=3),
    )
    yield pool
    pool.close()


def bare_outputs(pool, machine, words):
    """What the bare machine returns for ``words`` served in order, one
    state chain per shard."""
    states, outs = {}, []
    for index, word in enumerate(words):
        shard = pool.shard_for(index)
        state = states.get(shard, machine.reset_state)
        out = []
        for symbol in word:
            state, symbol_out = machine.step(symbol, state)
            out.append(symbol_out)
        states[shard] = state
        outs.append(out)
    return outs


def serve_in_order(pool, words):
    return [
        pool.submit(index, word).result(timeout=60)
        for index, word in enumerate(words)
    ]


class TestServingWithReplication:
    def test_serving_is_transparent(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 10, 8, seed=1)
        baseline = FSMFleet(source, n_workers=2, queue_depth=256)
        try:
            expect = serve_in_order(baseline, words)
        finally:
            baseline.close()
        assert expect == bare_outputs(fleet, source, words)
        assert serve_in_order(fleet, words) == expect


class TestMembership:
    def test_add_then_remove_adjusts_quorum(self, fleet):
        source, _ = pattern_pair()
        serve_in_order(fleet, traffic_words(source, 6, 8, seed=2))
        status = fleet.membership(0, "add").result(timeout=60)
        assert status.n == 4
        assert status.quorum == 3  # the new majority
        assert status.in_sync == 4
        added = status.replicas[-1].name
        status = fleet.membership(0, "remove", added).result(timeout=60)
        assert status.n == 3
        assert status.quorum == 2
        assert status.in_sync == 3
        assert status.quorum_ok


class TestDivergence:
    def test_inject_detect_heal(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 8, 8, seed=3)
        expect = bare_outputs(fleet, source, words + words)
        assert serve_in_order(fleet, words) == expect[:len(words)]
        configure(journal=True)
        try:
            fleet.shards[0].replica_group.inject_divergence("r1", index=3)
            detected = fleet.check_divergence(heal=False)
            assert detected[0] == {"r0": False, "r1": True, "r2": False}
            assert [
                e.fields["replica"]
                for e in JOURNAL.events(type=REPLICA_DIVERGED)
            ] == ["r1"]

            healed = fleet.check_divergence(heal=True)
            assert not any(healed[0].values())
            assert any(
                e.fields["replica"] == "r1"
                for e in JOURNAL.events(type=REPLICA_CATCH_UP)
            )
        finally:
            configure()
        # A second sweep finds every replica on the published tables,
        # and the healed group serves what the bare machine would.
        assert not any(fleet.check_divergence(heal=False)[0].values())
        assert fleet.replicas()[0].in_sync == 3
        offset = len(words)
        outs = [
            fleet.submit(index, word).result(timeout=60)
            for index, word in enumerate(words, start=offset)
        ]
        assert outs == expect[offset:]
