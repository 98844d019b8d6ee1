"""The replicated shard log: indexes, commits, retention, fingerprints.

The log is the paper's one-write-per-cycle discipline made explicit:
every mutation a shard performs is one ordered command.  These tests
pin the log's contract — monotonic indexes, a closed command
vocabulary, monotonic quorum commits, bounded retention — and the
table fingerprint that detects replica divergence.
"""

import pytest

from repro.engine.compiled import CompiledFSM
from repro.replica import (
    ENTRY_KINDS,
    LogEntry,
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
    ShardLog,
    fingerprint_tables,
    table_fingerprint,
)
from repro.workloads.library import ones_detector, sequence_detector


class TestReplicaConfig:
    def test_defaults_are_three_replicas_majority_quorum(self):
        config = ReplicaConfig()
        assert config.n == 3
        assert config.quorum is None
        assert config.majority == 2
        assert config.resolved_quorum() == 2

    def test_explicit_quorum_wins(self):
        assert ReplicaConfig(n=5, quorum=4).resolved_quorum() == 4

    @pytest.mark.parametrize("n", [0, -1])
    def test_replica_count_must_be_positive(self, n):
        with pytest.raises(ValueError):
            ReplicaConfig(n=n)

    @pytest.mark.parametrize("quorum", [0, 4])
    def test_quorum_must_fit_the_group(self, quorum):
        with pytest.raises(ValueError):
            ReplicaConfig(n=3, quorum=quorum)


class TestShardLog:
    def test_indexes_are_monotonic_from_one(self):
        log = ShardLog("0")
        entries = [log.append("serve", cycles=i) for i in range(5)]
        assert [e.index for e in entries] == [1, 2, 3, 4, 5]
        assert log.last_index == 5
        assert log.next_index == 6

    def test_kind_vocabulary_is_closed(self):
        log = ShardLog("0")
        with pytest.raises(ValueError, match="unknown log entry kind"):
            log.append("reboot")
        assert ENTRY_KINDS == {
            "serve", "ram_write", "erase", "retarget", "membership",
        }

    def test_entries_are_immutable(self):
        entry = ShardLog("0").append("serve", cycles=4)
        with pytest.raises(AttributeError):
            entry.index = 99
        assert entry.to_dict() == {
            "index": 1, "kind": "serve", "payload": {"cycles": 4},
        }

    def test_commit_is_monotonic(self):
        log = ShardLog("0")
        for _ in range(3):
            log.append("serve")
        assert log.commit(2) == 2
        # A stale commit can never move the index backwards.
        assert log.commit(1) == 2
        assert log.commit_index == 2

    def test_entries_filter_by_index_and_kind(self):
        log = ShardLog("0")
        log.append("serve")
        log.append("ram_write")
        log.append("serve")
        assert [e.index for e in log.entries(since_index=1)] == [2, 3]
        assert [e.kind for e in log.entries(kind="serve")] == [
            "serve", "serve",
        ]

    def test_retention_bounds_the_ring(self):
        log = ShardLog("0", retention=3)
        for _ in range(5):
            log.append("serve")
        assert len(log) == 3
        assert log.dropped == 2
        assert log.oldest_index == 3

    def test_empty_log_has_no_oldest_entry(self):
        log = ShardLog("0")
        assert log.oldest_index == 0
        assert log.last_index == 0


class TestGroupStatus:
    def _status(self, **over):
        replicas = over.pop("replicas", [
            ReplicaStatus("r0", applied_index=7, in_sync=True),
            ReplicaStatus("r1", applied_index=5, in_sync=True),
            ReplicaStatus("r2", applied_index=0, in_sync=False),
        ])
        return ReplicaGroupStatus(
            shard="0", n=3, quorum=2, commit_index=7, replicas=replicas,
            **over,
        )

    def test_in_sync_and_quorum(self):
        status = self._status()
        assert status.in_sync == 2
        assert status.quorum_ok

    def test_quorum_lost_when_too_few_in_sync(self):
        status = self._status(replicas=[
            ReplicaStatus("r0", applied_index=7, in_sync=True),
            ReplicaStatus("r1", applied_index=0, in_sync=False),
            ReplicaStatus("r2", applied_index=0, in_sync=False),
        ])
        assert not status.quorum_ok

    def test_to_dict_round_trips_the_summary(self):
        as_dict = self._status().to_dict()
        assert as_dict["quorum_ok"] is True
        assert as_dict["in_sync"] == 2
        assert [r["name"] for r in as_dict["replicas"]] == [
            "r0", "r1", "r2",
        ]


class TestFingerprint:
    def test_identical_tables_agree(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        again = CompiledFSM.from_fsm(ones_detector())
        assert table_fingerprint(compiled) == table_fingerprint(again)

    def test_different_machines_differ(self):
        a = CompiledFSM.from_fsm(ones_detector())
        b = CompiledFSM.from_fsm(
            sequence_detector("1011"))
        assert table_fingerprint(a) != table_fingerprint(b)

    def test_single_entry_flip_changes_the_fingerprint(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        before = table_fingerprint(compiled)
        table = list(compiled.next_table)
        table[0] = (table[0] + 1) % compiled.n_states
        after = fingerprint_tables(
            compiled.n_inputs,
            compiled.n_states,
            table,
            compiled.out_table,
            compiled.reset_state,
            table_version=getattr(compiled, "source_version", None),
        )
        assert before != after

    def test_unconfigured_sentinels_are_hashable(self):
        # -1 marks unconfigured words mid-migration; the fingerprint
        # must accept them (signed packing), not wrap or raise.
        fp = fingerprint_tables(2, 2, [-1, 0, 1, -1], [0, 1, 0, 1], 0)
        assert isinstance(fp, int) and fp >= 0
