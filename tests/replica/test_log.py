"""Replica-group configuration, status and table fingerprints.

These tests pin the group's size and majority, how a status counts
in-sync replicas against its quorum, and the table fingerprint that
detects replica divergence.
"""

import pytest

from repro.engine.compiled import CompiledFSM
from repro.replica import (
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
    fingerprint_tables,
    table_fingerprint,
)
from repro.workloads.library import ones_detector, sequence_detector


class TestReplicaConfig:
    def test_defaults_are_three_replicas_majority_quorum(self):
        config = ReplicaConfig()
        assert config.n == 3
        assert config.majority == 2

    @pytest.mark.parametrize("n", [0, -1])
    def test_replica_count_must_be_positive(self, n):
        with pytest.raises(ValueError):
            ReplicaConfig(n=n)


class TestGroupStatus:
    def _status(self, **over):
        replicas = over.pop("replicas", [
            ReplicaStatus("r0", in_sync=True),
            ReplicaStatus("r1", in_sync=True),
            ReplicaStatus("r2", in_sync=False),
        ])
        return ReplicaGroupStatus(
            shard="0", n=3, quorum=2, replicas=replicas,
            **over,
        )

    def test_in_sync_and_quorum(self):
        status = self._status()
        assert status.in_sync == 2
        assert status.quorum_ok

    def test_quorum_lost_when_too_few_in_sync(self):
        status = self._status(replicas=[
            ReplicaStatus("r0", in_sync=True),
            ReplicaStatus("r1", in_sync=False),
            ReplicaStatus("r2", in_sync=False),
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
