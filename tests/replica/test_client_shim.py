"""The FleetClient surface: first-class, warning-free, no pass-through.

The supported surface — the serving verbs, the replica-group verbs,
the first-class metadata properties and ``client.fleet`` — is
warning-free.  The old raw-fleet pass-through is gone: any other
attribute raises ``AttributeError`` and pool-level machinery is reached
through ``client.fleet``.
"""

import warnings

import pytest

from repro import api
from repro.fleet import FSMFleet
from repro.fleet.client import FleetClient
from repro.replica import ReplicaConfig
from repro.workloads.library import sequence_detector


@pytest.fixture
def client():
    # Replication is a process-mode feature.
    handle = api.serve(
        sequence_detector("1011"),
        n_workers=2,
        options=api.Options(replicas=3, fleet_mode="process"),
    )
    with handle:
        yield handle


class TestDeprecatedPassThrough:
    """The raw-fleet pass-through is removed: no forwarding, no warning."""

    def test_unknown_attribute_raises_without_warning(self, client):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(AttributeError):
                client.no_such_surface
        assert record == []


class TestWarningFreeSurface:
    def test_fleet_escape_hatch_is_silent(self, client):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error", DeprecationWarning)
            assert isinstance(client.fleet, FSMFleet)
        assert record == []

    def test_first_class_attributes_are_silent(self, client):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error", DeprecationWarning)
            assert client.machine.name == "detect_1011"
            assert client.name
            assert client.engine
            assert client.fleet_mode == "process"
            assert client.n_workers == 2
            assert client.replication is not None
        with pytest.raises(AttributeError):
            client.engine = "python"  # read-only: the fleet owns it
        assert record == []

    def test_serving_verbs_are_silent(self, client):
        machine = sequence_detector("1011")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error", DeprecationWarning)
            out = client.submit(0, list("1011")).result(timeout=30)
            assert out == machine.run(list("1011"))
            lane = client.stream_session(0, session="shim")
            assert lane.submit(list("10")).result(timeout=30)
            client.drain()
            assert client.health().status in ("ok", "degraded")
            assert client.stats() and client.totals().batches_ok
        assert record == []

    def test_replica_verbs_are_silent(self, client):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error", DeprecationWarning)
            groups = client.replicas()
            assert set(groups) == {0, 1}
            assert all(g.n == 3 for g in groups.values())
            status = client.replace_replica(0, "r1").result(timeout=30)
            assert status.in_sync == 3
        assert record == []


class TestShimMechanics:
    def test_client_does_not_leak_private_fleet_attrs_with_warning(self):
        pool = FSMFleet(sequence_detector("1011"), n_workers=1)
        client = FleetClient(pool)
        try:
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                with pytest.raises(AttributeError):
                    client._closed  # the pool's, not the client's
                with pytest.raises(AttributeError):
                    client.shard_for  # pool surface: client.fleet only
                assert client.fleet.shard_for(0) == 0
            assert record == []
        finally:
            client.close()

    def test_replication_none_without_replicas(self):
        with api.serve(sequence_detector("1011"), n_workers=1) as client:
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("error", DeprecationWarning)
                assert client.replication is None
                assert client.replicas() == {}
            assert record == []
