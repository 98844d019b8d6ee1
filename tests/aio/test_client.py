"""The FleetClient serving handle returned by ``api.serve``.

The redesign's contract: a curated surface (sync submit, async submit,
stream sessions, live migration, health) on equal footing, the raw
fleet reachable undeprecated via ``client.fleet``, and every *other*
old raw-fleet attribute still working behind a ``DeprecationWarning``.
"""

import asyncio
import warnings

import pytest

from repro import api
from repro.api import Options
from repro.fleet import FleetClient, FSMFleet, StreamSession
from repro.workloads.library import ones_detector, sequence_detector


@pytest.fixture
def client():
    with api.serve(ones_detector(), n_workers=2) as handle:
        yield handle


class TestServeReturnsTheHandle:
    def test_serve_returns_a_fleet_client(self, client):
        assert isinstance(client, FleetClient)
        assert isinstance(client.fleet, FSMFleet)

    def test_options_pick_the_fleet_mode(self):
        with api.serve(
            ones_detector(), n_workers=1,
            options=Options(fleet_mode="process"),
        ) as client:
            assert client.fleet_mode == "process"

    def test_explicit_kwarg_overrides_options(self):
        # fleet_mode passed through fleet_kwargs wins over the Options
        # default, preserving the old call sites.
        with api.serve(
            ones_detector(), n_workers=1, fleet_mode="thread",
        ) as client:
            assert client.fleet_mode == "thread"

    def test_bad_knobs_are_rejected_at_options(self):
        with pytest.raises(ValueError):
            Options(fleet_mode="fiber")
        with pytest.raises(ValueError):
            Options(ingest="hope")

    def test_ingest_option_reaches_the_client(self):
        with api.serve(
            ones_detector(), n_workers=1,
            options=Options(ingest="reject"),
        ) as client:
            assert client.ingest == "reject"


class TestServingSurface:
    def test_sync_submit_contract_unchanged(self, client):
        machine = ones_detector()
        word = list("0110")
        assert client.submit("k", word).result(timeout=10) == \
            machine.run(word)

    def test_submit_async_rides_the_bridge(self, client):
        machine = ones_detector()
        word = list("1011")

        async def run():
            return await client.submit_async("k", word)

        assert asyncio.run(run()) == machine.run(word)

    def test_client_ingest_policy_applies_to_async(self):
        from repro.fleet import FleetOverloaded
        from repro.fleet.worker import _Fault
        from concurrent.futures import Future
        import threading

        with api.serve(
            ones_detector(), n_workers=1, queue_depth=2,
            options=Options(ingest="reject"),
        ) as client:
            gate = threading.Event()
            entered = threading.Event()

            def blocker(_hw):
                entered.set()
                gate.wait(timeout=30)
                return None

            client.fleet.shards[0].queue.put(
                _Fault(inject=blocker, future=Future())
            )
            assert entered.wait(timeout=10)
            for _ in range(2):
                client.submit("k", ["1"])

            async def run():
                with pytest.raises(FleetOverloaded):
                    await client.submit_async("k", ["1"])

            asyncio.run(run())
            gate.set()

    def test_stream_session_binds_the_addressing(self, client):
        machine = ones_detector()
        lane = client.stream_session("conn-1", session="alpha")
        assert isinstance(lane, StreamSession)
        first, second = list("101"), list("110")
        a = lane.submit(first).result(timeout=10)
        b = lane.submit(second).result(timeout=10)
        # One state chain: the concatenation equals one reference run.
        assert a + b == machine.run(first + second)

    def test_stream_session_async(self, client):
        machine = ones_detector()
        lane = client.stream_session("conn-2", session="beta")

        async def run():
            return await lane.submit_async(list("0110"))

        assert asyncio.run(run()) == machine.run(list("0110"))

    def test_migrate_live_rolls_the_fleet_over(self):
        source = sequence_detector("1011")
        target = sequence_detector("0110")
        with api.serve(source, family=[target], n_workers=2) as client:
            report = client.migrate_live(target)
            assert report.verified
            assert client.machine == target  # first-class passthrough

    def test_health_reports(self, client):
        report = client.health()
        assert report.status in ("ok", "degraded", "critical")


class TestDeprecationShim:
    def test_first_class_attributes_do_not_warn(self, client):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert isinstance(client.engine, str)
            assert client.n_workers == 2
            assert client.fleet_mode == "thread"
            assert client.machine is not None
            assert client.name

    def test_escape_hatch_is_silent(self, client):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            client.fleet.shard_for("k")

    def test_curated_surface_is_silent(self, client):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            client.submit("k", ["1"]).result(timeout=10)
            client.totals()
            client.stats()
            client.health()

    def test_unknown_attribute_still_raises(self, client):
        with pytest.raises(AttributeError):
            client.definitely_not_an_attribute


class TestLifecycle:
    def test_context_manager_closes_the_fleet(self):
        from repro.fleet import FleetClosed

        with api.serve(ones_detector(), n_workers=1) as client:
            client.submit("k", ["1"]).result(timeout=10)
        with pytest.raises(FleetClosed):
            client.fleet.submit("k", ["1"])

    def test_drain_flushes_queued_batches(self, client):
        futures = [client.submit("k", ["1"]) for _ in range(8)]
        client.drain()
        assert all(f.done() for f in futures)
