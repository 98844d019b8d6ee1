"""Observability HTTP endpoint: routes, status codes, wire formats."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import journal as jr
from repro.obs.health import Thresholds
from repro.obs.journal import Journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObsServer


def _get(url):
    """GET returning (status, headers, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.enable()
    reg.counter("repro_demo_total", "demo counter").inc(kind="a")
    return reg


@pytest.fixture
def journal():
    j = Journal(capacity=32, enabled=True)
    j.record(jr.SERVE_BATCH, shard=0, symbols=4, downtime_delta=0)
    j.record(jr.DISPATCH_DECISION, shard=1, backend="cycle", reason="policy")
    return j


@pytest.fixture
def server(registry, journal):
    with ObsServer(journal=journal, registry=registry) as srv:
        yield srv


class TestEndpoints:
    def test_metrics_prometheus_text(self, server):
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# HELP repro_demo_total demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert 'repro_demo_total{kind="a"} 1' in text

    def test_healthz_ok_json(self, server):
        status, headers, body = _get(server.url + "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert {d["name"] for d in payload["detectors"]} >= {
            "fallback-spike", "queue-saturation",
        }

    def test_healthz_503_when_critical(self, registry):
        j = Journal(capacity=64, enabled=True)
        for _ in range(25):
            j.record(jr.EXEC_FALLBACK)
        with ObsServer(journal=j, registry=registry) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "critical"

    def test_healthz_thresholds_injected(self, registry):
        j = Journal(capacity=8, enabled=True)
        j.record(jr.EXEC_FALLBACK)
        tight = Thresholds(fallback_degraded=1, fallback_critical=1)
        with ObsServer(
            journal=j, registry=registry, thresholds=tight
        ) as srv:
            status, _, _ = _get(srv.url + "/healthz")
        assert status == 503

    def test_journal_default(self, server, journal):
        status, _, body = _get(server.url + "/journal")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["events"]) == 2
        assert payload["dropped"] == 0
        assert payload["next_seq"] == 2
        assert payload["events"][0]["type"] == "serve.batch"

    def test_journal_query_params(self, server):
        status, _, body = _get(
            server.url + "/journal?type=dispatch.decision&shard=1"
        )
        events = json.loads(body)["events"]
        assert status == 200
        assert len(events) == 1
        assert events[0]["fields"]["backend"] == "cycle"

        status, _, body = _get(server.url + "/journal?limit=1")
        events = json.loads(body)["events"]
        assert len(events) == 1
        assert events[0]["seq"] == 1  # limit keeps the newest

    def test_journal_bad_limit_is_400(self, server):
        status, _, body = _get(server.url + "/journal?limit=nope")
        assert status == 400
        assert "limit" in json.loads(body)["error"]

    def test_unknown_route_404_lists_routes(self, server):
        status, _, body = _get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["routes"] == [
            "/metrics", "/healthz", "/journal",
        ]

    def test_requests_counted(self, server, registry):
        _get(server.url + "/metrics")
        _get(server.url + "/metrics")
        # The request counter lives in the process-global registry, not
        # the injected one; just assert the server survives and serves.
        status, _, _ = _get(server.url + "/healthz")
        assert status == 200


class TestLifecycle:
    def test_ephemeral_port_and_url(self, registry, journal):
        server = ObsServer(journal=journal, registry=registry)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.close()

    def test_start_idempotent(self, registry, journal):
        server = ObsServer(journal=journal, registry=registry)
        try:
            assert server.start() is server
            assert server.start() is server
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
        finally:
            server.close()

    def test_close_releases_socket(self, registry, journal):
        server = ObsServer(journal=journal, registry=registry).start()
        url = server.url
        server.close()
        deadline = time.time() + 2.0
        while time.time() < deadline:
            try:
                urllib.request.urlopen(url + "/healthz", timeout=0.5)
            except (urllib.error.URLError, OSError):
                return
            time.sleep(0.05)
        pytest.fail("server kept serving after close()")
