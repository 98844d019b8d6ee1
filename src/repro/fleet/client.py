"""The serving handle: one client surface over both fleet modes.

:class:`FleetClient` is what :func:`repro.api.serve` returns.  It is a
deliberately small facade over :class:`~repro.fleet.FSMFleet` — the
five verbs a serving client actually needs, sync and async on equal
footing:

``submit(key, symbols, session=None)``
    The blocking-future contract, unchanged.
``submit_async(key, symbols, session=None)``
    The awaitable contract (:mod:`repro.aio`): loop-aware completion,
    cancellation that frees the queue slot, awaitable admission under
    saturation (``Options.ingest`` picks ``"wait"`` or ``"reject"``).
``stream_session(key, session=...)``
    A handle binding one ``(shard key, session)`` state chain, so a
    client streaming many batches through one session does not repeat
    the addressing on every call.
``migrate_live(target)``
    The zero-downtime rolling migration, previously ``fleet.migrate``.
``health()``
    The :mod:`repro.obs.health` report for this fleet.
``replicas()`` / ``replace_replica(shard, replica)``
    The replica-group surface (:mod:`repro.replica`): per-shard group
    status, and membership-logged replacement of one replica.

The fleet's identity (``machine``, ``name``, ``engine``,
``fleet_mode``, ``n_workers``, ``replication``) is readable here too.
Everything else lives on the pool object, reached through
``client.fleet`` (schedulers, fault injection, benchmarks).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from ..core.fsm import FSM, Input
from ..obs import health as _health
from ..obs.probes import ProbeReport
from .worker import ShardStats

__all__ = ["FleetClient", "StreamSession"]

class StreamSession:
    """One ``(shard key, session)`` state chain behind a client.

    Batches submitted here extend the same independent lane on the
    same shard (FIFO, coalesced with other sessions into multi-stream
    kernel calls by the shard worker) without re-passing the
    addressing.  Construct via :meth:`FleetClient.stream_session`.
    """

    __slots__ = ("_client", "shard_key", "session")

    def __init__(
        self, client: "FleetClient", shard_key: Hashable, session: Hashable
    ):
        self._client = client
        self.shard_key = shard_key
        self.session = session

    def submit(self, symbols: Sequence[Input]):
        """Extend this session's chain; returns a future (sync path)."""
        return self._client.submit(
            self.shard_key, symbols, session=self.session
        )

    def submit_async(self, symbols: Sequence[Input], **kwargs):
        """Extend this session's chain; awaitable (asyncio path)."""
        return self._client.submit_async(
            self.shard_key, symbols, session=self.session, **kwargs
        )

    def __repr__(self) -> str:
        return (
            f"StreamSession(shard_key={self.shard_key!r}, "
            f"session={self.session!r})"
        )


class FleetClient:
    """The context-managed serving handle (see module docstring)."""

    def __init__(self, fleet, *, ingest: str = "wait"):
        self._fleet = fleet
        self.ingest = ingest

    # -- the serving surface -------------------------------------------
    def submit(
        self,
        shard_key: Hashable,
        symbols: Sequence[Input],
        session: Optional[Hashable] = None,
    ):
        """Enqueue one batch; returns a ``concurrent.futures.Future``
        of the output word (the sync contract, unchanged)."""
        return self._fleet.submit(shard_key, symbols, session=session)

    def submit_async(
        self,
        shard_key: Hashable,
        symbols: Sequence[Input],
        session: Optional[Hashable] = None,
        *,
        ingest: Optional[str] = None,
        admission_timeout_s: Optional[float] = None,
    ):
        """Awaitable submit (see :mod:`repro.aio`); the client's
        ``ingest`` policy applies unless overridden per call."""
        return self._fleet.submit_async(
            shard_key,
            symbols,
            session=session,
            ingest=ingest if ingest is not None else self.ingest,
            admission_timeout_s=admission_timeout_s,
        )

    def stream_session(
        self, shard_key: Hashable, session: Hashable = "default"
    ) -> StreamSession:
        """A handle on one independent session state chain."""
        return StreamSession(self, shard_key, session)

    def migrate_live(self, target: FSM, stall_budget: Optional[int] = None):
        """Rolling zero-downtime migration of the whole fleet to
        ``target``; blocks until the rollout commits and returns its
        report (see :class:`~repro.fleet.MigrationScheduler`)."""
        return self._fleet.migrate(target, stall_budget=stall_budget)

    def health(self) -> "_health.HealthReport":
        """The current health assessment of this fleet."""
        return _health.check(fleet=self._fleet)

    # -- replica groups -------------------------------------------------
    def replicas(self):
        """Per-shard :class:`~repro.replica.ReplicaGroupStatus` (empty
        when the fleet was built without ``replication``)."""
        return self._fleet.replicas()

    def replace_replica(self, shard: int, replica: str):
        """Tear down and respawn one replica of a shard's group; returns
        a future of the group's post-change status."""
        return self._fleet.replace_replica(shard, replica)

    # -- lifecycle ------------------------------------------------------
    def drain(self) -> None:
        """Block until every queued batch has been served."""
        self._fleet.drain()

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the fleet down."""
        self._fleet.close(drain)

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection --------------------------------------------------
    @property
    def fleet(self):
        """The underlying :class:`~repro.fleet.FSMFleet`, for
        pool-level machinery."""
        return self._fleet

    @property
    def machine(self) -> FSM:
        """The machine the fleet currently serves."""
        return self._fleet.machine

    @property
    def name(self) -> str:
        return self._fleet.name

    @property
    def engine(self) -> str:
        """The fleet's execution mode (``auto`` / ``table`` / ...)."""
        return self._fleet.engine

    @property
    def fleet_mode(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._fleet.fleet_mode

    @property
    def n_workers(self) -> int:
        return self._fleet.n_workers

    @property
    def replication(self):
        """The fleet's replica configuration, or ``None``."""
        return self._fleet.replication

    def stats(self) -> Dict[int, ShardStats]:
        return self._fleet.stats()

    def totals(self) -> ShardStats:
        return self._fleet.totals()

    def probes(self) -> Dict[int, ProbeReport]:
        return self._fleet.probes()

    def __repr__(self) -> str:
        return f"FleetClient({self._fleet!r}, ingest={self.ingest!r})"
