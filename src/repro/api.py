"""The stable public facade of the library.

Every supported end-to-end flow is one keyword-configured function:

* :func:`synthesise` — source + target → reconfiguration program;
* :func:`optimise` — program → (shorter program, per-pass cost report);
* :func:`migrate` — synthesise, replay on the cycle-accurate datapath,
  hardware-verify;
* :func:`verify` — certify a migration through the machine's ports
  (W-method conformance), no RAM readback;
* :func:`serve` — a sharded concurrent serving fleet with zero-downtime
  live migration (:class:`repro.fleet.FSMFleet`);
* :func:`compile_fsm` — lower a machine (or a live datapath) into the
  batch execution engine's dense tables
  (:class:`repro.engine.CompiledFSM`).

All knobs travel in one keyword-only :class:`Options` dataclass instead
of the per-module signatures that had drifted apart (method here, seed
there, opt_level sometimes positional).  The CLI calls only this module.

    from repro import api
    from repro.workloads import fig6_m, fig6_m_prime

    outcome = api.migrate(
        fig6_m(), fig6_m_prime(),
        options=api.Options(method="ea", opt_level="O2", seed=7),
    )
    assert outcome.verified
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from .core.fsm import FSM
from .core.program import Program
from .exec.registry import canonical, spellings

__all__ = [
    "METHODS",
    "MigrationOutcome",
    "Options",
    "VerificationOutcome",
    "compile_fsm",
    "evaluate_population",
    "migrate",
    "obs_server",
    "optimise",
    "serve",
    "synthesise",
    "verify",
]

#: The synthesis methods the facade (and the CLI's ``--method``) accepts.
METHODS = ("jsr", "ea", "greedy", "tsp", "optimal")

#: Execution backend spellings accepted by :class:`Options` ``engine``
#: (the backend names and aliases, see :mod:`repro.exec`).
ENGINE_MODES = spellings()

#: Fleet serving substrates accepted by :class:`Options` (see
#: ``repro.fleet`` / ``repro.procfleet``).
FLEET_MODES = ("thread", "process")

#: Async admission policies accepted by :class:`Options` (see
#: ``repro.aio``): ``"wait"`` awaits a queue slot under saturation,
#: ``"reject"`` raises ``FleetOverloaded`` like the sync path.
INGEST_MODES = ("wait", "reject")


@dataclass(frozen=True, init=False)
class Options:
    """Keyword-only bundle of every knob the facade understands.

    ``method``
        Synthesiser to dispatch (one of :data:`METHODS`).
    ``opt_level``
        Pass-pipeline level (``"O0"``/``"O2"``, any spelling
        :func:`repro.core.passes.normalise_level` accepts); ``None``
        means "don't run the pipeline" where that is meaningful
        (:func:`optimise` itself defaults to ``"O2"``).
    ``seed``
        Seed for the stochastic synthesisers (the EA).
    ``metrics``
        Enable the process-wide metrics registry for this call
        (equivalent to ``repro.obs.configure(metrics=True)``).
    ``engine``
        Execution backend for :func:`serve` / :func:`compile_fsm` /
        :func:`evaluate_population` (one of :data:`ENGINE_MODES`:
        ``"cycle"`` / ``"off"``, ``"table"``, ``"table-shm"`` /
        ``"shm"``); ``"auto"`` defers to the ``REPRO_BACKEND``
        environment variable, then to ``table`` (see :mod:`repro.exec`).
    ``extra_states``
        W-method bound on implementation state growth for
        :func:`verify`.
    ``fleet_mode``
        Serving substrate for :func:`serve` (one of
        :data:`FLEET_MODES`): ``"thread"`` shards in-process,
        ``"process"`` shards into worker processes serving
        shared-memory tables.
    ``ingest``
        Async admission policy for :func:`serve`'s client (one of
        :data:`INGEST_MODES`): under saturation, ``submit_async``
        either awaits a queue slot (``"wait"``, default) or raises
        ``FleetOverloaded`` (``"reject"``).
    ``replicas``
        Replicas per shard for :func:`serve` (default 1).  Values above
        one turn every shard into a replica *group* — N worker
        processes, one serving and the rest hot spares (see
        :mod:`repro.replica`) — and need ``fleet_mode="process"``
        (:func:`serve` raises ``ValueError`` in thread mode).

    Frozen, keyword-only (``Options(method="ea")``; positional arguments
    raise ``TypeError``), validated on construction.
    """

    method: str
    opt_level: Optional[str]
    seed: int
    metrics: bool
    engine: str
    extra_states: int
    fleet_mode: str
    ingest: str
    replicas: int

    def __init__(
        self,
        *,
        method: str = "ea",
        opt_level: "str | int | None" = None,
        seed: int = 0,
        metrics: bool = False,
        engine: str = "auto",
        extra_states: int = 0,
        fleet_mode: str = "thread",
        ingest: str = "wait",
        replicas: int = 1,
    ):
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if opt_level is not None:
            from .core.passes import normalise_level

            opt_level = normalise_level(opt_level)
        canonical(engine)  # ValueError listing the accepted spellings
        if extra_states < 0:
            raise ValueError("extra_states must be non-negative")
        if fleet_mode not in FLEET_MODES:
            raise ValueError(
                f"unknown fleet_mode {fleet_mode!r}; expected one of "
                f"{FLEET_MODES}"
            )
        if ingest not in INGEST_MODES:
            raise ValueError(
                f"unknown ingest mode {ingest!r}; expected one of "
                f"{INGEST_MODES}"
            )
        if int(replicas) < 1:
            raise ValueError("replicas must be at least 1")
        object.__setattr__(self, "fleet_mode", fleet_mode)
        object.__setattr__(self, "ingest", ingest)
        object.__setattr__(self, "replicas", int(replicas))
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "opt_level", opt_level)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "metrics", bool(metrics))
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "extra_states", int(extra_states))


def _options(options: Optional[Options]) -> Options:
    opts = options if options is not None else Options()
    if not isinstance(opts, Options):
        raise TypeError(
            f"options must be a repro.api.Options, not {type(opts).__name__}"
        )
    if opts.metrics:
        from .obs import REGISTRY

        REGISTRY.enable()
    return opts


@dataclass(frozen=True)
class MigrationOutcome:
    """Result of :func:`migrate`: program, datapath, hardware verdict."""

    program: Program
    hardware: Any
    verified: bool

    def __bool__(self) -> bool:
        return self.verified


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of :func:`verify`: conformance verdict plus its evidence."""

    program: Program
    hardware: Any
    result: Any  # repro.core.verify.VerificationResult
    suite_size: int

    @property
    def passed(self) -> bool:
        return bool(self.result.passed)

    def __bool__(self) -> bool:
        return self.passed


def _dispatch(method: str, source: FSM, target: FSM, seed: int) -> Program:
    """One named synthesiser call (imports deferred per method)."""
    if method == "jsr":
        from .core.jsr import jsr_program

        return jsr_program(source, target)
    if method == "ea":
        from .core.ea import EAConfig, ea_program

        return ea_program(source, target, config=EAConfig(seed=seed))
    if method == "greedy":
        from .core.greedy import greedy_program

        return greedy_program(source, target)
    if method == "tsp":
        from .analysis.tsp import tsp_program

        return tsp_program(source, target)
    if method == "optimal":
        from .core.optimal import optimal_program

        return optimal_program(source, target)
    raise ValueError(f"unknown method {method!r}")  # Options pre-validates


def synthesise(
    source: FSM, target: FSM, *, options: Optional[Options] = None
) -> Program:
    """Synthesise a reconfiguration program migrating source → target.

    Dispatches ``options.method`` and, when ``options.opt_level`` is
    set, runs the replay-gated pass pipeline over the result.
    """
    opts = _options(options)
    program = _dispatch(opts.method, source, target, opts.seed)
    if opts.opt_level is not None:
        from .core.passes import optimise_program

        program, _report = optimise_program(program, opts.opt_level)
    return program


def optimise(
    program: Program, *, options: Optional[Options] = None
) -> Tuple[Program, Any]:
    """Run the pass pipeline; returns ``(program, per-pass report)``.

    Uses ``options.opt_level`` when set, else ``"O2"`` (running the
    optimiser with "no optimisation" is never what the caller meant).
    """
    opts = _options(options)
    from .core.passes import PassPipeline

    level = opts.opt_level if opts.opt_level is not None else "O2"
    return PassPipeline.for_level(level).run(program)


def migrate(
    source: FSM, target: FSM, *, options: Optional[Options] = None
) -> MigrationOutcome:
    """Synthesise + replay on the Fig. 5 datapath + verify the RAMs."""
    opts = _options(options)
    from .hw.machine import HardwareFSM

    program = synthesise(source, target, options=opts)
    hardware = HardwareFSM.for_migration(source, target)
    hardware.run_program(program)
    return MigrationOutcome(
        program=program,
        hardware=hardware,
        verified=hardware.realises(target),
    )


def verify(
    source: FSM,
    target: FSM,
    *,
    options: Optional[Options] = None,
    program: Optional[Program] = None,
) -> VerificationOutcome:
    """Certify a migration through the ports (W-method conformance).

    Synthesises a program (unless one is passed in), replays it, then
    runs the W-method suite with ``options.extra_states`` headroom.
    """
    opts = _options(options)
    from .core.verify import verify_hardware, w_method_suite
    from .hw.machine import HardwareFSM

    if program is None:
        program = synthesise(source, target, options=opts)
    hardware = HardwareFSM.for_migration(source, target)
    hardware.run_program(program)
    result = verify_hardware(
        hardware, target, extra_states=opts.extra_states
    )
    suite = w_method_suite(target, extra_states=opts.extra_states)
    return VerificationOutcome(
        program=program,
        hardware=hardware,
        result=result,
        suite_size=len(suite),
    )


def serve(
    machine: FSM,
    *,
    family: Sequence[FSM] = (),
    n_workers: int = 4,
    options: Optional[Options] = None,
    **fleet_kwargs,
):
    """A running serving fleet for ``machine``, behind its client handle.

    Returns a context-managed :class:`repro.fleet.FleetClient` — the
    serving surface (sync ``submit``, async ``submit_async``, stream
    sessions, ``migrate_live``, ``health``) over the fleet that
    ``options.fleet_mode`` selects (``"thread"`` or ``"process"``).
    ``options`` also supplies the engine mode, the async admission
    policy (``ingest``) and the opt level for migration plans;
    everything else (queue depth, stall budget, link latency …) passes
    through to :class:`repro.fleet.FSMFleet` unchanged.  Close the
    returned client (or use it as a context manager) when done.

    Pool-level machinery (schedulers, fault injection) is reached
    through ``client.fleet``.
    """
    opts = _options(options)
    from .fleet import FleetClient, FSMFleet

    fleet_kwargs.setdefault("fleet_mode", opts.fleet_mode)
    if opts.replicas > 1 and "replication" not in fleet_kwargs:
        from .replica import ReplicaConfig

        fleet_kwargs["replication"] = ReplicaConfig(n=opts.replicas)
    fleet = FSMFleet(
        machine,
        n_workers=n_workers,
        family=family,
        opt_level=opts.opt_level,
        engine=opts.engine,
        **fleet_kwargs,
    )
    return FleetClient(fleet, ingest=opts.ingest)


def obs_server(
    fleet=None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    start: bool = True,
):
    """A live observability HTTP endpoint (``/metrics``, ``/healthz``,
    ``/journal``).

    Binds loopback on an ephemeral port by default; pass the serving
    fleet so ``/healthz`` includes per-shard vitals.  With ``start``
    (default) the server is already serving from a daemon thread when
    returned — close it (or use it as a context manager) when done::

        fleet = api.serve(machine)
        with api.obs_server(fleet) as srv:
            print(srv.url)  # scrape /metrics, poll /healthz
    """
    from .obs.server import ObsServer

    server = ObsServer(host=host, port=port, fleet=fleet)
    return server.start() if start else server


def compile_fsm(machine, *, options: Optional[Options] = None):
    """Lower a machine into the batch engine's dense tables.

    Accepts either a behavioural :class:`~repro.core.fsm.FSM` or a live
    :class:`~repro.hw.machine.HardwareFSM` (whose committed RAM words
    are snapshotted, version-stamped for staleness detection).  The
    view holds tables only; pass ``kernel=`` to its ``run_streams`` to
    pick the stream kernel per call.  Validating the preference —
    rejecting ``"off"``/``"cycle"``, which have no tables, and an
    unavailable pinned backend — is :func:`repro.exec.compile_tables`'s
    job.
    """
    opts = _options(options)
    from .exec import compile_tables

    return compile_tables(machine, preference=opts.engine)


def evaluate_population(
    candidates: Sequence[FSM],
    traces: Sequence[Tuple[Sequence, Sequence]],
    *,
    options: Optional[Options] = None,
):
    """Score candidate machines against I/O traces on the stream plane.

    Facade over :func:`repro.core.ea.evaluate_population`: each
    candidate replays every ``(input_word, expected_outputs)`` trace as
    one lane of a multi-stream batch, scored by the fraction of
    expected outputs reproduced.  The execution backend comes from
    ``options.engine``.
    """
    opts = _options(options)
    from .core.ea import evaluate_population as _evaluate

    return _evaluate(candidates, traces, backend=opts.engine)
