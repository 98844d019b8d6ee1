"""Command-line interface: migrate KISS2 machines from the shell.

The CLI covers the library's main flows on files in the KISS2 benchmark
format::

    python -m repro info machine.kiss
    python -m repro minimize machine.kiss
    python -m repro vhdl machine.kiss --reconfigurable
    python -m repro dot source.kiss --target target.kiss
    python -m repro deltas source.kiss target.kiss
    python -m repro synth source.kiss target.kiss --method ea --sequence
    python -m repro migrate source.kiss target.kiss --method jsr --opt-level O2
    python -m repro optimize source.kiss target.kiss --method jsr
    python -m repro stats source.kiss target.kiss --method jsr
    python -m repro fleet --workers 4 --requests 200 --opt-level O2

``fleet`` needs no files: it serves synthetic traffic for a named suite
workload from a sharded pool of datapaths while a rolling migration
upgrades every shard with zero probe-measured downtime
(see ``docs/fleet.md``).

``synth`` prints the reconfiguration program (optionally as a Table-1
style H-sequence); ``migrate`` additionally replays it on the
cycle-accurate datapath and verifies the migration; ``stats`` replays a
simulation and prints the hardware probe report (mode occupancy, RAM
writes, state visits, downtime).

Synthesis commands accept ``--opt-level {O0,O2}`` to run the
replay-validated optimization pass pipeline over the synthesised
program; ``optimize`` runs the pipeline explicitly and prints the
per-pass cost report (steps/writes eliminated, acceptance, wall time).

Observability: the global ``--metrics {json,prom,off}`` flag prints a
metrics snapshot (JSON or Prometheus text exposition) to **stderr**
after the command, keeping stdout parseable; ``--trace-out FILE`` on
``synth`` / ``migrate`` / ``verify`` / ``suite`` / ``stats`` writes the
span trace as JSONL.  Operational errors (missing files, malformed
KISS2, uninitialised RAM reads) exit with code 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List, Optional

from . import api
from .analysis.tables import format_table
from .api import ENGINE_MODES, METHODS, Options
from .core.bounds import lower_bound, upper_bound
from .core.delta import delta_transitions
from .core.minimize import equivalence_classes, is_minimal, minimize
from .core.program import Program
from .hw.machine import HardwareFSM
from .hw.memory import UninitialisedRead
from .hw.vcd import to_vcd
from .hw.verilog import generate_fsm_verilog, generate_reconfigurable_verilog
from .hw.vhdl import generate_fsm_vhdl, generate_reconfigurable_vhdl
from .io.dot import migration_to_dot, to_dot
from .io.kiss import KissError
from .io.kiss import dumps as kiss_dumps
from .io.kiss import load as kiss_load
from .obs import JOURNAL, REGISTRY, TRACER
from .obs import configure as obs_configure
from .obs.probes import probe_hardware, publish
from .workloads.suite import run_migration_suite


def _load(path: str, fill: Optional[str]):
    complete_with = ("self", fill) if fill is not None else None
    return kiss_load(path, name=path, complete_with=complete_with)


def _synthesise(
    method: str, source, target, seed: int, opt_level: Optional[str] = None
) -> Program:
    return api.synthesise(
        source,
        target,
        options=Options(method=method, seed=seed, opt_level=opt_level),
    )


class CliError(Exception):
    """Operational CLI error: printed as one line, exit status 2."""


def _opt_level(args) -> str:
    """The command's normalised ``--opt-level`` (``"O0"`` when absent)."""
    from .core.passes import normalise_level

    try:
        return normalise_level(getattr(args, "opt_level", None))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _split_word(word: str, inputs: Optional[Iterable] = None) -> List[str]:
    symbols = word.split(",") if "," in word else list(word)
    if inputs is not None:
        alphabet = set(inputs)
        for symbol in symbols:
            if symbol not in alphabet:
                raise CliError(
                    f"input symbol {symbol!r} is not in the machine's "
                    f"alphabet {sorted(map(str, alphabet))}"
                )
    return symbols


def cmd_info(args) -> int:
    machine = _load(args.machine, args.fill)
    rows = [
        {"property": "states", "value": len(machine.states)},
        {"property": "inputs", "value": len(machine.inputs)},
        {"property": "outputs", "value": len(machine.outputs)},
        {"property": "reset state", "value": machine.reset_state},
        {"property": "transitions", "value": len(machine.table)},
        {"property": "strongly connected",
         "value": machine.is_strongly_connected()},
        {"property": "Moore-style", "value": machine.is_moore()},
        {"property": "minimal", "value": is_minimal(machine)},
        {"property": "equivalence classes",
         "value": len(equivalence_classes(machine))},
    ]
    print(format_table(rows, title=f"machine {args.machine}"))
    return 0


def cmd_minimize(args) -> int:
    machine = _load(args.machine, args.fill)
    minimal = minimize(machine)
    print(kiss_dumps(minimal))
    print(
        f"# {len(machine.states)} -> {len(minimal.states)} states",
        file=sys.stderr,
    )
    return 0


def cmd_vhdl(args) -> int:
    machine = _load(args.machine, args.fill)
    if args.reconfigurable:
        print(generate_reconfigurable_vhdl(
            machine, extra_states=args.extra_states
        ))
    else:
        print(generate_fsm_vhdl(machine))
    return 0


def cmd_suite(args) -> int:
    level = _opt_level(args)
    try:
        rows = run_migration_suite(
            method=args.method, seed=args.seed, opt_level=level,
            engine=args.engine,
        )
    except ValueError as exc:  # a REPRO_BACKEND naming no backend
        raise CliError(str(exc)) from None
    for row in rows:
        if not row["valid"]:
            print(f"INVALID: {row['workload']}", file=sys.stderr)
    title = f"suite x {args.method}"
    if level != "O0":
        title += f" -{level}"
    print(format_table(rows, title=title))
    return 0 if all(row["valid"] for row in rows) else 1


def cmd_report(args) -> int:
    from .core.explain import migration_report

    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    print(migration_report(source, target))
    return 0


def cmd_verilog(args) -> int:
    machine = _load(args.machine, args.fill)
    if args.reconfigurable:
        print(generate_reconfigurable_verilog(
            machine, extra_states=args.extra_states
        ))
    else:
        print(generate_fsm_verilog(machine))
    return 0


def cmd_simulate(args) -> int:
    machine = _load(args.machine, args.fill)
    word = _split_word(args.word, machine.inputs)
    hw = HardwareFSM(machine)
    outputs = hw.run(word)
    print("inputs : " + " ".join(str(i) for i in word))
    print("outputs: " + " ".join(str(o) for o in outputs))
    print(f"final state: {hw.state}")
    if args.vcd:
        with open(args.vcd, "w") as handle:
            handle.write(to_vcd(hw.trace))
        print(f"waveform written to {args.vcd}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    outcome = api.verify(
        source,
        target,
        options=Options(
            method=args.method,
            seed=args.seed,
            opt_level=_opt_level(args),
            extra_states=args.extra_states,
        ),
    )
    result = outcome.result
    # Failure detail first, then the summary verdict, so the last line a
    # caller sees (and greps) is the PASS/FAIL judgement.
    for word, expected, actual in result.failures[:5]:
        print(f"  word {''.join(map(str, word))}: expected "
              f"{expected}, got {actual}")
    publish(probe_hardware(outcome.hardware))
    print(
        f"conformance: {'PASS' if result.passed else 'FAIL'} "
        f"({result.words_run} words, {result.symbols_run} symbols, "
        f"suite of {outcome.suite_size})"
    )
    return 0 if result.passed else 1


def cmd_fleet(args) -> int:
    """Serve synthetic traffic from a sharded fleet across a rolling
    migration; the demo scenario for the ``repro.fleet`` subsystem."""
    import threading
    import time

    from .engine import EngineError
    from .fleet import FleetOverloaded, MigrationScheduler
    from .workloads.suite import suite_pair, traffic_words

    try:
        source, target = suite_pair(args.workload)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    common = [i for i in source.inputs if i in set(target.inputs)]
    if not common:
        raise CliError(
            f"workload {args.workload}: old and new machines share no "
            "input symbols; no traffic can survive the rollout"
        )

    try:
        client = api.serve(
            source,
            family=[target],
            n_workers=args.workers,
            options=Options(
                opt_level=_opt_level(args),
                engine=args.engine,
                fleet_mode=args.mode,
                replicas=args.replicas,
            ),
            queue_depth=args.queue_depth,
            stall_budget=args.stall_budget,
            link_latency_s=args.link_latency_ms / 1000.0,
            name=f"fleet/{args.workload}",
        )
    except (EngineError, ValueError) as exc:
        raise CliError(str(exc)) from None
    # Pool-level machinery (the scheduler drives shards directly, fault
    # injection pokes a datapath) goes through ``client.fleet``;
    # everything client-shaped below uses the handle.
    fleet = client.fleet
    scheduler = MigrationScheduler(fleet, stall_budget=args.stall_budget)
    words = traffic_words(
        source, args.requests, args.batch, seed=args.seed, inputs=common
    )

    rollout: dict = {}

    def run_rollout() -> None:
        try:
            rollout["report"] = scheduler.rollout(target)
        except Exception as exc:  # surfaced after the traffic loop
            rollout["error"] = exc

    migration_at = max(1, args.requests // 4)
    fault_at = args.requests // 2 if args.inject_fault else None
    migration_thread = threading.Thread(target=run_rollout, daemon=True)
    futures = []
    retries = 0
    started = time.perf_counter()
    for index, word in enumerate(words):
        if index == migration_at:
            migration_thread.start()
        if fault_at is not None and index == fault_at:
            fleet.inject_fault(0, kind="erase", seed=args.seed)
        while True:
            try:
                futures.append(client.submit(index, word))
                break
            except FleetOverloaded:
                retries += 1
                time.sleep(0.001)
    if args.requests <= migration_at:
        migration_thread.start()
    migration_thread.join()
    client.drain()
    elapsed = time.perf_counter() - started

    failed = 0
    for future in futures:
        try:
            future.result()
        except Exception:
            failed += 1
    if "error" in rollout:
        client.close()
        raise CliError(f"rollout failed: {rollout['error']}")
    report = rollout["report"]
    totals = client.totals()
    steps = totals.symbols_served
    for index, probe in client.probes().items():
        publish(probe, shard=str(index))
    replica_report = client.replicas() if args.replicas > 1 else {}
    client.close()

    rows = [
        {"fleet": "workers", "value": args.workers},
        {"fleet": "mode", "value": client.fleet_mode},
    ]
    if args.replicas > 1:
        groups = replica_report.values()
        rows += [
            {"fleet": "replicas per shard", "value": args.replicas},
            {"fleet": "replicas in sync",
             "value": sum(g.in_sync for g in groups)},
            {"fleet": "quorum held",
             "value": all(g.quorum_ok for g in groups)},
        ]
    rows += [
        {"fleet": "requests served", "value": totals.batches_ok},
        {"fleet": "requests failed", "value": failed},
        {"fleet": "symbols stepped", "value": steps},
        {"fleet": "steps/sec", "value": round(steps / max(elapsed, 1e-9))},
        {"fleet": "engine mode", "value": client.engine},
        {"fleet": "engine symbols (compiled)",
         "value": totals.engine_symbols},
        {"fleet": "engine fallbacks", "value": totals.engine_fallbacks},
        {"fleet": "backpressure retries", "value": retries},
        {"fleet": "incidents (quarantines)", "value": totals.incidents},
        {"fleet": "migration chunks", "value": report.analysis.chunks_total},
        {"fleet": "migration cycles", "value": report.migration_cycles},
        {"fleet": "service downtime (cycles)",
         "value": report.service_downtime_cycles},
        {"fleet": "rollout verified", "value": report.verified},
        {"fleet": "zero downtime", "value": report.zero_downtime},
    ]
    print(format_table(
        rows, title=f"fleet rollout — {args.workload} x{args.workers}"
    ))
    ok = report.verified and report.zero_downtime
    if args.inject_fault:
        ok = ok and totals.incidents > 0
    else:
        ok = ok and failed == 0
    if not ok:
        print("FLEET SCENARIO FAILED", file=sys.stderr)
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """Serve a fleet over the asyncio ingestion plane (``repro.aio``)."""
    import asyncio

    from .aio import IngestServer
    from .engine import EngineError
    from .workloads.suite import suite_pair

    try:
        source, _target = suite_pair(args.workload)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    try:
        client = api.serve(
            source,
            n_workers=args.workers,
            options=Options(
                engine=args.engine,
                fleet_mode=args.mode,
                ingest=args.ingest,
                replicas=args.replicas,
            ),
            name=f"serve/{args.workload}",
        )
    except (EngineError, ValueError) as exc:
        raise CliError(str(exc)) from None

    async def run() -> None:
        server = IngestServer(
            client.fleet,
            host=args.host,
            port=args.port,
            ingest=args.ingest,
            obs_port=args.obs_port,
        )
        try:
            await server.start()
        except OSError as exc:
            raise CliError(f"cannot bind: {exc}") from None
        try:
            host, port = server.address
            print(f"ingest: listening on {host}:{port} "
                  f"(mode={args.mode}, workers={args.workers}, "
                  f"ingest={args.ingest})")
            if server.obs is not None:
                print(f"obs: {server.obs.url} "
                      "(/metrics /healthz /journal)")
            sys.stdout.flush()
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 0


def _fetch_json(url: str):
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return json.loads(response.read()), response.status
    except urllib.error.HTTPError as exc:
        # /healthz answers 503 with a full report body when critical.
        try:
            return json.loads(exc.read()), exc.code
        except ValueError:
            raise CliError(f"{url}: HTTP {exc.code}") from None
    except (urllib.error.URLError, OSError) as exc:
        raise CliError(f"cannot reach {url}: {exc}") from None


def cmd_health(args) -> int:
    """Assess (or fetch) the live health report."""
    from .obs import health as _health

    if args.url:
        payload, _status = _fetch_json(
            args.url.rstrip("/") + "/healthz"
        )
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload.get("status") != "critical" else 1
    report = _health.check(journal=JOURNAL)
    print(_health.render(report))
    return 0 if report.status != "critical" else 1


def cmd_journal(args) -> int:
    """Print flight-recorder events, or reconstruct a migration timeline."""
    import json

    from .obs import journal as _journal

    if args.url:
        query = f"?limit={args.limit}"
        if args.type:
            query += f"&type={args.type}"
        if args.shard:
            query += f"&shard={args.shard}"
        payload, _status = _fetch_json(
            args.url.rstrip("/") + "/journal" + query
        )
        events = [_journal.Event.from_dict(e) for e in payload["events"]]
        dropped = payload.get("dropped", 0)
    elif getattr(args, "from_file", None):
        events = _journal.load_jsonl(args.from_file)
        if args.type:
            events = [e for e in events if e.type == args.type]
        if args.shard:
            events = [e for e in events if e.shard == args.shard]
        events = events[-args.limit:]
        dropped = None
    else:
        events = JOURNAL.events(
            type=args.type, shard=args.shard, limit=args.limit
        )
        dropped = JOURNAL.dropped
    if args.timeline:
        timeline = _journal.migration_timeline(events)
        print(timeline.render())
        return 0 if timeline.zero_downtime else 1
    for event in events:
        print(json.dumps(event.to_dict(), sort_keys=True))
    if dropped:
        print(f"# {dropped} events dropped by the ring buffer",
              file=sys.stderr)
    return 0


def cmd_dot(args) -> int:
    machine = _load(args.machine, args.fill)
    if args.target:
        target = _load(args.target, args.fill)
        print(migration_to_dot(machine, target))
    else:
        print(to_dot(machine))
    return 0


def cmd_deltas(args) -> int:
    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    deltas = delta_transitions(source, target)
    rows = [
        {"input": t.input, "from": t.source, "to": t.target,
         "output": t.output}
        for t in deltas
    ]
    print(format_table(rows, title=f"delta transitions (|Td| = {len(deltas)})")
          if rows else "no delta transitions (migration is trivial)")
    print(
        f"\nbounds: {lower_bound(source, target)} <= |Z| <= "
        f"{upper_bound(source, target)}"
    )
    return 0


def cmd_synth(args) -> int:
    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    program = _synthesise(
        args.method, source, target, args.seed, opt_level=_opt_level(args)
    )
    print(program.render())
    if args.sequence:
        rows = [
            {"r": row.name, "Hi": row.hi, "Hf": row.hf, "Hg": row.hg,
             "write": row.write, "reset": row.reset}
            for row in program.to_sequence()
        ]
        print("\n" + format_table(rows, title="reconfiguration sequence"))
    return 0


def cmd_migrate(args) -> int:
    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    level = _opt_level(args)
    outcome = api.migrate(
        source,
        target,
        options=Options(
            method=args.method, seed=args.seed, opt_level=level
        ),
    )
    program, hw, ok = outcome.program, outcome.hardware, outcome.verified
    publish(probe_hardware(hw))
    opt_note = f" opt={level}" if level != "O0" else ""
    print(
        f"method={args.method}{opt_note} |Z|={len(program)} writes="
        f"{program.write_count} hardware-verified={ok}"
    )
    if not ok:
        shown = 0
        for trans in target.transitions():
            actual = hw.table_entry(trans.input, trans.source)
            if actual != (trans.target, trans.output):
                print(
                    f"  entry ({trans.input}, {trans.source}): expected "
                    f"({trans.target}, {trans.output}), got {actual}",
                    file=sys.stderr,
                )
                shown += 1
                if shown == 5:
                    break
        print("MIGRATION FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_optimize(args) -> int:
    """Synthesise a program, run the pass pipeline, print the report."""
    source = _load(args.source, args.fill)
    target = _load(args.target, args.fill)
    level = _opt_level(args)
    program = _synthesise(args.method, source, target, args.seed)
    optimized, report = api.optimise(
        program, options=Options(method=args.method, opt_level=level)
    )
    print(report.render())
    if args.show_program:
        print()
        print(optimized.render())
    ok = optimized.is_valid() and len(optimized) <= len(program)
    if not ok:
        print("OPTIMIZATION REGRESSION", file=sys.stderr)
    return 0 if ok else 1


def cmd_stats(args) -> int:
    machine = _load(args.machine, args.fill)
    if args.target is None and args.word is None:
        print(
            "error: stats needs a target machine (migration replay) "
            "and/or --word (normal traffic)",
            file=sys.stderr,
        )
        return 2

    verdict: Optional[str] = None
    ok = True
    if args.target is not None:
        target = _load(args.target, args.fill)
        program = _synthesise(
            args.method, machine, target, args.seed,
            opt_level=_opt_level(args),
        )
        hw = HardwareFSM.for_migration(machine, target)
        hw.run_program(program)
        ok = hw.realises(target)
        # Drive normal-mode traffic so the probes see both modes: an
        # explicit word when given, else the target's conformance suite.
        if args.word:
            hw.run(_split_word(args.word, set(machine.inputs)
                               | set(target.inputs)))
        else:
            from .core.verify import verify_hardware

            result = verify_hardware(hw, target)
            ok = ok and result.passed
        verdict = (
            f"migration: method={args.method} |Z|={len(program)} "
            f"writes={program.write_count} hardware-verified={ok}"
        )
    else:
        hw = HardwareFSM(machine)
        hw.run(_split_word(args.word, machine.inputs))

    report = probe_hardware(hw)
    publish(report)
    print(report.render())
    from .engine import numpy_available
    from .engine.streams import STREAM_THRESHOLD, stream_kernel
    from .exec import resolve

    if numpy_available():
        numpy_note = "numpy available"
    else:
        numpy_note = (
            "numpy absent — pure-Python batch kernel; "
            "pip install repro[fast]"
        )
    try:
        backend = resolve("auto")
    except ValueError as exc:  # a REPRO_BACKEND naming no backend
        raise CliError(str(exc)) from None
    print(f"\nengine: backend={backend} ({numpy_note})")
    print(
        f"streams: >={STREAM_THRESHOLD} concurrent streams run on the "
        f"{stream_kernel(STREAM_THRESHOLD)} kernel"
    )
    if verdict is not None:
        print()
        print(verdict)
    return 0 if ok else 1


def cmd_backends(args) -> int:
    """List the execution backends and the dispatcher's pick."""
    from .exec import BackendUnavailable, killswitch, resolve
    from .exec.registry import SUMMARIES, unavailable_reason

    rows = []
    for name in SUMMARIES:
        reason = unavailable_reason(name)
        rows.append({
            "backend": name,
            "available": "yes" if reason is None else f"no — {reason}",
        })
    print(format_table(rows, title="execution backends"))
    print()
    for name, summary in SUMMARIES.items():
        print(f"{name}: {summary}")

    engaged = killswitch.active()
    if engaged:
        print()
        print("kill switches engaged:")
        for env, reason in engaged.items():
            print(f"  {env}: {reason}")
    preference = args.engine
    try:
        pick = resolve(preference)
    except ValueError as exc:  # a bad REPRO_BACKEND spelling
        raise CliError(str(exc)) from None
    except BackendUnavailable as exc:
        print(
            f"\ndispatcher pick for {preference!r}: ERROR — {exc}",
            file=sys.stderr,
        )
        return 2
    forced = os.environ.get("REPRO_BACKEND")
    via = f" (REPRO_BACKEND={forced})" if forced and preference == "auto" \
        else ""
    print(f"\ndispatcher pick for {preference!r}: {pick}{via}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(Self-)reconfigurable FSM toolkit (Köster & Teich, "
                    "DATE 2002 reproduction)",
    )
    parser.add_argument(
        "--fill",
        metavar="BITS",
        help="complete unspecified KISS entries with self-loops emitting "
             "BITS",
    )
    parser.add_argument(
        "--metrics",
        choices=("json", "prom", "off"),
        default="off",
        help="print a metrics snapshot to stderr after the command "
             "(JSON or Prometheus text exposition)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_out(p) -> None:
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write the span trace as JSONL to FILE",
        )

    def add_engine(p, default: str = "auto") -> None:
        p.add_argument(
            "--engine",
            choices=ENGINE_MODES,
            default=default,
            help="execution backend: auto (table unless REPRO_BACKEND "
                 "says otherwise), table (dense tables; the stream "
                 "kernel is picked per call), table-shm/shm, or "
                 "cycle/off (cycle-accurate per-symbol serving; "
                 f"default {default})",
        )

    def add_opt_level(p, default: Optional[str] = None) -> None:
        p.add_argument(
            "--opt-level",
            metavar="LEVEL",
            default=default,
            help="optimization pass-pipeline level: O0 (none) or O2 "
                 f"(default {default or 'O0'})",
        )

    p = sub.add_parser("info", help="machine statistics")
    p.add_argument("machine")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("minimize", help="emit the minimal equivalent machine")
    p.add_argument("machine")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("vhdl", help="emit VHDL")
    p.add_argument("machine")
    p.add_argument("--reconfigurable", action="store_true",
                   help="Fig. 5 structural architecture instead of "
                        "behavioural")
    p.add_argument("--extra-states", type=int, default=0,
                   help="superset headroom for future migrations")
    p.set_defaults(func=cmd_vhdl)

    p = sub.add_parser(
        "suite", help="run the named workload suite with one method"
    )
    p.add_argument("--method", choices=METHODS, default="jsr")
    p.add_argument("--seed", type=int, default=0)
    add_engine(p, default="off")
    add_opt_level(p)
    add_trace_out(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "report", help="full markdown migration report (all synthesisers)"
    )
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verilog", help="emit Verilog")
    p.add_argument("machine")
    p.add_argument("--reconfigurable", action="store_true",
                   help="Fig. 5 structural architecture instead of "
                        "behavioural")
    p.add_argument("--extra-states", type=int, default=0)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("simulate", help="run an input word on the datapath")
    p.add_argument("machine")
    p.add_argument("word", help="input symbols, concatenated or "
                                "comma-separated")
    p.add_argument("--vcd", help="also write a VCD waveform to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "verify",
        help="synthesise a migration and certify it by conformance testing",
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--method", choices=METHODS, default="ea")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-states", type=int, default=0,
                   help="W-method bound on implementation state growth")
    add_opt_level(p)
    add_trace_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fleet",
        help="serve synthetic traffic from a sharded fleet across a "
             "zero-downtime rolling migration",
    )
    p.add_argument("--workload", default="ctrl/pattern-1011-to-0110",
                   help="suite pair to serve/migrate (see `repro suite`)")
    p.add_argument("--workers", type=int, default=4,
                   help="shards (= worker threads = datapath replicas)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replicas per shard (>1 turns every shard into "
                        "a group of worker processes, one serving and the "
                        "rest hot spares; needs --mode process; see "
                        "repro.replica)")
    p.add_argument("--mode", choices=("thread", "process"),
                   default="thread",
                   help="shard serving substrate: in-process threads, or "
                        "worker processes with shared-memory tables "
                        "(table-shm; breaks the GIL)")
    p.add_argument("--requests", type=int, default=200,
                   help="traffic batches to submit")
    p.add_argument("--batch", type=int, default=16,
                   help="input symbols per batch")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard queue bound (backpressure threshold)")
    p.add_argument("--stall-budget", type=int, default=12,
                   help="reconfiguration cycles stolen per batch gap")
    p.add_argument("--link-latency-ms", type=float, default=0.0,
                   help="modelled device round-trip per batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="erase an F-RAM word mid-run to exercise "
                        "quarantine + re-seed")
    p.add_argument("--journal-out", metavar="FILE",
                   help="record the flight-recorder journal and write it "
                        "as JSONL to FILE (replayable with "
                        "`repro journal --from FILE --timeline`)")
    add_engine(p)
    add_opt_level(p)
    add_trace_out(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="serve a fleet over the asyncio ingestion socket "
             "(frame protocol; see docs/fleet.md)",
    )
    p.add_argument("--workload", default="ctrl/pattern-1011-to-0110",
                   help="suite pair whose source machine the fleet serves")
    p.add_argument("--workers", type=int, default=4,
                   help="shards (threads or worker processes)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replicas per shard (>1 serves each shard from "
                        "a group of worker processes; needs --mode "
                        "process; see repro.replica)")
    p.add_argument("--mode", choices=("thread", "process"),
                   default="thread",
                   help="shard serving substrate (thread pool, or worker "
                        "processes over the shared-memory ring)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for the ingestion socket")
    p.add_argument("--port", type=int, default=0,
                   help="ingestion port (0 = ephemeral, printed on start)")
    p.add_argument("--obs-port", type=int, default=None,
                   help="also serve /metrics, /healthz and /journal on "
                        "this port, on the same event loop")
    p.add_argument("--ingest", choices=("wait", "reject"), default="wait",
                   help="admission under saturation: await a free slot, "
                        "or reject in-band immediately")
    p.add_argument("--duration", type=float, default=0.0,
                   help="serve for this many seconds then exit "
                        "(0 = run until interrupted)")
    add_engine(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    p.add_argument("machine")
    p.add_argument("--target", help="render the migration view instead")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("deltas", help="delta transitions of a migration")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_deltas)

    p = sub.add_parser(
        "stats",
        help="replay a simulation and print the hardware probe report",
    )
    p.add_argument("machine")
    p.add_argument("target", nargs="?",
                   help="migration target; omit to probe a plain run "
                        "(then --word is required)")
    p.add_argument("--method", choices=METHODS, default="jsr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word",
                   help="input symbols to drive in normal mode "
                        "(default for migrations: the target's W-method "
                        "conformance suite)")
    add_opt_level(p)
    add_trace_out(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "backends",
        help="list the execution backends, their availability, and "
             "the dispatcher's pick",
    )
    add_engine(p)
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser(
        "health",
        help="print the live health report (detectors over the journal; "
             "--url scrapes a running obs endpoint's /healthz)",
    )
    p.add_argument("--url", default=None,
                   help="base URL of a running observability endpoint "
                        "(e.g. http://127.0.0.1:9464)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "journal",
        help="print flight-recorder events, or reconstruct the migration "
             "timeline from them",
    )
    p.add_argument("--url", default=None,
                   help="base URL of a running observability endpoint")
    p.add_argument("--from", dest="from_file", metavar="FILE",
                   help="read events from a JSONL export instead of the "
                        "in-process journal")
    p.add_argument("--limit", type=int, default=100,
                   help="newest N events to show (default 100)")
    p.add_argument("--type", default=None,
                   help="filter by event type (e.g. serve.batch)")
    p.add_argument("--shard", default=None,
                   help="filter by shard label")
    p.add_argument("--timeline", action="store_true",
                   help="fold the events into a per-shard migration "
                        "timeline (exit 1 unless it proves zero downtime)")
    p.set_defaults(func=cmd_journal)

    for name, handler, extra_help in (
        ("synth", cmd_synth, "synthesise a reconfiguration program"),
        ("migrate", cmd_migrate, "synthesise + hardware-verify a migration"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("source")
        p.add_argument("target")
        p.add_argument("--method", choices=METHODS, default="ea")
        p.add_argument("--seed", type=int, default=0)
        if name == "synth":
            p.add_argument("--sequence", action="store_true",
                           help="also print the Table-1 style H-sequence")
        add_opt_level(p)
        add_trace_out(p)
        p.set_defaults(func=handler)

    p = sub.add_parser(
        "optimize",
        help="synthesise a program, run the optimization pass pipeline "
             "and print the per-pass cost report",
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--method", choices=METHODS, default="ea")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-program", action="store_true",
                   help="also print the optimized program")
    add_opt_level(p, default="O2")
    add_trace_out(p)
    p.set_defaults(func=cmd_optimize)

    return parser


def _emit_observability(
    metrics_mode: str,
    trace_out: Optional[str],
    journal_out: Optional[str] = None,
) -> None:
    """Flush the turn's metrics/trace/journal to their destinations."""
    if metrics_mode == "json":
        print(REGISTRY.to_json(), file=sys.stderr)
    elif metrics_mode == "prom":
        print(REGISTRY.render_prometheus(), end="", file=sys.stderr)
    if trace_out:
        try:
            TRACER.export(trace_out)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
        else:
            print(
                f"trace written to {trace_out} ({len(TRACER.spans)} spans)",
                file=sys.stderr,
            )
    if journal_out:
        try:
            JOURNAL.export(journal_out)
        except OSError as exc:
            print(f"error: cannot write journal: {exc}", file=sys.stderr)
        else:
            print(
                f"journal written to {journal_out} ({len(JOURNAL)} events, "
                f"{JOURNAL.dropped} dropped)",
                file=sys.stderr,
            )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_mode = getattr(args, "metrics", "off")
    trace_out = getattr(args, "trace_out", None)
    journal_out = getattr(args, "journal_out", None)
    for out, what in ((trace_out, "trace"), (journal_out, "journal")):
        if out:
            parent = os.path.dirname(out) or "."
            if not os.path.isdir(parent):
                print(
                    f"error: {what} output directory does not exist: "
                    f"{parent}",
                    file=sys.stderr,
                )
                return 2
    # `repro health` / `repro journal` read the in-process recorders;
    # resetting them on entry would erase exactly what they report.
    inspecting = args.func in (cmd_health, cmd_journal)
    obs_configure(
        metrics=metrics_mode != "off",
        tracing=metrics_mode != "off" or trace_out is not None,
        journal=journal_out is not None,
        reset=not inspecting,
    )
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        missing = exc.filename or str(exc)
        print(f"error: file not found: {missing}", file=sys.stderr)
        return 2
    except KissError as exc:
        print(f"error: malformed KISS2 input: {exc}", file=sys.stderr)
        return 2
    except UninitialisedRead as exc:
        print(f"error: uninitialised RAM read: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _emit_observability(metrics_mode, trace_out, journal_out)
        # Restore the process-wide default (recorded values are kept so
        # embedders can still inspect REGISTRY / TRACER / JOURNAL after
        # main()).
        REGISTRY.disable()
        TRACER.disable()
        JOURNAL.disable()


if __name__ == "__main__":
    sys.exit(main())
