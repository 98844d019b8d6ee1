"""The named migration-pair suite: one registry for regression benches.

Collects every migration pair the repository knows how to build — the
paper's figure pairs, controller upgrades, protocol revisions, grown
machines, random families — under stable names, so benchmarks and
regression tests can iterate "the suite" instead of hand-picking
workloads.  Each entry is a zero-argument factory returning a fresh
``(source, target)`` pair (machines are mutable-free, but fresh copies
keep tests independent).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..api import METHODS  # noqa: F401  (re-exported for compatibility)
from ..core.fsm import FSM, Input
from ..obs import instruments as _instruments
from ..obs.probes import probe_hardware, publish
from ..obs.tracing import span as _span
from ..protocols.packet import revision
from ..protocols.parser import build_parser
from .library import (
    fig6_m,
    fig6_m_prime,
    fig7_m,
    fig7_m_prime,
    gray_counter,
    ones_detector,
    parity_checker,
    sequence_detector,
    table1_target,
    zeros_detector,
)
from .mutate import grow_target, mutate_target, workload_pair
from .random_fsm import random_fsm

PairFactory = Callable[[], Tuple[FSM, FSM]]


def _paper_pairs() -> Dict[str, PairFactory]:
    return {
        "paper/table1": lambda: (ones_detector(), table1_target()),
        "paper/fig6": lambda: (fig6_m(), fig6_m_prime()),
        "paper/fig7": lambda: (fig7_m(), fig7_m_prime()),
        "paper/mirror": lambda: (ones_detector(), zeros_detector()),
    }


def _controller_pairs() -> Dict[str, PairFactory]:
    return {
        "ctrl/pattern-1011-to-0110": lambda: (
            sequence_detector("1011"),
            sequence_detector("0110"),
        ),
        "ctrl/pattern-grow": lambda: (
            sequence_detector("101"),
            sequence_detector("10101"),
        ),
        "ctrl/parity-to-detector": lambda: (
            parity_checker().renamed(
                {"EVEN": "S0", "ODD": "S1"}, name="parity"
            ),
            ones_detector(),
        ),
        "ctrl/gray-reverse": lambda: (
            gray_counter(2),
            _reversed_gray(2),
        ),
    }


def _reversed_gray(bits: int) -> FSM:
    forward = gray_counter(bits)
    # reverse the count direction: en steps backwards through the ring
    table = {}
    for t in forward.transitions():
        if t.input == "en":
            table[("en", t.target)] = (
                t.source,
                forward.output("hold", t.source),
            )
        else:
            table[(t.input, t.source)] = (t.target, t.output)
    return FSM(
        forward.inputs,
        forward.outputs,
        forward.states,
        forward.reset_state,
        table,
        name=f"gray{bits}_rev",
    )


def _protocol_pairs() -> Dict[str, PairFactory]:
    def parsers(old_codes, new_codes, bits=4):
        old = build_parser(revision("old", bits, set(old_codes)))
        new = build_parser(revision("new", bits, set(new_codes)))
        return old, new

    return {
        "proto/add-one-class": lambda: parsers({0x8, 0x6}, {0x8, 0x6, 0xD}),
        "proto/policy-flip": lambda: parsers({0x1, 0x2}, {0xD, 0xE}),
        "proto/lockdown": lambda: parsers({0x8, 0x6, 0xF}, {0xF}),
    }


def _synthetic_pairs() -> Dict[str, PairFactory]:
    return {
        "rand/small-sparse": lambda: workload_pair(6, 2, seed=101),
        "rand/small-dense": lambda: workload_pair(6, 9, seed=102),
        "rand/medium": lambda: workload_pair(12, 8, seed=103),
        "rand/wide-alphabet": lambda: workload_pair(
            8, 6, seed=104, n_inputs=4, n_outputs=4
        ),
        "rand/grow": lambda: (
            random_fsm(n_states=6, seed=105),
            grow_target(random_fsm(n_states=6, seed=105), 3, seed=105),
        ),
        "rand/outputs-only": lambda: (
            random_fsm(n_states=8, seed=106),
            mutate_target(
                random_fsm(n_states=8, seed=106), 5, seed=107,
                outputs_only=True,
            ),
        ),
    }


def migration_suite() -> Dict[str, PairFactory]:
    """The full named suite (name → fresh-pair factory)."""
    suite: Dict[str, PairFactory] = {}
    suite.update(_paper_pairs())
    suite.update(_controller_pairs())
    suite.update(_protocol_pairs())
    suite.update(_synthetic_pairs())
    return suite


def suite_names() -> List[str]:
    """Stable, sorted list of suite entry names."""
    return sorted(migration_suite())


def suite_pair(name: str) -> Tuple[FSM, FSM]:
    """One fresh ``(source, target)`` pair by suite name.

    The accessor the CLI (``repro fleet``) and the fleet benchmarks use;
    raises ``KeyError`` naming the known workloads on a typo.
    """
    suite = migration_suite()
    if name not in suite:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(sorted(suite))}"
        )
    return suite[name]()


def traffic_words(
    machine: FSM,
    n_words: int,
    length: int,
    seed: int = 0,
    inputs: Optional[Sequence[Input]] = None,
) -> List[List[Input]]:
    """Seeded synthetic traffic: ``n_words`` random input words.

    Symbols are drawn uniformly from ``inputs`` when given (e.g. the
    old∩new alphabet during a rolling upgrade), else from the machine's
    own input alphabet.
    """
    if length < 1 or n_words < 0:
        raise ValueError("traffic needs non-negative words of length >= 1")
    pool = list(machine.inputs if inputs is None else inputs)
    if not pool:
        raise ValueError("empty input pool")
    rng = random.Random(f"traffic/{seed}")
    return [
        [rng.choice(pool) for _ in range(length)] for _ in range(n_words)
    ]


def run_migration_suite(
    method: str = "jsr",
    seed: int = 0,
    hardware: bool = True,
    opt_level: "str | int | None" = None,
    engine: str = "off",
) -> List[Dict[str, Any]]:
    """Run every suite workload with one method, fully instrumented.

    Each workload gets a ``suite.workload`` span; with ``hardware`` the
    synthesised program is additionally replayed on the cycle-accurate
    datapath, the RAM contents checked against the target, and the
    hardware probe counters published to the metrics registry under a
    ``workload`` label.  With an ``engine`` mode other than ``"off"``
    the migrated datapath is additionally checked differentially
    through the execution layer — the :class:`repro.exec.Dispatcher`
    picks the backend, and seeded traffic served through it must match
    the target machine's reference outputs word for word.  Returns one
    result row per workload.
    """
    from .. import api
    from ..core.delta import delta_count
    from ..hw.machine import HardwareFSM

    rows: List[Dict[str, Any]] = []
    for name, factory in sorted(migration_suite().items()):
        with _span("suite.workload", workload=name, method=method) as sp:
            source, target = factory()
            program = api.synthesise(
                source,
                target,
                options=api.Options(
                    method=method, seed=seed, opt_level=opt_level
                ),
            )
            ok = program.is_valid()
            hw_ok: Optional[bool] = None
            engine_ok: Optional[bool] = None
            if hardware:
                hw = HardwareFSM.for_migration(source, target)
                hw.run_program(program)
                hw_ok = hw.realises(target)
                ok = ok and hw_ok
                if engine != "off" and hw_ok:
                    from ..engine import EngineError
                    from ..exec import Dispatcher

                    words = traffic_words(target, 16, 8, seed=seed)
                    try:
                        # The dispatcher picks the backend (honouring
                        # REPRO_BACKEND / REPRO_DISABLE_NUMPY at this
                        # moment); commit=False keeps the replayed
                        # datapath's architectural state untouched.
                        backend = Dispatcher(engine).select(hw).backend
                        engine_ok = all(
                            backend.run_batch(
                                word,
                                start=target.reset_state,
                                commit=False,
                            ).outputs == target.run(word)
                            for word in words
                        )
                    except EngineError:
                        engine_ok = False
                    ok = ok and engine_ok
                publish(probe_hardware(hw), workload=name)
            sp.attrs["length"] = len(program)
            sp.attrs["valid"] = ok
        _instruments.record_workload(method, ok)
        row: Dict[str, Any] = {
            "workload": name,
            "|Td|": delta_count(source, target),
            "|Z|": len(program),
            "writes": program.write_count,
            "valid": ok,
        }
        if engine_ok is not None:
            row["engine"] = engine_ok
        rows.append(row)
    return rows
