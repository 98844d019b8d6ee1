"""Migration planning over families of machines.

A self-reconfigurable system rarely migrates between just two machines:
a protocol processor cycles through revisions, a matcher through
patterns.  This module plans over a *family*:

* :class:`MigrationGraph` — all pairwise reconfiguration programs,
  synthesised once and cached;
* :func:`route` — cheapest migration route, possibly *via* intermediate
  machines.  Program length is not a metric (it is not even symmetric),
  so routing through a structurally-between machine can genuinely beat
  the direct program — Floyd-Warshall over the program-length matrix
  finds those cases;
* :func:`plan_supersets` — the encoding the shared hardware needs
  (Def. 4.1 supersets over the whole family), with its resource cost.

Synthesis is memoised behind :class:`SynthesisCache`, a thread-safe,
fingerprint-keyed cache: concurrent requests for the same ordered pair
run the synthesiser exactly once (the first caller computes, the rest
block on a shared future), and structurally identical machines share an
entry regardless of their names.  :class:`MigrationGraph` uses it
internally; the fleet layer (:mod:`repro.fleet.plancache`) layers its
own cache on the same machinery so many shard workers never duplicate
an EA run.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar,
)

from .alphabet import Alphabet
from .delta import delta_count
from .ea import EAConfig, ea_program
from .fsm import FSM
from .jsr import jsr_program
from .passes import OptLevel, PassPipeline, normalise_level
from .program import Program

T = TypeVar("T")


def fsm_fingerprint(fsm: FSM) -> str:
    """Stable structural fingerprint (hex digest) of a machine.

    Two machines with the same alphabets, state set, reset state and
    transition table get the same fingerprint — names are deliberately
    ignored, so a renamed copy hits the same cache entry.  The digest is
    content-addressed (SHA-256 over a canonical serialisation), stable
    across processes, and short enough to use as a metric label.

    Memoised on the machine: an :class:`FSM` is immutable apart from
    its name, which the fingerprint ignores.
    """
    cached = fsm.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    payload = repr((
        sorted(repr(i) for i in fsm.inputs),
        sorted(repr(o) for o in fsm.outputs),
        sorted(repr(s) for s in fsm.states),
        repr(fsm.reset_state),
        sorted((repr(k), repr(v)) for k, v in fsm.table.items()),
    ))
    fsm._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return fsm._fingerprint


def make_synthesiser(
    synthesiser: "str | Callable[[FSM, FSM], Program]" = "ea",
    ea_config: Optional[EAConfig] = None,
) -> Callable[[FSM, FSM], Program]:
    """Resolve the ``synthesiser`` argument shared by planner and cache."""
    config = ea_config or EAConfig(population_size=24, generations=25, seed=0)
    if synthesiser == "ea":
        return lambda s, t: ea_program(s, t, config=config)
    if synthesiser == "jsr":
        return jsr_program
    if callable(synthesiser):
        return synthesiser
    raise ValueError(f"unknown synthesiser {synthesiser!r}")


#: Entries a plan memo keeps, least recently used out first.  Callers
#: revisit recent pairs (a rollout per shard, a hop back along a chain);
#: an unbounded memo would hold every pair a long-running fleet ever
#: planned.
MEMO_ENTRIES = 64


class FutureMemo:
    """Thread-safe, bounded memo that computes each key once.

    The first caller for a key computes while later callers block on a
    shared :class:`~concurrent.futures.Future`; a failure propagates to
    every waiter and is *not* cached, so a later call retries.  At most
    :attr:`max_entries` keys are kept, evicting the least recently used.
    """

    #: The bound; :class:`MigrationGraph` widens its own cache's to its
    #: family.
    max_entries = MEMO_ENTRIES

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._futures: "OrderedDict[Hashable, Future]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value for ``key``, running ``compute`` on a miss."""
        with self._lock:
            future = self._futures.get(key)
            owner = future is None
            if owner:
                future = self._futures[key] = Future()
                self.misses += 1
                if len(self._futures) > self.max_entries:
                    self._futures.popitem(last=False)
            else:
                self._futures.move_to_end(key)
                self.hits += 1
        if not owner:
            return future.result()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                if self._futures.get(key) is future:
                    del self._futures[key]
            future.set_exception(exc)
            raise
        future.set_result(value)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._futures)

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._futures),
                "hits": self.hits,
                "misses": self.misses,
            }


class SynthesisCache(FutureMemo):
    """Thread-safe memoisation of ``(source, target) -> Program``.

    Keys are fingerprint pairs, so structurally equal machines share
    entries; each is synthesised once, a failure is not cached, and the
    entries are bounded, as for every :class:`FutureMemo`.

    When an ``opt_level`` is given, the synthesised program is run
    through the standard :class:`~repro.core.passes.PassPipeline` before
    it is cached — so the (possibly expensive) optimization, like the
    synthesis itself, happens exactly once per key.  The level is part
    of the cache key: the same pair requested at ``-O0`` and ``-O2``
    yields two independent entries, never a cross-contaminated one.
    """

    def __init__(
        self,
        synthesiser: Callable[[FSM, FSM], Program],
        opt_level: OptLevel = None,
    ):
        super().__init__()
        self._synth = synthesiser
        self.opt_level = normalise_level(opt_level)
        self._pipeline = (
            PassPipeline.for_level(self.opt_level)
            if self.opt_level != "O0"
            else None
        )

    def program(self, source: FSM, target: FSM) -> Program:
        """The (memoised) program for one ordered pair."""
        key = (
            fsm_fingerprint(source),
            fsm_fingerprint(target),
            self.opt_level,
        )

        def synthesise() -> Program:
            program = self._synth(source, target)
            if self._pipeline is not None:
                program, _report = self._pipeline.run(program)
            return program

        return self.get(key, synthesise)


@dataclass
class Route:
    """A migration route through the family graph."""

    hops: List[str]
    total_cycles: int
    programs: List[Program] = field(default_factory=list)

    @property
    def direct(self) -> bool:
        return len(self.hops) == 2


class MigrationGraph:
    """Pairwise reconfiguration programs over a machine family.

    Parameters
    ----------
    machines:
        The family; names must be unique (they key the graph).
    synthesiser:
        ``"ea"`` (default) or ``"jsr"``, or any callable
        ``(source, target) -> Program``.
    opt_level:
        Optional pass-pipeline level (``"O0"``/``"O2"``); every
        cached program is optimized at this level before use, so route
        costs and routing gains are computed over the optimized lengths.
    """

    def __init__(
        self,
        machines: Sequence[FSM],
        synthesiser: "str | Callable[[FSM, FSM], Program]" = "ea",
        ea_config: Optional[EAConfig] = None,
        opt_level: OptLevel = None,
    ):
        if len({m.name for m in machines}) != len(machines):
            raise ValueError("family machines must have unique names")
        if len(machines) < 2:
            raise ValueError("a family needs at least two machines")
        self.machines: Dict[str, FSM] = {m.name: m for m in machines}
        self._synth = make_synthesiser(synthesiser, ea_config)
        self._cache = SynthesisCache(self._synth, opt_level=opt_level)
        # Every sweep (cost matrix, routing) visits each ordered pair, so
        # the graph's cache holds the whole family: a smaller one would
        # re-synthesise every pair on every sweep.
        n = len(self.machines)
        self._cache.max_entries = max(MEMO_ENTRIES, n * (n - 1))
        self.opt_level = self._cache.opt_level

    @property
    def names(self) -> List[str]:
        return sorted(self.machines)

    @property
    def cache(self) -> SynthesisCache:
        """The shared synthesis cache (thread-safe, fingerprint-keyed)."""
        return self._cache

    def fingerprint(self, name: str) -> str:
        """The structural fingerprint of one family member."""
        return fsm_fingerprint(self.machines[name])

    def cache_info(self) -> Dict[str, int]:
        """Entries / hits / misses of the underlying synthesis cache."""
        return self._cache.cache_info()

    def program(self, source: str, target: str) -> Program:
        """The (cached) direct program for one ordered pair.

        Safe to call from many threads: concurrent requests for the same
        pair run the synthesiser once and share the resulting program.
        """
        return self._cache.program(
            self.machines[source], self.machines[target]
        )

    def cost_matrix(self) -> Dict[Tuple[str, str], int]:
        """Direct program length for every ordered pair (0 on diagonal)."""
        matrix: Dict[Tuple[str, str], int] = {}
        for a in self.names:
            for b in self.names:
                matrix[(a, b)] = 0 if a == b else len(self.program(a, b))
        return matrix

    def delta_matrix(self) -> Dict[Tuple[str, str], int]:
        """``|T_d|`` for every ordered pair."""
        return {
            (a, b): delta_count(self.machines[a], self.machines[b])
            for a in self.names
            for b in self.names
        }

    def is_symmetric(self) -> bool:
        """Program lengths are generally *not* symmetric; check this family."""
        matrix = self.cost_matrix()
        return all(
            matrix[(a, b)] == matrix[(b, a)]
            for a in self.names
            for b in self.names
        )

    def route(self, source: str, target: str) -> Route:
        """Cheapest migration route, allowing intermediate machines.

        Floyd-Warshall over the direct-cost matrix.  Multi-hop routes
        replay each hop's program in sequence (each hop ends in its
        target's reset state, which is exactly where the next hop's
        program begins — the programs compose soundly).
        """
        names = self.names
        cost = {key: value for key, value in self.cost_matrix().items()}
        via: Dict[Tuple[str, str], Optional[str]] = {
            key: None for key in cost
        }
        for k in names:
            for a in names:
                for b in names:
                    through = cost[(a, k)] + cost[(k, b)]
                    if through < cost[(a, b)]:
                        cost[(a, b)] = through
                        via[(a, b)] = k

        def unfold(a: str, b: str) -> List[str]:
            middle = via[(a, b)]
            if middle is None:
                return [a, b]
            return unfold(a, middle)[:-1] + unfold(middle, b)

        hops = unfold(source, target) if source != target else [source]
        programs = [
            self.program(a, b) for a, b in zip(hops, hops[1:])
        ]
        return Route(
            hops=hops,
            total_cycles=sum(len(p) for p in programs),
            programs=programs,
        )

    def routing_gains(self) -> List[Tuple[str, str, int, int]]:
        """Pairs where an indirect route beats the direct program.

        Returns ``(source, target, direct, routed)`` rows; empty when the
        direct programs already dominate.
        """
        gains = []
        for a in self.names:
            for b in self.names:
                if a == b:
                    continue
                direct = len(self.program(a, b))
                routed = self.route(a, b).total_cycles
                if routed < direct:
                    gains.append((a, b, direct, routed))
        return gains


@dataclass(frozen=True)
class SupersetPlan:
    """The shared encoding a family needs on one datapath (Def. 4.1)."""

    inputs: Alphabet
    outputs: Alphabet
    states: Alphabet

    @property
    def address_bits(self) -> int:
        return self.inputs.width + self.states.width

    @property
    def f_ram_bits(self) -> int:
        return (2 ** self.address_bits) * self.states.width

    @property
    def g_ram_bits(self) -> int:
        return (2 ** self.address_bits) * self.outputs.width


def plan_supersets(machines: Sequence[FSM]) -> SupersetPlan:
    """Union alphabets over a whole family, first machine's codes stable."""
    if not machines:
        raise ValueError("empty family")
    inputs = Alphabet(machines[0].inputs)
    outputs = Alphabet(machines[0].outputs)
    states = Alphabet(machines[0].states)
    for machine in machines[1:]:
        inputs = inputs.union(Alphabet(machine.inputs))
        outputs = outputs.union(Alphabet(machine.outputs))
        states = states.union(Alphabet(machine.states))
    return SupersetPlan(inputs=inputs, outputs=outputs, states=states)
