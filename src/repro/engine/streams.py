"""The multi-stream execution plane: one kernel, many independent FSMs.

A single FSM stream is inherently sequential — each step needs the
previous step's state — so vectorizing *within* one stream buys
nothing (``BENCH_engine_throughput.json`` showed the per-symbol numpy
path losing to the pure-Python loop).  The axis that does amortize is
*across* streams: a ``(n_streams, n_symbols)`` batch of independent
sessions stepped together, one table gather serving every stream at
once — the paper's Fig. 5 table-lookup datapath replicated across
lanes instead of across clock edges.

Three pieces make that the first-class unit of work:

* :class:`StreamTables` — a :class:`~repro.engine.CompiledFSM` re-packed
  for lane gathers.  State-major flat layout
  (``state * n_inputs + symbol``), entries *pre-scaled* by ``n_inputs``
  so the per-step address is a single add.  The next-state table is
  ``intp``, the one index dtype ``take`` does not convert on every
  step; the output table is packed into the smallest of ``uint8`` /
  ``uint16`` / ``int32`` that holds the padded address space, so the
  gathered output matrix the garbage scan and ``match_counts`` read
  stays narrow.  The signed sentinels of
  the compiled view are remapped to unsigned codes: an unset F-word
  becomes a *self-trapping hole* (``hole_base``) whose pad rows keep a
  trapped lane parked until retirement, an unset G-word becomes
  ``out_none`` (legal: output ``None``) and an undecodable G-word
  becomes ``out_garbage`` (raises).  The trap design removes every per-step
  validity check from the kernel: holes are detected by one vectorized
  scan of the final states, garbage by one scan of the gathered
  outputs — and both scans are skipped entirely for complete tables.
* :class:`StreamBatch` — the encoded form of many input words: one
  dict lookup per symbol into a flat code buffer, lanes sorted by
  length descending, which the numpy kernel reshapes (or, for ragged
  lanes, scatters once) into its time-major code matrix; ragged
  batches run with a shrinking *active prefix* instead of per-step
  masks.  Encoding is the per-symbol Python work; a batch encodes
  **once** and replays against any machine sharing the same input
  alphabet — the EA evaluates a whole population against one encoded
  trace set.
* :class:`StreamRun` — the lazy result.  The kernel materialises only
  the address matrix and final states; outputs, visit counts and
  per-stream :class:`~repro.engine.WordRun` views are derived on
  demand, every lane in one pass of whole-matrix calls, so callers that
  only need final states (fitness evaluation) never pay for them.

Semantics match the sequential engine exactly: for every stream,
``run_streams(words)[i]`` is bit-identical to ``run_word(words[i])`` —
outputs, final state and visit counts — and any stream that would make
``run_word`` raise makes the whole batch raise (callers replay
per-stream to reproduce the exact per-stream error; the fleet's
``TableMiss`` path does exactly that).  The pure-Python kernel *is*
a ``run_word`` loop, so the equivalence holds with or without numpy.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, islice, repeat
from typing import Dict, List, Optional, Sequence, Union

from ..core.fsm import Input, Output, State
from .compiled import (
    _GARBAGE,
    CompiledFSM,
    EngineError,
    UnconfiguredEntry,
    WordRun,
    _numpy,
)

__all__ = [
    "STREAM_THRESHOLD",
    "StreamBatch",
    "StreamRun",
    "StreamTables",
    "stream_dtype_name",
    "stream_kernel",
]

#: Lanes needed before :func:`stream_kernel` picks the numpy kernel.
#: A single stream runs fastest in the pure-Python loop.  End to end
#: from raw words (encode + kernel + ``word_runs()``, 64-symbol words,
#: ``BENCH_engine_throughput.json``) numpy breaks even with the
#: per-stream ``run_word`` loop at about 20 lanes and is ~1.2x at 32
#: and ~1.5x at 64; the threshold sits just above the crossover.  It
#: equals the fleet's default coalescing bound, so a full coalesced run
#: of distinct sessions is one numpy batch.
STREAM_THRESHOLD = 32

#: The kernels :meth:`CompiledFSM.run_stream_batch` accepts.
KERNELS = ("python", "numpy")

#: The packed dtypes, narrowest first; the packer picks the first that
#: holds the padded address space (and the output sentinel codes).
_DTYPE_CEILINGS = (("uint8", 0xFF), ("uint16", 0xFFFF), ("int32", 0x7FFFFFFF))


def stream_dtype_name(n_inputs: int, n_states: int, n_outputs: int) -> str:
    """The packed dtype the stream plane would pick for this geometry:
    the narrowest that holds the padded address space, the dtype of
    :attr:`StreamTables.out_padded` and of the gathered output matrix.

    :class:`StreamTables` packs with it; exposed so tests can check a
    geometry's dtype without building tables.
    """
    size = n_inputs * n_states
    maxval = max(size + n_inputs, n_outputs + 1)
    for name, ceiling in _DTYPE_CEILINGS:
        if maxval <= ceiling:
            return name
    raise EngineError(
        f"table of {size} entries exceeds the int32 stream-plane packing"
    )


class StreamTables:
    """A compiled view re-packed for the lane-gather kernel.

    Flat state-major layout ``state * n_inputs + symbol`` with every
    next-state entry pre-scaled by ``n_inputs``, so one step of the
    kernel is exactly two array calls: ``add(states, symbols) -> addr``
    then ``take(next, addr) -> states``.  See the module docstring for
    the sentinel remap and the self-trapping hole pad.
    """

    __slots__ = (
        "dtype",
        "dtype_name",
        "n_inputs",
        "n_states",
        "n_outputs",
        "size",
        "hole_base",
        "safe_addr",
        "out_none",
        "out_garbage",
        "next_padded",
        "out_padded",
        "next_codes",
        "out_symbols",
        "complete",
        "has_garbage",
    )

    def __init__(self, compiled: CompiledFSM):
        np = _numpy()
        if np is None:
            raise EngineError(
                "the packed stream tables need numpy (pure-Python stream "
                "runs go through the run_word loop instead)"
            )
        n_i = compiled.n_inputs
        n_s = compiled.n_states
        n_o = len(compiled.outputs)
        size = n_i * n_s
        self.n_inputs = n_i
        self.n_states = n_s
        self.n_outputs = n_o
        self.size = size
        #: A lane whose (scaled) state reaches ``hole_base`` hit an
        #: unserveable F-entry; the pad rows keep it parked there.
        self.hole_base = size
        #: Address the padded matrices are initialised with: reads as
        #: ``out_none``, so retired/ragged cells pass every check.
        self.safe_addr = size + n_i
        self.out_none = n_o
        self.out_garbage = n_o + 1
        self.dtype_name = stream_dtype_name(n_i, n_s, n_o)
        self.dtype = np.dtype(self.dtype_name)
        padded = size + n_i + 1
        #: The next-state table the kernel gathers from, in ``intp``:
        #: numpy converts an index array of any other dtype on every
        #: ``take``, which costs more per step than a narrow dtype saves
        #: below a few thousand lanes.
        nxt = np.full(padded, self.hole_base, dtype=np.intp)
        out = np.full(padded, self.out_none, dtype=self.dtype)
        src_next = compiled.next_table
        src_out = compiled.out_table
        complete = True
        has_garbage = False
        for s_code in range(n_s):
            row = s_code * n_i
            for i_code in range(n_i):
                src_addr = i_code * n_s + s_code  # compiled is input-major
                ns = src_next[src_addr]
                oc = src_out[src_addr]
                if ns >= 0:
                    nxt[row + i_code] = ns * n_i
                else:
                    complete = False  # stays hole_base (self-trapping)
                if oc >= 0:
                    out[row + i_code] = oc
                elif oc == _GARBAGE:
                    out[row + i_code] = self.out_garbage
                    has_garbage = True
                # oc == _UNSET stays out_none: a None output is legal.
        self.next_padded = nxt
        self.out_padded = out
        #: Unscaled next-state code per address (``n_states`` on the
        #: hole rows): the post-transition state a stepped cell visits.
        self.next_codes = nxt // n_i
        #: Output symbol per address (``None`` for unset, garbage and
        #: pad words), for materialising outputs in one gather.
        symbols = np.empty(n_o + 2, dtype=object)
        for code, sym in enumerate(compiled.outputs):
            symbols[code] = sym  # one by one: a tuple output stays whole
        self.out_symbols = symbols.take(out)
        self.complete = complete
        self.has_garbage = has_garbage

    def __repr__(self) -> str:
        return (
            f"StreamTables({self.n_states} states x {self.n_inputs} "
            f"inputs, dtype={self.dtype_name}, complete={self.complete})"
        )


class StreamBatch:
    """Many input words, encoded once for replay on the stream plane.

    Encoding is one dict lookup per symbol straight into a flat code
    buffer, lane-major with lanes sorted by length descending (stable,
    so equal-length lanes keep submission order); the numpy kernel
    views that buffer as its time-major code matrix (:meth:`matrix`)
    without touching a symbol again.  A batch is bound to an *input
    alphabet*, not to a machine: any compiled view with the identical
    ``inputs`` tuple can run it, which is how a population of EA
    candidates shares one encoded trace set.
    """

    __slots__ = (
        "inputs",
        "words",
        "lengths",
        "order",
        "lengths_sorted",
        "codes",
        "_matrix",
        "_order_index",
    )

    def __init__(
        self,
        inputs: Sequence[Input],
        words: Sequence[Sequence[Input]],
    ):
        self.inputs = tuple(inputs)
        self.words = list(words)
        self.lengths = list(map(len, self.words))
        n = len(self.words)
        #: Sorted-lane position -> original stream index (length desc,
        #: stable, so equal-length streams keep submission order).
        self.order = sorted(
            range(n), key=self.lengths.__getitem__, reverse=True
        )
        lanes = [self.words[i] for i in self.order]
        self.lengths_sorted = [self.lengths[i] for i in self.order]
        code_of = {sym: code for code, sym in enumerate(self.inputs)}
        try:
            #: Every symbol's input code, lane after lane in sorted
            #: order (no padding): the only per-symbol work of a batch.
            self.codes = _pack(
                len(self.inputs),
                map(code_of.__getitem__, chain.from_iterable(lanes)),
            )
        except KeyError as exc:
            raise EngineError(
                f"input symbol {exc.args[0]!r} not in the compiled alphabet"
            ) from None
        self._matrix = None
        self._order_index = None

    @classmethod
    def encode(
        cls,
        inputs: Sequence[Input],
        words: Sequence[Sequence[Input]],
    ) -> "StreamBatch":
        """Encode ``words`` against ``inputs`` (the per-symbol Python
        cost paid exactly once per batch)."""
        return cls(inputs, words)

    @property
    def n(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def n_symbols(self) -> int:
        return len(self.codes)

    @property
    def horizon(self) -> int:
        return self.lengths_sorted[0] if self.lengths_sorted else 0

    def matrix(self, np):
        """The ``(horizon, n)`` time-major code matrix for the kernel.

        Column ``j`` is stream ``self.order[j]``; cells beyond a lane's
        length hold code 0 and are never stepped (the active prefix
        shrinks past them).
        """
        if self._matrix is None:
            self._matrix = _lane_matrix(
                np,
                np.asarray(memoryview(self.codes)),
                self.lengths_sorted,
                self.horizon,
                0,
            )
        return self._matrix

    def order_index(self, np):
        """:attr:`order` as an index array (sorted lane -> stream)."""
        if self._order_index is None:
            self._order_index = np.asarray(self.order, dtype=np.intp)
        return self._order_index

    def __repr__(self) -> str:
        return (
            f"StreamBatch({self.n} streams, {self.n_symbols} symbols, "
            f"horizon={self.horizon})"
        )


def _pack(n_codes: int, codes) -> "Union[bytes, array]":
    """A flat buffer of ``codes`` in the narrowest type holding
    ``n_codes`` distinct values (``bytes`` whenever they fit a byte:
    building it is the fastest per-symbol loop Python has)."""
    if n_codes <= 0x100:
        return bytes(codes)
    return array("H" if n_codes <= 0x10000 else "i", codes)


def _lane_matrix(np, flat, lengths: List[int], horizon: int, pad: int):
    """Lay lane-major ``flat`` codes out as a time-major matrix.

    ``flat`` holds lane after lane, ``lengths[j]`` codes of lane ``j``;
    the result is a C-contiguous ``intp`` ``(horizon, len(lengths))``
    matrix whose column ``j`` is lane ``j`` padded with ``pad``.  Equal-length
    lanes are one reshape; ragged lanes are one masked scatter.
    """
    n = len(lengths)
    if flat.size == n * horizon:
        lane_major = flat.reshape(n, horizon)
    else:
        lane_major = np.full((n, horizon), pad, dtype=flat.dtype)
        lane_major[
            np.arange(horizon) < np.asarray(lengths)[:, None]
        ] = flat
    return np.ascontiguousarray(lane_major.T, dtype=np.intp)


class ExpectedOutputs:
    """Expected output words, encoded once against an output alphabet.

    The vectorized counterpart of comparing ``run.outputs`` to an
    expected word symbol by symbol: encode the expectation *once*,
    then :meth:`StreamRun.match_counts` scores every replay of the
    same :class:`StreamBatch` as one whole-matrix equality — the EA's
    population-scoring path, which never pays the per-symbol
    materialisation cost.  ``None`` expects the no-output sentinel; a
    symbol outside the alphabet matches nothing; positions beyond
    either the produced or the expected word do not count.
    """

    __slots__ = ("outputs", "words", "_code_of", "_matrix", "_matrix_for")

    def __init__(
        self,
        outputs: Sequence[Output],
        words: Sequence[Sequence[Optional[Output]]],
    ):
        self.outputs = tuple(outputs)
        self.words = [list(word) for word in words]
        #: Output code per symbol; ``None`` expects the no-output code.
        self._code_of = {sym: code for code, sym in enumerate(self.outputs)}
        self._code_of[None] = len(self.outputs)
        self._matrix = None
        self._matrix_for = None

    def matrix(self, np, batch: "StreamBatch"):
        """Time-major expected-code matrix aligned with ``batch``'s
        lane order; ``-1`` (matches nothing) pads beyond each lane's
        ``min(len(expected), len(word))``."""
        if self._matrix is None or self._matrix_for is not batch:
            if len(self.words) != batch.n:
                raise EngineError(
                    f"{len(self.words)} expected words for "
                    f"{batch.n} streams"
                )
            lanes = [self.words[i] for i in batch.order]
            lengths = list(map(min, map(len, lanes), batch.lengths_sorted))
            codes = array(
                "i",
                map(
                    self._code_of.get,
                    chain.from_iterable(map(islice, lanes, lengths)),
                    repeat(-1),
                ),
            )
            self._matrix = _lane_matrix(
                np, np.asarray(memoryview(codes)), lengths, batch.horizon, -1
            )
            self._matrix_for = batch
        return self._matrix

    def __repr__(self) -> str:
        return f"ExpectedOutputs({len(self.words)} words)"


class StreamRun:
    """The (lazily materialised) result of one stream-batch run.

    The numpy kernel stores only the address matrix and the per-lane
    final (scaled) states; :meth:`final_states`, :meth:`outputs`,
    :meth:`visits` and :meth:`word_runs` derive everything else on
    demand and cache it.  The pure-Python path wraps the eager
    :class:`~repro.engine.WordRun` list behind the same surface (and,
    run from raw words, has no encoded ``batch`` at all).
    """

    __slots__ = (
        "n",
        "_compiled",
        "_batch",
        "_tables",
        "_amat",
        "_final_codes",
        "_omat",
        "_runs",
        "_finals",
    )

    def __init__(
        self,
        compiled: CompiledFSM,
        batch: Optional[StreamBatch],
        tables: Optional[StreamTables] = None,
        amat=None,
        final_codes=None,
        omat=None,
        runs: Optional[List[WordRun]] = None,
    ):
        #: Number of streams.
        self.n = len(runs) if runs is not None else batch.n
        self._compiled = compiled
        self._batch = batch
        self._tables = tables
        self._amat = amat
        self._final_codes = final_codes
        self._omat = omat
        self._runs = runs
        self._finals: Optional[List[State]] = None

    def __len__(self) -> int:
        return self.n

    # -- materialisation ----------------------------------------------
    def final_states(self) -> List[State]:
        """Per-stream final states, in submission order."""
        if self._finals is None:
            if self._runs is not None:
                self._finals = [run.final_state for run in self._runs]
            else:
                self._finals = list(
                    map(
                        self._compiled.states.__getitem__,
                        self._unsort(self._final_codes),
                    )
                )
        return self._finals

    def _unsort(self, per_lane) -> list:
        """A per-sorted-lane vector as a list in submission order."""
        np = _numpy()
        out = np.empty(self.n, dtype=per_lane.dtype)
        out[self._batch.order_index(np)] = per_lane
        return out.tolist()

    def outputs(self) -> List[List[Optional[Output]]]:
        """Per-stream output words, in submission order."""
        return [run.outputs for run in self.word_runs()]

    def visits(self) -> List[Dict[State, int]]:
        """Per-stream post-transition visit counts (``run_word``
        semantics), in submission order."""
        return [run.visits for run in self.word_runs()]

    def match_counts(self, expected: ExpectedOutputs) -> List[int]:
        """Per-stream count of output positions equal to the
        expectation, in submission order.

        On the numpy kernel this is one whole-matrix equality over the
        packed output codes — no per-symbol Python work at all; the
        pure-Python path compares the eager runs symbol by symbol with
        identical semantics.
        """
        if len(expected.words) != self.n:
            raise EngineError(
                f"{len(expected.words)} expected-output words for "
                f"{self.n} streams"
            )
        if self._runs is not None or self._tables is None:
            return [
                sum(
                    1
                    for got, want in zip(run.outputs, word)
                    if got == want
                )
                for run, word in zip(self.word_runs(), expected.words)
            ]
        np = _numpy()
        if self._omat is None:
            self._omat = self._tables.out_padded.take(self._amat)
        emat = expected.matrix(np, self._batch)
        return self._unsort((self._omat == emat).sum(axis=0))

    def word_runs(self) -> List[WordRun]:
        """The per-stream :class:`WordRun` views, in submission order."""
        if self._runs is None:
            self._runs = self._materialise()
        return self._runs

    def _materialise(self) -> List[WordRun]:
        """Every lane's :class:`WordRun` from a handful of whole-matrix
        calls; the only per-lane Python work is building the result.

        Outputs are one gather of the address-indexed output-symbol
        table.  A cell's post-transition state is the next-state entry
        at its address, so visit counts are one gather plus one
        bincount over ``lane * (n_states + 1) + state``: never-stepped
        cells hold ``safe_addr``, whose next state is the hole row, so
        they count into each lane's extra ``n_states`` bin, which is
        dropped.
        """
        np = _numpy()
        tables = self._tables
        batch = self._batch
        amat = self._amat
        n = batch.n
        width = tables.n_states + 1
        outputs = tables.out_symbols.take(amat.T).tolist()
        cells = tables.next_codes.take(amat) + np.arange(
            0, n * width, width
        )
        counts = (
            np.bincount(cells.ravel(), minlength=n * width)
            .reshape(n, width)[:, :-1]
            .tolist()
        )
        finals = self.final_states()
        states = self._compiled.states
        horizon = batch.horizon
        runs: List[Optional[WordRun]] = [None] * n
        for idx, length, outs, row in zip(
            batch.order, batch.lengths_sorted, outputs, counts
        ):
            if length < horizon:
                del outs[length:]
            runs[idx] = WordRun(
                outs, finals[idx], dict(compress(zip(states, row), row))
            )
        return runs  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"StreamRun({self.n} streams)"


# ---------------------------------------------------------------------
# Kernel entry points (bound as CompiledFSM methods in compiled.py)
# ---------------------------------------------------------------------


def stream_kernel(lanes: int) -> str:
    """The lane-count policy: the kernel for ``lanes`` independent
    streams.

    ``"numpy"`` when numpy is importable, not disabled
    (``REPRO_DISABLE_NUMPY``, re-read at every call) and ``lanes`` is
    at least :data:`STREAM_THRESHOLD`; ``"python"`` otherwise.
    """
    if lanes >= STREAM_THRESHOLD and _numpy() is not None:
        return "numpy"
    return "python"

Starts = Union[None, State, Sequence[Optional[State]]]


def _start_states(
    compiled: CompiledFSM, n: int, starts: Starts
) -> List[State]:
    """Per-stream start states (submission order).

    ``starts`` is ``None`` (reset), one state for every stream, or a
    per-stream sequence whose ``None`` entries mean reset.  A value that
    is a state of the view is always the single start, even when it is
    itself a sequence (a ``parallel_compose`` state is a tuple).
    """
    if starts is None:
        return [compiled.reset_state] * n
    if not isinstance(starts, list) and (
        _is_state(compiled, starts) or not _is_seq(starts)
    ):
        return [starts] * n
    if len(starts) != n:
        raise ValueError(
            f"{len(starts)} start states for {n} streams"
        )
    reset = compiled.reset_state
    return [reset if s is None else s for s in starts]


def _is_state(compiled: CompiledFSM, value) -> bool:
    try:
        return value in compiled._state_code
    except TypeError:  # unhashable: a list of per-stream starts
        return False


def _is_seq(value) -> bool:
    try:
        len(value)
    except TypeError:
        return False
    return not isinstance(value, (str, bytes))


def _pick_kernel(kernel: Optional[str], lanes: int) -> str:
    if kernel is None:
        return stream_kernel(lanes)
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown stream kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def run_streams(
    compiled: CompiledFSM,
    words: Sequence[Sequence[Input]],
    starts: Starts = None,
    kernel: Optional[str] = None,
) -> StreamRun:
    """Run raw input words; see :meth:`CompiledFSM.run_streams`.

    The pure-Python kernel walks each word straight through
    :meth:`~CompiledFSM.run_word` (one lookup per symbol, no encoded
    batch); only the numpy kernel encodes a :class:`StreamBatch`.
    """
    if _pick_kernel(kernel, len(words)) == "python":
        return _run_python(compiled, words, starts)
    return run_stream_batch(
        compiled, compiled.encode_streams(words), starts, "numpy"
    )


def run_stream_batch(
    compiled: CompiledFSM,
    batch: StreamBatch,
    starts: Starts = None,
    kernel: Optional[str] = None,
) -> StreamRun:
    """Run an encoded batch; see :meth:`CompiledFSM.run_stream_batch`."""
    kernel = _pick_kernel(kernel, batch.n)
    if batch.inputs != compiled.inputs:
        raise EngineError(
            "stream batch was encoded against a different input "
            f"alphabet ({batch.inputs!r} != {compiled.inputs!r})"
        )
    if kernel == "python":
        return _run_python(compiled, batch.words, starts)
    np = _numpy()
    if np is None:
        raise EngineError(
            "the numpy stream kernel was requested but numpy is "
            "unavailable (not installed, or REPRO_DISABLE_NUMPY is set)"
        )
    try:
        # A C-level dict lookup per lane: a method call per lane cost
        # about a third of the kernel call at 512 lanes.
        start_codes = list(
            map(
                compiled._state_code.__getitem__,
                _start_states(compiled, batch.n, starts),
            )
        )
    except KeyError as exc:
        raise EngineError(
            f"state {exc.args[0]!r} not in the compiled state set"
        ) from None
    return _run_numpy(compiled, batch, start_codes, np)


def _run_python(
    compiled: CompiledFSM,
    words: Sequence[Sequence[Input]],
    starts: Starts,
) -> StreamRun:
    """Per-stream ``run_word`` loop: the always-available fallback,
    bit-identical by construction (it *is* the sequential engine)."""
    run_word = compiled.run_word
    runs = [
        run_word(word, start=start)
        for word, start in zip(
            words, _start_states(compiled, len(words), starts)
        )
    ]
    return StreamRun(compiled, None, runs=runs)


def _run_numpy(
    compiled: CompiledFSM,
    batch: StreamBatch,
    start_codes: List[int],
    np,
) -> StreamRun:
    """The two-calls-per-step lane kernel (see module docstring)."""
    tables = compiled.stream_tables()
    n = batch.n
    if n == 0:
        return StreamRun(
            compiled,
            batch,
            tables=tables,
            amat=np.zeros((0, 0), dtype=np.intp),
            final_codes=np.zeros(0, dtype=np.intp),
        )
    sym = batch.matrix(np)
    lengths_sorted = batch.lengths_sorted
    # Scaled start states, in sorted-lane order.
    states = (
        np.asarray(start_codes, dtype=np.intp).take(batch.order_index(np))
        * tables.n_inputs
    )
    amat = np.full((batch.horizon, n), tables.safe_addr, dtype=np.intp)
    final_scaled = np.empty(n, dtype=np.intp)
    # Bound methods, positional ``out`` and mode="clip" shave ~4x off
    # the per-step cost; clip never actually clips — every address is
    # in range by construction (scaled state <= hole_base, symbol <
    # n_inputs, and hole_base + n_inputs < padded length).
    add = np.add
    take = tables.next_padded.take
    active = n
    t = 0
    while active:
        # Lanes are sorted by length descending, so retirement is
        # always a suffix: run unsliced full-width steps until the
        # shortest live lane's word ends, then shrink the prefix.
        seg_end = lengths_sorted[active - 1]
        if active == n:
            s = states
            rows = zip(amat[t:seg_end], sym[t:seg_end])
        else:
            s = states[:active]
            rows = zip(amat[t:seg_end, :active], sym[t:seg_end, :active])
        for row, sym_t in rows:
            add(s, sym_t, row)
            take(row, None, s, "clip")
        t = seg_end
        # Retire the whole finished suffix with one slice copy.
        lo = active
        while lo and lengths_sorted[lo - 1] <= t:
            lo -= 1
        final_scaled[lo:active] = states[lo:active]
        active = lo
    final_codes = final_scaled // tables.n_inputs
    omat = None
    if not tables.complete:
        # A lane that hit an unserveable F-entry was parked on the
        # self-trapping hole pad; one vectorized scan finds it.
        trapped = final_codes >= tables.n_states
        if trapped.any():
            lane = int(np.argmax(trapped))
            raise UnconfiguredEntry(
                f"stream {batch.order[lane]}: an entry is not "
                "serveable by the compiled view"
            )
    if tables.has_garbage:
        omat = tables.out_padded.take(amat)
        bad = omat > tables.out_none
        if bad.any():
            t_bad, lane = np.unravel_index(
                int(np.argmax(bad)), bad.shape
            )
            raise UnconfiguredEntry(
                f"stream {batch.order[int(lane)]} step {int(t_bad)}: "
                "entry holds a garbage code the datapath would refuse"
            )
    return StreamRun(
        compiled,
        batch,
        tables=tables,
        amat=amat,
        final_codes=final_codes,
        omat=omat,
    )
