"""Unified execution-backend layer (contract, resolver, dispatch).

One serving stack, three fixed substrates: the cycle-accurate Fig. 5
netlist (``cycle``), the dense tables in process (``table``) and the
dense tables in shared memory behind worker processes
(``table-shm``).  All implement one :class:`ExecutionBackend`
contract, are named by one resolver (:func:`resolve`), and are chosen
by one policy-driven :class:`Dispatcher`.  The fleet hot path,
``api.compile_fsm``, the workload suite and the CLI all dispatch
through here — no caller picks a backend by hand.

Selection precedence: explicit pin (a backend name or engine-mode
alias) > the ``REPRO_BACKEND`` environment variable > auto, which is
``table``.  The stream kernel is not a backend choice: ``table`` takes
it per call from the engine's one lane-count policy
(:func:`repro.engine.stream_kernel`) — the pure-Python loop for a few
streams, the numpy lane kernel once enough independent streams
amortize it (and numpy is importable and not disabled via
``REPRO_DISABLE_NUMPY``).  Availability is re-checked at every
dispatch, and a forced-but-unavailable backend raises
:class:`BackendUnavailable` with the reason spelled out.

See ``docs/architecture.md`` for where this layer sits
(core → hw → exec → engine/fleet → api/cli).
"""

from . import killswitch
from .backends import CycleBackend, TableBackend, compile_tables
from .batching import run_streams
from .dispatcher import DEFAULT_COALESCE, Decision, Dispatcher
from .protocol import BackendUnavailable, ExecError, ExecutionBackend, TableMiss
from .registry import canonical, names, resolve, spellings, unavailable_reason

__all__ = [
    "BackendUnavailable",
    "CycleBackend",
    "DEFAULT_COALESCE",
    "Decision",
    "Dispatcher",
    "ExecError",
    "ExecutionBackend",
    "TableBackend",
    "TableMiss",
    "canonical",
    "compile_tables",
    "killswitch",
    "names",
    "resolve",
    "run_streams",
    "spellings",
    "unavailable_reason",
]
