"""Unified execution-backend layer (protocol, registry, dispatch).

One serving stack, many interchangeable substrates: the cycle-accurate
Fig. 5 netlist, the pure-Python dense-table kernel and the numpy
kernel all implement one :class:`ExecutionBackend` protocol, register
in one process-wide registry, and are chosen by one policy-driven
:class:`Dispatcher`.  The fleet hot path, ``api.compile_fsm``, the
workload suite and the CLI all dispatch through here — no caller picks
a backend by hand.

Selection precedence: explicit pin (a backend name or engine-mode
alias) > the ``REPRO_BACKEND`` environment variable > auto.  Auto is
stream-count aware through the engine's one lane-count policy
(:func:`repro.engine.stream_kernel`): ``table-py`` for a few streams (a
single sequential stream runs fastest in the pure-Python loop),
``table-numpy`` when enough independent streams amortize the lane
kernel (and numpy is importable and not disabled via
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
from .protocol import (
    BackendUnavailable,
    Capabilities,
    ExecError,
    ExecSnapshot,
    ExecutionBackend,
    StaleSnapshot,
    TableMiss,
)
from .registry import (
    BackendSpec,
    canonical,
    get,
    names,
    register,
    resolve,
    specs,
)

__all__ = [
    "BackendSpec",
    "BackendUnavailable",
    "Capabilities",
    "CycleBackend",
    "DEFAULT_COALESCE",
    "Decision",
    "Dispatcher",
    "ExecError",
    "ExecSnapshot",
    "ExecutionBackend",
    "StaleSnapshot",
    "TableBackend",
    "TableMiss",
    "canonical",
    "compile_tables",
    "get",
    "killswitch",
    "names",
    "register",
    "resolve",
    "run_streams",
    "specs",
]
