"""The fixed set of execution backends and the one shared resolver.

Before this layer existed, "which backend runs this?" was answered in
three places with three different rules: ``engine/compiled.py`` checked
``REPRO_DISABLE_NUMPY`` at compile time only, ``fleet/worker.py`` had
its own fail-fast, and ``api.py`` special-cased ``"off"``.  This module
owns the question:

* :func:`names` — the three backends: ``cycle`` (the Fig. 5 netlist),
  ``table`` (the dense tables, served in process) and ``table-shm``
  (dense tables in shared memory served by worker processes, see
  :mod:`repro.procfleet`).  The engine-mode spellings ``off`` and
  ``shm`` are aliases.
* :func:`resolve` — preference → concrete backend name.  Precedence:
  an explicit pin beats the ``REPRO_BACKEND`` environment variable,
  which beats auto selection (``table``).  Availability — including
  ``REPRO_DISABLE_SHM`` — is re-checked at *every* call, so flipping
  the environment mid-process is honoured at dispatch time, and a
  forced-but-unavailable backend raises
  :class:`~repro.exec.protocol.BackendUnavailable` with the reason
  spelled out instead of silently degrading.

Which stream kernel ``table`` runs (the pure-Python loop or the numpy
lane kernel) is not a backend choice: the engine picks it per call
from the lane count (:func:`repro.engine.streams.stream_kernel`).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from . import killswitch
from .protocol import BackendUnavailable

__all__ = [
    "canonical",
    "names",
    "resolve",
    "spellings",
    "unavailable_reason",
]

#: Environment variable forcing the dispatcher's backend choice for
#: ``auto`` preferences (explicit pins always win over it).
ENV_BACKEND = "REPRO_BACKEND"

#: Engine-mode spellings accepted everywhere a backend name is.
ALIASES = {"off": "cycle", "shm": "table-shm"}

#: Backend name -> one-line summary (the ``repro backends`` listing).
SUMMARIES = {
    "cycle": "cycle-accurate Fig. 5 netlist (traces, probes, faults)",
    "table": (
        "dense tables in process; the engine picks the stream "
        "kernel per call (pure-Python loop or numpy lanes)"
    ),
    "table-shm": "dense tables in shared memory, served by worker processes",
}


def names() -> Tuple[str, ...]:
    """The backend names: ``cycle``, ``table``, ``table-shm``."""
    return tuple(SUMMARIES)


def unavailable_reason(name: str) -> Optional[str]:
    """Why backend ``name`` cannot run right now, or ``None`` if it can.

    Only ``table-shm`` has prerequisites; they are read on every call
    (``REPRO_DISABLE_SHM`` is honoured per dispatch, not per import).
    """
    if name != "table-shm":
        return None
    reason = killswitch.SHM.reason()
    if reason is None:
        try:
            from multiprocessing import shared_memory  # noqa: F401
        except ImportError:  # pragma: no cover - platform without shm
            return "multiprocessing.shared_memory is not available here"
    return reason


def canonical(preference: Optional[str]) -> str:
    """Normalise a preference to a backend name or ``"auto"``.

    Accepts :func:`spellings`; anything else raises ``ValueError``
    listing them.
    """
    if preference is None or preference == "auto":
        return "auto"
    name = ALIASES.get(preference, preference)
    if name not in SUMMARIES:
        raise ValueError(
            f"unknown execution backend {preference!r}; expected one of "
            f"{spellings()}"
        )
    return name


def spellings() -> Tuple[str, ...]:
    """Every accepted backend spelling: ``auto``, the backend names and
    the aliases (the CLI's ``--engine`` choices)."""
    return ("auto",) + names() + tuple(ALIASES)


def _forced_by_env() -> Optional[str]:
    """The ``REPRO_BACKEND`` choice, canonicalised, or ``None``."""
    forced = os.environ.get(ENV_BACKEND, "").strip()
    if not forced or forced == "auto":
        return None
    try:
        return canonical(forced)
    except ValueError as exc:
        raise ValueError(f"{ENV_BACKEND}={forced!r}: {exc}") from None


def resolve(preference: Optional[str] = None) -> str:
    """Preference → the concrete backend name.

    Explicit pin > ``REPRO_BACKEND`` > auto, which is ``table``.  A
    forced backend that is unavailable *right now* raises
    :class:`BackendUnavailable`; auto never does.
    """
    name = canonical(preference)
    if name == "auto":
        name = _forced_by_env() or "table"
    reason = unavailable_reason(name)
    if reason is not None:
        raise BackendUnavailable(
            f"execution backend {name!r} requested but unavailable: {reason}"
        )
    return name
