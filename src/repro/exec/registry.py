"""Process-wide execution-backend registry and the one shared resolver.

Before this layer existed, "which backend runs this?" was answered in
three places with three different rules: ``engine/compiled.py`` checked
``REPRO_DISABLE_NUMPY`` at compile time only, ``fleet/worker.py`` had
its own fail-fast, and ``api.py`` special-cased ``"off"``.  This module
owns the question:

* :func:`register` / :func:`specs` — the registry.  Three built-ins:
  ``cycle`` (the Fig. 5 netlist), ``table`` (the dense tables, served
  in process) and ``table-shm`` (dense tables in shared memory served
  by worker processes, see :mod:`repro.procfleet`).  The engine-mode
  spellings ``off`` and ``shm`` are aliases.
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
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .protocol import BackendUnavailable, Capabilities

__all__ = [
    "BackendSpec",
    "canonical",
    "get",
    "names",
    "register",
    "resolve",
    "specs",
    "spellings",
]

#: Environment variable forcing the dispatcher's backend choice for
#: ``auto`` preferences (explicit pins always win over it).
ENV_BACKEND = "REPRO_BACKEND"

#: Engine-mode spellings accepted everywhere a backend name is.
ALIASES = {"off": "cycle", "shm": "table-shm"}


@dataclass(frozen=True)
class BackendSpec:
    """One registered execution backend (identity + construction)."""

    name: str
    capabilities: Capabilities
    summary: str
    #: Re-checked at every resolve: availability may change at runtime
    #: (``REPRO_DISABLE_SHM`` is honoured per call, not per import).
    available: Callable[[], bool]
    #: Human-readable reason shown when a forced backend is unavailable.
    unavailable_reason: Callable[[], Optional[str]]
    #: Build a backend instance bound to a live ``HardwareFSM``.
    build: Callable[[object], object]


_REGISTRY: Dict[str, BackendSpec] = {}
_builtins_registered = False


def _ensure_builtins() -> None:
    """Register the built-in backends on first registry use.

    Deferred (not at import) because ``backends.py`` and this module
    import each other: the spec factories live there, the registration
    lives here, and either module must be importable first.
    """
    global _builtins_registered
    if not _builtins_registered:
        _builtins_registered = True
        _register_builtins()


def register(spec: BackendSpec, replace: bool = False) -> BackendSpec:
    """Add a backend to the process-wide registry."""
    if spec.name in ALIASES or spec.name == "auto":
        raise ValueError(
            f"backend name {spec.name!r} collides with a reserved alias"
        )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def specs() -> Tuple[BackendSpec, ...]:
    """Registered backend specs, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY.values())


def get(name: str) -> BackendSpec:
    """The spec for ``name`` (aliases accepted)."""
    return _REGISTRY[canonical(name)]


def canonical(preference: Optional[str]) -> str:
    """Normalise a preference to a registered name or ``"auto"``.

    Accepts :func:`spellings`; anything else raises ``ValueError``
    listing them.
    """
    _ensure_builtins()
    if preference is None or preference == "auto":
        return "auto"
    name = ALIASES.get(preference, preference)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown execution backend {preference!r}; expected one of "
            f"{spellings()}"
        )
    return name


def spellings() -> Tuple[str, ...]:
    """Every accepted backend spelling: ``auto``, the registered names
    and the aliases (the CLI's ``--engine`` choices)."""
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


def _require_available(name: str) -> str:
    spec = _REGISTRY[name]
    if not spec.available():
        raise BackendUnavailable(
            f"execution backend {spec.name!r} requested but unavailable: "
            f"{spec.unavailable_reason() or 'prerequisites missing'}"
        )
    return spec.name


def resolve(preference: Optional[str] = None) -> str:
    """Preference → the concrete backend name.

    Explicit pin > ``REPRO_BACKEND`` > auto, which is ``table``.  A
    forced backend that is unavailable *right now* raises
    :class:`BackendUnavailable`; auto never does.
    """
    name = canonical(preference)
    if name == "auto":
        name = _forced_by_env() or "table"
    return _require_available(name)


def _register_builtins() -> None:
    # Deferred import: backends.py imports this module for the caps.
    from .backends import CycleBackend, TableBackend

    register(BackendSpec(
        name="cycle",
        capabilities=CycleBackend.capabilities,
        summary="cycle-accurate Fig. 5 netlist (traces, probes, faults)",
        available=lambda: True,
        unavailable_reason=lambda: None,
        build=CycleBackend,
    ))
    register(BackendSpec(
        name="table",
        capabilities=TableBackend.capabilities,
        summary=(
            "dense tables in process; the engine picks the stream "
            "kernel per call (pure-Python loop or numpy lanes)"
        ),
        available=lambda: True,
        unavailable_reason=lambda: None,
        build=TableBackend.from_hardware,
    ))

    # The shared-memory process backend registers through the same
    # registry so one resolver answers for it; construction is deferred
    # (repro.procfleet pulls in multiprocessing machinery) and
    # availability honours the REPRO_DISABLE_SHM kill-switch.
    def _shm_available() -> bool:
        from ..procfleet.backend import shm_available

        return shm_available()

    def _shm_reason() -> Optional[str]:
        from ..procfleet.backend import shm_unavailable_reason

        return shm_unavailable_reason()

    def _shm_build(hw):
        from ..procfleet.backend import standalone_backend

        return standalone_backend(hw)

    register(BackendSpec(
        name="table-shm",
        capabilities=Capabilities(batchable=True),
        summary=(
            "dense tables in shared memory, served by worker processes"
        ),
        available=_shm_available,
        unavailable_reason=_shm_reason,
        build=_shm_build,
    ))
