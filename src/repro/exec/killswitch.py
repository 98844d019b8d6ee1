"""One source of truth for the ``REPRO_DISABLE_*`` kill switches.

Three subsystems can be forced off via the environment without
uninstalling anything: numpy (the lane stream kernel), shared memory
(the worker-process backend) and the shm frame ring (sessions fall
back to pure pipe framing).  Before this module each switch was a bare
``os.environ.get`` scattered at its point of use with its own reason
string; ``repro backends`` and the docs had to keep three spellings in
sync by hand.  Now every switch is one :class:`KillSwitch` registered
here, the availability reasons shown by ``repro backends`` come from
:meth:`KillSwitch.reason`, and the env-var table in ``docs/fleet.md``
enumerates :data:`SWITCHES`.

A switch is *set* when its variable holds any non-empty value — the
same truthiness every call site used before — and is re-read at every
call, so flipping the environment in a live process is honoured at the
next dispatch, exactly as ``REPRO_DISABLE_NUMPY`` always was.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "NUMPY",
    "RING",
    "SHM",
    "SWITCHES",
    "KillSwitch",
    "active",
]


@dataclass(frozen=True)
class KillSwitch:
    """One environment kill switch (variable + what it turns off)."""

    #: The environment variable (any non-empty value disables).
    env: str
    #: What gets turned off, phrased to fit "<subject> disabled via X".
    subject: str
    #: What the process does instead while the switch is set.
    fallback: str

    def disabled(self) -> bool:
        """Whether the switch is currently set (re-read every call)."""
        return bool(os.environ.get(self.env))

    def reason(self) -> Optional[str]:
        """The availability reason while set, ``None`` otherwise."""
        if self.disabled():
            return f"{self.subject} disabled via {self.env}"
        return None


NUMPY = KillSwitch(
    env="REPRO_DISABLE_NUMPY",
    subject="numpy",
    fallback="the pure-Python stream kernel",
)
SHM = KillSwitch(
    env="REPRO_DISABLE_SHM",
    subject="shared memory",
    fallback="in-process backends only (table-shm unavailable)",
)
RING = KillSwitch(
    env="REPRO_DISABLE_RING",
    subject="the shm frame ring",
    fallback="pipe+pickle framing for every worker frame",
)

#: Every registered switch, in documentation order.
SWITCHES: Tuple[KillSwitch, ...] = (NUMPY, SHM, RING)


def active() -> Dict[str, str]:
    """The currently set switches: env var → reason string."""
    return {
        switch.env: reason
        for switch in SWITCHES
        if (reason := switch.reason()) is not None
    }
