"""Correctness-preserving optimization passes over reconfiguration programs.

Every pass maps a valid :class:`~repro.core.program.Program` to an
equivalent one that is no longer, and every pass application is gated by
:class:`PassPipeline` behind full replay validation — see
:mod:`repro.core.passes.pipeline` for the ``-O0`` / ``-O2`` level
definitions and :mod:`repro.core.passes.chunks` for the
traffic-safe variant used on live-migration chunk plans.
"""

from .base import OptReport, Pass, PassResult, pre_states
from .chunks import optimise_chunks
from .coalesce import CoalesceRepairs
from .dead_writes import EliminateDeadWrites, value_dead
from .pipeline import (
    OPT_LEVELS,
    OptLevel,
    PassPipeline,
    normalise_level,
    optimise_program,
)
from .resets import CollapseResets

__all__ = [
    "OPT_LEVELS",
    "CoalesceRepairs",
    "CollapseResets",
    "EliminateDeadWrites",
    "OptLevel",
    "OptReport",
    "Pass",
    "PassPipeline",
    "PassResult",
    "normalise_level",
    "optimise_chunks",
    "optimise_program",
    "pre_states",
    "value_dead",
]
