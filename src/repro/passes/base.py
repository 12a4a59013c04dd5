"""Pass infrastructure."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.ir.program import Program
from repro.machine.config import MachineConfig


@dataclass
class PassContext:
    """Shared state threaded through a pass pipeline.

    ``stats`` accumulates per-pass metrics (the evaluation harness reports
    several of them, e.g. code-growth ratio and spill counts); ``artifacts``
    carries structured pass outputs (duplication tables, schedules) forward.
    """

    machine: MachineConfig | None = None
    stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)

    def record(self, pass_name: str, **metrics: Any) -> None:
        self.stats.setdefault(pass_name, {}).update(metrics)


class FunctionPass(abc.ABC):
    """A transformation over a whole program (single-function after linking)."""

    #: Stable identifier used in stats and logs.
    name: str = "pass"
    #: Does the pass rewrite the IR?  A pass that only reads it (the
    #: scheduler, which records its result in ``ctx.artifacts``) is not
    #: followed by a verify.
    changes_ir: bool = True

    @abc.abstractmethod
    def run(self, program: Program, ctx: PassContext) -> bool:
        """Transform ``program`` in place; return True if anything changed."""
