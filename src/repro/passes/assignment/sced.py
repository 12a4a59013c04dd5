"""Single-Core Error Detection placement (and NOED's trivial placement).

Everything — original, replicated and checking code — executes on one
cluster (paper §II-B, Fig. 2.d / 3.d).  Performance is then governed purely
by that cluster's issue width.
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.passes.base import FunctionPass, PassContext


class ScedAssignmentPass(FunctionPass):
    """Assign every instruction to a single fixed cluster."""

    name = "assign-sced"

    def __init__(self, cluster: int = 0) -> None:
        self.cluster = cluster

    def run(self, program: Program, ctx: PassContext) -> bool:
        for function in program.functions():
            for _block, _idx, insn in function.all_instructions():
                insn.cluster = self.cluster
        ctx.record(self.name, cluster=self.cluster)
        return True
