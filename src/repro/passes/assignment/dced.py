"""Dual-Core Error Detection placement.

The fixed dual-core split of prior multithreaded schemes (paper §II-B,
Fig. 2.e / 3.e): the original code — including all non-replicated
instructions, which are the only ones allowed to touch memory — runs on the
main cluster; the replicated stream, the shadow copies and all checking code
run on the second cluster.  Every check therefore reads one register across
the interconnect, which is exactly why DCED degrades as the inter-core delay
grows.
"""

from __future__ import annotations

from repro.errors import PassError
from repro.ir.program import Program
from repro.passes.base import FunctionPass, PassContext


class DcedAssignmentPass(FunctionPass):
    name = "assign-dced"

    def __init__(self, main_cluster: int = 0, checker_cluster: int = 1) -> None:
        if main_cluster == checker_cluster:
            raise PassError("DCED needs two distinct clusters")
        self.main_cluster = main_cluster
        self.checker_cluster = checker_cluster

    def run(self, program: Program, ctx: PassContext) -> bool:
        n_main = n_checker = 0
        for function in program.functions():
            for _block, _idx, insn in function.all_instructions():
                if insn.is_redundant:
                    insn.cluster = self.checker_cluster
                    n_checker += 1
                else:
                    insn.cluster = self.main_cluster
                    n_main += 1
        ctx.record(self.name, main=n_main, checker=n_checker)
        return True
