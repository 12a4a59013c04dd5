"""Shared infrastructure for cluster assignment.

The central invariant (checked by :func:`validate_assignment`): **every
definition of a virtual register executes on one single cluster.**  A value
then has a well-defined home register file, remote readers pay the
inter-cluster delay, and the register allocator can place the value in its
home cluster's file.  All three assignment policies maintain the invariant
by construction; CASTED's BUG enforces it by pinning.

Registers are function-local, so homes are derived per function; the
program-level helpers validate every function and return the entry
function's map for the (single-function) register allocator.
"""

from __future__ import annotations

from repro.errors import PassError
from repro.ir.function import Function
from repro.ir.program import Program
from repro.isa.registers import Reg


class AssignmentError(PassError):
    """Cluster assignment violated an invariant."""


def collect_function_def_clusters(function: Function) -> dict[Reg, int]:
    """Map every register of one function to the cluster of its definitions.

    Raises :class:`AssignmentError` if any register is defined on more than
    one cluster or any instruction lacks an assignment.
    """
    homes: dict[Reg, int] = {}
    for block, idx, insn in function.all_instructions():
        if insn.cluster is None:
            raise AssignmentError(
                f"unassigned instruction in {block.label}[{idx}]: {insn}"
            )
        for d in insn.writes():
            prev = homes.get(d)
            if prev is None:
                homes[d] = insn.cluster
            elif prev != insn.cluster:
                raise AssignmentError(
                    f"register {d} defined on clusters {prev} and {insn.cluster}"
                )
    return homes


def collect_def_clusters(program: Program) -> dict[Reg, int]:
    """Entry-function home map (see :func:`collect_function_def_clusters`)."""
    return collect_function_def_clusters(program.main)


def validate_function_assignment(function: Function, n_clusters: int) -> dict[Reg, int]:
    """Check cluster ranges + the single-home invariant for one function.

    One walk does both; a cluster out of range anywhere is reported before
    a register defined on two clusters.  Returns the function's home map.
    """
    homes: dict[Reg, int] = {}
    conflict: AssignmentError | None = None
    for block, idx, insn in function.all_instructions():
        cluster = insn.cluster
        if cluster is None or not 0 <= cluster < n_clusters:
            raise AssignmentError(
                f"instruction in {block.label}[{idx}] has invalid cluster "
                f"{insn.cluster}: {insn}"
            )
        for d in insn.dests:
            prev = homes.setdefault(d, cluster)
            if prev != cluster and conflict is None:
                conflict = AssignmentError(
                    f"register {d} defined on clusters {prev} and {cluster}"
                )
    if conflict is not None:
        raise conflict
    return homes


def validate_assignment(program: Program, n_clusters: int) -> dict[Reg, int]:
    """Validate every function; return the entry function's home map."""
    homes = {
        fn.name: validate_function_assignment(fn, n_clusters)
        for fn in program.functions()
    }
    return homes[program.main.name]
