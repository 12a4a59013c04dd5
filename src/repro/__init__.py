"""CASTED reproduction: core-adaptive software transient error detection.

Reproduces Mitropoulou, Porpodas & Cintra, *CASTED: Core-Adaptive Software
Transient Error Detection for Tightly Coupled Cores* (IPDPS-W 2013) as a
self-contained Python system: a compiler mid/back end with the CASTED
error-detection and cluster-assignment passes, a clustered-VLIW cycle-level
simulator with the Itanium2 cache hierarchy, a fault-injection framework,
the seven workloads, and an evaluation harness regenerating every figure
and table of the paper.

Quick start::

    from repro import compile_program, Scheme, MachineConfig, VLIWExecutor
    from repro.workloads import get_workload

    program = get_workload("cjpeg").program
    machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
    compiled = compile_program(program, Scheme.CASTED, machine)
    result = VLIWExecutor(compiled).run()
    print(result.cycles, result.output)
"""

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.interp import ExitKind, FaultSpec, Interpreter, RunResult
from repro.ir.program import GlobalArray, Program
from repro.machine.config import MachineConfig, paper_machine
from repro.pipeline import (
    CompiledProgram,
    Scheme,
    collect_block_profile,
    compile_program,
)
from repro.sim.executor import SimResult, VLIWExecutor
from repro.faults import FaultInjector, Outcome, run_campaign
from repro.eval import Evaluator

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "compile_source",
    "Program",
    "GlobalArray",
    "Interpreter",
    "RunResult",
    "ExitKind",
    "FaultSpec",
    "MachineConfig",
    "paper_machine",
    "Scheme",
    "compile_program",
    "collect_block_profile",
    "CompiledProgram",
    "VLIWExecutor",
    "SimResult",
    "FaultInjector",
    "Outcome",
    "run_campaign",
    "Evaluator",
    "__version__",
]
