#!/usr/bin/env python
"""Recovery extension: restart-on-detection turns coverage into availability.

Transient faults strike once (paper §I), so a detected error simply needs a
re-execution from a safe checkpoint — here, program start (memory is inside
its own ECC-protected sphere, and every store was checked before commit).
Restarted, a detected trial re-runs fault-free to the golden output, so the
restart policy is a relabelling of one ordinary campaign: this demo injects
faults into a CASTED-protected workload and prints both policies from it.

Run:  python examples/recovery_demo.py [workload] [trials]
"""

import sys

from repro import MachineConfig, Scheme, compile_program
from repro.faults.classify import OUTCOME_ORDER, Outcome
from repro.faults.injector import FaultInjector
from repro.sim.executor import VLIWExecutor
from repro.utils.tables import format_table
from repro.workloads import get_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "parser"
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 150
    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    program = get_workload(name).program

    noed = compile_program(program, Scheme.NOED, machine)
    reference = VLIWExecutor(noed).run().dyn_instructions
    compiled = compile_program(program, Scheme.CASTED, machine)
    injector = FaultInjector(
        compiled.program, mem_words=compiled.mem_words, frame_words=compiled.frame_words
    )
    res = injector.run_campaign(trials, seed=31, reference_dyn=reference)

    def pct(x: float) -> str:
        return f"{x * 100:5.1f}%"

    rows = [
        ["detection only"]
        + [pct(res.fraction(o)) for o in OUTCOME_ORDER]
        + ["-", pct(res.fraction(Outcome.BENIGN))],
        ["with restart"]
        + [pct(0.0 if o is Outcome.DETECTED else res.fraction(o)) for o in OUTCOME_ORDER]
        + [pct(res.fraction(Outcome.DETECTED)), pct(res.correct_completion)],
    ]
    print(
        format_table(
            ["policy"] + [o.value for o in OUTCOME_ORDER] + ["recovered", "correct"],
            rows,
            title=f"{name} under CASTED, {trials} fault trials",
        )
    )
    print(
        f"\nre-execution overhead: {res.reexecution_overhead * 100:.1f}% of a "
        f"golden run per trial on average\n"
        "('detected' is 0 with restart because every detected transient\n"
        " completes correctly on the second attempt)"
    )


if __name__ == "__main__":
    main()
