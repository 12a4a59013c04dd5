"""Sequential pass pipeline with optional inter-pass verification."""

from __future__ import annotations

from repro.errors import PassError
from repro.ir.program import Program
from repro.ir.verifier import verify_program
from repro.obs import get_telemetry
from repro.passes.base import FunctionPass, PassContext


class PassManager:
    """Runs passes in order; verifies the IR after each one when asked.

    Verification after every pass catches pass bugs at their source, so it
    defaults to on.  It is not free: in a traced paper reproduction
    (``benchmarks/e2e``, paper-repro, 341 compiles, 2 workers)
    ``passes.verify`` took 14.2% of the run's worker capacity (13.9 s of
    48.8 s of compile time) before the changes in ``docs/performance.md``,
    "The compile pipeline", and 9.7% (6.3 s of 20.2 s) after them.

    When telemetry is enabled (see :mod:`repro.obs`), every pass emits a
    ``pass:<name>`` span carrying its wall time, instruction/block deltas,
    and changed flag, and verification time is attributed separately under
    ``verify:<name>`` — the data the trace ``report`` renders as the
    pipeline table.
    """

    def __init__(self, passes: list[FunctionPass], verify: bool = True) -> None:
        self.passes = list(passes)
        self.verify = verify

    def run(self, program: Program, ctx: PassContext | None = None) -> PassContext:
        ctx = ctx or PassContext()
        tel = get_telemetry()
        with tel.span(
            "pipeline", cat="compile", timer="compile.pipeline.seconds",
            n_passes=len(self.passes), verify=self.verify,
        ):
            if self.verify:
                with tel.span("verify:initial", cat="compile",
                              timer="compile.verify.seconds"):
                    verify_program(program)
            for p in self.passes:
                track = tel.enabled
                if track:
                    n_before = program.main.instruction_count()
                    blocks_before = len(program.main.block_labels())
                with tel.span(
                    f"pass:{p.name}", cat="pass",
                    timer=f"compile.pass.{p.name}.seconds",
                ) as sp:
                    try:
                        changed = p.run(program, ctx)
                    except Exception as exc:
                        raise PassError(f"pass {p.name!r} failed: {exc}") from exc
                    if track:
                        n_after = program.main.instruction_count()
                        sp.set(
                            instructions_before=n_before,
                            instructions_after=n_after,
                            blocks_before=blocks_before,
                            blocks_after=len(program.main.block_labels()),
                            changed=bool(changed),
                        )
                        tel.count(f"compile.pass.{p.name}.runs")
                        tel.count(
                            f"compile.pass.{p.name}.instruction_delta",
                            n_after - n_before,
                        )
                if self.verify:
                    with tel.span(f"verify:{p.name}", cat="compile",
                                  timer="compile.verify.seconds"):
                        try:
                            verify_program(program)
                        except Exception as exc:
                            raise PassError(
                                f"pass {p.name!r} produced malformed IR: {exc}"
                            ) from exc
        return ctx
