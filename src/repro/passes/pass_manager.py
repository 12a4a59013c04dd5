"""Sequential pass pipeline with optional inter-pass verification."""

from __future__ import annotations

from repro.errors import PassError
from repro.ir.program import Program
from repro.ir.verifier import verify_program
from repro.obs import get_telemetry
from repro.passes.base import FunctionPass, PassContext


class PassManager:
    """Runs passes in order; verifies the IR after each one that changes it
    (:attr:`FunctionPass.changes_ir`), when asked.

    Verification after every pass catches pass bugs at their source, so it
    defaults to on.  It is not free: in a traced paper reproduction
    (``benchmarks/e2e``, paper-repro, 2 workers) ``passes.verify`` took
    13.9 s of 48.8 s of compile time over 341 compiles before the changes
    in ``docs/performance.md``, "The compile pipeline", and 6.3 s of
    20.2 s after them.  Since each grid point verifies only its own
    suffix passes ("Shared compile prefix"), it took 2.4 s of 14.0 s over
    332 compiles (6.7 s of 20.7 s just before, same VM and seed).  Once
    the table-driven block scheduler cut assignment and scheduling ("Compile
    suffix"), it is the largest compile layer: 2.6-3.0 s of 10.5-11.9 s
    over 330-332 compiles in traced reps at seeds 1-3.

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
        """Verify ``program``, then run every pass, in one ``pipeline`` span."""
        ctx = ctx or PassContext()
        with get_telemetry().span(
            "pipeline", cat="compile", timer="compile.pipeline.seconds",
            n_passes=len(self.passes), verify=self.verify,
        ):
            self.apply(program, ctx)
        return ctx

    def apply(
        self, program: Program, ctx: PassContext, verify_input: bool = True
    ) -> None:
        """Run the passes inside the caller's span.

        ``verify_input=False`` skips verifying ``program`` itself, for a
        clone of IR that was verified when it was produced.
        """
        tel = get_telemetry()
        if self.verify and verify_input:
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
            if self.verify and p.changes_ir:
                with tel.span(f"verify:{p.name}", cat="compile",
                              timer="compile.verify.seconds"):
                    try:
                        verify_program(program)
                    except Exception as exc:
                        raise PassError(
                            f"pass {p.name!r} produced malformed IR: {exc}"
                        ) from exc
