"""Linter orchestration: compile, audit, measure vulnerability windows.

Entry points, in increasing convenience:

* :func:`lint_snapshot` — run the protection rules over an IR snapshot
  (the ``CompiledProgram.pre_regalloc`` clone, or any hand-built program
  at the same pipeline stage);
* :func:`lint_compiled` — the above plus the schedule-legality cross-check
  against the *final* compiled program;
* :func:`lint_program` — compile a source program under a scheme (with
  ``capture_pre_regalloc=True``) and lint the result, returning a full
  :class:`LintReport` with per-definition vulnerability windows.

A **vulnerability window** is the shortest number of executed instructions
between a protected value's definition and the earliest check compare of
that value (paths end where the register is redefined).  It is the static
analogue of the campaigns' measured *detection latency* — both are in
dynamic-instruction units — so the report correlates the two directly
(``results/lint_report.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.protection import (
    CHECK_CMP_OPCODES,
    AvailableChecks,
    Finding,
    Severity,
    SphereModel,
    build_sphere_model,
    lint_function,
)
from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.program import Program
from repro.isa.instruction import Role
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.pipeline import CompiledProgram, Scheme, compile_program


@dataclass(frozen=True)
class VulnWindow:
    """One protected definition's distance to its earliest check."""

    reg: str
    function: str
    block: str
    index: int
    #: Shortest executed-instruction count from the definition to the first
    #: check compare of the register; ``None`` when no check is reachable
    #: before every path redefines the value (covered transitively).
    distance: int | None
    #: Execution weight of the defining block (block profile count, or 1).
    weight: int


@dataclass
class WindowSummary:
    """Aggregate vulnerability-window statistics for one program."""

    windows: list[VulnWindow] = field(default_factory=list)

    @property
    def n_defs(self) -> int:
        return len(self.windows)

    @property
    def checked(self) -> list[VulnWindow]:
        return [w for w in self.windows if w.distance is not None]

    @property
    def n_unchecked(self) -> int:
        return sum(1 for w in self.windows if w.distance is None)

    @property
    def max_window(self) -> int:
        return max((w.distance or 0 for w in self.checked), default=0)

    @property
    def mean_window(self) -> float:
        checked = self.checked
        if not checked:
            return 0.0
        return sum(w.distance or 0 for w in checked) / len(checked)

    @property
    def weighted_mean_window(self) -> float:
        """Mean window weighted by defining-block execution counts."""
        checked = self.checked
        total_w = sum(w.weight for w in checked)
        if not total_w:
            return 0.0
        return sum((w.distance or 0) * w.weight for w in checked) / total_w

    def to_json(self) -> dict[str, object]:
        return {
            "n_defs": self.n_defs,
            "n_unchecked": self.n_unchecked,
            "max_window": self.max_window,
            "mean_window": round(self.mean_window, 3),
            "weighted_mean_window": round(self.weighted_mean_window, 3),
        }


#: BFS position cap per definition; windows past this are effectively
#: unbounded and reported as unchecked.
_BFS_LIMIT = 20_000


def _windows_for_function(
    function: Function,
    model: SphereModel,
    block_profile: dict[str, int] | None,
) -> list[VulnWindow]:
    """Shortest def-to-check distance for every protected original def."""
    analysis = AvailableChecks(model)
    # (block label, index) -> checked register at that check compare
    check_at: dict[tuple[str, int], Reg] = {}
    for block in function.blocks():
        for idx, insn in enumerate(block.instructions):
            if insn.role is Role.CHECK and insn.opcode in CHECK_CMP_OPCODES:
                reg = analysis._checked_register(insn)
                if reg is not None:
                    check_at[(block.label, idx)] = reg

    blocks = {b.label: b for b in function.blocks()}
    succs = {
        b.label: b.successor_labels() if b.is_terminated else ()
        for b in function.blocks()
    }

    windows: list[VulnWindow] = []
    for block, def_idx, insn in function.all_instructions():
        if insn.role is not Role.ORIG or insn.from_library:
            continue
        for reg in insn.writes():
            if reg not in model.shadow_of:
                continue
            distance = _bfs_to_check(
                reg, block.label, def_idx, blocks, succs, check_at
            )
            weight = 1
            if block_profile is not None:
                weight = max(1, block_profile.get(block.label, 0))
            windows.append(
                VulnWindow(
                    reg=str(reg),
                    function=function.name,
                    block=block.label,
                    index=def_idx,
                    distance=distance,
                    weight=weight,
                )
            )
    return windows


def _bfs_to_check(
    reg: Reg,
    def_block: str,
    def_idx: int,
    blocks: dict[str, BasicBlock],
    succs: dict[str, tuple[str, ...]],
    check_at: dict[tuple[str, int], Reg],
) -> int | None:
    """Shortest executed-instruction distance from a def to a check of it.

    Positions are (block, instruction index); stepping *past* an
    instruction costs 1.  A path dies where ``reg`` is redefined (the old
    value no longer needs checking) or falls off a function exit.
    """
    start = (def_block, def_idx + 1)
    seen: set[tuple[str, int]] = {start}
    queue: deque[tuple[str, int, int]] = deque([(def_block, def_idx + 1, 0)])
    visited = 0
    while queue:
        label, idx, dist = queue.popleft()
        visited += 1
        if visited > _BFS_LIMIT:
            return None
        insns = blocks[label].instructions
        if idx >= len(insns):
            for nxt in succs[label]:
                pos = (nxt, 0)
                if pos not in seen:
                    seen.add(pos)
                    queue.append((nxt, 0, dist))
            continue
        insn = insns[idx]
        if check_at.get((label, idx)) == reg:
            return dist + 1  # the check executes, then detection can fire
        if reg in insn.writes():
            continue  # value redefined: this path no longer exposes it
        pos = (label, idx + 1)
        if pos not in seen:
            seen.add(pos)
            queue.append((label, idx + 1, dist + 1))
    return None


def compute_windows(
    program: Program, block_profile: dict[str, int] | None = None
) -> WindowSummary:
    """Vulnerability windows for every function of a pre-regalloc program."""
    summary = WindowSummary()
    for function in program.functions():
        model = build_sphere_model(function)
        if not model.shadow_of:
            continue  # unprotected function: no sphere to measure
        summary.windows.extend(
            _windows_for_function(function, model, block_profile)
        )
    return summary


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """Everything ``repro lint`` knows about one program under one scheme."""

    program: str
    scheme: str
    machine: str
    findings: list[Finding]
    windows: WindowSummary

    def counts(self) -> dict[str, int]:
        out = {s.value: 0 for s in Severity}
        for f in self.findings:
            out[f.severity.value] += 1
        return out

    @property
    def max_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max((f.severity for f in self.findings), key=lambda s: s.rank)

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        """0 = clean, 1 = findings at/above the gate severity."""
        worst = self.max_severity
        if worst is None or worst.rank < fail_on.rank:
            return 0
        return 1

    def to_json(self) -> dict[str, object]:
        return {
            "program": self.program,
            "scheme": self.scheme,
            "machine": self.machine,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
            "windows": self.windows.to_json(),
        }


def lint_snapshot(
    program: Program, scheme: Scheme | str, n_clusters: int
) -> list[Finding]:
    """Run every per-function protection rule over an IR snapshot."""
    scheme_name = scheme.value if isinstance(scheme, Scheme) else scheme
    findings: list[Finding] = []
    for function in program.functions():
        findings.extend(lint_function(function, scheme_name, n_clusters))
    return findings


def lint_compiled(compiled: CompiledProgram) -> list[Finding]:
    """Protection rules on the snapshot + schedule legality on the result."""
    if compiled.pre_regalloc is None:
        raise ValueError(
            "compile with capture_pre_regalloc=True to lint the result"
        )
    findings = lint_snapshot(
        compiled.pre_regalloc,
        compiled.scheme,
        compiled.machine.n_clusters,
    )
    from repro.passes.schedule_check import validate_compiled

    try:
        validate_compiled(
            compiled.program, compiled.schedules, compiled.machine
        )
    except ScheduleError as exc:
        findings.append(
            Finding(
                "schedule-legality",
                Severity.ERROR,
                str(exc),
                compiled.program.main.name,
            )
        )
    return findings


def lint_program(
    source: Program,
    scheme: Scheme,
    machine: MachineConfig,
    block_profile: dict[str, int] | None = None,
    **compile_kwargs: Any,
) -> LintReport:
    """Compile ``source`` under ``scheme`` and lint the result."""
    compiled = compile_program(
        source,
        scheme,
        machine,
        capture_pre_regalloc=True,
        block_profile=block_profile,
        **compile_kwargs,
    )
    findings = lint_compiled(compiled)
    windows = compute_windows(compiled.pre_regalloc, block_profile)
    report = LintReport(
        program=source.main.name,
        scheme=scheme.value,
        machine=f"{machine.n_clusters}x{machine.issue_width}w d{machine.inter_cluster_delay}",
        findings=findings,
        windows=windows,
    )
    _publish_metrics(report)
    return report


def _publish_metrics(report: LintReport) -> None:
    """Mirror the report into the telemetry registry (no-op when disabled)."""
    from repro.obs import get_telemetry

    tel = get_telemetry()
    if not tel.enabled:
        return
    for severity, n in report.counts().items():
        if n:
            tel.count(f"lint.findings.{severity}", n)
    for finding in report.findings:
        tel.count(f"lint.rule.{finding.rule}")
    tel.gauge("lint.windows.defs", report.windows.n_defs)
    tel.gauge("lint.windows.unchecked", report.windows.n_unchecked)
    for w in report.windows.checked:
        tel.observe("lint.window", float(w.distance or 0))
