"""End-to-end compilation: source IR -> scheduled, allocated machine code.

Mirrors the paper's Fig. 5 pipeline position: ``-O1`` style optimizations
run first, then the CASTED passes (error detection + cluster assignment)
just before instruction scheduling.  The late CSE/DCE that GCC would run
after scheduling are *not* re-run post-ED (paper §IV-A) — except in the
dedicated coverage ablation.

``compile_program`` never mutates its input (it clones first), so one
workload can be compiled under every scheme/machine combination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PassError
from repro.ir.program import Program
from repro.machine.config import MachineConfig
from repro.passes.base import FunctionPass, PassContext
from repro.passes.pass_manager import PassManager
from repro.passes.constfold import ConstFoldPass
from repro.passes.copyprop import CopyPropPass
from repro.passes.cse import LocalCSEPass
from repro.passes.dce import DeadCodeEliminationPass
from repro.passes.licm import LoopInvariantCodeMotion
from repro.passes.simplify_cfg import SimplifyCFGPass
from repro.passes.error_detection import ErrorDetectionInfo, ErrorDetectionPass
from repro.passes.regalloc import LinearScanAllocator, RegAllocResult
from repro.passes.scheduler import ListScheduler, ScheduleResult
from repro.schemes import SchemeInfo, get_scheme_info


class Scheme(enum.Enum):
    """The four code-generation policies the paper evaluates.

    The enum is the typed handle; the per-scheme *facts* (replication,
    check placement, cluster policy, assignment pass) live in the
    :mod:`repro.schemes` registry and are reached through :attr:`info`.
    """

    NOED = "noed"  # no error detection, single cluster
    SCED = "sced"  # error detection, everything on one cluster
    DCED = "dced"  # error detection, fixed original/checker split
    CASTED = "casted"  # error detection, adaptive BUG placement

    @property
    def info(self) -> SchemeInfo:
        """This scheme's :class:`repro.schemes.SchemeInfo` record."""
        return get_scheme_info(self.value)

    @property
    def protected(self) -> bool:
        return self.info.replicates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scheme.{self.name}"


@dataclass
class CompileStats:
    """Static metrics of one compilation."""

    scheme: Scheme
    n_instructions: int
    n_by_role: dict[str, int]
    code_growth: float  # vs. the instruction count right before ED
    frame_words: int
    n_spilled: int
    static_cycles: int
    per_cluster_instructions: dict[int, int] = field(default_factory=dict)


@dataclass
class CompiledProgram:
    """Everything the simulator needs to run one compiled workload."""

    program: Program  # post-regalloc, cluster-assigned IR
    schedules: ScheduleResult
    machine: MachineConfig
    scheme: Scheme
    frame_words: int
    stats: CompileStats
    ed_info: ErrorDetectionInfo | None = None
    pass_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Clone of the IR after cluster assignment but before register
    #: allocation — the representation the protection linter analyses
    #: (shadow registers still distinct virtuals, clusters already
    #: assigned).  Only captured when ``compile_program(...,
    #: capture_pre_regalloc=True)``; ``None`` otherwise.
    pre_regalloc: Program | None = None

    @property
    def mem_words(self) -> int:
        """Words of memory the program needs (data + spill frame + pad)."""
        return self.program.layout().data_end + self.frame_words + 8

    @property
    def nbytes(self) -> int:
        """Estimated size: about 512 bytes per instruction (IR plus schedule)."""
        return 512 * self.stats.n_instructions


def collect_block_profile(program: Program, max_steps: int = 50_000_000) -> dict[str, int]:
    """Block execution counts from one run of the unmodified program.

    Feed the result to :func:`compile_program` as ``block_profile`` for
    profile-guided CASTED placement (block labels survive every pass, so a
    front-end-IR profile applies to the transformed code).
    """
    from repro.ir.interp import Interpreter, visit_counts

    interp = Interpreter(program, max_steps=max_steps)
    _, visits = interp.run_visits()
    return visit_counts(interp.labels, visits)


def _assignment_pass(
    scheme: Scheme,
    casted_candidates: tuple[str, ...] | None,
    casted_safety_net: bool,
    block_profile: dict[str, int] | None,
) -> FunctionPass:
    factory = scheme.info.make_assignment
    if factory is None:  # pragma: no cover - every registered scheme has one
        raise PassError(f"scheme {scheme} has no assignment pass")
    return factory(
        casted_candidates=casted_candidates,
        casted_safety_net=casted_safety_net,
        block_profile=block_profile,
    )


def compile_program(
    source: Program,
    scheme: Scheme,
    machine: MachineConfig,
    optimize: bool = True,
    verify: bool = True,
    unsafe_post_ed_cse: bool = False,
    casted_candidates: tuple[str, ...] | None = None,
    casted_safety_net: bool = True,
    regalloc_reuse: str = "fifo",
    block_profile: dict[str, int] | None = None,
    check_policy=None,
    protect_slice_depth: int | None = None,
    if_convert: bool = False,
    capture_pre_regalloc: bool = False,
) -> CompiledProgram:
    """Compile ``source`` under ``scheme`` for ``machine``.

    Defaults reproduce the paper's pipeline exactly; the keyword knobs
    drive the ablation/extension benchmarks:

    * ``unsafe_post_ed_cse`` — re-enable replica-merging CSE *after* error
      detection, the thing the paper explicitly disables (§IV-A);
    * ``casted_candidates`` / ``casted_safety_net`` — restrict CASTED's
      adaptive placement portfolio (e.g. ``("bug",)`` for pure greedy);
    * ``regalloc_reuse`` — ``"fifo"`` (round-robin, default) or ``"lifo"``
      free-register reuse;
    * ``block_profile`` — measured block counts from
      :func:`collect_block_profile` for profile-guided CASTED weighting;
    * ``check_policy`` — a :class:`repro.passes.checks.CheckPolicy`
      narrowing which non-replicated classes get operand checks;
    * ``protect_slice_depth`` — Shoestring-style partial redundancy:
      replicate only the backward slice of checked operands to depth k;
    * ``if_convert`` — predicate small branch diamonds before protection;
    * ``capture_pre_regalloc`` — keep a clone of the post-assignment,
      pre-regalloc IR on the result (``CompiledProgram.pre_regalloc``) for
      the protection linter (:mod:`repro.analysis.lint`).
    """
    if machine.n_clusters < scheme.info.min_clusters:
        raise PassError(
            f"{scheme} needs at least {scheme.info.min_clusters} clusters"
        )

    program = source.clone()
    ctx = PassContext(machine=machine)

    passes: list[FunctionPass] = []
    if optimize:
        passes += [
            ConstFoldPass(),
            CopyPropPass(),
            LocalCSEPass(),
            LoopInvariantCodeMotion(),
        ]
        if if_convert:
            # Off by default: predication changes the workloads' branch/check
            # character, which the paper's analysis depends on; the ablation
            # benchmark measures its effect explicitly.
            from repro.passes.ifconvert import IfConversionPass

            passes.append(IfConversionPass())
        passes += [
            SimplifyCFGPass(),
            LocalCSEPass(),
            DeadCodeEliminationPass(),
        ]
    n_before_ed_marker = _CountMarker("pre-ed-count")
    passes.append(n_before_ed_marker)
    if scheme.protected:
        from repro.passes.checks import FULL_POLICY

        passes.append(
            ErrorDetectionPass(
                check_policy=check_policy or FULL_POLICY,
                protect_slice_depth=protect_slice_depth,
            )
        )
        if unsafe_post_ed_cse:
            # What a global late CSE would do if not disabled (§IV-A): merge
            # the replicas into copies of their originals, propagate the
            # copies into the checks (which then compare a register against
            # itself), and sweep the leftovers.
            from repro.passes.unsafe_opt import GlobalReplicaMergePass

            passes.append(GlobalReplicaMergePass())
            passes.append(LocalCSEPass(touch_redundant=True))
            passes.append(CopyPropPass(touch_all=True))
            passes.append(DeadCodeEliminationPass())
    passes.append(
        _assignment_pass(scheme, casted_candidates, casted_safety_net, block_profile)
    )
    if capture_pre_regalloc:
        passes.append(_SnapshotPass("pre-regalloc"))
    passes.append(LinearScanAllocator(reuse_policy=regalloc_reuse))
    passes.append(ListScheduler())

    PassManager(passes, verify=verify).run(program, ctx)

    schedules: ScheduleResult = ctx.artifacts["schedule"]
    regalloc: RegAllocResult = ctx.artifacts["regalloc"]
    ed_info: ErrorDetectionInfo | None = ctx.artifacts.get("error_detection")

    n_by_role: dict[str, int] = {}
    per_cluster: dict[int, int] = {}
    total = 0
    for _, _, insn in program.main.all_instructions():
        total += 1
        n_by_role[insn.role.value] = n_by_role.get(insn.role.value, 0) + 1
        per_cluster[insn.cluster] = per_cluster.get(insn.cluster, 0) + 1

    n_pre_ed = ctx.stats["pre-ed-count"]["instructions"]
    stats = CompileStats(
        scheme=scheme,
        n_instructions=total,
        n_by_role=n_by_role,
        code_growth=total / n_pre_ed if n_pre_ed else 1.0,
        frame_words=regalloc.frame_words,
        n_spilled=regalloc.n_spilled,
        static_cycles=schedules.total_cycles_static(),
        per_cluster_instructions=per_cluster,
    )
    return CompiledProgram(
        program=program,
        schedules=schedules,
        machine=machine,
        scheme=scheme,
        frame_words=regalloc.frame_words,
        stats=stats,
        ed_info=ed_info,
        pass_stats=ctx.stats,
        pre_regalloc=ctx.artifacts.get("snapshot:pre-regalloc"),
    )


class _CountMarker(FunctionPass):
    """Records the instruction count at its pipeline position."""

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, program: Program, ctx: PassContext) -> bool:
        ctx.record(self.name, instructions=program.main.instruction_count())
        return False


class _SnapshotPass(FunctionPass):
    """Stores a clone of the IR at its pipeline position in the artifacts.

    Cloning remaps instruction uids, but ``dup_of`` links are remapped with
    them (:meth:`Function.clone`), so the snapshot is self-consistent for
    the linter's structural queries.
    """

    def __init__(self, tag: str) -> None:
        self.name = f"snapshot-{tag}"
        self.tag = tag

    def run(self, program: Program, ctx: PassContext) -> bool:
        ctx.artifacts[f"snapshot:{self.tag}"] = program.clone()
        return False
