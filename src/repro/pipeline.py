"""End-to-end compilation: source IR -> scheduled, allocated machine code.

Mirrors the paper's Fig. 5 pipeline position: ``-O1`` style optimizations
run first, then the CASTED passes (error detection + cluster assignment)
just before instruction scheduling.  The late CSE/DCE that GCC would run
after scheduling are *not* re-run post-ED (paper §IV-A) — except in the
dedicated coverage ablation.

Nothing before cluster assignment reads the machine, so that prefix
(:func:`compile_prefix`) is compiled once per source program and shared
through the artifact store (:mod:`repro.store`).  A scheme whose
assignment reads neither the issue width nor the delay (NOED, SCED, DCED)
also shares its assigned and allocated program (:func:`compile_stage`), so
a :func:`compile_program` call for it only schedules; a CASTED call runs
assignment, register allocation and scheduling on a clone of the prefix.
``compile_program`` never mutates its input, so one workload can be
compiled under every scheme/machine combination.
"""

from __future__ import annotations

import enum
import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro import store
from repro.errors import PassError
from repro.ir.printer import print_program
from repro.ir.program import Program
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.passes.base import FunctionPass, PassContext
from repro.passes.pass_manager import PassManager
from repro.passes.constfold import ConstFoldPass
from repro.passes.copyprop import CopyPropPass
from repro.passes.cse import LocalCSEPass
from repro.passes.dce import DeadCodeEliminationPass
from repro.passes.licm import LoopInvariantCodeMotion
from repro.passes.simplify_cfg import SimplifyCFGPass
from repro.passes.checks import FULL_POLICY, CheckPolicy
from repro.passes.error_detection import ErrorDetectionInfo, ErrorDetectionPass
from repro.passes.latency import ShapeCache
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
    #: Is ``program`` (and ``pre_regalloc``) the read-only one of a
    #: :class:`CompileStage`, shared with the scheme's other grid points?
    shares_program: bool = False

    @property
    def mem_words(self) -> int:
        """Words of memory the program needs (data + spill frame + pad)."""
        return self.program.layout().data_end + self.frame_words + 8

    @property
    def nbytes(self) -> int:
        """Estimated size: about 512 bytes per instruction for IR plus
        schedule, or 60 for the schedule alone when the program is a shared
        stage's, which that stage's entry counts."""
        return (60 if self.shares_program else 512) * self.stats.n_instructions


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


def _optimization_passes(if_convert: bool) -> list[FunctionPass]:
    """The ``-O1`` passes, in pipeline order."""
    passes: list[FunctionPass] = [
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
    return passes + [SimplifyCFGPass(), LocalCSEPass(), DeadCodeEliminationPass()]


def _detection_passes(
    check_policy: CheckPolicy,
    protect_slice_depth: int | None,
    unsafe_post_ed_cse: bool,
) -> list[FunctionPass]:
    """Error detection (Algorithm 1), plus the unsafe late CSE if asked."""
    passes: list[FunctionPass] = [
        ErrorDetectionPass(
            check_policy=check_policy, protect_slice_depth=protect_slice_depth
        )
    ]
    if unsafe_post_ed_cse:
        # What a global late CSE would do if not disabled (§IV-A): merge
        # the replicas into copies of their originals, propagate the
        # copies into the checks (which then compare a register against
        # itself), and sweep the leftovers.
        from repro.passes.unsafe_opt import GlobalReplicaMergePass

        passes += [
            GlobalReplicaMergePass(),
            LocalCSEPass(touch_redundant=True),
            CopyPropPass(touch_all=True),
            DeadCodeEliminationPass(),
        ]
    return passes


#: Digests of the source programs compiled so far, by program object: a
#: program handed to :func:`compile_program` is read-only from then on.
_source_digests: weakref.WeakKeyDictionary[Program, str] = weakref.WeakKeyDictionary()


def _source_digest(program: Program) -> str:
    """SHA-256 of everything the compile prefix reads from ``program``.

    The printed program carries every opcode, operand, label, global and
    role/library/cluster tag; the virtual-register counters decide the
    names error detection gives the registers it creates.  Computed once
    per program object.
    """
    digest = _source_digests.get(program)
    if digest is None:
        h = hashlib.sha256(print_program(program).encode())
        for fn in program.functions():
            h.update(repr(fn.vreg_counts()).encode())
        digest = _source_digests[program] = h.hexdigest()
    return digest


@dataclass(eq=False)
class CompilePrefix:
    """The machine-independent head of a compile, shared by its grid points.

    ``program`` is the IR after the ``-O1`` passes and, for protected
    schemes, error detection; ``stats`` the per-pass metrics so far,
    ending with ``pre-ed-count``/``error-detection``.  Both are read-only:
    every compile clones ``program`` and copies ``stats``.  ``shapes``
    holds the entry function's block shapes, built on first use: CASTED's
    assignment, the first pass after the prefix, sees the clone's blocks
    exactly as they are here.
    """

    program: Program
    stats: dict[str, dict[str, Any]]
    ed_info: ErrorDetectionInfo | None
    shapes: ShapeCache = field(init=False)

    def __post_init__(self) -> None:
        self.shapes = ShapeCache(self.program.main)

    @property
    def nbytes(self) -> int:
        """Estimated size: about 270 bytes per IR instruction, 370 after
        error detection (its shadow registers and tables), plus the shapes
        built so far: 0.9-1.1x of what ``tracemalloc`` counts for each
        kernel's prefix.  The store reads it again each time it hands the
        prefix out, so shapes built since count from the next lookup."""
        per_insn = 270 if self.ed_info is None else 370
        return per_insn * self.program.main.instruction_count() + self.shapes.nbytes


def _stats_copy(stats: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    return {name: dict(metrics) for name, metrics in stats.items()}


def compile_prefix(
    source: Program,
    protected: bool,
    *,
    optimize: bool = True,
    if_convert: bool = False,
    verify: bool = True,
    check_policy: CheckPolicy | None = None,
    protect_slice_depth: int | None = None,
    unsafe_post_ed_cse: bool = False,
) -> CompilePrefix:
    """The shared prefix of compiling ``source``, from the artifact store.

    The ``-O1`` result is one store entry per source program and
    optimization arguments; error detection runs on a clone of it, one
    entry per (source, protection arguments).  Every pass output is
    verified once, when the entry is built.  The lookup of the entry
    returned is counted as ``compile.prefix.{hits,misses}``.
    """
    base_key = ("compile-prefix", _source_digest(source), optimize, if_convert, verify)

    def optimized() -> CompilePrefix:
        program = source.clone()
        ctx = PassContext()
        passes = _optimization_passes(if_convert) if optimize else []
        PassManager(passes, verify).apply(program, ctx)
        ctx.record("pre-ed-count", instructions=program.main.instruction_count())
        return CompilePrefix(program, ctx.stats, None)

    if not protected:
        return store.get(base_key, optimized, counter="compile.prefix")
    policy = check_policy or FULL_POLICY

    def detected() -> CompilePrefix:
        base = store.get(base_key, optimized)
        program = base.program.clone()
        ctx = PassContext(stats=_stats_copy(base.stats))
        passes = _detection_passes(policy, protect_slice_depth, unsafe_post_ed_cse)
        PassManager(passes, verify).apply(program, ctx, verify_input=False)
        return CompilePrefix(program, ctx.stats, ctx.artifacts["error_detection"])

    key = (*base_key, policy, protect_slice_depth, unsafe_post_ed_cse)
    return store.get(key, detected, counter="compile.prefix")


@dataclass(eq=False)
class CompileStage:
    """A scheme's program after assignment and register allocation, shared
    by every grid point of a source when the scheme's assignment reads
    neither the issue width nor the delay
    (:attr:`~repro.schemes.SchemeInfo.assignment_reads_grid`).

    ``program`` is read-only: each point's :class:`CompiledProgram` holds
    it as is, and only the list scheduler runs per point, against the
    block shapes in ``shapes``.  ``stats`` are the per-pass metrics through
    register allocation; every compile copies them.
    """

    program: Program
    stats: dict[str, dict[str, Any]]
    ed_info: ErrorDetectionInfo | None
    regalloc: RegAllocResult
    pre_regalloc: Program | None
    shapes: ShapeCache = field(init=False)

    def __post_init__(self) -> None:
        self.shapes = ShapeCache(self.program.main)

    @property
    def nbytes(self) -> int:
        """Estimated size: 15 KB plus about 310 bytes per IR instruction,
        530 when the pre-regalloc clone is kept, plus the shapes built so
        far (0.9-1.1x of what ``tracemalloc`` counts for each kernel's
        stage).  The store reads it again each time it hands the stage
        out, so shapes built since count from the next lookup."""
        per_insn = 310 if self.pre_regalloc is None else 530
        return (
            15_000 + per_insn * self.program.main.instruction_count()
            + self.shapes.nbytes
        )


def compile_stage(
    source: Program,
    scheme: Scheme,
    machine: MachineConfig,
    *,
    optimize: bool = True,
    if_convert: bool = False,
    verify: bool = True,
    check_policy: CheckPolicy | None = None,
    protect_slice_depth: int | None = None,
    unsafe_post_ed_cse: bool = False,
    regalloc_reuse: str = "fifo",
    capture_pre_regalloc: bool = False,
) -> CompileStage:
    """``scheme``'s assigned and allocated program, from the artifact store.

    Only for schemes whose assignment reads neither grid axis: the entry is
    keyed by the source digest, the scheme, ``machine`` with its issue
    width and delay normalized away, and the arguments the prefix, the
    assignment and the register allocator read, and it is built against
    that normalized machine.  Each pass output is verified once, when the
    entry is built.  Lookups count as ``compile.stage.{hits,misses}``.
    """
    if scheme.info.assignment_reads_grid:
        raise PassError(f"{scheme} placement reads the grid; it has no shared stage")
    stage_machine = machine.with_(issue_width=1, inter_cluster_delay=0)
    key = (
        "compile-stage", _source_digest(source), scheme, stage_machine,
        optimize, if_convert, verify, check_policy, protect_slice_depth,
        unsafe_post_ed_cse, regalloc_reuse, capture_pre_regalloc,
    )

    def build() -> CompileStage:
        prefix = compile_prefix(
            source, scheme.protected,
            optimize=optimize, if_convert=if_convert, verify=verify,
            check_policy=check_policy, protect_slice_depth=protect_slice_depth,
            unsafe_post_ed_cse=unsafe_post_ed_cse,
        )
        program = prefix.program.clone()
        ctx = PassContext(machine=stage_machine, stats=_stats_copy(prefix.stats))
        passes = _suffix_passes(
            scheme, None, True, None, regalloc_reuse, capture_pre_regalloc
        )
        PassManager(passes, verify).apply(program, ctx, verify_input=False)
        return CompileStage(
            program, ctx.stats, prefix.ed_info, ctx.artifacts["regalloc"],
            ctx.artifacts.get("snapshot:pre-regalloc"),
        )

    return store.get(key, build, counter="compile.stage")


def _suffix_passes(
    scheme: Scheme,
    casted_candidates: tuple[str, ...] | None,
    casted_safety_net: bool,
    block_profile: dict[str, int] | None,
    regalloc_reuse: str,
    capture_pre_regalloc: bool,
) -> list[FunctionPass]:
    """Assignment (plus the pre-regalloc snapshot if asked) and register
    allocation: the passes between the prefix and the scheduler."""
    passes: list[FunctionPass] = [
        _assignment_pass(scheme, casted_candidates, casted_safety_net, block_profile)
    ]
    if capture_pre_regalloc:
        passes.append(_SnapshotPass("pre-regalloc"))
    passes.append(LinearScanAllocator(reuse_policy=regalloc_reuse))
    return passes


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

    The machine-independent prefix (the ``-O1`` passes, then error
    detection for protected schemes) comes from :func:`compile_prefix`,
    so the grid points of one source share it.  A scheme whose assignment
    reads neither grid axis also shares its assigned and allocated program
    (:func:`compile_stage`), and only the scheduler runs per call; the
    others (CASTED) run assignment, register allocation and scheduling per
    call, on a clone of the prefix.  The scheduler changes no IR, so its
    output is not verified.
    """
    if machine.n_clusters < scheme.info.min_clusters:
        raise PassError(
            f"{scheme} needs at least {scheme.info.min_clusters} clusters"
        )

    with get_telemetry().span(
        "pipeline", cat="compile", timer="compile.pipeline.seconds",
        scheme=scheme.value, verify=verify,
    ):
        if not scheme.info.assignment_reads_grid:
            stage = compile_stage(
                source, scheme, machine,
                optimize=optimize, if_convert=if_convert, verify=verify,
                check_policy=check_policy, protect_slice_depth=protect_slice_depth,
                unsafe_post_ed_cse=unsafe_post_ed_cse, regalloc_reuse=regalloc_reuse,
                capture_pre_regalloc=capture_pre_regalloc,
            )
            program = stage.program
            ctx = PassContext(machine=machine, stats=_stats_copy(stage.stats))
            ctx.artifacts["block-shapes"] = stage.shapes
            PassManager([ListScheduler()], verify).apply(
                program, ctx, verify_input=False
            )
            regalloc = stage.regalloc
            ed_info = stage.ed_info
            pre_regalloc = stage.pre_regalloc
        else:
            prefix = compile_prefix(
                source, scheme.protected,
                optimize=optimize, if_convert=if_convert, verify=verify,
                check_policy=check_policy, protect_slice_depth=protect_slice_depth,
                unsafe_post_ed_cse=unsafe_post_ed_cse,
            )
            program = prefix.program.clone()
            ctx = PassContext(machine=machine, stats=_stats_copy(prefix.stats))
            ctx.artifacts["block-shapes"] = prefix.shapes
            passes = _suffix_passes(
                scheme, casted_candidates, casted_safety_net, block_profile,
                regalloc_reuse, capture_pre_regalloc,
            )
            passes.append(ListScheduler())
            PassManager(passes, verify).apply(program, ctx, verify_input=False)
            regalloc = ctx.artifacts["regalloc"]
            ed_info = prefix.ed_info
            pre_regalloc = ctx.artifacts.get("snapshot:pre-regalloc")

    schedules: ScheduleResult = ctx.artifacts["schedule"]

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
        pre_regalloc=pre_regalloc,
        shares_program=not scheme.info.assignment_reads_grid,
    )


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
