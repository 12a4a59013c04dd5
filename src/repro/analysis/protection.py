"""The protection linter: static sphere-of-replication analysis.

Every rule here is a static proof obligation derived from the paper's
Algorithm 1 invariants:

* **replication-coverage** (step i, ``replicate_insns``) — every eligible
  original instruction has a structurally identical replica;
* **shadow-isolation** (step ii, ``register_rename``) — replicas read and
  write only shadow registers, the original stream never touches them;
* **check-coverage** (step iii, ``emit_check_insns``) — every register a
  store/branch/``OUT`` consumes is compared against its shadow on *every*
  path from its definition, proven with an "available shadow-check"
  must-dataflow over the shared framework;
* **check-wiring** — every ``CHKBR`` is fed by a check compare and targets
  the fault handler, and no check compare's result is dropped;
* **duplicate-check** — no register is checked twice with no consumer in
  between (the pair is pure overhead);
* **cluster-placement** / **noed-purity** — the scheme's placement rules
  (SCED single cluster, DCED role split, CASTED single-home) hold, and an
  unprotected binary carries no redundant code.

The linter shares **no state** with the passes it audits: the shadow map and
the replica table are reconstructed structurally from the IR (role tags,
``dup_of`` links, operand positions), so a pass bug cannot hide in shared
bookkeeping — the same independence discipline as
:mod:`repro.passes.schedule_check`.

Rules run on the *post-assignment, pre-regalloc* IR snapshot
(``CompiledProgram.pre_regalloc``): shadow registers are still distinct
virtual registers there (linear scan later reuses physical registers across
streams, which destroys the shadow/original distinction), while cluster
assignments are already final.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.dataflow import (
    DataflowAnalysis,
    Direction,
    Fact,
    ReachingDefs,
    solve,
)
from repro.ir.basic_block import DETECT_LABEL
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.passes.checks import CHECKED_OPCODES

#: Opcodes a check compare may use (GP and PR flavours).
CHECK_CMP_OPCODES = frozenset({Opcode.CMPNE, Opcode.PNE})

def _known_schemes() -> tuple[str, ...]:
    """Schemes the linter knows placement rules for (registry-backed)."""
    from repro.schemes import scheme_names

    return tuple(scheme_names())


class Severity(enum.Enum):
    """Finding severity, ordered ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Severity.{self.name}"


@dataclass(frozen=True)
class Finding:
    """One linter finding, anchored to an instruction when possible."""

    rule: str
    severity: Severity
    message: str
    function: str
    block: str | None = None
    index: int | None = None
    uid: int | None = None

    @property
    def location(self) -> str:
        """``function.block[index]`` (best effort)."""
        loc = self.function
        if self.block is not None:
            loc += f".{self.block}"
            if self.index is not None:
                loc += f"[{self.index}]"
        return loc

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "uid": self.uid,
        }


#: Rule id -> one-line description (drives SARIF rule metadata and docs).
RULE_DESCRIPTIONS: dict[str, str] = {
    "replication-coverage": (
        "every eligible original instruction has a structurally identical "
        "replica (Algorithm 1 step i)"
    ),
    "shadow-isolation": (
        "replicas touch only shadow registers and the original stream never "
        "reads them (Algorithm 1 step ii)"
    ),
    "check-coverage": (
        "every register leaving the sphere of replication is compared "
        "against its shadow on every path (Algorithm 1 step iii)"
    ),
    "check-wiring": (
        "every CHKBR is fed by a check compare and targets the fault "
        "handler; no check compare result is dropped"
    ),
    "duplicate-check": (
        "no register is re-checked before any consumer uses it (redundant "
        "compare+branch pair)"
    ),
    "cluster-placement": (
        "the scheme's cluster-placement rules hold (SCED unified, DCED role "
        "split, single home cluster per register)"
    ),
    "noed-purity": (
        "an unprotected (NOED) binary carries no replicas, shadow copies or "
        "checks"
    ),
    "unshadowed-value": (
        "a consumed register has no shadow (library-produced value): the "
        "residual silent-data-corruption channel"
    ),
    "schedule-legality": (
        "the final schedule honours every dependence, issue-width and "
        "inter-cluster delay constraint (cross-check via schedule_check)"
    ),
}


# ---------------------------------------------------------------------------
# Structural sphere-of-replication model
# ---------------------------------------------------------------------------


@dataclass
class SphereModel:
    """Replica table + shadow map reconstructed from one function's IR."""

    function: Function
    replicas_of: dict[int, list[Instruction]] = field(default_factory=dict)
    by_uid: dict[int, Instruction] = field(default_factory=dict)
    shadow_of: dict[Reg, Reg] = field(default_factory=dict)
    shadow_regs: set[Reg] = field(default_factory=set)
    check_preds: set[Reg] = field(default_factory=set)
    findings: list[Finding] = field(default_factory=list)

    def _map_shadow(
        self, orig: Reg, shadow: Reg, where: Finding
    ) -> None:
        prev = self.shadow_of.get(orig)
        if prev is None:
            self.shadow_of[orig] = shadow
        elif prev != shadow:
            self.findings.append(where)
        self.shadow_regs.add(shadow)


def build_sphere_model(function: Function) -> SphereModel:
    """Reconstruct the duplication table and shadow map from role tags."""
    model = SphereModel(function)
    for _, _, insn in function.all_instructions():
        model.by_uid[insn.uid] = insn

    for block, idx, insn in function.all_instructions():
        if insn.role is Role.DUP:
            if insn.dup_of is None or insn.dup_of not in model.by_uid:
                model.findings.append(
                    Finding(
                        "replication-coverage",
                        Severity.ERROR,
                        f"replica {insn} has a dangling dup_of link",
                        function.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
                continue
            orig = model.by_uid[insn.dup_of]
            model.replicas_of.setdefault(orig.uid, []).append(insn)
            for o_reg, s_reg in zip(orig.writes(), insn.writes()):
                model._map_shadow(
                    o_reg,
                    s_reg,
                    Finding(
                        "shadow-isolation",
                        Severity.ERROR,
                        f"register {o_reg} maps to two different shadows "
                        f"({model.shadow_of.get(o_reg)} and {s_reg})",
                        function.name,
                        block.label,
                        idx,
                        insn.uid,
                    ),
                )
        elif insn.role is Role.SHADOW_COPY:
            if insn.srcs and insn.dests:
                model._map_shadow(
                    insn.srcs[0],
                    insn.dests[0],
                    Finding(
                        "shadow-isolation",
                        Severity.ERROR,
                        f"register {insn.srcs[0]} maps to two different "
                        f"shadows ({model.shadow_of.get(insn.srcs[0])} and "
                        f"{insn.dests[0]})",
                        function.name,
                        block.label,
                        idx,
                        insn.uid,
                    ),
                )
        elif insn.role is Role.CHECK and insn.opcode in CHECK_CMP_OPCODES:
            model.check_preds.update(insn.writes())

    # Source-side shadow pairs of replicas sharpen the map (a replica of
    # ``add d, a, b`` witnesses shadow(a) and shadow(b) too).
    for orig_uid, dups in model.replicas_of.items():
        orig = model.by_uid[orig_uid]
        for dup in dups:
            for o_reg, s_reg in zip(orig.reads(), dup.reads()):
                if o_reg != s_reg:
                    model._map_shadow(
                        o_reg,
                        s_reg,
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"register {o_reg} maps to two different shadows "
                            f"({model.shadow_of.get(o_reg)} and {s_reg})",
                            function.name,
                        ),
                    )
    return model


class AvailableChecks(DataflowAnalysis):
    """Forward must-analysis: registers checked since their last definition.

    A check compare ``CMPNE/PNE p, r, shadow(r)`` *generates* the fact
    ``r``; any write to ``r`` or to ``shadow(r)`` *kills* it.  The meet is
    intersection, so a fact at a point means the check happened on **every**
    path — exactly the all-paths guarantee Algorithm 1's check placement is
    supposed to provide.
    """

    direction = Direction.FORWARD

    def __init__(self, model: SphereModel) -> None:
        self._model = model
        checked: set[Reg] = set()
        for reg in model.shadow_of:
            checked.add(reg)
        self._all_checked: Fact = frozenset(checked)
        # reverse map: shadow -> originals it shadows (kill on shadow write)
        self._shadowed_by: dict[Reg, list[Reg]] = {}
        for orig, shadow in model.shadow_of.items():
            self._shadowed_by.setdefault(shadow, []).append(orig)

    def boundary(self, function: Function) -> Fact:
        return frozenset()

    def initial(self, function: Function) -> Fact:
        return self._all_checked

    def meet(self, facts: list[Fact]) -> Fact:
        if not facts:
            return self._all_checked
        out = facts[0]
        for f in facts[1:]:
            out &= f
        return out

    def transfer_insn(self, insn: Instruction, fact: Fact) -> Fact:
        killed: set[Reg] = set()
        for w in insn.writes():
            if w in fact:
                killed.add(w)
            for orig in self._shadowed_by.get(w, ()):
                if orig in fact:
                    killed.add(orig)
        if killed:
            fact = fact - frozenset(killed)
        if insn.role is Role.CHECK and insn.opcode in CHECK_CMP_OPCODES:
            reg = self._checked_register(insn)
            if reg is not None:
                fact = fact | frozenset((reg,))
        return fact

    def _checked_register(self, insn: Instruction) -> Reg | None:
        """The original register a check compare guards, if well-formed."""
        if len(insn.srcs) != 2:
            return None
        reg, shadow = insn.srcs
        if self._model.shadow_of.get(reg) == shadow:
            return reg
        # tolerate swapped operand order (still a valid check of ``shadow``'s
        # original)
        if self._model.shadow_of.get(shadow) == reg:
            return shadow
        return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _eligible(insn: Instruction) -> bool:
    """Should step (i) have replicated this instruction?"""
    return insn.protectable


def check_replication_coverage(model: SphereModel) -> list[Finding]:
    """Algorithm 1 step (i): every eligible instruction has a replica."""
    findings: list[Finding] = []
    fn = model.function
    for block, idx, insn in fn.all_instructions():
        if not _eligible(insn):
            continue
        dups = model.replicas_of.get(insn.uid, [])
        if not dups:
            findings.append(
                Finding(
                    "replication-coverage",
                    Severity.ERROR,
                    f"eligible instruction has no replica: {insn}",
                    fn.name,
                    block.label,
                    idx,
                    insn.uid,
                )
            )
            continue
        if len(dups) > 1:
            findings.append(
                Finding(
                    "replication-coverage",
                    Severity.WARNING,
                    f"instruction replicated {len(dups)} times: {insn}",
                    fn.name,
                    block.label,
                    idx,
                    insn.uid,
                )
            )
        for dup in dups:
            if (
                dup.opcode is not insn.opcode
                or dup.imm != insn.imm
                or dup.targets != insn.targets
                or len(dup.srcs) != len(insn.srcs)
                or len(dup.dests) != len(insn.dests)
            ):
                findings.append(
                    Finding(
                        "replication-coverage",
                        Severity.ERROR,
                        f"replica {dup} is not structurally identical to "
                        f"its original {insn}",
                        fn.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
    return findings


def check_shadow_isolation(model: SphereModel) -> list[Finding]:
    """Algorithm 1 step (ii): the two streams touch disjoint register sets."""
    findings: list[Finding] = list(model.findings)
    fn = model.function
    shadow_regs = model.shadow_regs
    check_preds = model.check_preds

    # Architectural registers = everything the original stream writes.
    arch_regs: set[Reg] = set()
    for _, _, insn in fn.all_instructions():
        if insn.role in (Role.ORIG, Role.SPILL):
            arch_regs.update(insn.writes())

    for block, idx, insn in fn.all_instructions():
        if insn.role in (Role.ORIG, Role.SPILL):
            for r in insn.reads():
                if r in shadow_regs:
                    findings.append(
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"original-stream instruction reads shadow "
                            f"register {r}: {insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
                if r in check_preds:
                    findings.append(
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"original-stream instruction reads check "
                            f"predicate {r}: {insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
        elif insn.role is Role.DUP:
            for r in insn.writes():
                if r in arch_regs:
                    findings.append(
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"replica writes architectural register {r}: "
                            f"{insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
            for r in insn.reads():
                if r not in shadow_regs:
                    findings.append(
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"replica reads non-shadow register {r}: {insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
        elif insn.role is Role.SHADOW_COPY:
            for r in insn.writes():
                if r in arch_regs:
                    findings.append(
                        Finding(
                            "shadow-isolation",
                            Severity.ERROR,
                            f"shadow copy writes architectural register "
                            f"{r}: {insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
    return findings


def check_wiring(model: SphereModel, cfg: CFG | None = None) -> list[Finding]:
    """Compare/branch pairing: no orphan halves, correct handler target."""
    findings: list[Finding] = []
    fn = model.function
    cfg = cfg or CFG(fn)
    facts = solve(fn, ReachingDefs(), cfg)

    # Predicates some CHKBR actually consumes (to find dropped compares).
    consumed: set[Reg] = set()

    for block in fn.blocks():
        for idx, insn, fact in facts.instruction_facts(block.label):
            if insn.opcode is not Opcode.CHKBR:
                continue
            if insn.targets != (DETECT_LABEL,):
                findings.append(
                    Finding(
                        "check-wiring",
                        Severity.ERROR,
                        f"CHKBR targets {insn.targets}, not the fault "
                        f"handler {DETECT_LABEL!r}",
                        fn.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
            if insn.role is not Role.CHECK:
                findings.append(
                    Finding(
                        "check-wiring",
                        Severity.ERROR,
                        f"CHKBR without the check role: {insn}",
                        fn.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
            for pred in insn.reads():
                consumed.add(pred)
                defs = [d for d in fact if d[0] == pred]
                for _, def_uid in defs:
                    definer = model.by_uid.get(def_uid)
                    if definer is None or not (
                        definer.role is Role.CHECK
                        and definer.opcode in CHECK_CMP_OPCODES
                    ):
                        findings.append(
                            Finding(
                                "check-wiring",
                                Severity.ERROR,
                                f"CHKBR predicate {pred} may be defined by a "
                                f"non-check instruction "
                                f"({definer if definer else 'nothing'})",
                                fn.name,
                                block.label,
                                idx,
                                insn.uid,
                            )
                        )

    for block, idx, insn in fn.all_instructions():
        if insn.role is Role.CHECK and insn.opcode in CHECK_CMP_OPCODES:
            dest = insn.dests[0] if insn.dests else None
            if dest is not None and dest not in consumed:
                findings.append(
                    Finding(
                        "check-wiring",
                        Severity.ERROR,
                        f"check compare result {dest} never reaches a "
                        f"CHKBR: {insn}",
                        fn.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
    return findings


def check_coverage(
    model: SphereModel, cfg: CFG | None = None
) -> list[Finding]:
    """Algorithm 1 step (iii): all-paths shadow-check before every exit."""
    findings: list[Finding] = []
    fn = model.function
    cfg = cfg or CFG(fn)
    analysis = AvailableChecks(model)
    facts = solve(fn, analysis, cfg)

    for block in fn.blocks():
        for idx, insn, fact in facts.instruction_facts(block.label):
            if (
                insn.role is not Role.ORIG
                or insn.from_library
                or insn.opcode not in CHECKED_OPCODES
            ):
                continue
            for reg in dict.fromkeys(insn.reads()):
                if reg in model.shadow_of:
                    if reg not in fact:
                        findings.append(
                            Finding(
                                "check-coverage",
                                Severity.ERROR,
                                f"register {reg} leaves the sphere of "
                                f"replication unchecked on some path: {insn}",
                                fn.name,
                                block.label,
                                idx,
                                insn.uid,
                            )
                        )
                else:
                    findings.append(
                        Finding(
                            "unshadowed-value",
                            Severity.INFO,
                            f"consumed register {reg} has no shadow "
                            f"(unprotected producer): {insn}",
                            fn.name,
                            block.label,
                            idx,
                            insn.uid,
                        )
                    )
    return findings


def check_duplicate_checks(model: SphereModel) -> list[Finding]:
    """Two checks of one register with no consumer in between are waste."""
    findings: list[Finding] = []
    fn = model.function
    analysis = AvailableChecks(model)
    for block in fn.blocks():
        # Block-local scan: available-and-unconsumed checked registers.
        pending: dict[Reg, int] = {}
        for idx, insn in enumerate(block.instructions):
            if insn.role is Role.CHECK and insn.opcode in CHECK_CMP_OPCODES:
                reg = analysis._checked_register(insn)
                if reg is not None:
                    if reg in pending:
                        findings.append(
                            Finding(
                                "duplicate-check",
                                Severity.WARNING,
                                f"register {reg} re-checked with no consumer "
                                f"since the check at index {pending[reg]}",
                                fn.name,
                                block.label,
                                idx,
                                insn.uid,
                            )
                        )
                    pending[reg] = idx
                continue
            if insn.opcode in CHECKED_OPCODES:
                for r in insn.reads():
                    pending.pop(r, None)
            for w in insn.writes():
                pending.pop(w, None)
                for orig, shadow in model.shadow_of.items():
                    if shadow == w:
                        pending.pop(orig, None)
    return findings


def check_cluster_placement(
    function: Function, scheme: str, n_clusters: int
) -> list[Finding]:
    """Scheme placement audit, cross-checking schedule_check's home rule.

    Placement expectations come from the scheme's registered
    ``cluster_policy`` (:mod:`repro.schemes`): ``unified`` pins every
    instruction to the scheme's home cluster, ``role-split`` pins the
    redundant stream to cluster 1 and originals to 0, and ``adaptive``
    imposes only the universal single-home-per-register rule.
    """
    from repro.schemes import get_scheme_info

    info = get_scheme_info(scheme)
    findings: list[Finding] = []
    homes: dict[Reg, tuple[int, Instruction]] = {}
    for block, idx, insn in function.all_instructions():
        cluster = insn.cluster
        if cluster is None or not 0 <= cluster < n_clusters:
            findings.append(
                Finding(
                    "cluster-placement",
                    Severity.ERROR,
                    f"instruction has invalid cluster {cluster}: {insn}",
                    function.name,
                    block.label,
                    idx,
                    insn.uid,
                )
            )
            continue
        for d in insn.writes():
            prev = homes.get(d)
            if prev is not None and prev[0] != cluster:
                findings.append(
                    Finding(
                        "cluster-placement",
                        Severity.ERROR,
                        f"register {d} defined on clusters {prev[0]} and "
                        f"{cluster} (single-home rule): {insn}",
                        function.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
            else:
                homes[d] = (cluster, insn)
        if info.cluster_policy == "unified" and cluster != info.home_cluster:
            findings.append(
                Finding(
                    "cluster-placement",
                    Severity.ERROR,
                    f"{scheme.upper()} requires cluster {info.home_cluster}, "
                    f"got {cluster}: {insn}",
                    function.name,
                    block.label,
                    idx,
                    insn.uid,
                )
            )
        elif info.cluster_policy == "role-split":
            expected = 1 if insn.is_redundant else 0
            if cluster != expected:
                findings.append(
                    Finding(
                        "cluster-placement",
                        Severity.ERROR,
                        f"{scheme.upper()} expects "
                        f"{'redundant' if insn.is_redundant else 'original'} "
                        f"code on cluster {expected}, got {cluster}: {insn}",
                        function.name,
                        block.label,
                        idx,
                        insn.uid,
                    )
                )
    return findings


def check_noed_purity(function: Function) -> list[Finding]:
    """An unprotected binary must carry no redundant-stream code."""
    findings: list[Finding] = []
    for block, idx, insn in function.all_instructions():
        if insn.is_redundant or insn.opcode is Opcode.CHKBR:
            findings.append(
                Finding(
                    "noed-purity",
                    Severity.ERROR,
                    f"NOED binary contains {insn.role.value} code: {insn}",
                    function.name,
                    block.label,
                    idx,
                    insn.uid,
                )
            )
    return findings


def lint_function(function: Function, scheme: str, n_clusters: int) -> list[Finding]:
    """Run every protection rule over one function; return all findings."""
    from repro.schemes import get_scheme_info

    if scheme not in _known_schemes():
        raise ValueError(f"unknown scheme {scheme!r}")
    info = get_scheme_info(scheme)
    findings: list[Finding] = []
    findings += check_cluster_placement(function, scheme, n_clusters)
    if not info.replicates:
        findings += check_noed_purity(function)
        return findings
    cfg = CFG(function)
    model = build_sphere_model(function)
    findings += check_replication_coverage(model)
    findings += check_shadow_isolation(model)
    findings += check_wiring(model, cfg)
    findings += check_coverage(model, cfg)
    findings += check_duplicate_checks(model)
    return findings
