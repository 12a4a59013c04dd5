"""CASTED's adaptive placement (paper §III-D).

Per block — hottest (deepest-loop) blocks first, so placement is driven by
the code that dominates run time — CASTED evaluates candidate placements and
commits the one whose *list schedule* is shortest on the configured machine:

1. **Unified** (the SCED shape): everything on cluster 0, respecting pins.
2. **Role split** (the DCED shape): redundant stream on the checker cluster.
3. **BUG** (paper Algorithm 2): greedy completion-cycle placement.  This is
   the candidate that lets checks migrate and original code spread — the
   source of the "outperforms the best fixed scheme" cases.

A candidate must be *strictly* shorter to displace an earlier (simpler) one.
Because a block's estimate depends on register homes decided by blocks
processed later, the whole per-block pass runs **twice**: the second
iteration prices cross-block operands with the first iteration's homes.
Finally, the mixed assignment is scored (static length weighted by an
exponential loop-depth proxy for execution frequency) against the two pure
shapes, and the best of the three ships — so CASTED never regresses below
its own baselines' shapes by more than the weighting error.
"""

from __future__ import annotations

from repro.errors import PassError
from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.program import Program
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.passes.assignment.bug import bug_assign_block
from repro.passes.base import FunctionPass, PassContext
from repro.passes.latency import BlockShape, block_shape
from repro.passes.scheduler import schedule_block

#: Assumed relative execution frequency per loop-nesting level.
_DEPTH_WEIGHT_BASE = 50
_MAX_DEPTH = 4


def _fixed_assign(block: BasicBlock, pinned: dict[Reg, int], cluster_of_insn) -> None:
    """Assign by policy function; pinned destinations override."""
    for insn in block.instructions:
        cluster = cluster_of_insn(insn)
        for d in insn.writes():
            home = pinned.get(d)
            if home is not None:
                cluster = home
                break
        insn.cluster = cluster
        for d in insn.writes():
            pinned.setdefault(d, cluster)


def _block_weight(depth: int) -> int:
    return _DEPTH_WEIGHT_BASE ** min(depth, _MAX_DEPTH)


#: Default per-block candidate portfolio.
ALL_CANDIDATES = ("unified", "split", "bug")


class CastedAssignmentPass(FunctionPass):
    name = "assign-casted"

    def __init__(
        self,
        clusters: tuple[int, ...] | None = None,
        candidates: tuple[str, ...] = ALL_CANDIDATES,
        safety_net: bool = True,
        block_profile: dict[str, int] | None = None,
    ) -> None:
        self.clusters = clusters
        bad = set(candidates) - set(ALL_CANDIDATES)
        if bad or not candidates:
            raise PassError(f"invalid candidate set {candidates}")
        self.candidates = tuple(candidates)
        self.safety_net = safety_net
        #: Measured block execution counts (profile-guided mode).  When
        #: given, they replace the exponential loop-depth proxy both for the
        #: block processing order and for the safety-net scoring.
        self.block_profile = block_profile

    # -- helpers ---------------------------------------------------------------
    def _assign_pure(
        self, function: Function, machine: MachineConfig, order, policy
    ) -> tuple[dict[str, list[int]], dict[Reg, int]]:
        pinned: dict[Reg, int] = {}
        clusters: dict[str, list[int]] = {}
        for label in order:
            block = function.block(label)
            _fixed_assign(block, pinned, policy)
            clusters[label] = [i.cluster for i in block.instructions]
        return clusters, pinned

    def _score(
        self,
        function: Function,
        machine: MachineConfig,
        clusters: dict[str, list[int]],
        homes: dict[Reg, int],
        weight_of: dict[str, int],
        shapes: dict[str, BlockShape],
    ) -> int:
        total = 0
        for label, cl in clusters.items():
            block = function.block(label)
            for insn, c in zip(block.instructions, cl):
                insn.cluster = c
            length = schedule_block(block, machine, homes, shapes[label]).length
            total += weight_of[label] * length
        return total

    def _mixed_assign(
        self,
        function: Function,
        machine: MachineConfig,
        order,
        checker: int,
        home_hints: dict[Reg, int],
        shapes: dict[str, BlockShape],
    ) -> tuple[dict[str, list[int]], dict[Reg, int], dict[str, int]]:
        pinned: dict[Reg, int] = {}
        clusters: dict[str, list[int]] = {}
        chosen: dict[str, int] = {"unified": 0, "split": 0, "bug": 0}
        for label in order:
            block = function.block(label)
            shape = shapes[label]
            best_name = None
            best_len = None
            best_clusters: list[int] = []
            best_pins: dict[Reg, int] = {}
            for name in self.candidates:
                pins = dict(pinned)
                if name == "bug":
                    bug_assign_block(
                        block,
                        machine,
                        pins,
                        candidate_clusters=self.clusters,
                        home_hints=home_hints,
                        shape=shape,
                    )
                elif name == "split":
                    _fixed_assign(
                        block, pins, lambda i: checker if i.is_redundant else 0
                    )
                else:
                    _fixed_assign(block, pins, lambda i: 0)
                length = schedule_block(
                    block, machine, {**home_hints, **pins}, shape
                ).length
                if best_len is None or length < best_len:
                    best_name, best_len = name, length
                    best_clusters = [i.cluster for i in block.instructions]
                    best_pins = pins
            for insn, c in zip(block.instructions, best_clusters):
                insn.cluster = c
            clusters[label] = best_clusters
            pinned = best_pins
            chosen[best_name] += 1
        return clusters, pinned, chosen

    # -- main -------------------------------------------------------------------
    def run(self, program: Program, ctx: PassContext) -> bool:
        if ctx.machine is None:
            raise PassError("CASTED assignment needs a machine configuration")
        machine = ctx.machine
        function = program.main

        cfg = CFG(function)
        depths = cfg.loop_depths()
        layout_pos = {label: i for i, label in enumerate(function.block_labels())}
        if self.block_profile is not None:
            profile = self.block_profile
            weight_of = {
                lb: max(1, profile.get(lb, 0)) for lb in function.block_labels()
            }
        else:
            weight_of = {
                lb: _block_weight(depths[lb]) for lb in function.block_labels()
            }
        order = sorted(
            function.block_labels(),
            key=lambda lb: (-weight_of[lb], layout_pos[lb]),
        )
        checker = 1 if machine.n_clusters > 1 else 0
        # Every placement below reuses one shape per block: the DFG and its
        # heights do not depend on where instructions are placed.
        shapes = {lb: block_shape(function.block(lb), machine) for lb in order}

        # Iteration 1 discovers homes; iteration 2 re-decides with them.
        _, homes1, _ = self._mixed_assign(
            function, machine, order, checker, {}, shapes
        )
        mixed, homes2, chosen = self._mixed_assign(
            function, machine, order, checker, homes1, shapes
        )

        candidates = [
            ("mixed", mixed, homes2),
        ]
        if self.safety_net:
            uni_clusters, uni_homes = self._assign_pure(
                function, machine, order, lambda i: 0
            )
            candidates.append(("unified", uni_clusters, uni_homes))
            split_clusters, split_homes = self._assign_pure(
                function, machine, order, lambda i: checker if i.is_redundant else 0
            )
            candidates.append(("split", split_clusters, split_homes))

        best = None
        for name, clusters, homes in candidates:
            score = self._score(
                function, machine, clusters, homes, weight_of, shapes
            )
            if best is None or score < best[0]:
                best = (score, name, clusters)

        _, winner, clusters = best
        for label, cl in clusters.items():
            block = function.block(label)
            for insn, c in zip(block.instructions, cl):
                insn.cluster = c

        # Non-entry functions (hand-built/parsed programs only — compiled
        # workloads are fully inlined) get the fixed role split; the adaptive
        # search stays focused on the code that runs.
        for extra in program.functions():
            if extra is function:
                continue
            pinned: dict[Reg, int] = {}
            for label in extra.block_labels():
                _fixed_assign(
                    extra.block(label),
                    pinned,
                    lambda i: checker if i.is_redundant else 0,
                )

        ctx.record(
            self.name,
            winner=winner,
            weighted_static=best[0],
            **{f"blocks_{k}": v for k, v in chosen.items()},
        )
        from repro.obs import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.count(f"assign.casted.winner.{winner}")
            for cand, n_blocks in chosen.items():
                tel.count(f"assign.casted.blocks.{cand}", n_blocks)
            tel.instant(
                "casted-decision", cat="pass", winner=winner,
                weighted_static=best[0], **{f"blocks_{k}": v for k, v in chosen.items()},
            )
        return True
