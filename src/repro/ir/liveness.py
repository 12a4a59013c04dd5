"""Classic backward liveness analysis over the CFG.

Produces per-block ``live_in``/``live_out`` register sets; the register
allocator and the dead-code-elimination pass both consume this.

The fixed-point iteration itself lives in the shared dataflow framework
(:mod:`repro.analysis.dataflow`); this module keeps the historical API and
the per-block use/def summaries its consumers expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.isa.registers import Reg


@dataclass
class LivenessInfo:
    """Result of :func:`compute_liveness`."""

    live_in: dict[str, frozenset[Reg]] = field(default_factory=dict)
    live_out: dict[str, frozenset[Reg]] = field(default_factory=dict)
    use: dict[str, frozenset[Reg]] = field(default_factory=dict)
    defs: dict[str, frozenset[Reg]] = field(default_factory=dict)


def block_use_def(function: Function) -> tuple[dict[str, set[Reg]], dict[str, set[Reg]]]:
    """Per-block upward-exposed uses and definitions."""
    use: dict[str, set[Reg]] = {}
    defs: dict[str, set[Reg]] = {}
    for block in function.blocks():
        u: set[Reg] = set()
        d: set[Reg] = set()
        for insn in block:
            for r in insn.reads():
                if r not in d:
                    u.add(r)
            for r in insn.writes():
                d.add(r)
        use[block.label] = u
        defs[block.label] = d
    return use, defs


def compute_liveness(function: Function, cfg: CFG | None = None) -> LivenessInfo:
    """Solve the backward liveness equations via the dataflow framework.

    Each block's transfer is its use/def summary, ``(live_out - defs) |
    uses``, rather than a replay of every instruction.
    """
    from repro.analysis.dataflow import SummarizedLiveVars, solve

    analysis = SummarizedLiveVars(function)
    facts = solve(function, analysis, cfg)
    return LivenessInfo(
        live_in={lb: facts.entry[lb] for lb in analysis.uses},
        live_out={lb: facts.exit[lb] for lb in analysis.uses},
        use=analysis.uses,
        defs=analysis.defs,
    )
