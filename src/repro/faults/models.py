"""Pluggable fault models for the Monte-Carlo campaigns.

The paper's §IV-C evaluation flips a single bit in an instruction's output
register.  That is one point in a much larger SEU/SET design space: the
software-fault-injection literature (Azambuja et al.; RepTFD) shows that
coverage claims shift dramatically under control-flow and memory fault
models, so the campaign driver accepts any model registered here:

``reg-bit`` (default)
    The paper's model, bit-for-bit: one flip in the output register of a
    uniformly sampled output-producing dynamic instruction.  Its sampling
    path (and therefore its RNG stream) is **frozen** — default campaigns
    must reproduce historical results for a given seed.
``burst``
    Same sites, but 2–4 *adjacent* bits flip at once (a multi-bit upset
    from a single strike).
``cf``
    Control-flow corruption: a uniformly sampled dynamic branch takes the
    other target; a sampled jump is redirected to a random other block.
``mem``
    A bit flip in a uniformly sampled data-memory word at a uniformly
    sampled point of execution (the sphere of replication normally assumes
    ECC memory — this model measures what happens without it).
``opcode``
    The result of a sampled output-producing instruction is recomputed
    with a different legal operation over the same source values
    (:data:`repro.ir.interp.ALT_OPS`).

A model is an object with ``prepare(injector)`` (build per-binary tables
once, after the golden profiling run) and ``sample(injector, rng) ->
FaultSpec``.  Models must draw from ``rng`` deterministically — campaign
reproducibility and checkpoint/resume both rely on a trial's faults being a
pure function of the (seed, shard) RNG stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimError
from repro.ir.interp import ALT_OPS, FaultSpec
from repro.isa.opcodes import Opcode

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults.injector import FaultInjector

#: Registry of fault-model classes keyed by their public name.
FAULT_MODELS: dict[str, type["FaultModel"]] = {}

#: The model every campaign uses unless told otherwise.
DEFAULT_FAULT_MODEL = "reg-bit"


def register(cls: type["FaultModel"]) -> type["FaultModel"]:
    """Class decorator: add a model to :data:`FAULT_MODELS` by its name."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    FAULT_MODELS[cls.name] = cls
    return cls


def fault_model_names() -> list[str]:
    """Registered model names, default first, then alphabetical."""
    rest = sorted(n for n in FAULT_MODELS if n != DEFAULT_FAULT_MODEL)
    return [DEFAULT_FAULT_MODEL, *rest]


def get_fault_model(name: str) -> "FaultModel":
    """Instantiate the model registered as ``name``."""
    try:
        cls = FAULT_MODELS[name]
    except KeyError:
        raise SimError(
            f"unknown fault model {name!r} "
            f"(available: {', '.join(fault_model_names())})"
        ) from None
    return cls()


class FaultModel:
    """Base class: a way to turn an RNG stream into :class:`FaultSpec`\\ s."""

    #: Public name (the CLI's ``--fault-model`` value).
    name = ""
    #: One-line description for docs and ``--help``.
    description = ""

    def prepare(self, injector: FaultInjector) -> None:
        """Build per-binary tables (called once, after profiling)."""

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        raise NotImplementedError


@register
class RegBitModel(FaultModel):
    """The paper's §IV-C model — delegates to the injector's frozen sampler."""

    name = "reg-bit"
    description = "single bit flip in a sampled instruction's output register"

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        # The legacy sampling path: do not touch — its RNG draw sequence is
        # part of the reproducibility contract for default campaigns.
        return injector.sample_fault(rng)


@register
class BurstModel(FaultModel):
    """2–4 adjacent bits flip in the sampled output register."""

    name = "burst"
    description = "2-4 adjacent-bit burst in a sampled output register"

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        base = injector.sample_fault(rng)
        width = int(rng.integers(2, 5))
        return FaultSpec(
            dyn_index=base.dyn_index,
            bit=min(base.bit, 64 - width),
            width=width,
        )


@register
class ControlFlowModel(FaultModel):
    """A sampled dynamic branch/jump transfers control to the wrong block."""

    name = "cf"
    description = "invert a sampled branch decision / redirect a sampled jump"

    def prepare(self, injector: FaultInjector) -> None:
        blocks = list(injector.program.main.blocks())
        self._labels = sorted(b.label for b in blocks)
        # Per-block static tables, by block index: the position of each
        # control transfer, and the target of a jump (``None`` for a
        # branch, which is inverted rather than redirected).
        self._sites: list[list[tuple[int, str | None]]] = [
            [
                (i, insn.targets[0] if insn.opcode is Opcode.JMP else None)
                for i, insn in enumerate(block.instructions)
                if insn.opcode in (Opcode.BRT, Opcode.BRF, Opcode.JMP)
            ]
            for block in blocks
        ]
        self._cf_cum = injector.golden_run.cumulative(
            [len(sites) for sites in self._sites]
        )
        self.n_cf_sites = int(self._cf_cum[-1])
        if self.n_cf_sites == 0:
            raise SimError("program executes no branches — cf model unusable")

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        run = injector.golden_run
        site = int(rng.integers(self.n_cf_sites))
        visit, within = run.locate(self._cf_cum, site)
        pos, actual = self._sites[run.visits[visit]][within]
        dyn_index = run.visit_start(visit) + pos
        arg: str | None = None
        if actual is not None:
            # Redirect the jump to a uniformly sampled *other* block.
            others = [lb for lb in self._labels if lb != actual]
            arg = others[int(rng.integers(len(others)))] if others else actual
        return FaultSpec(dyn_index=dyn_index, kind="cf", arg=arg)


@register
class MemoryModel(FaultModel):
    """A bit flip in a sampled data-memory word at a sampled time."""

    name = "mem"
    description = "single bit flip in a sampled data-memory word"

    def prepare(self, injector: FaultInjector) -> None:
        self._mem_words = injector.interp.mem_words
        if self._mem_words <= 1:
            raise SimError("program has no addressable data memory")

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        dyn_index = int(rng.integers(max(1, injector.golden.dyn_instructions)))
        addr = int(rng.integers(1, self._mem_words))
        bit = int(rng.integers(64))
        return FaultSpec(dyn_index=dyn_index, bit=bit, kind="mem", arg=addr)


@register
class OpcodeModel(FaultModel):
    """A sampled instruction's result is recomputed with another legal op."""

    name = "opcode"
    description = "replace a sampled instruction's result with another op's"

    def sample(self, injector: FaultInjector, rng: np.random.Generator) -> FaultSpec:
        base = injector.sample_fault(rng)
        alt = int(rng.integers(len(ALT_OPS)))
        return FaultSpec(
            dyn_index=base.dyn_index, bit=base.bit, kind="opcode", arg=alt
        )
