"""The shared compile prefix: the ``-O1`` passes and error detection run
once per source program, and every grid point compiles from a clone.

Sharing must not be observable in the output: a compile reads the same
from an empty artifact store as from a warm one, whatever was compiled
before it, and the shared prefix is never written to.  The grid-wide
digest against the unshared pipeline is pinned in
``test_compile_identity.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import asdict

import pytest

from repro import obs, store
from repro.ir.printer import canonical_program_text
from repro.isa.opcodes import Opcode
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_prefix, compile_program
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=2)
SEQUENCE = (Scheme.CASTED, Scheme.SCED, Scheme.NOED, Scheme.CASTED)


def _signature(cp) -> tuple:
    """Everything a compile produces that callers read."""
    ed = cp.ed_info
    return (
        canonical_program_text(cp.program),
        [
            (label, s.cycle_of, s.slot_of, s.length)
            for label, s in cp.schedules.blocks.items()
        ],
        asdict(cp.stats),
        cp.pass_stats,
        None if ed is None else (
            ed.n_original, ed.n_duplicates, ed.n_shadow_copies, ed.n_checks
        ),
    )


def _clear_store() -> None:
    store._held.clear()
    store._pinned.clear()


@pytest.mark.parametrize("workload", ["mcf", "parser"])
def test_output_is_the_same_from_an_empty_and_a_warm_store(workload):
    source = get_workload(workload).program
    _clear_store()
    cold = [_signature(compile_program(source, s, MACHINE)) for s in SEQUENCE]
    warm = [_signature(compile_program(source, s, MACHINE)) for s in SEQUENCE]
    alone = []
    for scheme in SEQUENCE:
        _clear_store()
        alone.append(_signature(compile_program(source, scheme, MACHINE)))
    assert cold == warm == alone
    assert cold[0] == cold[3]
    assert cold[0][3]["pre-ed-count"] == cold[2][3]["pre-ed-count"]
    assert "error-detection" not in cold[2][3]


def test_prefix_is_not_written_by_its_suffixes():
    source = get_workload("mcf").program
    prefixes = [compile_prefix(source, protected) for protected in (False, True)]
    before = [canonical_program_text(p.program) for p in prefixes]
    stats = [repr(p.stats) for p in prefixes]
    for scheme in Scheme:
        for iw in (1, 4):
            compile_program(source, scheme, MACHINE.with_(issue_width=iw))
    assert [compile_prefix(source, protected) for protected in (False, True)] == prefixes
    assert [canonical_program_text(p.program) for p in prefixes] == before
    assert [repr(p.stats) for p in prefixes] == stats


def test_an_edited_copy_of_the_source_misses_the_prefix():
    source = get_workload("mcf").program
    edited = source.clone()
    movi = next(
        insn for _, _, insn in edited.main.all_instructions()
        if insn.opcode is Opcode.MOVI
    )
    movi.imm += 1
    tel = obs.configure()
    try:
        original = compile_program(source, Scheme.CASTED, MACHINE)
        changed = compile_program(edited, Scheme.CASTED, MACHINE)
        again = compile_program(source, Scheme.CASTED, MACHINE)
        counters = dict(tel.metrics.counters)
    finally:
        obs.reset()
    assert counters["compile.prefix.misses"] == 2
    assert counters["compile.prefix.hits"] == 1
    assert canonical_program_text(changed.program) != canonical_program_text(
        original.program
    )
    assert _signature(again) == _signature(original)


def test_one_pipeline_span_per_compile_and_each_output_verified_once():
    source = get_workload("mcf").program
    tel = obs.configure(keep_events=True)
    try:
        for scheme in (Scheme.NOED, Scheme.CASTED, Scheme.SCED):
            compile_program(source, scheme, MACHINE)
        events = [e for e in tel.tracer.events if e["ev"] == "X"]
        pipeline = tel.metrics.histograms["compile.pipeline.seconds"].count
        counters = dict(tel.metrics.counters)
    finally:
        obs.reset()
    names = [e["name"] for e in events]
    assert names.count("pipeline") == pipeline == 3
    assert counters["compile.prefix.misses"] == 2  # NOED's, then CASTED's
    assert counters["compile.prefix.hits"] == 1  # SCED shares CASTED's
    # The source is verified once, the -O1 and error-detection outputs once
    # each, and every suffix pass that rewrites the IR once per compile.
    # The scheduler rewrites none, so its output is not verified.
    assert names.count("verify:initial") == 1
    assert names.count("pass:error-detection") == 1
    assert names.count("verify:error-detection") == 1
    assert names.count("pass:dce") == names.count("verify:dce") == 1
    assert names.count("pass:regalloc") == names.count("verify:regalloc") == 3
    assert names.count("pass:schedule") == 3
    assert names.count("verify:schedule") == 0
    verifies = [n for n in names if n.startswith("verify:")]
    passes = [n for n in names if n.startswith("pass:")]
    assert len(verifies) == len(passes) + 1 - 3


def _traced(build):
    """``build()`` and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workload", workload_names())
def test_size_estimates_track_tracemalloc(workload):
    """``CompilePrefix.nbytes`` stays within 0.9-1.1x of what ``tracemalloc``
    counts for the prefix, before and after it holds block shapes."""
    source = get_workload(workload).program
    _clear_store()
    base, traced = _traced(lambda: compile_prefix(source, False))
    assert 0.9 <= base.nbytes / traced <= 1.1, (base.nbytes, traced)
    detected, traced = _traced(lambda: compile_prefix(source, True))
    assert 0.9 <= detected.nbytes / traced <= 1.1, (detected.nbytes, traced)
    _, shapes = _traced(lambda: detected.shapes.shapes(MACHINE))
    traced += shapes
    assert 0.9 <= detected.nbytes / traced <= 1.1, (detected.nbytes, traced)


def test_casted_grid_points_share_the_prefix_shapes():
    """The shapes are built once per prefix and latency table: after a
    compile with telemetry off (which counts nothing), two more grid points
    count two hits and no miss."""
    source = get_workload("mcf").program
    _clear_store()
    compile_program(source, Scheme.CASTED, MACHINE)
    tel = obs.configure()
    try:
        for iw, delay in ((1, 1), (4, 4)):
            compile_program(
                source, Scheme.CASTED, MACHINE.with_(issue_width=iw, inter_cluster_delay=delay)
            )
        counters = dict(tel.metrics.counters)
    finally:
        obs.reset()
    assert counters["compile.shape_cache.hits"] == 2
    assert "compile.shape_cache.misses" not in counters
    assert counters["assign.casted.schedule_memo.hits"] > 0
    assert counters["assign.casted.schedule_memo.misses"] > 0
    prefix = compile_prefix(source, True)
    assert prefix.shapes.shapes(MACHINE) is prefix.shapes.shapes(MACHINE.with_(issue_width=3))
