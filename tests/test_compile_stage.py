"""The shared compile stage of the schemes whose placement ignores the grid.

NOED, SCED and DCED assign clusters and allocate registers the same way at
every issue width and delay, so each source has one post-regalloc program
per scheme, built once, and only the scheduler runs per grid point.  The
stage is read-only: scheduling and simulating every point must leave its
printed text as it was.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.errors import PassError
from repro.ir.printer import canonical_program_text, print_program
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_prefix, compile_program, compile_stage
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=2)
FIXED = (Scheme.NOED, Scheme.SCED, Scheme.DCED)


def _points(scheme: Scheme):
    delays = (1, 2, 3, 4) if scheme.info.uses_delay else (0,)
    for iw in (1, 2, 3, 4):
        for delay in delays:
            yield MachineConfig(issue_width=iw, inter_cluster_delay=delay)


def test_only_casted_reads_the_grid():
    assert [s for s in Scheme if s.info.assignment_reads_grid] == [Scheme.CASTED]
    with pytest.raises(PassError, match="reads the grid"):
        compile_stage(get_workload("mcf").program, Scheme.CASTED, MACHINE)


@pytest.mark.parametrize("workload", ["mcf", "parser"])
def test_stage_program_text_is_unchanged_by_its_points(workload):
    source = get_workload(workload).program
    stages = {s: compile_stage(source, s, MACHINE) for s in FIXED}
    before = {s: print_program(stage.program) for s, stage in stages.items()}
    for scheme in FIXED:
        for machine in _points(scheme):
            cp = compile_program(source, scheme, machine)
            assert cp.program is stages[scheme].program
            assert cp.shares_program
            VLIWExecutor(cp).run()
    assert {s: print_program(stage.program) for s, stage in stages.items()} == before


def test_capture_pre_regalloc_is_part_of_the_key():
    source = get_workload("mcf").program
    plain = compile_program(source, Scheme.DCED, MACHINE)
    captured = compile_program(source, Scheme.DCED, MACHINE, capture_pre_regalloc=True)
    assert plain.pre_regalloc is None
    assert captured.pre_regalloc is not None
    assert canonical_program_text(captured.program) == canonical_program_text(
        plain.program
    )


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
@pytest.mark.parametrize("scheme", FIXED, ids=lambda s: s.value)
def test_size_estimates_track_tracemalloc(workload, scheme):
    """``CompileStage.nbytes`` stays within 0.9-1.1x of what ``tracemalloc``
    counts for the stage (its prefix built beforehand), before and after
    it holds block shapes; a point's ``CompiledProgram`` no longer counts
    the shared program."""
    source = get_workload(workload).program
    compile_prefix(source, scheme.protected)
    stage, traced = _traced(lambda: compile_stage(source, scheme, MACHINE))
    assert 0.9 <= stage.nbytes / traced <= 1.1, (stage.nbytes, traced)
    _, shapes = _traced(lambda: stage.shapes.shapes(MACHINE))
    traced += shapes
    assert 0.9 <= stage.nbytes / traced <= 1.1, (stage.nbytes, traced)
    cp = compile_program(source, scheme, MACHINE)
    assert cp.nbytes < stage.nbytes / 4


@pytest.mark.parametrize("workload", workload_names())
def test_size_estimate_with_the_pre_regalloc_clone(workload):
    source = get_workload(workload).program
    compile_prefix(source, True)
    stage, traced = _traced(
        lambda: compile_stage(source, Scheme.DCED, MACHINE, capture_pre_regalloc=True)
    )
    assert stage.pre_regalloc is not None
    assert 0.9 <= stage.nbytes / traced <= 1.1, (stage.nbytes, traced)
