"""Extension experiments beyond the paper's evaluation.

1. **Core-count scaling** — the paper claims CASTED "optimizes for a wide
   range of core counts" but evaluates 2 clusters; we sweep 2-4.
2. **Detection-triggered recovery** — restart-on-detection turns the
   coverage numbers into availability numbers (transient faults do not
   repeat, so every detected trial completes correctly on re-execution).
   It is a view of an ordinary campaign, not a campaign of its own.
"""

from benchmarks.conftest import TRIALS
from repro.faults.classify import Outcome
from repro.faults.injector import FaultInjector
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.tables import format_table
from repro.workloads import get_workload

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=2)


def test_extension_cluster_scaling(benchmark, save_result):
    def compute():
        rows = []
        for w in ("h263enc", "mcf"):
            prog = get_workload(w).program
            base = None
            for n in (2, 3, 4):
                machine = MachineConfig(
                    n_clusters=n, issue_width=1, inter_cluster_delay=1
                )
                cp = compile_program(prog, Scheme.CASTED, machine)
                cycles = VLIWExecutor(cp).run().cycles
                if base is None:
                    base = cycles
                used = len(
                    {i.cluster for _, _, i in cp.program.main.all_instructions()}
                )
                rows.append([f"{w} x{n}", cycles, f"{base / cycles:.3f}", used])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "extension_cluster_scaling",
        format_table(
            ["workload x clusters", "cycles", "speedup vs 2", "clusters used"],
            rows,
            title="Extension: CASTED core-count scaling (issue 1, delay 1)",
        )
        + "\nOne redundant stream saturates ~2 clusters; gains beyond that "
        "come only from spreading original code and checks.",
    )
    # extra clusters must never cost more than greedy noise
    for i in range(0, len(rows), 3):
        base = rows[i][1]
        assert all(r[1] <= base * 1.05 for r in rows[i : i + 3])


def test_extension_profile_guided(benchmark, save_result):
    """Profile-guided CASTED weighting vs the static loop-depth heuristic."""
    from repro.pipeline import collect_block_profile

    def compute():
        rows = []
        for w in ("parser", "mpeg2dec", "vpr"):
            prog = get_workload(w).program
            profile = collect_block_profile(prog)
            for iw, d in ((1, 1), (1, 3), (2, 2)):
                machine = MachineConfig(issue_width=iw, inter_cluster_delay=d)
                heur = VLIWExecutor(
                    compile_program(prog, Scheme.CASTED, machine)
                ).run().cycles
                pgo = VLIWExecutor(
                    compile_program(
                        prog, Scheme.CASTED, machine, block_profile=profile
                    )
                ).run().cycles
                rows.append(
                    [f"{w} iw{iw} d{d}", heur, pgo,
                     f"{(heur - pgo) / heur * 100:+.1f}%"]
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "extension_profile_guided",
        format_table(
            ["config", "heuristic (cycles)", "profile-guided", "gain"],
            rows,
            title="Extension: profile-guided CASTED block weighting",
        ),
    )
    assert all(r[2] <= r[1] for r in rows)  # PGO never loses on these


def test_extension_memory_latency_sensitivity(benchmark, save_result):
    """Sweep the main-memory latency (Table I fixes 150): protection
    overhead shrinks as memory stalls dominate, because stall cycles are
    common to every scheme."""
    from repro.machine.config import (
        CacheHierarchyConfig,
        MachineConfig,
        itanium2_cache,
    )

    def compute():
        rows = []
        base_cache = itanium2_cache()
        for mem_lat in (50, 150, 400):
            cache = CacheHierarchyConfig(
                levels=base_cache.levels, memory_latency=mem_lat
            )
            machine = MachineConfig(
                issue_width=2, inter_cluster_delay=2, cache=cache
            )
            prog = get_workload("h263dec").program
            noed = VLIWExecutor(
                compile_program(prog, Scheme.NOED, machine)
            ).run()
            casted = VLIWExecutor(
                compile_program(prog, Scheme.CASTED, machine)
            ).run()
            rows.append(
                [
                    mem_lat,
                    noed.cycles,
                    f"{noed.stall_cycles / noed.cycles * 100:.0f}%",
                    f"{casted.cycles / noed.cycles:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "extension_memory_latency",
        format_table(
            ["memory latency", "NOED cycles", "stall share", "CASTED slowdown"],
            rows,
            title="Extension: main-memory latency sensitivity (h263dec)",
        ),
    )
    slowdowns = [float(r[3]) for r in rows]
    assert slowdowns == sorted(slowdowns, reverse=True)  # overhead dilutes


def test_extension_partial_redundancy(benchmark, save_result):
    """The Shoestring-style coverage/performance tradeoff (Table III's
    "partial redundancy" row): replicate only the backward slice of checked
    operands up to depth k."""
    from repro.faults.classify import Outcome
    from repro.faults.injector import FaultInjector

    def compute():
        rows = []
        prog = get_workload("parser").program
        noed = compile_program(prog, Scheme.NOED, MACHINE)
        noed_run = VLIWExecutor(noed).run()
        for depth in (0, 1, 2, 4, None):
            cp = compile_program(
                prog, Scheme.SCED, MACHINE, protect_slice_depth=depth
            )
            r = VLIWExecutor(cp).run()
            inj = FaultInjector(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
            )
            res = inj.run_campaign(
                TRIALS, seed=9, reference_dyn=noed_run.dyn_instructions
            )
            ed = cp.ed_info
            rows.append(
                [
                    "full" if depth is None else f"depth {depth}",
                    ed.n_duplicates,
                    ed.n_shadow_copies,
                    f"{r.cycles / noed_run.cycles:.2f}",
                    f"{res.fraction(Outcome.DETECTED) * 100:.0f}%",
                    f"{res.fraction(Outcome.SDC) * 100:.0f}%",
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "extension_partial_redundancy",
        format_table(
            ["slice", "replicas", "boundary copies", "slowdown",
             "detected", "SDC"],
            rows,
            title="Extension: partial redundancy (parser, SCED, issue 2/delay 2)",
        )
        + "\nShallow slices trade little performance for a lot of coverage "
        "here because every\nunprotected->protected boundary needs a shadow "
        "copy — Shoestring's insight that\nslice *boundaries*, not slice "
        "sizes, drive the cost.",
    )
    # coverage improves with depth (within Monte-Carlo noise per step) and
    # the endpoints are strongly ordered
    sdc = [float(r[5].rstrip("%")) for r in rows]
    assert all(b <= a + 3.0 for a, b in zip(sdc, sdc[1:]))
    assert sdc[-1] < sdc[0] / 4


def test_extension_recovery(benchmark, save_result):
    def compute():
        machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
        rows = []
        for w in ("h263dec", "parser"):
            prog = get_workload(w).program
            noed = compile_program(prog, Scheme.NOED, machine)
            ref = VLIWExecutor(noed).run().dyn_instructions
            cp = compile_program(prog, Scheme.CASTED, machine)
            injector = FaultInjector(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
            )
            res = injector.run_campaign(TRIALS, seed=31, reference_dyn=ref)
            # Under restart every detected trial is a recovered one.
            rows.append(
                [w]
                + [
                    f"{res.fraction(o) * 100:.1f}%"
                    for o in (Outcome.BENIGN, Outcome.DETECTED,
                              Outcome.EXCEPTION, Outcome.SDC)
                ]
                + [
                    f"{res.correct_completion * 100:.1f}%",
                    f"{res.reexecution_overhead * 100:.1f}%",
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "extension_recovery",
        format_table(
            ["workload", "benign", "recovered", "exception", "SDC",
             "correct completion", "re-exec overhead"],
            rows,
            title="Extension: restart-on-detection recovery (CASTED, issue 2/delay 2)",
        )
        + "\nExceptions would recover the same way with a trapping handler; "
        "they are kept separate to mirror the paper's taxonomy.",
    )
    for row in rows:
        assert float(row[2].rstrip("%")) > 20.0  # real recovery happened
        assert float(row[5].rstrip("%")) > 50.0
