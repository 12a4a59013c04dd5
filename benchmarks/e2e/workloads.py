"""The benchmark's four workloads, their checked outputs and the oracle checks.

Each workload is a ``setup`` step and a ``measure`` step.  ``child.py`` runs
both in one fresh process per rep and times them apart: set-up is what a
user pays once before the work (imports, and for the campaign workloads
compilation plus golden profiling), the measured step is the work itself.

Every call into a layer of the program is wrapped in a ``bench:<layer>``
span.  With telemetry off the spans are the shared no-op and cost nothing;
on the traced rep they let ``stages.py`` attribute every second of the
measured region.

Only the public API is used: ``Evaluator``, ``compile_program``,
``VLIWExecutor``, ``FaultInjector(fault_model=, backend=)``,
``run_campaign(trials, seed, jobs=)``, ``WorkerPool`` and the figure/table
renderers.  No engine-path knob (``batch=``, ``snapshots=``,
``REPRO_BATCH``, ``REPRO_SIM_BACKEND``) is ever passed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.eval.crossover import (
    crossover_map,
    render_crossover_grid,
    summarize_crossovers,
)
from repro.eval.experiment import Evaluator
from repro.eval.figures import (
    fig6_7_data,
    fig8_data,
    fig9_data,
    render_fig6_7,
    render_fig8,
    render_fig9,
    render_fig10,
)
from repro.eval.metrics import (
    DELAYS,
    ISSUE_WIDTHS,
    casted_vs_best_fixed,
    overall_reduction_vs,
    summarize_scheme_slowdowns,
)
from repro.eval.mixstats import dynamic_mix, render_mix_table
from repro.eval.tables import render_table1, render_table2, render_table3
from repro.faults.injector import CampaignResult, FaultInjector
from repro.ir.interp import Interpreter
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.parallel import WorkerPool
from repro.pipeline import CompiledProgram, Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table
from repro.workloads import get_workload, workload_names

#: Pool workers for the two parallel workloads: sized for a 2-core box.
JOBS = 2

#: The issue-width x delay configurations fig 10 sweeps (the corners and
#: centre of the grid, as benchmarks/bench_fig10_coverage_configs.py does).
FIG10_CONFIGS = ((1, 1), (1, 4), (2, 2), (4, 1), (4, 4))

#: Grid configurations re-simulated on the ``interp`` oracle and probed for
#: hash-seed dependence: 4 configs x 7 kernels x 4 schemes = 112 points.
ORACLE_CONFIGS = ((1, 1), (2, 2), (3, 1), (4, 4))

#: The fault models of ``campaign-diverge``: faults whose trials rarely end
#: early at golden re-convergence, so every trial runs a long suffix.
DIVERGE_MODELS = ("cf", "mem")
DIVERGE_SCHEMES = (Scheme.NOED, Scheme.CASTED)


@dataclass(frozen=True)
class Scale:
    """How much work each workload does."""

    kernels: tuple[str, ...]
    trials: int  # per fig 9 / fig 10 / campaign-regbit campaign
    diverge_kernels: tuple[str, ...]
    diverge_trials: int
    inject_trials: int
    fig10_kernel: str
    fig10_configs: tuple[tuple[int, int], ...]


FULL = Scale(
    kernels=tuple(workload_names()),
    trials=300,
    # cf faults hang mcf/CASTED in 0-3 of every 100 trials, and each hang
    # runs to the watchdog (25 golden runs): with mcf in, the workload's
    # cost would mostly measure how many hangs a seed happens to draw.
    diverge_kernels=tuple(w for w in workload_names() if w != "mcf"),
    diverge_trials=100,
    inject_trials=20_000,
    fig10_kernel="h263dec",
    fig10_configs=FIG10_CONFIGS,
)

#: About 1/20 of the full work: one kernel, 25-trial campaigns.
SMOKE = Scale(
    kernels=("mcf",),
    trials=25,
    diverge_kernels=("h263dec",),
    diverge_trials=25,
    inject_trials=1_000,
    fig10_kernel="mcf",
    fig10_configs=((1, 1), (2, 2)),
)


def span(layer: str, **args: Any):
    """A benchmark-side span around one call into ``layer``."""
    return get_telemetry().span(f"bench:{layer}", cat="bench", **args)


def scheme_delay(scheme: Scheme, delay: int) -> int:
    """Single-cluster schemes never pay the inter-cluster delay."""
    return delay if scheme.info.uses_delay else 0


def point_key(workload: str, scheme: Scheme, iw: int, delay: int) -> str:
    return f"{workload}/{scheme.value}/iw{iw}/d{scheme_delay(scheme, delay)}"


def sha256(payload: Any) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_payload(res: CampaignResult) -> dict:
    """The part of a campaign result the correctness gate pins."""
    return {
        "counts": {o.value: n for o, n in res.counts.items()},
        "total_faults_injected": res.total_faults_injected,
        "detection_latency_sum": res.detection_latency_sum,
    }


@dataclass
class Measured:
    """What one measured step produced."""

    #: Checked outputs: name -> rendered text or JSON-ready payload.
    outputs: dict[str, Any]
    #: Ops attempted: grid points plus campaign trials.
    attempted: int
    trials: int
    #: Trials lost to worker crashes (failed ops).
    lost_trials: int = 0
    #: Simulated results of the oracle points, for the ``interp`` check.
    perf: dict[str, list[int]] = field(default_factory=dict)


def seed_dependent(name: str) -> bool:
    """Whether an output changes with the seed (only campaign results do)."""
    return name.startswith("campaign:") or name in ("fig9_fault_coverage", "fig10_coverage_configs")


class _LostTrials(logging.Handler):
    """Counts the trials ``run_campaign`` reports lost to crashed workers."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.lost = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("campaign lost") and record.args:
            self.lost += int(record.args[0])


def _watch_lost_trials() -> _LostTrials:
    handler = _LostTrials()
    logging.getLogger("repro.faults.injector").addHandler(handler)
    return handler


# -- set-up helpers --------------------------------------------------------------


def _compile(workload: str, scheme: Scheme, iw: int, delay: int) -> CompiledProgram:
    with span("frontend.parse"):
        program = get_workload(workload).program
    with span("passes.compile", point=point_key(workload, scheme, iw, delay)):
        return compile_program(
            program, scheme,
            MachineConfig(issue_width=iw, inter_cluster_delay=scheme_delay(scheme, delay)),
        )


def _injector(cp: CompiledProgram, fault_model: str = "reg-bit", backend: str | None = None):
    with span("faults.injector", fault_model=fault_model):
        return FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            fault_model=fault_model, backend=backend,
        )


@dataclass
class Campaign:
    """One prepared campaign of a campaign workload."""

    name: str
    cp: CompiledProgram
    injector: FaultInjector
    trials: int
    seed: int
    reference_dyn: int | None

    def run(self, trials: int | None = None, jobs: int = 1) -> CampaignResult:
        with span("faults.campaign", campaign=self.name):
            return self.injector.run_campaign(
                self.trials if trials is None else trials, self.seed,
                reference_dyn=self.reference_dyn, jobs=jobs,
            )


def _prepare(
    kernels, schemes, models, trials: int, seed_of: Callable[..., int]
) -> list[Campaign]:
    """Compile every (kernel, scheme) at iw2/d2 and profile its injectors.

    Protected binaries are rate-matched against the NOED golden run, as the
    evaluator's fig 9 campaigns are.
    """
    campaigns = []
    for w in kernels:
        noed_dyn = None
        for s in schemes:
            cp = _compile(w, s, 2, 2)
            for model in models:
                inj = _injector(cp, model)
                if s is Scheme.NOED:
                    noed_dyn = inj.golden.dyn_instructions
                campaigns.append(Campaign(
                    name=f"campaign:{model}/{point_key(w, s, 2, 2)}",
                    cp=cp, injector=inj, trials=trials, seed=seed_of(w, s, model),
                    reference_dyn=None if s is Scheme.NOED else noed_dyn,
                ))
    return campaigns


def _run_campaigns(campaigns: list[Campaign], jobs: int = 1) -> Measured:
    outputs: dict[str, Any] = {}
    trials = lost = 0
    for c in campaigns:
        res = c.run(jobs=jobs)
        outputs[c.name] = campaign_payload(res)
        trials += c.trials
        lost += res.lost_trials
    return Measured(outputs=outputs, attempted=trials, trials=trials, lost_trials=lost)


# -- paper-repro ------------------------------------------------------------------


def paper_repro_setup(seed: int, scale: Scale) -> dict:
    """Nothing beyond imports: a cold reproduction compiles in its measured step."""
    return {"seed": seed, "scale": scale}


def _summary_text(ev: Evaluator, kernels: list[str]) -> str:
    """The section IV-B summary statistics (as bench_fig6_7_performance.py)."""
    rows = []
    for scheme in (Scheme.SCED, Scheme.DCED, Scheme.CASTED):
        s = summarize_scheme_slowdowns(ev, kernels, scheme).stats
        rows.append([scheme.name] + [f"{v:.2f}" for v in (s.minimum, s.maximum, s.mean, s.geomean)])
    comp = casted_vs_best_fixed(ev, kernels)
    red_sced = overall_reduction_vs(ev, kernels, Scheme.SCED)
    red_dced = overall_reduction_vs(ev, kernels, Scheme.DCED)
    return (
        format_table(["scheme", "min", "max", "mean", "geomean"], rows,
                     title="Slowdown vs NOED over the full grid")
        + f"\nCASTED vs best fixed: beats {len(comp['beats'])}, matches "
        f"{comp['matches']}, loses {len(comp['losses'])} of {comp['points']} "
        f"configs; max gain {comp['max_gain'] * 100:.1f}%\n"
        f"Average reduction vs SCED: {red_sced * 100:.1f}%; "
        f"vs DCED: {red_dced * 100:.1f}%"
    )


def _table2_profile(kernels: list[str]) -> str:
    rows = []
    for w in kernels:
        program = get_workload(w).program
        r = Interpreter(program).run()
        rows.append([w, program.main.instruction_count(), r.dyn_instructions, len(r.output), r.exit_code])
    return format_table(
        ["workload", "static instrs", "dynamic instrs", "outputs", "exit"], rows,
        title="Workload baseline profile (NOED, front-end IR)",
    )


def _table3_placement(ev: Evaluator, kernels: list[str]) -> str:
    rows = []
    for scheme in (Scheme.SCED, Scheme.DCED, Scheme.CASTED):
        cl0 = cl1 = 0
        growth = []
        for w in kernels:
            with span("passes.compile", point=point_key(w, scheme, 2, 2)):
                cp = ev.compiled(w, scheme, 2, 2)
            cl0 += cp.stats.per_cluster_instructions.get(0, 0)
            cl1 += cp.stats.per_cluster_instructions.get(1, 0)
            growth.append(cp.stats.code_growth)
        rows.append([scheme.name, cl0, cl1, f"{cl1 / (cl0 + cl1) * 100:.0f}%",
                     f"{sum(growth) / len(growth):.2f}x"])
    return format_table(
        ["scheme", "cluster0 instrs", "cluster1 instrs", "on cl1", "code growth"], rows,
        title="Code placement at issue 2 / delay 2 (all workloads)",
    )


def paper_repro_measure(state: dict) -> Measured:
    """Tables I-III and figs 6-10 from an empty result cache, at ``JOBS`` workers.

    The pool is spawned inside the measured step because a user running the
    reproduction pays for it.
    """
    seed, scale = state["seed"], state["scale"]
    kernels = list(scale.kernels)
    grid = [(w, s, iw, d) for w in kernels for s in Scheme for iw in ISSUE_WIDTHS for d in DELAYS]
    fig9 = [(w, s, 2, 2) for w in kernels for s in Scheme]
    fig10 = [(scale.fig10_kernel, s, iw, d) for s in Scheme for iw, d in scale.fig10_configs]
    out: dict[str, Any] = {}
    lost = _watch_lost_trials()
    try:
        with WorkerPool(JOBS):
            ev = Evaluator(seed=seed, cache=True)
            with span("frontend.parse"):
                for w in kernels:
                    get_workload(w).program
            with span("eval.render"):
                out["table1_machine"] = render_table1()
                out["table2_workloads"] = render_table2()
                out["table3_schemes"] = render_table3()
            with span("eval.profile"):
                out["table2_profile"] = _table2_profile(kernels)
                out["table2_mix"] = render_mix_table(
                    [dynamic_mix(get_workload(w).program, w) for w in kernels]
                )
            out["table3_placement"] = _table3_placement(ev, kernels)
            with span("eval.sweep", figure="fig6_7"):
                ev.sweep(grid, jobs=JOBS)
            with span("eval.render"):
                out["fig6_7_performance"] = render_fig6_7(fig6_7_data(ev, kernels))
                out["fig8_ilp_scaling"] = render_fig8(fig8_data(ev, kernels, delay=1))
                out["fig6_7_crossover"] = (
                    "\n\n".join(render_crossover_grid(crossover_map(ev, w)) for w in kernels)
                    + "\n\n" + summarize_crossovers(ev, kernels)
                )
                out["fig6_7_summary"] = _summary_text(ev, kernels)
            with span("eval.sweep", figure="fig9"):
                ev.sweep(fig9, trials=scale.trials, jobs=JOBS)
            with span("eval.sweep", figure="fig10"):
                ev.sweep(fig10, trials=scale.trials, jobs=JOBS)
            with span("eval.render"):
                out["fig9_fault_coverage"] = render_fig9(fig9_data(ev, kernels, trials=scale.trials))
                out["fig10_coverage_configs"] = render_fig10({
                    s.value: {
                        (iw, d): dict(ev.coverage(scale.fig10_kernel, s, iw, d, scale.trials).fractions)
                        for iw, d in scale.fig10_configs
                    }
                    for s in Scheme
                })
    finally:
        logging.getLogger("repro.faults.injector").removeHandler(lost)

    campaigns = {point_key(*p): p for p in fig9 + fig10}
    for key, (w, s, iw, d) in sorted(campaigns.items()):
        rec = ev.coverage(w, s, iw, d, scale.trials)
        out[f"campaign:reg-bit/{key}"] = {
            "counts": {o: round(f * rec.trials) for o, f in rec.fractions.items() if f},
            "total_faults_injected": rec.total_faults,
            "mean_detection_latency": rec.mean_detection_latency,
        }
    perf = {}
    for w in kernels:
        for s in Scheme:
            for iw, d in ORACLE_CONFIGS:
                r = ev.perf(w, s, iw, d)
                perf[point_key(w, s, iw, d)] = [r.cycles, r.stall_cycles, r.dyn_instructions]
    points = len({point_key(*p) for p in grid + fig9 + fig10})
    trials = len(campaigns) * scale.trials
    return Measured(outputs=out, attempted=points + trials, trials=trials,
                   lost_trials=lost.lost, perf=perf)


# -- the campaign workloads ----------------------------------------------------------


def regbit_setup(seed: int, scale: Scale) -> dict:
    """The fig 9 campaigns, seeded exactly as the evaluator seeds them."""
    return {"campaigns": _prepare(
        scale.kernels, tuple(Scheme), ("reg-bit",), scale.trials,
        lambda w, s, model: derive_seed(seed, w, s.value, 2, scheme_delay(s, 2)),
    )}


def diverge_setup(seed: int, scale: Scale) -> dict:
    return {"campaigns": _prepare(
        scale.diverge_kernels, DIVERGE_SCHEMES, DIVERGE_MODELS, scale.diverge_trials,
        lambda w, s, model: derive_seed(seed, "diverge", model, w, s.value),
    )}


def campaigns_measure(state: dict) -> Measured:
    return _run_campaigns(state["campaigns"])


def inject_pool_setup(seed: int, scale: Scale) -> dict:
    """``repro inject workload:parser --scheme casted --jobs 0`` on two cores.

    The pool is entered here but spawns lazily on the campaign's first
    dispatch, inside the measured step, as it does for the CLI.
    """
    cp = _compile("parser", Scheme.CASTED, 2, 1)
    pool = WorkerPool(JOBS)
    pool.__enter__()
    campaign = Campaign(
        name=f"campaign:reg-bit/{point_key('parser', Scheme.CASTED, 2, 1)}",
        cp=cp, injector=_injector(cp), trials=scale.inject_trials, seed=seed,
        reference_dyn=None,
    )
    return {"campaigns": [campaign], "pool": pool}


def inject_pool_measure(state: dict) -> Measured:
    return _run_campaigns(state["campaigns"], jobs=JOBS)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    setup: Callable[[int, Scale], dict]
    measure: Callable[[dict], Measured]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-repro", JOBS, paper_repro_setup, paper_repro_measure),
        Workload("campaign-regbit", 1, regbit_setup, campaigns_measure),
        Workload("campaign-diverge", 1, diverge_setup, campaigns_measure),
        Workload("inject-pool", JOBS, inject_pool_setup, inject_pool_measure),
    )
}


def teardown(state: dict) -> None:
    pool = state.get("pool")
    if pool is not None:
        pool.__exit__(None, None, None)


# -- oracle checks ------------------------------------------------------------------


def oracle_points(scale: Scale) -> list[tuple[str, Scheme, int, int]]:
    return [(w, s, iw, d) for w in scale.kernels for s in Scheme for iw, d in ORACLE_CONFIGS]


def simulate(points, backend: str | None = None) -> dict[str, list[int]]:
    """Compile and simulate ``points``: ``key -> [cycles, stalls, dyn]``."""
    out = {}
    for w, s, iw, d in points:
        r = VLIWExecutor(_compile(w, s, iw, d), backend=backend).run()
        out[point_key(w, s, iw, d)] = [r.cycles, r.stall_cycles, r.dyn_instructions]
    return out


def oracle_grid(points, measured: dict[str, list[int]]) -> list[str]:
    """Points whose ``interp`` simulation differs from the measured records."""
    oracle = simulate(points, backend="interp")
    return [key for key, value in oracle.items() if measured.get(key) != value]


def oracle_campaigns(campaigns: list[Campaign]) -> list[str]:
    """Campaigns whose first shard differs between the engine and ``interp``.

    One shard's worth of trials draws exactly the RNG stream of the full
    campaign's first shard, so this re-checks the trials the measured
    campaign ran first.
    """
    bad = []
    for c in campaigns:
        engine = campaign_payload(c.run(trials=25))
        reference = Campaign(
            c.name, c.cp, _injector(c.cp, c.injector.fault_model, backend="interp"),
            c.trials, c.seed, c.reference_dyn,
        )
        if campaign_payload(reference.run(trials=25)) != engine:
            bad.append(c.name)
    return bad


def oracle_sample(items: list, seed: int, k: int) -> list:
    """A seed-chosen subset for the light per-run oracle check."""
    return random.Random(seed).sample(items, min(k, len(items)))
