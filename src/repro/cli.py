"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``workloads``
    List the built-in benchmark programs.
``compile FILE|workload:NAME``
    Run the full pipeline and print statistics (optionally the final IR).
``lint FILE|workload:NAME``
    Static protection audit: sphere-of-replication invariants, check
    coverage, cluster placement, vulnerability windows
    (``--format text|json|sarif``, severity-gated exit code).
``prove FILE|workload:NAME``
    Static fault-coverage prover: per-site detectability verdicts
    (detected / masked / sdc-possible) for every registered fault model,
    with optional ``--validate N`` attributed trials checking each
    measured outcome against its site's verdict
    (``--format text|json|sarif``, severity-gated exit code).
``run FILE|workload:NAME``
    Compile and execute on the cycle-level simulator.
``inject FILE|workload:NAME``
    Monte-Carlo fault-injection campaign with outcome breakdown, plus the
    restart-on-detection view derived from it: correct completion and
    re-execution overhead when every detected trial restarts from program
    start.  ``--checkpoint FILE`` records each completed shard; after a
    crash or kill, ``--resume`` finishes the campaign bit-identically.
``sweep workload:NAME``
    Slowdown table over the (issue width x delay) grid, all schemes.
``report {table1,table2,table3,fig6,fig8,fig9,fig10}``
    Regenerate a paper table/figure (uses the result cache).
``report trace --file FILE``
    Summarize a captured telemetry trace (``--chrome OUT.json`` exports it
    for chrome://tracing / Perfetto).

Every command accepts ``--scheme/--issue/--delay`` where meaningful, plus
the telemetry flags ``--trace FILE`` (JSON-lines span trace) and
``--metrics`` (print a metrics summary on exit); see
``python -m repro <command> --help`` and ``docs/observability.md``.

``compile``, ``run``, ``inject`` and ``sweep`` additionally take ``--jobs
N`` (0 = all cores, default from ``REPRO_JOBS``): ``inject`` shards its
campaign over a process pool, ``sweep`` evaluates grid points
concurrently, and ``compile``/``run`` accept several programs and process
them in parallel.  Campaign results are bit-identical for a given seed
regardless of ``--jobs`` — see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.printer import print_program
from repro.ir.program import Program
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.tables import format_table


def _load_program(spec: str) -> Program:
    if spec.startswith("workload:"):
        from repro.workloads import get_workload

        return get_workload(spec.split(":", 1)[1]).program
    path = Path(spec)
    if not path.exists():
        raise ReproError(f"no such file: {spec}")
    return compile_source(path.read_text(), name=path.stem)


def _machine(args) -> MachineConfig:
    return MachineConfig(
        issue_width=args.issue, inter_cluster_delay=args.delay
    )


def _add_common(
    p: argparse.ArgumentParser, scheme: bool = True, multi: bool = False
) -> None:
    if multi:
        p.add_argument(
            "program",
            nargs="+",
            help="minic source file(s) or workload:NAME(s); several run in parallel with --jobs",
        )
    else:
        p.add_argument("program", help="minic source file or workload:NAME")
    if scheme:
        from repro.schemes import scheme_names

        p.add_argument(
            "--scheme",
            choices=scheme_names(),
            default="casted",
            help="protection scheme (default: casted)",
        )
    p.add_argument("--issue", type=int, default=2, help="issue width per cluster")
    p.add_argument("--delay", type=int, default=1, help="inter-cluster delay")


def _trial_count(text: str) -> int:
    """A trial or record count: a non-negative integer (argparse exits 2 otherwise)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )


def _jobs(args) -> int:
    from repro.parallel import resolve_jobs

    try:
        return resolve_jobs(args.jobs)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=["compiled", "interp"],
        default=None,
        help="execution backend (default: $REPRO_SIM_BACKEND or compiled; "
        "interp is the differential-equivalence reference)",
    )


def _add_obs(p: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by every pipeline-running subcommand."""
    p.add_argument(
        "--trace",
        metavar="FILE",
        dest="trace_out",
        help="write a JSON-lines span trace (convert with: report trace --chrome)",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry metrics and print a summary on exit",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        dest="metrics_out",
        help="write the final metrics snapshot to FILE as JSON",
    )


def cmd_workloads(_args) -> int:
    from repro.workloads import all_workloads

    rows = [[w.name, w.paper_benchmark, w.suite, w.description] for w in all_workloads()]
    print(format_table(["name", "paper benchmark", "suite", "description"], rows,
                       align_right=False))
    return 0


def _compile_worker(task: dict) -> str:
    """Compile one program spec and render its statistics (picklable)."""
    spec = task["spec"]
    program = _load_program(spec)
    machine = MachineConfig(
        issue_width=task["issue"], inter_cluster_delay=task["delay"]
    )
    compiled = compile_program(program, Scheme(task["scheme"]), machine)
    stats = compiled.stats
    rows = [["instructions", stats.n_instructions]]
    rows += [[f"role: {k}", v] for k, v in sorted(stats.n_by_role.items())]
    rows += [
        ["code growth", f"{stats.code_growth:.2f}x"],
        ["spilled registers", stats.n_spilled],
        ["static schedule cycles", stats.static_cycles],
    ]
    rows += [
        [f"cluster {c} instructions", n]
        for c, n in sorted(stats.per_cluster_instructions.items())
    ]
    parts = [format_table(["metric", "value"], rows,
                          title=f"{spec} under {task['scheme']}")]
    if task["print_ir"]:
        parts += ["", print_program(compiled.program)]
    if task["show_schedule"]:
        from repro.viz import render_block_schedule, render_occupancy

        parts.append("")
        if task["show_schedule"] == "all":
            for block in compiled.program.main.blocks():
                parts.append(render_block_schedule(
                    block, compiled.schedules.blocks[block.label], compiled.machine
                ))
                parts.append("")
        else:
            block = compiled.program.main.block(task["show_schedule"])
            parts.append(render_block_schedule(
                block, compiled.schedules.blocks[block.label], compiled.machine
            ))
        parts.append(render_occupancy(compiled))
    return "\n".join(parts)


def cmd_compile(args) -> int:
    from repro.parallel import parallel_map

    tasks = [
        {
            "spec": spec,
            "scheme": args.scheme,
            "issue": args.issue,
            "delay": args.delay,
            "print_ir": args.print_ir,
            "show_schedule": args.show_schedule,
        }
        for spec in args.program
    ]
    for i, text in enumerate(parallel_map(_compile_worker, tasks, jobs=_jobs(args))):
        if i:
            print()
        print(text)
    return 0


def _run_worker(task: dict) -> tuple[str, int]:
    """Compile + simulate one program spec; returns (report, exit status)."""
    program = _load_program(task["spec"])
    machine = MachineConfig(
        issue_width=task["issue"], inter_cluster_delay=task["delay"]
    )
    compiled = compile_program(program, Scheme(task["scheme"]), machine)
    result = VLIWExecutor(compiled, backend=task.get("backend")).run()
    lines = [
        f"exit: {result.kind.value} (code {result.exit_code})",
        f"cycles: {result.cycles} ({result.stall_cycles} memory stalls)",
        f"dynamic instructions: {result.dyn_instructions}",
    ]
    ipc = result.dyn_instructions / result.cycles if result.cycles else 0.0
    lines.append(f"IPC: {ipc:.2f}")
    if task["show_output"]:
        lines.append(f"output ({len(result.output)} values): {list(result.output)}")
    l1 = result.cache.hit_rate("L1")
    lines.append(
        f"L1 hit rate: {l1 * 100:.1f}% over {result.cache.accesses} accesses"
    )
    from repro.ir.interp import ExitKind

    return "\n".join(lines), 0 if result.kind is ExitKind.OK else 1


def cmd_run(args) -> int:
    from repro.parallel import parallel_map

    tasks = [
        {
            "spec": spec,
            "scheme": args.scheme,
            "issue": args.issue,
            "delay": args.delay,
            "show_output": args.show_output,
            "backend": args.backend,
        }
        for spec in args.program
    ]
    results = parallel_map(_run_worker, tasks, jobs=_jobs(args))
    status = 0
    for i, (text, rc) in enumerate(results):
        if i:
            print()
        if len(args.program) > 1:
            print(f"== {args.program[i]} ==")
        print(text)
        status = status or rc
    return status


def cmd_lint(args) -> int:
    from repro.analysis.formats import FORMATTERS
    from repro.analysis.lint import lint_program
    from repro.analysis.protection import Severity

    program = _load_program(args.program)
    machine = _machine(args)
    block_profile = None
    if args.profile:
        from repro.pipeline import collect_block_profile

        block_profile = collect_block_profile(program)
    report = lint_program(
        program, Scheme(args.scheme), machine, block_profile=block_profile
    )
    rendered = FORMATTERS[args.format](report)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return report.exit_code(fail_on=Severity(args.fail_on))


def cmd_prove(args) -> int:
    from repro.analysis.coverage import cross_validate, prove_compiled
    from repro.analysis.formats import PROVE_FORMATTERS
    from repro.analysis.protection import Severity

    program = _load_program(args.program)
    machine = _machine(args)
    compiled = compile_program(program, Scheme(args.scheme), machine)
    injector = None
    weights = None
    if args.profile or args.validate:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            compiled.program,
            compiled.mem_words,
            compiled.frame_words,
            fault_model=args.fault_model,
        )
        weights = injector.visit_counts()
    report = prove_compiled(
        compiled, fault_models=args.models or None, weights=weights
    )
    rendered = PROVE_FORMATTERS[args.format](report)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    status = report.exit_code(fail_on=Severity(args.fail_on))
    if args.validate:
        proof = report.proofs.get(args.fault_model)
        if proof is None:
            raise ReproError(
                f"--validate uses --fault-model {args.fault_model!r}, "
                "which is not among the proved models"
            )
        val = cross_validate(
            injector, proof, n_trials=args.validate, seed=args.seed
        )
        print()
        print(
            f"cross-validation [{val.model}]: {val.n_trials} trial(s), "
            f"{len(val.violations)} violation(s), measured coverage "
            f"{val.measured_coverage * 100:.1f}% vs static "
            f"{proof.static_coverage * 100:.1f}%"
        )
        for v in val.violations[:20]:
            print(f"  VIOLATION: {v}")
        if not val.sound:
            status = max(status, 2)
    return status


def _record_campaign_run(args, res, wall_s: float, jobs: int, backend: str) -> None:
    """Persist one ``inject`` campaign as a run-ledger entry."""
    from repro.obs import get_telemetry
    from repro.obs.ledger import RunLedger, git_revision, utc_timestamp
    from repro.parallel import effective_cores

    tel = get_telemetry()
    metrics_snap = tel.metrics.snapshot() if tel.metrics is not None else None
    counters = {}
    if metrics_snap is not None:
        counters = {
            k: v for k, v in metrics_snap["counters"].items()
            if k.startswith("campaign.")
        }
    manifest = {
        "kind": "inject",
        "created_at": utc_timestamp(),
        "workload": args.program,
        "scheme": args.scheme,
        "fault_model": args.fault_model,
        "backend": backend,
        "trials": res.trials,
        "requested_trials": args.trials,
        "seed": args.seed,
        "jobs": jobs,
        "effective_cores": effective_cores(),
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "issue": args.issue,
        "delay": args.delay,
        "partial": res.partial,
        "coverage": round(res.coverage, 6),
        "timings": {
            "wall_s": round(wall_s, 3),
            "trials_per_s": round(res.trials / wall_s, 1) if wall_s > 0 else 0.0,
        },
        "counters": counters,
    }
    ledger = RunLedger(args.runs_dir)
    run_id = ledger.record(
        manifest,
        metrics=metrics_snap,
        trace_events=(
            tel.tracer.events
            if tel.tracer is not None and tel.tracer.keep_events
            else None
        ),
    )
    print(f"[ledger] recorded run {run_id} in {ledger.root}", file=sys.stderr)


def cmd_inject(args) -> int:
    import time

    from repro.faults.classify import OUTCOME_ORDER
    from repro.faults.injector import FaultInjector

    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint FILE")
    program = _load_program(args.program)
    machine = _machine(args)
    scheme = Scheme(args.scheme)
    compiled = compile_program(program, scheme, machine)
    reference = None
    if scheme is not Scheme.NOED:
        noed = compile_program(program, Scheme.NOED, machine)
        reference = VLIWExecutor(noed).run().dyn_instructions
    injector = FaultInjector(
        compiled.program,
        mem_words=compiled.mem_words,
        frame_words=compiled.frame_words,
        fault_model=args.fault_model,
        backend=args.backend,
    )
    progress = None
    if args.progress:
        from repro.obs.progress import print_progress

        progress = print_progress
    jobs = _jobs(args)
    t0 = time.perf_counter()
    # The CLI owns the pool scope: everything this command fans out —
    # calibration wave, adaptive wave, retry rounds — shares one spawn.
    from repro.parallel import ensure_pool

    with ensure_pool(jobs):
        res = injector.run_campaign(
            args.trials, args.seed, reference_dyn=reference,
            progress=progress, jobs=jobs,
            checkpoint=args.checkpoint, resume=args.resume,
        )
    wall_s = time.perf_counter() - t0
    if args.ledger:
        _record_campaign_run(args, res, wall_s, jobs, injector.interp.backend)
    rows = [
        [o.value, res.counts.get(o, 0), f"{res.fraction(o) * 100:.1f}%"]
        for o in OUTCOME_ORDER
    ]
    print(
        format_table(
            ["outcome", "trials", "fraction"],
            rows,
            title=f"{args.program} / {args.scheme}: {res.trials} trials, "
            f"{res.total_faults_injected} faults ({args.fault_model})",
        )
    )
    print(f"coverage (1 - SDC - timeout): {res.coverage * 100:.1f}%")
    print(
        "restart-on-detection: correct completion "
        f"{res.correct_completion * 100:.1f}%, re-execution overhead "
        f"{res.reexecution_overhead * 100:.1f}% of a golden run per trial"
    )
    if res.detections_timed:
        print(
            "mean detection latency: "
            f"{res.mean_detection_latency:.0f} dyn instructions "
            f"({res.detections_timed} timed detections)"
        )
    if res.partial:
        print(
            f"WARNING: partial result — {res.lost_trials} trial(s) lost to "
            "unrecoverable worker crashes",
            file=sys.stderr,
        )
    return 0


def _sweep_cell_worker(task) -> dict[str, int]:
    """Cycles of every scheme at one (issue width, delay) grid point."""
    spec, iw, d, backend = task
    program = _load_program(spec)
    machine = MachineConfig(issue_width=iw, inter_cluster_delay=d)
    cycles = {}
    for scheme in Scheme:
        compiled = compile_program(program, scheme, machine)
        cycles[scheme.value] = VLIWExecutor(compiled, backend=backend).run().cycles
    return cycles


def cmd_sweep(args) -> int:
    from repro.parallel import ensure_pool, parallel_map

    tasks = [
        (args.program, iw, d, args.backend)
        for iw in args.issues
        for d in args.delays
    ]
    jobs = _jobs(args)
    with ensure_pool(jobs):
        cells = parallel_map(_sweep_cell_worker, tasks, jobs=jobs)
    rows = []
    for (_, iw, d, _backend), cycles in zip(tasks, cells):
        noed = cycles[Scheme.NOED.value]
        rows.append(
            [f"iw{iw} d{d}", noed]
            + [
                f"{cycles[s.value] / noed:.2f}"
                for s in (Scheme.SCED, Scheme.DCED, Scheme.CASTED)
            ]
        )
    print(
        format_table(
            ["config", "NOED cycles", "SCED", "DCED", "CASTED"],
            rows,
            title=f"{args.program}: slowdown vs NOED",
        )
    )
    return 0


def cmd_trace(args) -> int:
    from repro.sim.tracing import render_issue_trace

    program = _load_program(args.program)
    compiled = compile_program(program, Scheme(args.scheme), _machine(args))
    print(render_issue_trace(compiled, max_records=args.limit))
    return 0


def cmd_mix(args) -> int:
    from repro.eval.mixstats import dynamic_mix, render_mix_table, render_role_table

    program = _load_program(args.program)
    profiles = []
    for scheme_name in args.schemes:
        scheme = Scheme(scheme_name)
        compiled = compile_program(program, scheme, _machine(args))
        profiles.append(
            dynamic_mix(
                compiled.program,
                scheme.name,
                mem_words=compiled.mem_words,
                frame_words=compiled.frame_words,
            )
        )
    print(render_mix_table(profiles, title=f"{args.program}: dynamic instruction mix"))
    print()
    print(render_role_table(profiles, title=f"{args.program}: dynamic role split"))
    return 0


def cmd_runs(args) -> int:
    """Query the content-addressed run ledger (list / show / diff)."""
    from repro.obs.ledger import (
        RunLedger, diff_runs, render_run, render_run_list,
    )

    ledger = RunLedger(args.runs_dir)
    if args.action == "list":
        print(render_run_list(ledger.list_runs()))
        return 0
    if args.action == "show":
        if len(args.ids) != 1:
            raise ReproError("runs show needs exactly one run id")
        print(render_run(ledger.load(args.ids[0])))
        return 0
    if len(args.ids) != 2:
        raise ReproError("runs diff needs exactly two run ids")
    a, b = (ledger.load(run_id) for run_id in args.ids)
    print(diff_runs(a, b))
    return 0


def cmd_report(args) -> int:
    from repro.eval.experiment import Evaluator
    from repro.eval import figures, tables
    from repro.workloads import workload_names

    ev = Evaluator(seed=2013)
    names = workload_names()
    kind = args.what
    if kind == "all":
        return _collate_report()
    if kind == "trace":
        return _trace_report(args)
    if kind == "table1":
        print(tables.render_table1())
    elif kind == "table2":
        print(tables.render_table2())
    elif kind == "table3":
        print(tables.render_table3())
    elif kind == "fig6":
        print(figures.render_fig6_7(figures.fig6_7_data(ev, names)))
    elif kind == "fig8":
        print(figures.render_fig8(figures.fig8_data(ev, names)))
    elif kind == "fig9":
        print(figures.render_fig9(figures.fig9_data(ev, names, trials=args.trials)))
    elif kind == "fig10":
        print(figures.render_fig10(figures.fig10_data(ev, trials=args.trials)))
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown report {kind}")
    return 0


def _trace_report(args) -> int:
    """Summarize (and optionally chrome-export) a captured trace file."""
    from repro.obs import convert_trace_file, summarize_trace_file

    if not args.file:
        print("error: report trace needs --file TRACE.jsonl", file=sys.stderr)
        return 2
    if not Path(args.file).exists():
        raise ReproError(f"no such trace file: {args.file}")
    try:
        print(summarize_trace_file(args.file))
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    if args.chrome:
        out = convert_trace_file(args.file, args.chrome)
        print(f"\nwrote Chrome trace-event file: {out} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    return 0


#: Section order for the collated report.
_REPORT_ORDER = [
    "table1_machine", "table2_workloads", "table2_profile", "table2_mix",
    "fig6_7_performance", "fig6_7_crossover", "fig6_7_summary",
    "fig8_ilp_scaling", "fig9_fault_coverage", "fig10_coverage_configs",
    "table3_schemes", "table3_placement",
    "ablation_post_ed_cse", "ablation_casted_portfolio",
    "ablation_register_reuse", "ablation_mlp", "ablation_if_conversion",
    "extension_cluster_scaling", "extension_profile_guided",
    "extension_partial_redundancy", "extension_memory_latency",
    "extension_recovery", "fault_model_coverage",
]


def _collate_report() -> int:
    """Stitch every saved results/*.txt into results/REPORT.md."""
    results = Path("results")
    if not results.is_dir():
        print(
            "error: no results/ directory — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    available = {p.stem: p for p in results.glob("*.txt")}
    parts = ["# CASTED reproduction — collected results\n"]
    ordered = [n for n in _REPORT_ORDER if n in available]
    ordered += sorted(set(available) - set(_REPORT_ORDER))
    for name in ordered:
        parts.append(f"## {name}\n\n```\n{available[name].read_text().rstrip()}\n```\n")
    out = results / "REPORT.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out} ({len(ordered)} sections)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CASTED reproduction: compile, simulate, inject, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in benchmarks").set_defaults(
        fn=cmd_workloads
    )

    p = sub.add_parser("compile", help="compile and show statistics")
    _add_common(p, multi=True)
    _add_obs(p)
    _add_jobs(p)
    p.add_argument("--print-ir", action="store_true", help="dump the final IR")
    p.add_argument(
        "--show-schedule",
        metavar="BLOCK",
        help="render the VLIW schedule of BLOCK (or 'all') as a cycle grid",
    )
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and execute on the simulator")
    _add_common(p, multi=True)
    _add_obs(p)
    _add_jobs(p)
    _add_backend(p)
    p.add_argument("--show-output", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "lint",
        help="static protection audit (sphere of replication, checks, placement)",
    )
    _add_common(p)
    _add_obs(p)
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that makes the exit status non-zero (default: error)",
    )
    p.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="weight vulnerability windows by measured block execution counts",
    )
    p.set_defaults(fn=cmd_lint)

    from repro.faults.models import DEFAULT_FAULT_MODEL, fault_model_names

    p = sub.add_parser(
        "prove",
        help="static fault-coverage prover (per-site detectability verdicts)",
    )
    _add_common(p)
    _add_obs(p)
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that makes the exit status non-zero (default: error)",
    )
    p.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    p.add_argument(
        "--models", nargs="+", choices=fault_model_names(), default=None,
        help="fault models to prove sites for (default: all registered)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="weight sites by golden-run block visit counts (runs the program "
        "once) so static coverage is campaign-comparable",
    )
    p.add_argument(
        "--validate", type=_trial_count, default=0, metavar="N",
        help="run N attributed single-fault trials and check every measured "
        "outcome against its site's static verdict (exit 2 on violation)",
    )
    p.add_argument(
        "--fault-model", choices=fault_model_names(),
        default=DEFAULT_FAULT_MODEL,
        help=f"model used by --validate (default: {DEFAULT_FAULT_MODEL})",
    )
    p.add_argument("--seed", type=int, default=2013)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("inject", help="fault-injection campaign")
    _add_common(p)
    _add_obs(p)
    _add_jobs(p)
    p.add_argument("--trials", type=_trial_count, default=200)
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument(
        "--progress", action="store_true",
        help="print one heartbeat line per shard with throughput and ETA",
    )
    from repro.faults.models import DEFAULT_FAULT_MODEL, fault_model_names

    p.add_argument(
        "--fault-model", choices=fault_model_names(),
        default=DEFAULT_FAULT_MODEL,
        help=f"fault model to sample from (default: {DEFAULT_FAULT_MODEL})",
    )
    p.add_argument(
        "--checkpoint", metavar="FILE",
        help="JSONL file recording completed shards as the campaign runs",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip shards already recorded in --checkpoint FILE",
    )
    _add_backend(p)
    p.add_argument(
        "--ledger", action="store_true",
        help="record this campaign in the content-addressed run ledger "
        "(manifest + metrics + Chrome trace; query with "
        "'repro runs')",
    )
    p.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run-ledger directory (default: $REPRO_RUNS_DIR or results/runs)",
    )
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("sweep", help="slowdown grid over issue widths and delays")
    p.add_argument("program", help="minic source file or workload:NAME")
    p.add_argument("--issues", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--delays", type=int, nargs="+", default=[1, 2, 4])
    _add_obs(p)
    _add_jobs(p)
    _add_backend(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace", help="issue trace of the first N instructions")
    _add_common(p)
    p.add_argument("--limit", type=_trial_count, default=48, help="records to show")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("mix", help="dynamic instruction-mix profile")
    p.add_argument("program", help="minic source file or workload:NAME")
    from repro.schemes import scheme_names

    p.add_argument(
        "--schemes", nargs="+", default=["noed", "casted"],
        choices=scheme_names(),
    )
    p.add_argument("--issue", type=int, default=2)
    p.add_argument("--delay", type=int, default=1)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser(
        "runs", help="query the run ledger (list, show, diff)"
    )
    # One sub-parser per action, so ``--runs-dir`` may come before or after
    # the run ids: an ``ids`` list after an ``action`` positional would be
    # matched (empty) together with the action and reject later ids.
    actions = p.add_subparsers(dest="action", required=True)
    for action, ids_help in (
        ("list", None),
        ("show", "run id (prefixes accepted)"),
        ("diff", "two run ids (prefixes accepted)"),
    ):
        a = actions.add_parser(action)
        if ids_help is not None:
            a.add_argument("ids", nargs="*", help=ids_help)
        a.add_argument(
            "--runs-dir", metavar="DIR", default=None,
            help="run-ledger directory (default: $REPRO_RUNS_DIR or results/runs)",
        )
        a.set_defaults(fn=cmd_runs)

    p = sub.add_parser(
        "report", help="regenerate a paper table/figure, or summarize a trace"
    )
    p.add_argument(
        "what",
        choices=[
            "table1", "table2", "table3", "fig6", "fig8", "fig9", "fig10",
            "all", "trace",
        ],
    )
    p.add_argument("--trials", type=_trial_count, default=120)
    p.add_argument("--file", help="trace file to summarize (report trace)")
    p.add_argument(
        "--chrome", metavar="OUT",
        help="also export the trace as a Chrome trace-event JSON file",
    )
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_out = getattr(args, "metrics_out", None)
    want_ledger = getattr(args, "ledger", False)
    telemetry = None
    if trace_out or want_metrics or metrics_out or want_ledger:
        from repro import obs

        try:
            # --ledger keeps span events in memory (even alongside a file
            # sink) so the run's Chrome trace can land in the ledger too.
            telemetry = obs.configure(
                trace_path=trace_out,
                keep_events=True if want_ledger else None,
            )
        except OSError as exc:
            print(
                f"error: cannot open telemetry sink: {exc}", file=sys.stderr
            )
            return 2
    try:
        return args.fn(args)
    except (ReproError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            from repro import obs

            if want_metrics and telemetry.metrics is not None:
                print()
                print(telemetry.metrics.render())
            if metrics_out and telemetry.metrics is not None:
                out = obs.write_metrics(telemetry.metrics, metrics_out)
                print(f"[telemetry] wrote metrics to {out}", file=sys.stderr)
            obs.reset()
            if trace_out:
                print(f"[telemetry] wrote trace to {trace_out}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
