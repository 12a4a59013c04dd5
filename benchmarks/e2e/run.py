#!/usr/bin/env python3
"""End-to-end benchmark of the CASTED reproduction, with a per-layer stage table.

Run from the repository root::

    python3 benchmarks/e2e/run.py                    # 4 workloads: 3 reps + 1 traced rep each, then verify
    python3 benchmarks/e2e/run.py --smoke            # about 1/20 of the work, under a minute
    python3 benchmarks/e2e/run.py --out benchmarks/e2e/reports/x.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload inject-pool --seed 7 --seconds 10 --trace 0

Every rep runs in a fresh child process (``child.py``) with a pinned
``PYTHONHASHSEED``, an empty result cache and none of the ``REPRO_*``
knobs, so reps are independent and start cold.  The last form is the
single-workload interface ``BENCHMARK.json`` describes: it repeats the
workload until ``--seconds`` of measured time have passed (at least once)
and prints one JSON object as its last line, with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 2013

#: Settings that would change what a rep runs, or what its set-up costs;
#: children never see them.  Without PYTHONDONTWRITEBYTECODE reps import
#: cached bytecode, as a user's second run does, instead of recompiling
#: every module.
STRIPPED_ENV = (
    "REPRO_JOBS", "REPRO_BATCH", "REPRO_SIM_BACKEND", "REPRO_CACHE",
    "REPRO_TRIALS", "REPRO_CHAOS", "REPRO_CACHE_DIR", "PYTHONDONTWRITEBYTECODE",
)

#: Items re-checked on ``interp`` in every single-workload run.
LIGHT_ORACLE = 2

#: A single-workload run starts no rep that could end after this many seconds.
RUN_BUDGET_S = 160.0

#: ``failed_frac`` is reported with the end-to-end metrics but never in
#: BENCHMARK.json (whose metrics must never be 0); any rise is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0}


class ChildFailed(RuntimeError):
    pass


def run_child(task: dict, hashseed: int = 0, timeout: float = 900.0) -> dict:
    """Run one ``child.py`` task in a fresh, hermetic process; return its JSON."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env.update(
        PYTHONHASHSEED=str(hashseed),
        REPRO_CACHE_DIR=str(work / "cache"),
        TMPDIR=str(work),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    task = dict(task, t_spawn=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(task)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{task['task']} {task.get('workload', '')} timed out") from None
    finally:
        # The child's own pool workers share its session: nothing it started
        # outlives it, even when it is killed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{task['task']} {task.get('workload', '')} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def rep_task(workload: str, seed: int, smoke: bool, trace: bool = False,
             oracle: int = 0, setup_only: bool = False) -> dict:
    return {"task": "rep", "workload": workload, "seed": seed, "smoke": smoke,
            "trace": trace, "oracle": oracle, "setup_only": setup_only}


def stats(values: list[float]) -> dict:
    """Median and quartiles.  The inclusive method keeps the quartiles of a
    few reps inside the data instead of at its extremes."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
        else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def e2e_values(r: dict, failed: int) -> dict:
    """The end-to-end metrics of one rep except ``setup_s`` (sampled apart)."""
    return {
        "wall_s": r["wall_s"],
        "trials_per_s": r["trials"] / r["wall_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "failed_frac": failed / r["attempted"],
    }


def digest_mismatches(reps: list[dict], pinned: dict | None, seed: int, seed_dependent) -> list[str]:
    """Outputs that differ between reps or from their pinned digest.

    Campaign outputs are pinned at the default seed only; every other output
    (tables, figs 6-8) does not depend on the seed and is checked at any.
    """
    bad = set()
    first = reps[0]["digests"]
    for r in reps[1:]:
        bad |= {k for k in first.keys() | r["digests"].keys() if first.get(k) != r["digests"].get(k)}
    for name, digest in (pinned or {}).items():
        if (seed == DEFAULT_SEED or not seed_dependent(name)) and first.get(name) != digest:
            bad.add(name)
    return sorted(bad)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


# -- single-workload runs ------------------------------------------------------------


def single(args, bench: dict, wl) -> int:
    """Measure one workload for ``--seconds`` and print the result line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    crashed = 0

    def attempt(task: dict) -> dict | None:
        nonlocal crashed
        start = time.monotonic()
        try:
            r = run_child(task, timeout=max(10.0, deadline + 15 - start))
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            crashed += 1
            return None
        r["elapsed"] = time.monotonic() - start
        setups.append(r["setup_s"])
        return r

    # A traced run first makes one untraced rep: the reference for
    # trace_overhead_frac, and the rep whose outputs get the oracle check.
    first = attempt(rep_task(args.workload, args.seed, args.smoke, oracle=LIGHT_ORACLE))
    if first is not None:
        plain.append(first)
        sink = traced if args.trace else plain
        while crashed == 0:
            done = sum(r["wall_s"] for r in sink)
            last = (sink or plain)[-1]["elapsed"]
            if done >= args.seconds or time.monotonic() + last > deadline:
                break
            r = attempt(rep_task(args.workload, args.seed, args.smoke, trace=bool(args.trace)))
            if r is not None:
                sink.append(r)
        while crashed == 0 and len(setups) < 3 and time.monotonic() + 2 * first["setup_s"] < deadline:
            if attempt(rep_task(args.workload, args.seed, args.smoke, setup_only=True)) is None:
                break
    measured = plain + traced
    if not measured or (args.trace and not traced):
        print("error: no rep completed", file=sys.stderr)
        return 1

    scale = "smoke" if args.smoke else "full"
    pinned = load_json(EXPECTED).get(scale, {}).get(args.workload) if EXPECTED.exists() else None
    mismatches = digest_mismatches(measured, pinned, args.seed, wl.seed_dependent)
    oracle_bad = len(first.get("oracle_mismatches", []))
    lost = sum(r["lost_trials"] for r in measured)
    attempted = sum(r["attempted"] for r in measured) + crashed
    failed = lost + len(mismatches) + oracle_bad + crashed
    for name in mismatches:
        print(f"error: output {name} does not match", file=sys.stderr)

    if args.trace:
        values = {}
        overhead = statistics.median(r["wall_s"] for r in traced) / plain[0]["wall_s"] - 1
        for m in bench["per_layer"]:
            per_rep = [r["per_layer"].get(m["name"], 0.0) for r in traced]
            values[m["name"]] = overhead if m["name"] == "trace_overhead_frac" else statistics.median(per_rep)
        metrics = bench["per_layer"]
    else:
        per_rep = [e2e_values(r, 0) for r in plain]
        values = {m: statistics.median(v[m] for v in per_rep) for m in per_rep[0]}
        values["setup_s"] = statistics.median(setups)
        metrics = bench["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


# -- full runs -----------------------------------------------------------------------


def environment() -> dict:
    from repro.obs import git_revision
    from repro.parallel import effective_cores

    return {
        "nproc": os.cpu_count(),
        "effective_cores": effective_cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
    }


def ranked(table: dict) -> list[dict]:
    """Where the measured region's ``jobs x wall`` seconds went, largest first."""
    capacity = table["jobs"] * table["wall_s"]
    rows = dict(table["rows"]["measure"])
    rows["parallel.idle"] = table["idle_s"]
    rows["unattributed"] = table["unattributed_s"]
    return [
        {"layer": layer, "seconds": s, "share": s / capacity}
        for layer, s in sorted(rows.items(), key=lambda kv: -kv[1])
    ]


def full(args, bench: dict, wl) -> int:
    smoke = args.smoke
    scale = "smoke" if smoke else "full"
    n_reps = args.reps or (1 if smoke else 3)
    env = environment()
    if env["effective_cores"] < 2:
        print(f"warning: only {env['effective_cores']} effective core(s); the two "
              "parallel workloads run 2 pool workers and will measure contention",
              file=sys.stderr)
    started = time.monotonic()
    # One discarded set-up warms the page cache and the bytecode caches,
    # as every later rep (and a user's second run) finds them.
    run_child(rep_task("paper-repro", args.seed, smoke, setup_only=True))
    runs: dict[str, dict] = {}
    for name in wl.WORKLOADS:
        reps = []
        for i in range(n_reps):
            reps.append(run_child(rep_task(name, args.seed, smoke)))
            print(f"{name}: rep {i + 1}/{n_reps} wall {reps[-1]['wall_s']:.2f}s "
                  f"setup {reps[-1]['setup_s']:.2f}s", file=sys.stderr)
        # Set-up is short, so one host hiccup moves it a lot: two more
        # set-up-only reps give its median five samples.
        setups = [r["setup_s"] for r in reps] + [
            run_child(rep_task(name, args.seed, smoke, setup_only=True))["setup_s"]
            for _ in range(2)
        ]
        traced = run_child(rep_task(name, args.seed, smoke, trace=True))
        print(f"{name}: traced rep wall {traced['wall_s']:.2f}s", file=sys.stderr)
        runs[name] = {"reps": reps, "setups": setups, "traced": traced}

    # Verify phase (untimed): the interp oracle and the hash-seed probe.
    perf = runs["paper-repro"]["reps"][0]["perf"]
    with_campaigns = [w for w in wl.WORKLOADS if w != "paper-repro"]
    tasks = [
        ({"task": "verify-grid", "smoke": smoke, "perf": perf}, 0),
        *(({"task": "verify-campaigns", "smoke": smoke, "workload": w, "seed": args.seed}, 0)
          for w in with_campaigns),
        ({"task": "cycles", "smoke": smoke}, 1),
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        grid, *campaigns, probe = pool.map(lambda t: run_child(t[0], hashseed=t[1]), tasks)
    divergent = sorted(k for k, v in probe["perf"].items() if v[0] != perf[k][0])
    oracle = {"paper-repro": grid["mismatches"]}
    oracle.update({w: c["mismatches"] for w, c in zip(with_campaigns, campaigns)})
    print(f"verify: {grid['checked']} grid points and "
          f"{sum(c['checked'] for c in campaigns)} campaign shards on interp", file=sys.stderr)

    pinned_all = {} if args.write_expected or not EXPECTED.exists() else load_json(EXPECTED).get(scale, {})
    report = {
        "schema": 1,
        "scale": scale,
        "seed": args.seed,
        "reps": n_reps,
        "env": env,
        "workloads": {},
        "verify": {
            "grid_points": grid["checked"],
            "campaign_shards": sum(c["checked"] for c in campaigns),
            "oracle_mismatches": sum(len(v) for v in oracle.values()),
        },
        "per_layer_global": {
            "passes.hashseed_divergent_points": len(divergent),
            "hashseed_divergent": divergent,
        },
    }
    all_ok = True
    for name, run in runs.items():
        reps, traced = run["reps"], run["traced"]
        mismatches = digest_mismatches(reps + [traced], pinned_all.get(name), args.seed, wl.seed_dependent)
        per_rep = [
            e2e_values(r, r["lost_trials"] + len(mismatches) + len(oracle[name])) for r in reps
        ]
        e2e = {m: stats([v[m] for v in per_rep]) for m in per_rep[0]}
        e2e["setup_s"] = stats(run["setups"])
        per_layer = dict(traced["per_layer"])
        per_layer["trace_overhead_frac"] = traced["wall_s"] / e2e["wall_s"]["median"] - 1
        ok = not mismatches and not oracle[name] and all(v["failed_frac"] == 0 for v in per_rep)
        all_ok &= ok
        report["workloads"][name] = {
            "jobs": wl.WORKLOADS[name].jobs,
            "correct": ok,
            "attempted": reps[0]["attempted"],
            "trials": reps[0]["trials"],
            "digest_mismatches": mismatches,
            "oracle_mismatches": oracle[name],
            "end_to_end": e2e,
            "per_layer": per_layer,
            "stages": traced["stages"],
            "ranked": ranked(traced["stages"]),
            "digests": reps[0]["digests"],
        }
    report["elapsed_s"] = time.monotonic() - started

    out = Path(args.out) if args.out else WORK / f"report-{scale}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    print(f"wrote {out}")
    if args.write_expected:
        if not all_ok:
            print("error: not writing expected digests from a failing run", file=sys.stderr)
            return 1
        expected = load_json(EXPECTED) if EXPECTED.exists() else {}
        expected["seed"] = args.seed
        expected[scale] = {n: w["digests"] for n, w in report["workloads"].items()}
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
    return 0 if all_ok else 1


def print_report(report: dict) -> None:
    print(f"\n{report['scale']} scale, seed {report['seed']}, {report['reps']} rep(s); "
          f"{report['env']['effective_cores']} effective core(s)")
    print(f"{'workload':18} {'wall_s':>8} {'setup_s':>8} {'trials/s':>9} {'rss_mb':>7} "
          f"{'failed':>7} {'trace+':>7}  correct")
    for name, w in report["workloads"].items():
        e = w["end_to_end"]
        print(f"{name:18} {e['wall_s']['median']:8.2f} {e['setup_s']['median']:8.2f} "
              f"{e['trials_per_s']['median']:9.1f} {e['peak_rss_mb']['median']:7.1f} "
              f"{e['failed_frac']['median']:7.3f} {w['per_layer']['trace_overhead_frac']:+7.1%}  "
              f"{w['correct']}")
    for name, w in report["workloads"].items():
        capacity = w["stages"]["jobs"] * w["stages"]["wall_s"]
        print(f"\n{name}: stage table of the traced rep ({w['stages']['jobs']} x "
              f"{w['stages']['wall_s']:.2f}s = {capacity:.2f}s)")
        for row in w["ranked"][:12]:
            print(f"  {row['layer']:32} {row['seconds']:8.3f}s {row['share']:6.1%}")
    print(f"\nverify: {report['verify']['oracle_mismatches']} oracle mismatch(es); "
          f"hash-seed divergent points: "
          f"{report['per_layer_global']['passes.hashseed_divergent_points']}")


# -- comparing two full runs ------------------------------------------------------------


def label(a: list[float], b: list[float], bound: float, better: str) -> str:
    """improved / unchanged / regressed / unresolved, for one metric of one workload."""
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    if ma == 0 or mb == 0:
        # No ratio to take (failed_frac is 0 when all is well): any rep
        # that failed counts.
        worse = sign * (statistics.mean(b) - statistics.mean(a))
        return "regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"
    spread = max((stats(a)["q3"] - stats(a)["q1"]) / ma, (stats(b)["q3"] - stats(b)["q1"]) / mb)
    change = sign * (mb - ma) / ma
    if spread > bound and not b_wins:
        return "unresolved"
    if change > bound:
        return "regressed"
    if change < -bound and b_wins:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    a, b = load_json(Path(path_a)), load_json(Path(path_b))
    metrics = bench["end_to_end"] + [FAILED_FRAC]
    bad = 0
    print(f"{'workload':18} {'metric':14} {'A median':>12} {'B median':>12} {'change':>8}  label")
    for name in a["workloads"].keys() & b["workloads"].keys():
        for m in metrics:
            va = a["workloads"][name]["end_to_end"][m["name"]]["values"]
            vb = b["workloads"][name]["end_to_end"][m["name"]]["values"]
            verdict = label(va, vb, m["bound"], m["better"])
            bad += verdict in ("regressed", "unresolved")
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "-"
            print(f"{name:18} {m['name']:14} {ma:12.4g} {mb:12.4g} {change:>8}  {verdict}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="measure one workload and print one JSON result line")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured seconds per single-workload run (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="single-workload run: 1 reports the per-layer metrics")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (default 2013)")
    p.add_argument("--reps", type=int, help="untraced reps per workload (default 3; 1 with --smoke)")
    p.add_argument("--smoke", action="store_true", help="about 1/20 of each workload")
    p.add_argument("--out", help="report path (default .bench_build/e2e/report-<scale>.json)")
    p.add_argument("--write-expected", action="store_true",
                   help="pin this run's digests in expected.json instead of checking them")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="label each metric x workload of report B against report A")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.compare:
        return compare(*args.compare, bench)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload:
        if args.workload not in wl.WORKLOADS:
            p.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
        return single(args, bench, wl)
    try:
        return full(args, bench, wl)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
