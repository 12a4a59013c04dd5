"""One rep of one workload, or one verify task, in a fresh process.

``run.py`` starts this script with a JSON task description as its only
argument and reads one JSON object from the last line of its output::

    {"task": "rep", "workload": "campaign-regbit", "seed": 2013,
     "smoke": false, "trace": false, "setup_only": false, "oracle": 2,
     "t_spawn": <time.perf_counter() of the parent just before starting us>}

Tasks:

* ``rep`` -- set up, then run the measured step.  ``setup_s`` runs from
  ``t_spawn`` (so it includes interpreter start and imports) to the start
  of the measured step; ``wall_s`` is the measured step.  ``trace`` turns
  telemetry on for the whole rep and returns the folded stage table.
  ``oracle`` > 0 re-checks that many seed-chosen items on ``interp`` after
  the measured step.  ``setup_only`` stops after set-up.
* ``verify-grid`` -- re-simulate the oracle grid points on ``interp`` and
  compare with the ``perf`` records a paper-repro rep returned.
* ``verify-campaigns`` -- set up a campaign workload and re-run the first
  shard of every campaign on ``interp``.
* ``cycles`` -- compile and simulate the oracle grid points (``run.py``
  runs it under another ``PYTHONHASHSEED``).

``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
the parent's ``t_spawn`` and this process's readings share one timeline.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro import obs

import stages
import workloads as wl


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child (pool workers)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def rep(task: dict, scale: wl.Scale) -> dict:
    workload = wl.WORKLOADS[task["workload"]]
    seed = task["seed"]
    tel = obs.configure(metrics=True, keep_events=True) if task["trace"] else None
    with wl.span("setup"):
        state = workload.setup(seed, scale)
    t0 = time.perf_counter()
    out: dict = {"setup_s": t0 - task["t_spawn"]}
    if task["setup_only"]:
        wl.teardown(state)
        return out
    with wl.span("measure"):
        measured = workload.measure(state)
    out["wall_s"] = time.perf_counter() - t0
    wl.teardown(state)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tel is not None:
        snapshot = tel.metrics.snapshot()
        spawn = snapshot["histograms"].get("pool.spawn_s", {}).get("total", 0.0)
        table = stages.fold(tel.tracer.events, workload.jobs, spawn)
        obs.reset()
        out["stages"] = table
        out["per_layer"] = stages.per_layer(table, snapshot)
    out.update(
        attempted=measured.attempted,
        trials=measured.trials,
        lost_trials=measured.lost_trials,
        digests={name: wl.sha256(v) for name, v in measured.outputs.items()},
        perf=measured.perf,
    )
    if task["oracle"]:
        if measured.perf:
            points = wl.oracle_sample(wl.oracle_points(scale), seed, task["oracle"])
            out["oracle_mismatches"] = wl.oracle_grid(points, measured.perf)
        else:
            picked = wl.oracle_sample(state["campaigns"], seed, task["oracle"])
            out["oracle_mismatches"] = wl.oracle_campaigns(picked)
    return out


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    scale = wl.SMOKE if task.get("smoke") else wl.FULL
    kind = task["task"]
    if kind == "rep":
        out = rep(task, scale)
    elif kind == "verify-grid":
        points = wl.oracle_points(scale)
        out = {"checked": len(points), "mismatches": wl.oracle_grid(points, task["perf"])}
    elif kind == "verify-campaigns":
        state = wl.WORKLOADS[task["workload"]].setup(task["seed"], scale)
        out = {"checked": len(state["campaigns"]),
               "mismatches": wl.oracle_campaigns(state["campaigns"])}
        wl.teardown(state)
    elif kind == "cycles":
        out = {"perf": wl.simulate(wl.oracle_points(scale))}
    else:
        raise ValueError(f"unknown task {kind!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
