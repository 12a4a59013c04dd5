"""Fold one traced rep's spans into a per-layer stage table.

A traced rep records spans in the benchmark's own process (the ``bench:*``
spans of ``workloads.py`` plus the program's pass, ``sim.run``,
``injector:*``, ``campaign``/``shard`` spans) and, shipped back with each
pool task, in every worker process.  Each span is charged its *self time*:
its duration minus the part its child spans cover.  Spans map to layers by
name (:func:`layer_of`).

Over the measured region the table accounts for ``jobs x wall`` seconds:

* a worker's self time is busy time of its layer;
* the parent's self time is busy time of its layer too, except while some
  worker is inside a span: the parent is then waiting on the pool, and that
  time is capacity the workers use, not work of its own;
* the self time of the ``bench:measure`` span (parent time outside every
  layer call) is ``unattributed``;
* ``parallel.idle`` is the rest: capacity no span used.

So the rows plus idle plus unattributed sum to ``jobs x wall``.  Set-up is
folded the same way into its own column (it is serial, so ``jobs`` is 1).
"""

from __future__ import annotations

from collections import defaultdict

#: Program span names -> layer (``pass:*``/``verify:*``/``bench:*`` are
#: handled by prefix in :func:`layer_of`).
_PROGRAM_SPANS = {
    "pipeline": "passes.outside_pipeline",
    "sim.run": "sim.run",
    "injector:profile": "faults.golden_profile",
    "injector:snapshots": "faults.snapshot_record",
    "campaign": "faults.campaign",
    "shard": "faults.campaign",
    "batch:group": "faults.campaign",
    "worker:init": "parallel.worker_init",
    "worker:attach-profile": "parallel.worker_init",
    "sweep:point": "eval.sweep",
}

#: Self time of a benchmark span is what its call did outside the program's
#: own spans; these calls name that remainder more precisely.
_BENCH_SELF = {
    "passes.compile": "passes.outside_pipeline",
    "faults.injector": "faults.golden_profile",
}

EPS = 1e-9


def layer_of(name: str) -> str:
    if name.startswith("pass:"):
        return "passes." + name[len("pass:"):]
    if name.startswith("verify:"):
        return "passes.verify"
    if name.startswith("bench:"):
        layer = name[len("bench:"):]
        return _BENCH_SELF.get(layer, layer)
    return _PROGRAM_SPANS.get(name, "other." + name)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _overlap(a: float, b: float, union: list[tuple[float, float]]) -> float:
    return sum(max(0.0, min(b, y) - max(a, x)) for x, y in union if x < b and y > a)


def _self_segments(spans: list[tuple[float, float, str]]):
    """Yield ``(name, start, end)`` for every self-time segment of a lane."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    children: dict[int, list[int]] = defaultdict(list)
    stack: list[int] = []
    for i, (start, end, _) in enumerate(spans):
        while stack and spans[stack[-1]][1] <= start + EPS:
            stack.pop()
        if stack and end <= spans[stack[-1]][1] + EPS:
            children[stack[-1]].append(i)
        stack.append(i)
    for i, (start, end, name) in enumerate(spans):
        cursor = start
        for c in children[i]:
            if spans[c][0] > cursor:
                yield name, cursor, spans[c][0]
            cursor = max(cursor, spans[c][1])
        if end > cursor:
            yield name, cursor, end


def _clip(a: float, b: float, region: tuple[float, float]) -> tuple[float, float]:
    return max(a, region[0]), min(b, region[1])


def fold(events: list[dict], jobs: int, spawn_s: float = 0.0) -> dict:
    """The stage table of one traced rep.

    ``events`` are the tracer's events (worker events carry a ``pid``);
    ``spawn_s`` is the pool spawn time the program reports as a metric (it
    has no span): it is moved from the layer that was running when the
    first worker span began into its own ``parallel.spawn`` row.
    """
    lanes: dict[object, list[tuple[float, float, str]]] = defaultdict(list)
    for ev in events:
        if ev.get("ev") == "X":
            start = float(ev["ts"])
            lanes[ev.get("pid")].append((start, start + float(ev["dur"]), ev["name"]))
    parent = lanes.pop(None, [])
    region = {
        name[len("bench:"):]: (a, b)
        for a, b, name in parent
        if name in ("bench:setup", "bench:measure")
    }
    if "measure" not in region:
        raise ValueError("traced rep has no bench:measure span")
    wall = region["measure"][1] - region["measure"][0]
    workers = _union([(a, b) for spans in lanes.values() for a, b, _ in spans])

    rows: dict[str, dict[str, float]] = {r: defaultdict(float) for r in region}
    unattributed = dict.fromkeys(region, 0.0)
    wait = 0.0
    for name, a, b in _self_segments(parent):
        for r, bounds in region.items():
            x, y = _clip(a, b, bounds)
            if y <= x:
                continue
            if name == f"bench:{r}":
                unattributed[r] += y - x
                continue
            waited = _overlap(x, y, workers)
            wait += waited
            rows[r][layer_of(name)] += y - x - waited
    worker_busy = 0.0
    for spans in lanes.values():
        for name, a, b in _self_segments(spans):
            x, y = _clip(a, b, region["measure"])
            if y > x:
                rows["measure"][layer_of(name)] += y - x
                worker_busy += y - x

    if spawn_s and workers:
        first = workers[0][0]
        enclosing = [(b - a, name) for a, b, name in parent if a <= first <= b]
        layer = layer_of(min(enclosing)[1]) if enclosing else "unattributed"
        moved = min(spawn_s, rows["measure"].get(layer, 0.0))
        rows["measure"][layer] -= moved
        rows["measure"]["parallel.spawn"] += moved

    busy = sum(rows["measure"].values())
    return {
        "jobs": jobs,
        "wall_s": wall,
        "setup_wall_s": (region["setup"][1] - region["setup"][0]) if "setup" in region else 0.0,
        "rows": {r: dict(v) for r, v in rows.items()},
        "unattributed_s": unattributed["measure"],
        "setup_unattributed_s": unattributed.get("setup", 0.0),
        "idle_s": jobs * wall - busy - unattributed["measure"],
        "wait_s": wait,
        "worker_busy_s": worker_busy,
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(table: dict, metrics: dict) -> dict[str, float]:
    """Per-layer metrics from a stage table and the rep's metrics snapshot.

    Seconds are self times summed over set-up and the measured region, so a
    layer that runs in set-up (compilation in the campaign workloads) shows.
    """
    seconds: dict[str, float] = defaultdict(float)
    for rows in table["rows"].values():
        for layer, s in rows.items():
            seconds[layer] += s
    counters = metrics.get("counters", {})
    hist = metrics.get("histograms", {})

    def count(name: str) -> float:
        return counters.get(name, 0)

    out = {f"{layer}_s": s for layer, s in seconds.items()}
    out["passes.compile_s"] = sum(s for layer, s in seconds.items() if layer.startswith("passes."))
    out["passes.compiles"] = hist.get("compile.pipeline.seconds", {}).get("count", 0)
    sim_s = hist.get("sim.run.seconds", {}).get("total", 0.0)
    out.update({
        "sim.runs": count("sim.runs"),
        "sim.dyn_instructions": count("sim.dyn_instructions"),
        "sim.insn_per_s": _frac(count("sim.dyn_instructions"), sim_s),
        "sim.fuse_cache_hit_frac": _frac(
            count("sim.fuse_cache.hits"),
            count("sim.fuse_cache.hits") + count("sim.fuse_cache.misses"),
        ),
        "faults.trials": count("campaign.trials"),
        "faults.batch_groups": count("campaign.batch_groups"),
        "faults.golden_dyn": count("campaign.batch_golden_dyn"),
        "faults.guided_visits": count("campaign.batch_guided_visits"),
        "faults.cycles_skipped": count("campaign.cycles_skipped"),
        "faults.converged_frac": _frac(
            count("campaign.batch_converged"), count("campaign.batch_trials")
        ),
        "faults.lost_trials": count("campaign.lost_trials"),
        "eval.cache_misses": count("eval.cache.misses"),
        "eval.golden_cache_hit_frac": _frac(
            count("eval.golden_cache.hits"),
            count("eval.golden_cache.hits") + count("eval.golden_cache.misses"),
        ),
        "parallel.spawns": count("pool.spawns"),
        "parallel.respawns": count("pool.respawns"),
        "parallel.worker_cache_hit_frac": _frac(
            count("pool.worker_cache.hits"),
            count("pool.worker_cache.hits") + count("pool.worker_cache.misses"),
        ),
        "parallel.busy_frac": (
            _frac(table["worker_busy_s"], table["jobs"] * table["wall_s"])
            if table["jobs"] > 1 else 0.0
        ),
        "parallel.idle_s": table["idle_s"],
        "unattributed_s": table["unattributed_s"],
    })
    return out
