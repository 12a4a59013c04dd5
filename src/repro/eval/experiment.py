"""Sweep driver with result caching.

``Evaluator`` is the single entry point the figure producers and benchmark
harnesses use.  Every (workload, scheme, issue-width, delay) point is

* compiled through the full pipeline,
* run once on the cycle-level executor for timing, and
* optionally subjected to a fault-injection campaign;

records are memoized per evaluator and, unless disabled, persisted as JSON
under ``.repro_cache/`` so re-running a different benchmark that shares
points is cheap.  A record's key names its point and the digest of the
``repro`` source that computed it (:func:`package_digest`), so an edit to
the compiler, the simulator or a workload never reads an older record.
Compiled programs and campaign injectors come from the process's artifact
store (:mod:`repro.store`), so every evaluator in a process shares them.
Everything is deterministic given the seed.

Grids of points can be evaluated concurrently with :meth:`Evaluator.sweep`:
workers compute records in their own processes (memoizing in memory only)
and ship them back to the parent, which is the **only** writer of the disk
cache — every file lands via an atomic temp-file + ``os.replace`` so
concurrent sweeps and interrupted runs can never leave a truncated entry.
Sweep results (and the cache files they produce) are identical to a serial
run: per-point campaign seeds derive from the point's coordinates, never
from execution order.  See ``docs/performance.md``.

Set ``REPRO_CACHE=0`` to disable the disk cache, ``REPRO_CACHE_DIR`` to move
it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import repro
from repro import store
from repro.faults.classify import Outcome
from repro.ir.interp import ExitKind, resolve_backend
from repro.faults.injector import CampaignResult, FaultInjector, golden_key
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.obs.progress import ProgressCallback, ProgressTracker
from repro.parallel import parallel_map
from repro.pipeline import CompiledProgram, Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import derive_seed
from repro.workloads import get_workload

logger = logging.getLogger(__name__)


def source_digest(root: Path) -> str:
    """16-hex SHA-256 prefix of every ``.py`` under ``root``.

    Hashes each file's relative path and bytes in sorted path order;
    ``__pycache__`` is skipped, so compiling the tree does not change it.
    """
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if "__pycache__" in rel.parts:
            continue
        data = path.read_bytes()
        h.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:16]


@functools.cache
def package_digest() -> str:
    """:func:`source_digest` of the imported ``repro`` package, once per process.

    The workloads' minic sources are modules of the package, so it covers
    them too.
    """
    return source_digest(Path(repro.__file__).parent)


@dataclass(frozen=True)
class PerfRecord:
    """Timing + static stats of one compiled run."""

    workload: str
    scheme: str
    issue_width: int
    delay: int
    cycles: int
    stall_cycles: int
    dyn_instructions: int
    static_cycles: int
    code_growth: float
    n_spilled: int
    frame_words: int
    exit_code: int

    @property
    def compute_cycles(self) -> int:
        return self.cycles - self.stall_cycles


@dataclass(frozen=True)
class CoverageRecord:
    """Fault-campaign outcome fractions of one configuration."""

    workload: str
    scheme: str
    issue_width: int
    delay: int
    trials: int
    fractions: dict[str, float]  # outcome value -> fraction
    total_faults: int
    fault_model: str
    mean_detection_latency: float

    def fraction(self, outcome: Outcome) -> float:
        return self.fractions.get(outcome.value, 0.0)

    @property
    def coverage(self) -> float:
        return 1.0 - self.fraction(Outcome.SDC) - self.fraction(Outcome.TIMEOUT)


def _scheme_delay(scheme: Scheme, delay: int) -> int:
    """Single-cluster schemes never pay the inter-cluster delay.

    Normalising the delay axis to 0 for them collapses equivalent cache
    keys; the fact itself (``uses_delay``) comes from the scheme registry.
    """
    return delay if scheme.info.uses_delay else 0


class Evaluator:
    def __init__(self, seed: int = 2013, cache: bool | None = None) -> None:
        self.seed = seed
        if cache is None:
            cache = os.environ.get("REPRO_CACHE", "1") != "0"
        self._disk = cache
        self._cache_dir = Path(
            os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
        )
        self._mem: dict[str, dict] = {}
        self._digest = package_digest()

    # -- caching ---------------------------------------------------------------
    def _load(self, key: str) -> dict | None:
        tel = get_telemetry()
        if key in self._mem:
            tel.count("eval.cache.mem_hits")
            return self._mem[key]
        if self._disk:
            path = self._cache_dir / f"{key}.json"
            if path.exists():
                # A corrupt or unreadable cache entry is never fatal: warn
                # once, count it, quarantine the file (renamed `.bad` so the
                # evidence survives but later runs don't re-parse and
                # re-warn), and fall through to recompute — the caller will
                # publish a fresh entry via _store.
                try:
                    data = json.loads(path.read_text())
                except (OSError, ValueError) as exc:
                    logger.warning(
                        "corrupt result cache %s: %s — quarantining and "
                        "recomputing", path, exc,
                    )
                    tel.count("eval.cache.corrupt")
                    tel.instant(
                        "cache-corrupt", cat="eval", key=key, error=str(exc)
                    )
                    self._quarantine(path)
                    return None
                if not isinstance(data, dict):
                    logger.warning(
                        "corrupt result cache %s: expected object, got %s — "
                        "quarantining and recomputing",
                        path, type(data).__name__,
                    )
                    tel.count("eval.cache.corrupt")
                    tel.instant(
                        "cache-corrupt", cat="eval", key=key,
                        error=f"expected object, got {type(data).__name__}",
                    )
                    self._quarantine(path)
                    return None
                self._mem[key] = data
                tel.count("eval.cache.disk_hits")
                return data
        tel.count("eval.cache.misses")
        return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt cache entry aside as ``<name>.bad`` (best-effort).

        ``os.replace`` keeps this atomic and idempotent — a second corrupt
        copy of the same key overwrites the first quarantined one.  Failure
        to rename (e.g. a read-only cache dir) is non-fatal: the entry is
        simply recomputed again next run, which is the old behaviour.
        """
        try:
            os.replace(path, path.with_name(f"{path.name}.bad"))
        except OSError as exc:  # pragma: no cover - depends on fs perms
            logger.warning("could not quarantine %s: %s", path, exc)

    def _store(self, key: str, data: dict) -> None:
        self._mem[key] = data
        if self._disk:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._cache_dir / f"{key}.json"
            # Atomic publish: write the whole entry to a per-process temp
            # file, then os.replace it into place.  An interrupted writer
            # leaves at worst a stale .tmp (never a truncated .json), and
            # concurrent writers of the same deterministic key are benign —
            # last replace wins with identical content.
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(json.dumps(data))
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)

    # -- compilation --------------------------------------------------------------
    def compiled(
        self, workload: str, scheme: Scheme, issue_width: int, delay: int
    ) -> CompiledProgram:
        """The point's compiled program, compiled at most once per process."""
        machine = MachineConfig(
            issue_width=issue_width, inter_cluster_delay=_scheme_delay(scheme, delay)
        )
        source = get_workload(workload)
        digest = hashlib.sha256(f"{source.name}\n{source.source}".encode()).hexdigest()
        return store.get(
            (digest, scheme, machine),
            lambda: compile_program(source.program, scheme, machine),
        )

    # -- cache keys ---------------------------------------------------------------
    def _key(
        self,
        workload: str,
        scheme: Scheme,
        issue_width: int,
        delay: int,
        trials: int | None = None,
        fault_model: str = "reg-bit",
    ) -> str:
        """The perf record's key, or the coverage record's if ``trials`` is given."""
        point = f"{workload}_{scheme.value}_iw{issue_width}_d{delay}"
        if trials is None:
            return f"perf_{point}_{self._digest}"
        return f"cov_{point}_t{trials}_s{self.seed}_{fault_model}_{self._digest}"

    # -- performance ---------------------------------------------------------------
    def perf(
        self, workload: str, scheme: Scheme, issue_width: int, delay: int
    ) -> PerfRecord:
        delay = _scheme_delay(scheme, delay)
        key = self._key(workload, scheme, issue_width, delay)
        data = self._load(key)
        if data is None:
            cp = self.compiled(workload, scheme, issue_width, delay)
            result = VLIWExecutor(cp).run()
            if result.kind is not ExitKind.OK:
                raise RuntimeError(
                    f"{workload}/{scheme.value} failed: {result.kind} {result}"
                )
            data = asdict(
                PerfRecord(
                    workload=workload,
                    scheme=scheme.value,
                    issue_width=issue_width,
                    delay=delay,
                    cycles=result.cycles,
                    stall_cycles=result.stall_cycles,
                    dyn_instructions=result.dyn_instructions,
                    static_cycles=cp.stats.static_cycles,
                    code_growth=cp.stats.code_growth,
                    n_spilled=cp.stats.n_spilled,
                    frame_words=cp.frame_words,
                    exit_code=result.exit_code,
                )
            )
            self._store(key, data)
        return PerfRecord(**data)

    # -- fault coverage ---------------------------------------------------------------
    def coverage(
        self,
        workload: str,
        scheme: Scheme,
        issue_width: int,
        delay: int,
        trials: int,
        fault_model: str = "reg-bit",
    ) -> CoverageRecord:
        delay = _scheme_delay(scheme, delay)
        key = self._key(workload, scheme, issue_width, delay, trials, fault_model)
        data = self._load(key)
        if data is None:
            reference_dyn = None
            if scheme is not Scheme.NOED:
                noed = self.perf(workload, Scheme.NOED, issue_width, delay)
                reference_dyn = noed.dyn_instructions
            cp = self.compiled(workload, scheme, issue_width, delay)
            # Keyed by program content, not grid point: points that compile
            # to one program (a CASTED placement equal to SCED's) share one.
            golden = golden_key(cp.program, cp.mem_words, cp.frame_words, resolve_backend())
            injector = store.get((golden, fault_model), lambda: FaultInjector(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
                fault_model=fault_model,
            ), counter="eval.golden_cache")
            campaign: CampaignResult = injector.run_campaign(
                trials=trials,
                seed=derive_seed(self.seed, workload, scheme.value, issue_width, delay),
                reference_dyn=reference_dyn,
            )
            data = {
                "workload": workload,
                "scheme": scheme.value,
                "issue_width": issue_width,
                "delay": delay,
                "trials": trials,
                "fractions": {o.value: f for o, f in (
                    (o, campaign.fraction(o)) for o in Outcome
                )},
                "total_faults": campaign.total_faults_injected,
                "fault_model": fault_model,
                "mean_detection_latency": campaign.mean_detection_latency,
            }
            self._store(key, data)
        return CoverageRecord(**data)

    # -- parallel grids ---------------------------------------------------------------
    def sweep(
        self,
        points: list[tuple],
        trials: int | None = None,
        jobs: int | None = 1,
        progress: ProgressCallback | None = None,
    ) -> list[dict]:
        """Evaluate ``(workload, scheme, issue_width, delay)`` grid points.

        Returns one ``{"perf": PerfRecord, "coverage": CoverageRecord |
        None}`` dict per point, in point order; ``coverage`` is computed
        only when ``trials`` is given.  ``scheme`` may be a
        :class:`~repro.pipeline.Scheme` or its string value.

        The points missing from the cache are computed by
        :func:`_sweep_point_worker` — inline with ``jobs <= 1``, in worker
        processes otherwise (each worker memoizes in memory only) — and
        every record it produced is merged back here, the sole cache
        writer.  A task carries only the records it reads: its point's
        perf record and, for coverage, the NOED reference perf that rate
        matching needs.  Point seeds derive from the point's coordinates, so
        records and cache files are identical for every ``jobs``.

        ``progress`` receives one heartbeat per computed point.
        """
        norm: list[tuple[str, Scheme, int, int]] = []
        for workload, scheme, issue_width, delay in points:
            scheme = Scheme(scheme)
            norm.append(
                (workload, scheme, issue_width, _scheme_delay(scheme, delay))
            )

        def is_cached(point: tuple[str, Scheme, int, int]) -> bool:
            if self._load(self._key(*point)) is None:
                return False
            return trials is None or self._load(self._key(*point, trials)) is not None

        missing = [p for p in dict.fromkeys(norm) if not is_cached(p)]
        tracker = ProgressTracker(len(missing), progress, every=1)
        if trials is not None:
            # Rate-matched campaigns need the NOED reference perf of every
            # protected point.  Compute those here (cheap: one compile +
            # timed run, no campaign) so workers don't each redo them.
            for workload, scheme, issue_width, delay in missing:
                if scheme is not Scheme.NOED:
                    self.perf(workload, Scheme.NOED, issue_width, delay)

        def known(point: tuple[str, Scheme, int, int]) -> dict[str, dict]:
            """The records a point's task reads: its own perf record and,
            for a campaign, its NOED reference perf."""
            workload, scheme, issue_width, delay = point
            keys = [self._key(*point)]
            if trials is not None:
                noed_delay = _scheme_delay(Scheme.NOED, delay)
                keys.append(self._key(workload, Scheme.NOED, issue_width, noed_delay))
            return {key: self._mem[key] for key in keys if key in self._mem}

        tasks = [
            (self.seed, workload, scheme.value, issue_width, delay, trials,
             known((workload, scheme, issue_width, delay)))
            for workload, scheme, issue_width, delay in missing
        ]

        def on_result(index: int, records: dict[str, dict]) -> None:
            for key, data in records.items():
                self._store(key, data)
            tracker.advance(1, {})

        # parallel_map runs the points inline when jobs <= 1; either way
        # this process stores every returned record.
        parallel_map(
            _sweep_point_worker, tasks, jobs=jobs, on_result=on_result
        )
        return [
            {
                "perf": self.perf(workload, scheme, issue_width, delay),
                "coverage": (
                    self.coverage(workload, scheme, issue_width, delay, trials)
                    if trials is not None
                    else None
                ),
            }
            for workload, scheme, issue_width, delay in norm
        ]


def _sweep_point_worker(task) -> dict[str, dict]:
    """Compute one grid point in a worker process.

    The worker evaluator never touches the disk cache — it preloads the
    point's records the parent already has (``known``) and returns only
    the *new* in-memory records (cache key -> JSON-ready dict) for the
    parent to persist, which keeps a single writer per cache directory.
    """
    seed, workload, scheme_value, issue_width, delay, trials, known = task
    with get_telemetry().span(
        "sweep:point", cat="eval", workload=workload, scheme=scheme_value,
        issue_width=issue_width, delay=delay,
    ):
        ev = Evaluator(seed=seed, cache=False)
        ev._mem.update(known)
        scheme = Scheme(scheme_value)
        ev.perf(workload, scheme, issue_width, delay)
        if trials is not None:
            ev.coverage(workload, scheme, issue_width, delay, trials)
        return {key: data for key, data in ev._mem.items() if key not in known}
