"""Checkpointed fault injection: snapshot/resume determinism.

The compiled backend's injector records architectural snapshots during
its one golden run, and then starts every trial from the nearest snapshot
at or before its earliest fault.  The whole feature is only
admissible because it is *invisible* in the results: every test here
asserts bit-identical outcomes between the interp oracle's replay-from-zero
and the compiled backend's snapshot-resume, across snapshot intervals,
fault models and ``jobs`` settings.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest

from repro import obs, store
from repro.faults import injector as injector_mod
from repro.faults.injector import FaultInjector
from repro.frontend import compile_source
from repro.ir.interp import FaultSpec, Interpreter, Snapshot
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.utils.rng import make_rng

# Small but snapshot-eligible kernel (~20k dynamic instructions, about ten
# SNAPSHOT_INTERVALs): memory traffic, data-dependent branches and output on
# every iteration, so reg/cf/mem faults all have visible targets.
_SRC = """
global arr[32] = { 3, 1, 4, 1, 5, 9, 2, 6 };
lib func mix(x) {
    return x * 1103515245 + 12345;
}
func main() {
    var acc = 0;
    for (var i = 0; i < 400; i = i + 1) {
        var j = i & 31;
        arr[j] = mix(arr[j] + i);
        acc = acc ^ arr[j];
        if (acc & 1) {
            acc = acc + 3;
        } else {
            acc = acc - 1;
        }
        out(acc & 255);
    }
    out(acc);
    return 0;
}
"""

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=1)


@pytest.fixture(scope="module")
def casted():
    return compile_program(compile_source(_SRC), Scheme.CASTED, MACHINE)


def _injector(cp, backend: str = "compiled", **kwargs) -> FaultInjector:
    return FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        backend=backend, **kwargs,
    )


def _oracle(cp, **kwargs) -> FaultInjector:
    """The interp backend: every trial replays from reset."""
    return _injector(cp, backend="interp", **kwargs)


def _signature(res) -> tuple:
    return (
        res.counts,
        res.trials,
        res.total_faults_injected,
        res.detection_latency_sum,
        res.detections_timed,
        res.detection_dyn_sum,
    )


class TestSnapshotCapture:
    def test_snapshots_cover_the_run(self, casted):
        inj = _injector(cp=casted)
        assert inj.golden_run.snapshots, "program is large enough to checkpoint"
        dyns = [s.dyn for s in inj.golden_run.snapshots]
        assert dyns == sorted(dyns)
        assert len(dyns) == len(set(dyns))
        assert dyns[-1] < inj.golden.dyn_instructions
        for snap in inj.golden_run.snapshots:
            assert isinstance(snap, Snapshot)
            assert snap.label in {b.label for b in inj.program.main.blocks()}

    def test_snapshot_resume_replays_golden_exactly(self, casted):
        """Fault-free resume from any snapshot finishes like the golden run."""
        inj = _injector(cp=casted)
        snaps = inj.golden_run.snapshots
        for snap in snaps[:: max(1, len(snaps) // 8)]:
            res = inj.interp.run(resume_from=snap)
            assert res.kind == inj.golden.kind
            assert res.exit_code == inj.golden.exit_code
            assert res.output == inj.golden.output
            assert res.dyn_instructions == inj.golden.dyn_instructions

    def test_tiny_programs_skip_snapshots(self):
        cp = compile_program(
            compile_source(
                "func main() { out(1 + 2); return 0; }"
            ),
            Scheme.NOED,
            MACHINE,
        )
        inj = _injector(cp=cp)
        assert inj.golden_run.snapshots == []
        # ...and trials still run, resuming from reset state.
        res = inj.run_campaign(trials=3, seed=9)
        assert res.trials == 3

    def test_snapshots_disabled_on_request(self, casted, monkeypatch):
        """An interval longer than the run records none."""
        monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", 10**9)
        inj = _injector(cp=casted)
        assert inj.golden_run.snapshots == []

    @pytest.mark.parametrize("interval", [None, 100, 777])
    def test_snapshots_land_on_the_first_boundary_past_each_interval(
        self, casted, monkeypatch, interval
    ):
        """Each snapshot is the first golden block boundary at or past a
        multiple of ``SNAPSHOT_INTERVAL``, and every such boundary has one."""
        if interval is not None:
            monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", interval)
        step = injector_mod.SNAPSHOT_INTERVAL
        run = _injector(cp=casted).golden_run
        starts = [run.visit_start(v) for v in range(len(run.visits))]
        want = sorted({
            bisect_left(starts, mark)
            for mark in range(step, starts[-1] + 1, step)
        })
        assert [(s.dyn, s.label) for s in run.snapshots] == [
            (starts[v], run.labels[run.visits[v]]) for v in want
        ]

    def test_runs_shorter_than_the_interval_record_none(
        self, casted, monkeypatch
    ):
        """Snapshots need a block boundary at or past one interval: a run
        that commits fewer instructions than the interval records none,
        and its last boundary alone still records one."""
        golden = _oracle(cp=casted).golden_run
        last_start = golden.visit_start(len(golden.visits) - 1)
        monkeypatch.setattr(
            injector_mod, "SNAPSHOT_INTERVAL", golden.golden.dyn_instructions
        )
        assert _injector(cp=casted).golden_run.snapshots == []
        monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", last_start)
        (snap,) = _injector(cp=casted).golden_run.snapshots
        assert snap.dyn == last_start

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_golden_run_executes_the_program_once(
        self, casted, monkeypatch, backend
    ):
        """One ``Interpreter.run`` records the visits and the snapshots,
        and gives the same result and visits as a visit-only run."""
        interp = Interpreter(
            casted.program, mem_words=casted.mem_words,
            frame_words=casted.frame_words, backend=backend,
        )
        want, want_visits = interp.run_visits()
        calls = []
        run = Interpreter.run

        def counted(self, *args, **kwargs):
            calls.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", counted)
        golden = injector_mod._execute_golden(interp)
        assert len(calls) == 1
        assert golden.golden == want
        assert golden.visits.dtype == want_visits.dtype
        assert np.array_equal(golden.visits, want_visits)
        assert bool(golden.snapshots) == (backend == "compiled")


class TestTrialEquivalence:
    def test_single_trials_identical_with_and_without_snapshots(self, casted):
        """Same faults, same RunResult, whether replayed or resumed."""
        plain = _oracle(cp=casted)
        ckpt = _injector(cp=casted)
        golden_dyn = plain.golden.dyn_instructions
        probe_points = [
            0, 1, golden_dyn // 3, golden_dyn // 2, golden_dyn - 2
        ]
        for dyn_index in probe_points:
            for kind, arg in (("reg", None), ("cf", None), ("mem", 5)):
                faults = (FaultSpec(dyn_index=dyn_index, bit=3, kind=kind, arg=arg),)
                a = plain.interp.run(faults=faults, max_steps=plain.max_steps)
                (b,) = ckpt._execute([faults])
                assert (a.kind, a.exit_code, a.output, a.dyn_instructions) == (
                    b.kind, b.exit_code, b.output, b.dyn_instructions
                ), (dyn_index, kind)

    def test_snapshot_selection_never_overshoots_fault(self, casted):
        inj = _injector(cp=casted)
        keys = [s.dyn for s in inj.golden_run.snapshots]

        def resume_dyn(faults: tuple[FaultSpec, ...]) -> int:
            snap = inj._resume_point(faults)
            return snap.dyn if snap is not None else 0

        # A fault before the first snapshot replays from reset.
        assert inj._resume_point((FaultSpec(dyn_index=keys[0] - 1),)) is None
        # A fault on a snapshot's own position resumes from that snapshot:
        # it fires after the snapshot's first instruction commits.
        for snap in inj.golden_run.snapshots[::8]:
            assert inj._resume_point((FaultSpec(dyn_index=snap.dyn),)) is snap
        for dyn_index in (0, 7, 1000, inj.golden.dyn_instructions - 1):
            assert resume_dyn((FaultSpec(dyn_index=dyn_index),)) <= dyn_index
            # multi-fault trials key off the earliest fault
            faults = (
                FaultSpec(dyn_index=dyn_index),
                FaultSpec(dyn_index=max(0, dyn_index // 2)),
            )
            assert resume_dyn(faults) <= min(f.dyn_index for f in faults)
        # ...and the latest eligible snapshot is the one chosen.
        last = inj.golden.dyn_instructions - 1
        assert resume_dyn((FaultSpec(dyn_index=last),)) == keys[-1]


class TestCampaignDeterminism:
    TRIALS = 60
    SEED = 2013

    def test_counts_identical_across_snapshot_intervals(
        self, casted, monkeypatch
    ):
        reference = _oracle(cp=casted).run_campaign(self.TRIALS, self.SEED)
        golden_dyn = reference.golden_dyn
        for interval in (1_250, 5_000, 10_000):
            monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", interval)
            inj = _injector(cp=casted)
            assert 0 < len(inj.golden_run.snapshots) <= golden_dyn // interval
            res = inj.run_campaign(self.TRIALS, self.SEED)
            assert _signature(res) == _signature(reference), interval

    def test_counts_identical_across_backends(self, casted):
        reference = _oracle(cp=casted).run_campaign(self.TRIALS, self.SEED)
        res = _injector(cp=casted).run_campaign(self.TRIALS, self.SEED)
        assert _signature(res) == _signature(reference)

    def test_counts_identical_across_jobs(self, casted):
        inj = _injector(cp=casted)
        serial = inj.run_campaign(self.TRIALS, self.SEED, jobs=1)
        pooled = inj.run_campaign(self.TRIALS, self.SEED, jobs=2)
        assert _signature(pooled) == _signature(serial)

    def test_counts_identical_under_rate_matching(self, casted):
        """Multi-fault (binomial rate-matched) trials resume correctly too."""
        reference_dyn = 3000  # << golden dyn => several faults per trial
        plain = _oracle(cp=casted).run_campaign(
            self.TRIALS, self.SEED, reference_dyn=reference_dyn
        )
        ckpt = _injector(cp=casted).run_campaign(
            self.TRIALS, self.SEED, reference_dyn=reference_dyn
        )
        assert plain.total_faults_injected > self.TRIALS  # rate matching engaged
        assert _signature(ckpt) == _signature(plain)

    @pytest.mark.parametrize("model", ["burst", "cf", "mem", "opcode"])
    def test_counts_identical_per_fault_model(self, casted, model):
        plain = _oracle(cp=casted, fault_model=model).run_campaign(30, self.SEED)
        ckpt = _injector(cp=casted, fault_model=model).run_campaign(30, self.SEED)
        assert _signature(ckpt) == _signature(plain)


class TestTelemetry:
    def test_restore_counters(self, casted):
        inj = _injector(cp=casted)
        tel = obs.configure()
        try:
            inj.run_campaign(25, seed=4)
            restores = tel.metrics.counters.get("campaign.snapshot_restores", 0)
            skipped = tel.metrics.counters.get("campaign.cycles_skipped", 0)
        finally:
            obs.reset()
        assert 0 < restores <= 25
        # Each resumed trial skips exactly its snapshot's prefix.
        rng = make_rng(4, "fault-campaign", 0)
        snaps = [
            inj._resume_point(inj.faults_for_trial(rng, None)) for _ in range(25)
        ]
        resumed = [s.dyn for s in snaps if s is not None]
        assert (restores, skipped) == (len(resumed), sum(resumed))

    def test_golden_run_spans_count_the_snapshots(self, casted):
        """The recording span of a golden-run miss, and the profile span of
        every injector, adopted or not, carry the run's snapshot count."""
        store._held.clear()
        store._pinned.clear()
        tel = obs.configure(keep_events=True)
        try:
            inj = _injector(cp=casted)
            _injector(cp=casted, fault_model="cf")
        finally:
            obs.reset()
        n = len(inj.golden_run.snapshots)
        assert n > 0

        def args(name: str) -> list[dict]:
            return [e["args"] for e in tel.tracer.events if e.get("name") == name]

        assert [a["snapshots"] for a in args("injector:snapshots")] == [n]
        assert [(a["adopted"], a["snapshots"]) for a in args("injector:profile")] == [
            (False, n), (True, n)
        ]

    def test_no_restore_counters_without_snapshots(self, casted, monkeypatch):
        monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", 10**9)
        inj = _injector(cp=casted)
        tel = obs.configure()
        try:
            inj.run_campaign(25, seed=4)
            counters = dict(tel.metrics.counters)
        finally:
            obs.reset()
        assert counters["campaign.snapshot_restores"] == 0
        assert counters["campaign.cycles_skipped"] == 0
        assert counters["campaign.batch_trials"] == 25

    def test_interp_oracle_takes_no_engine_shortcuts(self, casted):
        """No snapshots, restores, convergence exits or chained visits."""
        inj = _oracle(cp=casted)
        assert inj.golden_run.snapshots == []
        tel = obs.configure()
        try:
            res = inj.run_campaign(25, seed=4)
            counters = dict(tel.metrics.counters)
        finally:
            obs.reset()
        assert res.trials == 25
        assert inj.golden_run.dyn_keys == []
        assert inj.interp.chained_visits == 0
        assert counters["campaign.batch_trials"] == 25
        for shortcut in (
            "snapshot_restores", "cycles_skipped", "batch_converged",
            "batch_forwards", "batch_guided_visits",
        ):
            assert counters[f"campaign.{shortcut}"] == 0, shortcut
