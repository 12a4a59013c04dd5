"""The fault-trial path: compiled/oracle parity and the golden run store.

On the compiled backend every trial resumes from its nearest golden
snapshot, runs fault-free stretches on the chained fast loop, fast-forwards
over golden-equal gaps between faults and exits early at golden
re-convergence — while promising bit-identical :class:`CampaignResult`s.
These tests hold it to that promise against the interp backend, which
takes the same path with none of those shortcuts (every trial replays from
reset) and serves as the oracle, across the full workload x scheme matrix
and every fault model, and exercise the pieces the promise rests on:
checkpoints move between the oracle and the compiled backend
mid-campaign, watchdog and trap trials end exactly as on the oracle, a
fast-forward lands before the next fault, and chained dispatch is a pure
speed knob (disabling it changes nothing but speed).
"""

from __future__ import annotations

import pickle
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

from repro import obs, store
from repro.faults import injector as injector_mod
from repro.faults.injector import (
    MIN_TASK_SECONDS,
    SNAPSHOT_INTERVAL,
    SNAPSHOT_KEYFRAME_EVERY,
    FaultInjector,
)
from repro.faults.models import fault_model_names
from repro.ir.builder import IRBuilder
from repro.ir.interp import ExitKind, FaultSpec
from repro.ir.program import GlobalArray, Program
from repro.machine.config import MachineConfig
from repro.parallel import plan_task_groups
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import make_rng
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=1)
SEED = 2013
TRIALS = 25  # one shard

_COMPILED: dict[tuple[str, Scheme], object] = {}


def _compiled(workload: str, scheme: Scheme):
    key = (workload, scheme)
    if key not in _COMPILED:
        _COMPILED[key] = compile_program(
            get_workload(workload).program, scheme, MACHINE
        )
    return _COMPILED[key]


class _Blob:
    """A stand-in store artifact of a given size."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


def _injector(cp, **kwargs) -> FaultInjector:
    return FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        **kwargs,
    )


def _signature(res) -> tuple:
    return (
        res.counts,
        res.trials,
        res.total_faults_injected,
        res.detection_latency_sum,
        res.detections_timed,
        res.detection_dyn_sum,
    )


class TestPlanTaskGroups:
    def test_groups_cover_all_items_in_order(self):
        groups = plan_task_groups(10, 0.01, jobs=2, min_task_seconds=0.25)
        assert [i for g in groups for i in g] == list(range(10))

    def test_cheap_items_are_grouped_to_min_task_seconds(self):
        # 10ms items, 250ms floor -> 25 items per task.
        groups = plan_task_groups(100, 0.010, jobs=2, min_task_seconds=0.25)
        assert len(groups[0]) == 25

    def test_grouping_capped_so_every_worker_gets_work(self):
        # The floor would ask for one giant task; the jobs cap splits it.
        groups = plan_task_groups(8, 0.001, jobs=4, min_task_seconds=10.0)
        assert len(groups) == 4
        assert max(len(g) for g in groups) == 2

    def test_expensive_items_stay_singleton_tasks(self):
        groups = plan_task_groups(5, 3.0, jobs=2, min_task_seconds=0.25)
        assert [len(g) for g in groups] == [1] * 5

    def test_empty_and_invalid(self):
        assert plan_task_groups(0, 1.0, jobs=2) == []
        with pytest.raises(ValueError):
            plan_task_groups(-1, 1.0, jobs=2)


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize(
    "scheme", [Scheme.NOED, Scheme.SCED, Scheme.DCED, Scheme.CASTED]
)
class TestThreeWayParityMatrix:
    """Compiled engine == interp oracle on every workload x scheme cell."""

    def test_three_way_parity(self, workload, scheme):
        cp = _compiled(workload, scheme)
        oracle = _injector(cp, backend="interp").run_campaign(TRIALS, SEED)
        engine = _injector(cp, backend="compiled").run_campaign(TRIALS, SEED)
        assert _signature(engine) == _signature(oracle)


@pytest.mark.parametrize("model", fault_model_names())
def test_three_way_parity_per_fault_model(model):
    cp = _compiled("parser", Scheme.CASTED)
    oracle, engine = (
        _injector(cp, backend=backend, fault_model=model).run_campaign(30, SEED)
        for backend in ("interp", "compiled")
    )
    assert _signature(engine) == _signature(oracle)


def test_run_trial_is_a_one_trial_group_matching_the_oracle():
    """A single trial takes the campaign's path: it resumes from a
    snapshot on the compiled backend, from reset on the oracle."""
    cp = _compiled("parser", Scheme.CASTED)
    oracle = _injector(cp, backend="interp")
    engine = _injector(cp, backend="compiled")
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        faults = (engine.sample_fault(rng),)
        assert engine.run_trial(faults) == oracle.run_trial(faults)
    assert engine.golden_run.dyn_keys
    assert oracle.golden_run.dyn_keys == []
    assert engine.interp.chained_visits > 0
    assert oracle.interp.chained_visits == 0


def _trial_results(injector: FaultInjector, trials: list) -> tuple:
    """Per-trial :class:`RunResult`s from ``injector``, and the interpreter's
    (convergence exits, fast-forwards) taken meanwhile."""
    interp = injector.interp
    converged, forwards = interp.converged, interp.forwards
    results = injector._execute(trials)
    return results, (interp.converged - converged, interp.forwards - forwards)


def test_watchdog_and_trap_trials_match_the_oracle():
    """Timed-out and trapping trials end exactly as on the oracle.

    mcf/CASTED at iw2/d2 under rate-matched ``cf`` faults: the first
    25-trial shard of seed 109 holds timeouts and a trap, so the chained
    loop's watchdog edge (``budget - maxlen``) and trap accounting run.
    """
    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    program = get_workload("mcf").program
    cp = compile_program(program, Scheme.CASTED, machine)
    reference = VLIWExecutor(
        compile_program(program, Scheme.NOED, machine)
    ).run().dyn_instructions
    engine = _injector(cp, backend="compiled", fault_model="cf")
    oracle = _injector(cp, backend="interp", fault_model="cf")
    rng = make_rng(109, "fault-campaign", 0)
    trials = [engine.faults_for_trial(rng, reference) for _ in range(TRIALS)]
    got, _ = _trial_results(engine, trials)
    want, _ = _trial_results(oracle, trials)
    assert got == want
    kinds = [result.kind for result in want]
    assert ExitKind.TIMEOUT in kinds
    assert ExitKind.EXCEPTION in kinds


def _masked_fault_loop(n: int = 300) -> Program:
    """A loop whose first write is dead: the next instruction overwrites it."""
    b = IRBuilder("main")
    f = b.function
    b.add_and_enter("entry")
    i, acc, step = f.new_gp(), f.new_gp(), f.new_gp()
    b.movi_to(i, 0)
    b.movi_to(acc, 0)
    b.jmp("loop")
    b.add_and_enter("loop")
    b.movi_to(step, 99)  # position 0: a fault here is masked
    b.movi_to(step, 1)
    addr = b.add(i, 1)
    b.store(addr, i)
    acc2 = b.add(acc, b.load(addr))
    b.mov_to(acc, acc2)  # position 6: a fault here reaches the output
    b.mov_to(i, b.add(i, step))
    b.brt(b.cmplt(i, n), "loop", "exit")
    b.add_and_enter("exit")
    b.out(acc)
    b.halt(0)
    return Program(f, [GlobalArray("buf", n)])


@pytest.fixture
def loop_snapshots(monkeypatch):
    """Snapshot :func:`_masked_fault_loop`'s 3,000-instruction golden run
    every 5 iterations, so trials cross several snapshots between visits."""
    monkeypatch.setattr(injector_mod, "SNAPSHOT_INTERVAL", 50)


@pytest.mark.usefixtures("loop_snapshots")
def test_fast_forward_between_pending_faults_matches_the_oracle():
    """A masked fault, then a live one several snapshot intervals later:
    the trial fast-forwards over the golden-equal gap between them and
    still applies the second fault exactly where the oracle does."""
    program = _masked_fault_loop()
    engine = FaultInjector(program, backend="compiled")
    oracle = FaultInjector(program, backend="interp")
    keys = engine.golden_run.dyn_keys
    # Visit 0 is the entry block; visit v >= 1 is loop iteration v - 1.
    masked = engine.golden_run.visit_start(4)
    live = engine.golden_run.visit_start(40) + 6
    assert np.searchsorted(keys, live, "right") - np.searchsorted(
        keys, masked, "right"
    ) >= 2
    trials = [
        (FaultSpec(dyn_index=masked, bit=3), FaultSpec(dyn_index=live, bit=5))
    ]
    got, (_, forwards) = _trial_results(engine, trials)
    want, _ = _trial_results(oracle, trials)
    assert got == want
    assert want[0].output != engine.golden.output
    assert forwards >= 1


def _snapshot_state(snapshots) -> list[tuple]:
    """Deep copies of each snapshot's registers, keyframe and deltas."""
    return [
        (
            s.regs[:], s.base[:],
            [(addrs.tolist(), vals) for addrs, vals in s.deltas],
            s.output,
        )
        for s in snapshots
    ]


@pytest.mark.usefixtures("loop_snapshots")
def test_golden_snapshots_survive_convergence_exits_and_fast_forwards():
    """Trials reference the golden snapshots and never write them.

    The masked-then-live trial fast-forwards between its faults and the
    masked-only trial takes a convergence exit; afterwards every snapshot's
    registers, keyframe and deltas still hold exactly what was recorded, in
    the compact form: list registers and keyframes, ``array('I')`` delta
    addresses with tuple values.
    """
    program = _masked_fault_loop()
    engine = FaultInjector(program, backend="compiled")
    recorded = _snapshot_state(engine.golden_run.snapshots)
    assert any(s.deltas for s in engine.golden_run.snapshots)
    masked = engine.golden_run.visit_start(4)
    live = engine.golden_run.visit_start(40) + 6
    trials = [
        (FaultSpec(dyn_index=masked, bit=3), FaultSpec(dyn_index=live, bit=5)),
        (FaultSpec(dyn_index=masked, bit=3),),
    ]
    _, (converged, forwards) = _trial_results(engine, trials)
    assert forwards >= 1
    assert converged >= 1
    assert _snapshot_state(engine.golden_run.snapshots) == recorded
    for s in engine.golden_run.snapshots:
        assert type(s.regs) is list and type(s.base) is list
        for addrs, vals in s.deltas:
            assert type(addrs) is array and addrs.typecode == "I"
            assert type(vals) is tuple


class TestGoldenRunStore:
    """One golden run per program, held once per process."""

    @pytest.mark.usefixtures("loop_snapshots")
    def test_convergence_index_references_the_snapshots(self):
        """Trials converge against the golden run itself, which copies no
        snapshot: its one key list matches the snapshots, every injector
        of the program shares it, and once the interpreter's golden-memory
        cursor exists, trials that take convergence exits return the golden
        result itself and allocate less than a single keyframe's memory
        list."""
        program = _masked_fault_loop()
        inj = FaultInjector(program, backend="compiled")
        run = inj.golden_run
        assert run.snapshots
        assert run.dyn_keys == [s.dyn for s in run.snapshots]
        masked = (FaultSpec(dyn_index=run.visit_start(4), bit=3),)
        inj._execute([masked])  # sizes the cursor
        converged = inj.interp.converged
        tracemalloc.start()
        try:
            results = inj._execute([masked] * 10)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inj.interp.converged - converged == 10
        assert all(result is run.golden for result in results)
        assert retained < sys.getsizeof(run.snapshots[0].base)
        # One golden run, shared by every injector of the program.
        other = FaultInjector(program, backend="compiled", fault_model="mem")
        assert other.golden_run is run

    def test_fault_models_share_one_golden_run(self):
        cp = _compiled("mcf", Scheme.CASTED)
        injectors = [
            _injector(cp, backend="compiled", fault_model=m)
            for m in ("reg-bit", "mem", "cf")
        ]
        first = injectors[0]
        assert first.golden_run.snapshots
        for other in injectors[1:]:
            assert other.golden is first.golden
            assert other.golden_run.snapshots is first.golden_run.snapshots
            assert other.interp is not first.interp

    def test_different_text_geometry_or_backend_does_not_share(self):
        cp = _compiled("mcf", Scheme.CASTED)
        base = _injector(cp, backend="compiled")
        assert _injector(cp, backend="compiled", fault_model="mem").golden is (
            base.golden
        )
        others = [
            _injector(_compiled("mcf", Scheme.NOED), backend="compiled"),
            FaultInjector(
                cp.program, mem_words=cp.mem_words + 64,
                frame_words=cp.frame_words, backend="compiled",
            ),
            FaultInjector(
                cp.program, mem_words=cp.mem_words,
                frame_words=cp.frame_words + 1, backend="compiled",
            ),
            _injector(cp, backend="interp"),
        ]
        for other in others:
            assert other.golden is not base.golden
            assert other._golden_key != base._golden_key

    def test_resident_bytes_never_exceed_the_bound(self):
        def resident() -> int:
            return sum(size for _, size in store._pinned.values())

        cp = _compiled("mcf", Scheme.CASTED)
        lookups = 0
        for round_ in range(3):
            for model in ("reg-bit", "cf"):
                # Each build also looks its golden run up in the store.
                store.get(
                    (round_, model),
                    lambda: _injector(cp, backend="compiled", fault_model=model),
                )
                lookups += 2
                assert resident() <= store.MAX_BYTES
            store.get(("filler", round_), lambda: _Blob(store.MAX_BYTES // 2))
            lookups += 1
            assert resident() <= store.MAX_BYTES
        oversized = store.get("oversized", lambda: _Blob(store.MAX_BYTES + 1))
        assert resident() <= store.MAX_BYTES
        assert store.get("oversized", lambda: _Blob(0)) is oversized
        assert len(store._pinned) < lookups  # the bound did evict

    def test_unpinned_golden_run_is_shared_while_held(self):
        """An injector that outlives its golden run's pin still shares the
        run with a new injector of another fault model."""
        cp = _compiled("mcf", Scheme.CASTED)
        first = _injector(cp, backend="compiled", fault_model="reg-bit")
        store.get("filler", lambda: _Blob(store.MAX_BYTES))
        assert first._golden_key not in store._pinned
        tel = obs.configure(keep_events=True)
        try:
            second = _injector(cp, backend="compiled", fault_model="cf")
        finally:
            obs.reset()
        assert second.golden is first.golden
        assert second.golden_run.snapshots is first.golden_run.snapshots
        profiles = [
            e for e in tel.tracer.events if e.get("name") == "injector:profile"
        ]
        assert [e["args"]["adopted"] for e in profiles] == [True]
        assert not any(
            e.get("name") == "injector:snapshots" for e in tel.tracer.events
        )

    @pytest.mark.usefixtures("loop_snapshots")
    def test_shipped_profile_adopts_the_held_run(self):
        """A worker spec's rebuild adopts the golden run its process
        already holds, as a forked worker adopts its parent's, and never
        executes the program again."""
        program = _masked_fault_loop()
        parent = FaultInjector(program, backend="compiled", fault_model="mem")
        rebuilt = parent.worker_spec().build()
        assert rebuilt is not parent
        assert rebuilt.golden is parent.golden
        assert rebuilt.golden_run.snapshots is parent.golden_run.snapshots


def _full_recording(inj: FaultInjector) -> list:
    """Every golden snapshot as a full memory list, as recorded before
    snapshots were stored as keyframes and deltas."""
    full: list = []
    inj.interp.run(snapshot_every=SNAPSHOT_INTERVAL, snapshot_sink=full.append)
    return full


class TestCompactSnapshots:
    """Keyframe-and-delta snapshots hold exactly the full-list state."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_every_snapshot_restores_the_full_recording(self, workload):
        for scheme in (Scheme.NOED, Scheme.CASTED):
            inj = _injector(_compiled(workload, scheme), backend="compiled")
            interp = inj.interp
            snaps = inj.golden_run.snapshots
            full = _full_recording(inj)
            assert [(s.dyn, s.label) for s in snaps] == [
                (f.dyn, f.label) for f in full
            ]
            for j, (snap, want) in enumerate(zip(snaps, full)):
                assert len(snap.deltas) == j % SNAPSHOT_KEYFRAME_EVERY
                assert snap.base is snaps[j - len(snap.deltas)].base
                interp.restore(snap)
                assert interp._M == want.base, (scheme, j)
                assert interp._R == want.regs
                assert interp._O == list(want.output)
            # The convergence cursor reaches the same memory forwards,
            # backwards and across groups.
            order = [*range(len(snaps)), *reversed(range(len(snaps)))]
            for j in order + order[:: SNAPSHOT_KEYFRAME_EVERY - 1]:
                got = interp._golden_mem(snaps[j].base, snaps[j].deltas)
                assert got == full[j].base, (scheme, j)

    def test_snapshots_take_a_quarter_of_the_full_lists(self):
        """parser/CASTED's compact snapshots allocate at most 25% of the
        bytes the same snapshots take as full memory lists."""
        inj = _injector(_compiled("parser", Scheme.CASTED), backend="compiled")

        def traced(record) -> int:
            tracemalloc.start()
            try:
                kept = record()
                assert kept
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        def record_compact() -> list:
            snapshots: list = []
            inj.interp.run(
                snapshot_every=SNAPSHOT_INTERVAL,
                snapshot_sink=injector_mod._snapshot_recorder(snapshots),
            )
            return snapshots

        full = traced(lambda: _full_recording(inj))
        compact = traced(record_compact)
        assert compact <= 0.25 * full

    def test_shipped_spec_restores_identical_state(self):
        """A worker whose store is empty executes the golden run itself and
        gets the parent's snapshots, per-visit tables and shard results:
        the golden run is deterministic."""
        parent = _injector(_compiled("parser", Scheme.CASTED), backend="compiled")
        spec = pickle.loads(pickle.dumps(parent.worker_spec()))
        store._held.clear()
        store._pinned.clear()
        tel = obs.configure(keep_events=True)
        try:
            worker = spec.build()
        finally:
            obs.reset()
        profiles = [
            e for e in tel.tracer.events if e.get("name") == "injector:profile"
        ]
        assert [e["args"]["adopted"] for e in profiles] == [False]
        assert worker.golden_run is not parent.golden_run
        assert worker._golden_key == parent._golden_key
        got_run, want_run = worker.golden_run, parent.golden_run
        assert len(got_run.snapshots) == len(want_run.snapshots)
        for j, (got, want) in enumerate(zip(got_run.snapshots, want_run.snapshots)):
            assert (got.dyn, got.label, got.regs, got.base, got.output) == (
                want.dyn, want.label, want.regs, want.base, want.output
            )
            assert [(a.tolist(), v) for a, v in got.deltas] == [
                (a.tolist(), v) for a, v in want.deltas
            ]
            assert got.base is got_run.snapshots[j - len(got.deltas)].base
            worker.interp.restore(got)
            parent.interp.restore(want)
            assert worker.interp._R == parent.interp._R
            assert worker.interp._M == parent.interp._M
            assert worker.interp._O == parent.interp._O
        assert got_run.dyn_keys == want_run.dyn_keys
        assert got_run.labels == want_run.labels
        assert np.array_equal(got_run.visits, want_run.visits)
        assert np.array_equal(got_run.visit_dyn_cum, want_run.visit_dyn_cum)
        assert np.array_equal(got_run.visit_dest_cum, want_run.visit_dest_cum)
        assert worker.run_shard(0, TRIALS, SEED) == parent.run_shard(
            0, TRIALS, SEED
        )


class TestCheckpointResumeMidBatch:
    def test_resume_mid_campaign_is_bit_identical(self, tmp_path):
        cp = _compiled("parser", Scheme.CASTED)
        full = _injector(cp, backend="compiled").run_campaign(75, SEED)

        ckpt = tmp_path / "campaign.ckpt"
        _injector(cp, backend="compiled").run_campaign(
            75, SEED, checkpoint=str(ckpt)
        )
        # Simulate an interruption after the first completed shard: keep
        # the header line and one shard record.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")

        resumed = _injector(cp, backend="compiled").run_campaign(
            75, SEED, checkpoint=str(ckpt), resume=True
        )
        assert _signature(resumed) == _signature(full)

    def test_scalar_checkpoint_resumes_into_batched_run(self, tmp_path):
        """Shards are the checkpoint unit, so a checkpoint written by the
        interp oracle's replay from reset resumes on the compiled backend."""
        cp = _compiled("parser", Scheme.CASTED)
        full = _injector(cp, backend="compiled").run_campaign(75, SEED)

        ckpt = tmp_path / "campaign.ckpt"
        _injector(cp, backend="interp").run_campaign(
            75, SEED, checkpoint=str(ckpt)
        )
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")

        resumed = _injector(cp, backend="compiled").run_campaign(
            75, SEED, checkpoint=str(ckpt), resume=True
        )
        assert _signature(resumed) == _signature(full)


class TestEngineKnobs:
    def test_chained_dispatch_is_result_invariant(self):
        cp = _compiled("parser", Scheme.CASTED)
        chained = _injector(cp, backend="compiled")
        unchained = _injector(cp, backend="compiled")
        unchained.interp.chain = None
        r1 = chained.run_campaign(50, SEED)
        r2 = unchained.run_campaign(50, SEED)
        assert _signature(r1) == _signature(r2)
        assert chained.interp.chained_visits > 0
        assert unchained.interp.chained_visits == 0

    def test_batched_pool_campaign_matches_serial(self):
        cp = _compiled("parser", Scheme.CASTED)
        serial = _injector(cp, backend="interp").run_campaign(
            75, SEED, jobs=1
        )
        pooled = _injector(cp, backend="compiled").run_campaign(
            75, SEED, jobs=2
        )
        assert _signature(pooled) == _signature(serial)

    def test_min_task_seconds_constant_exported(self):
        assert MIN_TASK_SECONDS > 0
