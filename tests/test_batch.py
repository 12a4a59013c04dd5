"""Batched fault-trial execution: planner units and engine/oracle parity.

The compiled backend's campaign engine (``repro.sim.batch``) restructures
*how* trials execute — snapshot-bucketed groups, one shared golden-prefix
advance per group, trace-guided suffixes, golden re-convergence early
exits — while promising bit-identical :class:`CampaignResult`s.  These
tests hold it to that promise against the interp backend, which replays
every trial from reset and serves as the oracle, across the full workload
x scheme matrix and every fault model, and exercise the pieces the promise
rests on: group planning never reorders RNG consumption, checkpoints move
between the oracle and the engine mid-campaign, and the trace guide is a
pure engine swap (disabling it changes nothing but speed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import MIN_TASK_SECONDS, FaultInjector
from repro.faults.models import fault_model_names
from repro.ir.interp import FaultSpec
from repro.machine.config import MachineConfig
from repro.parallel import plan_task_groups
from repro.pipeline import Scheme, compile_program
from repro.sim.batch import TrialPlan, plan_groups
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=1)
SEED = 2013
TRIALS = 25  # one shard: fastest config that still exercises grouping

_COMPILED: dict[tuple[str, Scheme], object] = {}


def _compiled(workload: str, scheme: Scheme):
    key = (workload, scheme)
    if key not in _COMPILED:
        _COMPILED[key] = compile_program(
            get_workload(workload).program, scheme, MACHINE
        )
    return _COMPILED[key]


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
    )


def _plan(index: int, dyn: int) -> TrialPlan:
    return TrialPlan(
        index=index,
        faults=(FaultSpec(dyn_index=dyn, kind="reg", bit=0),),
    )


class TestPlanGroups:
    def test_buckets_by_nearest_snapshot_at_or_before(self):
        plans = [_plan(0, 5), _plan(1, 150), _plan(2, 99), _plan(3, 100)]
        groups = plan_groups(plans, snap_keys=[0, 100, 200])
        assert [g.snap_index for g in groups] == [0, 1]
        assert [t.index for t in groups[0].trials] == [0, 2]
        assert [t.index for t in groups[1].trials] == [3, 1]

    def test_faults_before_first_snapshot_use_reset_bucket(self):
        groups = plan_groups([_plan(0, 3)], snap_keys=[10, 20])
        assert [g.snap_index for g in groups] == [-1]

    def test_no_snapshots_is_one_reset_bucket(self):
        plans = [_plan(i, 100 - i) for i in range(4)]
        groups = plan_groups(plans, snap_keys=[])
        assert [g.snap_index for g in groups] == [-1]
        # Trials sorted by fault position for a strictly forward advance.
        assert [t.first_dyn for t in groups[0].trials] == [97, 98, 99, 100]

    def test_tie_on_fault_position_breaks_by_trial_index(self):
        plans = [_plan(3, 50), _plan(1, 50), _plan(2, 50)]
        groups = plan_groups(plans, snap_keys=[0])
        assert [t.index for t in groups[0].trials] == [1, 2, 3]

    def test_grouping_is_a_pure_reordering(self):
        plans = [_plan(i, dyn) for i, dyn in enumerate([7, 3, 250, 99, 180])]
        groups = plan_groups(plans, snap_keys=[0, 100, 200])
        regrouped = sorted(
            (t for g in groups for t in g.trials), key=lambda t: t.index
        )
        assert regrouped == plans


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
    cp = _compiled("parser", Scheme.CASTED)
    oracle = _injector(cp, backend="interp")
    engine = _injector(cp, backend="compiled")
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        faults = (engine.sample_fault(rng),)
        assert engine.run_trial(faults) == oracle.run_trial(faults)
    assert engine._batch_runner is not None
    assert oracle._batch_runner is None


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
        interp oracle's scalar replay resumes on the compiled engine."""
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
    def test_trace_guide_is_result_invariant(self):
        cp = _compiled("parser", Scheme.CASTED)
        guided = _injector(cp, backend="compiled")
        unguided = _injector(cp, backend="compiled")
        unguided.batch_runner()._guide = None
        r1 = guided.run_campaign(50, SEED)
        r2 = unguided.run_campaign(50, SEED)
        assert _signature(r1) == _signature(r2)
        assert guided.batch_runner()._guide.visits > 0

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
