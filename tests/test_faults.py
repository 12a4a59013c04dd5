"""Fault model, injector sampling, classification, and coverage properties."""

import pytest

from repro.faults.classify import Outcome, classify
from repro.faults.injector import CampaignResult, FaultInjector
from repro.ir.interp import ExitKind, FaultSpec, RunResult
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import make_rng
from repro.workloads import get_workload
from tests.conftest import build_loop_program


def make_result(kind, output=(1,), code=0):
    return RunResult(kind, code if kind is ExitKind.OK else None, output, 100)


class TestClassify:
    GOLDEN = make_result(ExitKind.OK, (1, 2), 0)

    def test_benign(self):
        assert classify(self.GOLDEN, make_result(ExitKind.OK, (1, 2), 0)) is Outcome.BENIGN

    def test_sdc_wrong_output(self):
        assert classify(self.GOLDEN, make_result(ExitKind.OK, (1, 3), 0)) is Outcome.SDC

    def test_sdc_wrong_exit_code(self):
        assert classify(self.GOLDEN, make_result(ExitKind.OK, (1, 2), 1)) is Outcome.SDC

    def test_sdc_truncated_output(self):
        assert classify(self.GOLDEN, make_result(ExitKind.OK, (1,), 0)) is Outcome.SDC

    def test_detected(self):
        assert classify(self.GOLDEN, make_result(ExitKind.DETECTED)) is Outcome.DETECTED

    def test_exception(self):
        assert classify(self.GOLDEN, make_result(ExitKind.EXCEPTION)) is Outcome.EXCEPTION

    def test_timeout(self):
        assert classify(self.GOLDEN, make_result(ExitKind.TIMEOUT)) is Outcome.TIMEOUT


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(-1, 0)
        with pytest.raises(ValueError):
            FaultSpec(0, 64)
        FaultSpec(0, 63)


@pytest.fixture(scope="module")
def loop_injector():
    return FaultInjector(build_loop_program())


class TestSampling:
    def test_sampled_faults_hit_dest_instructions(self, loop_injector):
        rng = make_rng(42)
        prog = build_loop_program()
        # reconstruct the instruction at each sampled dyn index and check it
        # writes a register
        run = loop_injector.golden_run
        flat = []
        for label in (run.labels[v] for v in run.visits):
            flat.extend(prog.main.block(label).instructions)
        for _ in range(100):
            spec = loop_injector.sample_fault(rng)
            assert flat[spec.dyn_index].dests, spec

    def test_sampling_deterministic(self, loop_injector):
        a = [loop_injector.sample_fault(make_rng(7)).dyn_index for _ in range(5)]
        b = [loop_injector.sample_fault(make_rng(7)).dyn_index for _ in range(5)]
        assert a == b

    def test_sampling_spreads_over_execution(self, loop_injector):
        rng = make_rng(3)
        idx = {loop_injector.sample_fault(rng).dyn_index for _ in range(200)}
        assert len(idx) > 20
        assert max(idx) > loop_injector.golden.dyn_instructions // 2

    def test_rate_matching(self, loop_injector):
        rng = make_rng(5)
        dyn = loop_injector.golden.dyn_instructions
        reference = dyn // 3  # pretend the original binary was 3x smaller
        counts = [
            len(loop_injector.faults_for_trial(rng, reference)) for _ in range(300)
        ]
        assert min(counts) >= 1
        mean = sum(counts) / len(counts)
        assert 2.0 < mean < 4.5  # expectation ~3

    def test_single_fault_without_reference(self, loop_injector):
        rng = make_rng(5)
        assert len(loop_injector.faults_for_trial(rng, None)) == 1


class TestCampaigns:
    def test_campaign_deterministic(self, loop_injector):
        a = loop_injector.run_campaign(trials=50, seed=11)
        b = loop_injector.run_campaign(trials=50, seed=11)
        assert a.counts == b.counts

    def test_campaign_counts_sum(self, loop_injector):
        res = loop_injector.run_campaign(trials=40, seed=1)
        assert sum(res.counts.values()) == 40
        total = sum(res.fraction(o) for o in Outcome)
        assert total == pytest.approx(1.0)

    def test_unprotected_program_has_sdc_but_no_detection(self, loop_injector):
        res = loop_injector.run_campaign(trials=150, seed=2)
        assert res.fraction(Outcome.DETECTED) == 0.0
        assert res.fraction(Outcome.SDC) > 0.05

    def test_merged(self, loop_injector):
        a = loop_injector.run_campaign(trials=20, seed=1)
        b = loop_injector.run_campaign(trials=30, seed=2)
        m = a.merged(b)
        assert m.trials == 50
        assert sum(m.counts.values()) == 50
        c = CampaignResult(trials=4, golden_dyn=100, detection_dyn_sum=70)
        d = CampaignResult(trials=6, golden_dyn=100, detection_dyn_sum=130)
        cd = c.merged(d)
        assert cd.detection_dyn_sum == 200
        assert cd.reexecution_overhead == 200 / (10 * 100)


class TestRestartView:
    """Restart-on-detection, derived from an ordinary campaign."""

    @pytest.fixture(scope="class")
    def campaign(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        prog = get_workload("parser").program
        noed = compile_program(prog, Scheme.NOED, machine)
        ref = VLIWExecutor(noed).run().dyn_instructions
        cp = compile_program(prog, Scheme.CASTED, machine)
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        return injector.run_campaign(trials=100, seed=21, reference_dyn=ref)

    def test_most_trials_complete_correctly(self, campaign):
        # benign + detected (restarted) dominates once detection restarts
        assert campaign.correct_completion > 0.5
        assert campaign.correct_completion == (
            campaign.fraction(Outcome.BENIGN) + campaign.fraction(Outcome.DETECTED)
        )

    def test_overhead_accounted(self, campaign):
        assert campaign.detection_dyn_sum > 0
        assert 0.0 < campaign.reexecution_overhead < 3.0
        assert campaign.reexecution_overhead == campaign.detection_dyn_sum / (
            campaign.trials * campaign.golden_dyn
        )
        assert CampaignResult(trials=0, golden_dyn=100).reexecution_overhead == 0.0
        assert CampaignResult(trials=5, golden_dyn=0).reexecution_overhead == 0.0


class TestProtectedCoverage:
    @pytest.fixture(scope="class")
    def campaign_pair(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        prog = get_workload("parser").program
        noed = compile_program(prog, Scheme.NOED, machine)
        sced = compile_program(prog, Scheme.SCED, machine)
        inj_noed = FaultInjector(
            noed.program, mem_words=noed.mem_words, frame_words=noed.frame_words
        )
        inj_sced = FaultInjector(
            sced.program, mem_words=sced.mem_words, frame_words=sced.frame_words
        )
        ref = inj_noed.golden.dyn_instructions
        return (
            inj_noed.run_campaign(trials=120, seed=3),
            inj_sced.run_campaign(trials=120, seed=3, reference_dyn=ref),
        )

    def test_detection_dramatically_reduces_sdc(self, campaign_pair):
        noed, sced = campaign_pair
        assert sced.fraction(Outcome.SDC) < noed.fraction(Outcome.SDC) / 2

    def test_protected_code_detects(self, campaign_pair):
        _, sced = campaign_pair
        assert sced.fraction(Outcome.DETECTED) > 0.3

    def test_coverage_improves(self, campaign_pair):
        noed, sced = campaign_pair
        assert sced.coverage > noed.coverage

    def test_golden_run_unaffected(self, campaign_pair):
        # campaigns must not corrupt later runs: re-profile matches
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        prog = get_workload("parser").program
        noed = compile_program(prog, Scheme.NOED, machine)
        inj = FaultInjector(
            noed.program, mem_words=noed.mem_words, frame_words=noed.frame_words
        )
        golden1 = inj.golden
        inj.run_campaign(trials=10, seed=9)
        golden2 = inj.interp.run()
        assert golden2.output == golden1.output


class TestCaughtMetric:
    def test_caught_combines_detected_and_exceptions(self, loop_injector):
        res = loop_injector.run_campaign(trials=60, seed=4)
        assert res.caught == pytest.approx(
            res.fraction(Outcome.DETECTED) + res.fraction(Outcome.EXCEPTION)
        )
        assert 0.0 <= res.caught <= 1.0
