"""Evaluator caching + metrics + figure/table renderers."""

import shutil
from pathlib import Path

import pytest

import repro
from repro import obs, store
from repro.eval import experiment
from repro.faults.classify import Outcome
from repro.eval.experiment import Evaluator
from repro.eval.metrics import ilp_scaling, slowdown, summarize_scheme_slowdowns
from repro.eval.figures import (
    fig6_7_data,
    fig8_data,
    fig9_data,
    render_fig6_7,
    render_fig8,
    render_fig9,
)
from repro.eval.tables import render_table1, render_table2, render_table3
from repro.faults.injector import FaultInjector, golden_key
from repro.ir.interp import resolve_backend
from repro.ir.printer import print_program
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def ev():
    return Evaluator(seed=99, cache=False)


class TestEvaluator:
    def test_perf_record_fields(self, ev):
        rec = ev.perf("mcf", Scheme.NOED, 2, 1)
        assert rec.cycles > 0
        assert rec.exit_code == 0
        assert rec.compute_cycles == rec.cycles - rec.stall_cycles

    def test_memoization(self, ev):
        a = ev.perf("mcf", Scheme.NOED, 2, 1)
        b = ev.perf("mcf", Scheme.NOED, 2, 1)
        assert a == b

    def test_single_cluster_schemes_ignore_delay(self, ev):
        a = ev.perf("mcf", Scheme.SCED, 2, 1)
        b = ev.perf("mcf", Scheme.SCED, 2, 4)
        assert a.cycles == b.cycles
        assert a.delay == b.delay == 0  # normalized key

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ev1 = Evaluator(seed=5, cache=True)
        rec1 = ev1.perf("mcf", Scheme.NOED, 1, 1)
        assert list(tmp_path.glob("*.json"))
        ev2 = Evaluator(seed=5, cache=True)
        rec2 = ev2.perf("mcf", Scheme.NOED, 1, 1)
        assert rec1 == rec2

    def test_coverage_record(self, ev):
        rec = ev.coverage("mcf", Scheme.NOED, 2, 2, trials=30)
        assert rec.trials == 30
        total = sum(rec.fractions.values())
        assert total == pytest.approx(1.0)
        assert 0.0 <= rec.coverage <= 1.0

    def test_coverage_protected_uses_rate_matching(self, ev):
        rec = ev.coverage("mcf", Scheme.SCED, 2, 2, trials=30)
        assert rec.total_faults > rec.trials  # > 1 flip per trial on average


class TestResultKey:
    """Records are keyed by the digest of the ``repro`` source."""

    @staticmethod
    def _perf_counts(monkeypatch, cache: Path) -> dict[str, int]:
        """Telemetry counters of one disk-cached ``perf`` lookup."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        tel = obs.configure()
        try:
            Evaluator(seed=5, cache=True).perf("mcf", Scheme.NOED, 1, 1)
        finally:
            obs.reset()
        return tel.metrics.counters

    @staticmethod
    def _copy_package(tmp_path) -> Path:
        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def test_unchanged_tree_reads_the_record_from_disk(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        first = self._perf_counts(monkeypatch, cache)
        assert first.get("eval.cache.disk_hits", 0) == 0
        names = [p.name for p in cache.iterdir()]
        assert names == [f"perf_mcf_noed_iw1_d0_{experiment.package_digest()}.json"]
        second = self._perf_counts(monkeypatch, cache)
        assert second.get("eval.cache.disk_hits", 0) == 1
        assert second.get("eval.cache.misses", 0) == 0

    def test_edited_workload_misses_the_record(self, tmp_path, monkeypatch):
        root = self._copy_package(tmp_path)
        assert experiment.source_digest(root) == experiment.package_digest()
        mcf = root / "workloads" / "mcf.py"
        text = mcf.read_text()
        edited = text.replace("var seed = 181;", "var seed = 182;", 1)
        assert edited != text
        mcf.write_text(edited)
        digest = experiment.source_digest(root)
        assert digest != experiment.package_digest()

        cache = tmp_path / "cache"
        self._perf_counts(monkeypatch, cache)
        monkeypatch.setattr(experiment, "package_digest", lambda: digest)
        counts = self._perf_counts(monkeypatch, cache)
        assert counts.get("eval.cache.disk_hits", 0) == 0
        assert counts.get("eval.cache.misses", 0) == 1

    def test_pycache_does_not_change_the_digest(self, tmp_path):
        root = self._copy_package(tmp_path)
        before = experiment.source_digest(root)
        for pycache in (root / "__pycache__", root / "workloads" / "__pycache__"):
            pycache.mkdir()
            (pycache / "stale.py").write_text("x = 1\n")
            (pycache / "mcf.cpython-311.pyc").write_bytes(b"\0" * 16)
        assert experiment.source_digest(root) == before


class TestMetrics:
    def test_slowdown_noed_is_one(self, ev):
        assert slowdown(ev, "mcf", Scheme.NOED, 2, 1) == 1.0

    def test_slowdown_protected_above_one(self, ev):
        assert slowdown(ev, "mcf", Scheme.SCED, 2, 1) > 1.0

    def test_ilp_scaling_starts_at_one(self, ev):
        scaling = ilp_scaling(ev, "mcf", Scheme.NOED)
        assert scaling[0] == 1.0
        assert all(b >= a - 1e-9 for a, b in zip(scaling, scaling[1:]))

    def test_summary(self, ev):
        s = summarize_scheme_slowdowns(
            ev, ["mcf"], Scheme.SCED, issue_widths=(1, 2), delays=(1,)
        )
        assert s.scheme is Scheme.SCED
        assert s.stats.n == 2


def _stored_injector(cp, fault_model: str):
    """The campaign injector the evaluator's coverage path looks up."""
    key = golden_key(cp.program, cp.mem_words, cp.frame_words, resolve_backend())
    return store.get(
        (key, fault_model),
        lambda: FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            fault_model=fault_model,
        ),
    )


class TestGoldenRunDedupe:
    def test_recompiles_share_one_key(self):
        """Separate compiles of the same point get one content key.

        Printed programs embed process-global instruction uids in their
        ``!of`` tags, so the key must canonicalize them — a fresh compile
        of the same source still has to land on the same store entry.
        """
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        source = get_workload("mcf").program
        cp1, cp2 = (
            compile_program(source, Scheme.CASTED, machine) for _ in range(2)
        )
        assert print_program(cp1.program) != print_program(cp2.program)
        keys = {
            golden_key(cp.program, cp.mem_words, cp.frame_words, "compiled")
            for cp in (cp1, cp2)
        }
        assert len(keys) == 1

    def test_shared_injector_campaign_matches_fresh(self):
        cp = Evaluator(seed=3, cache=False).compiled("mcf", Scheme.CASTED, 2, 1)
        injector = _stored_injector(cp, "reg-bit")
        assert _stored_injector(cp, "reg-bit") is injector
        shared = injector.run_campaign(25, 42, jobs=1)
        # The interp oracle cannot adopt the stored golden run (the backend
        # is part of its content key), so this side is really fresh.
        oracle = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            fault_model="reg-bit", backend="interp",
        )
        assert oracle.golden is not injector.golden
        fresh = oracle.run_campaign(25, 42, jobs=1)
        assert shared.counts == fresh.counts
        assert shared.total_faults_injected == fresh.total_faults_injected
        assert shared.detection_latency_sum == fresh.detection_latency_sum

    def test_different_fault_models_do_not_share(self):
        cp = Evaluator(seed=4, cache=False).compiled("mcf", Scheme.CASTED, 2, 1)
        a = _stored_injector(cp, "reg-bit")
        b = _stored_injector(cp, "cf")
        assert a is not b
        # ...but they share one golden run.
        assert a.golden is b.golden


class TestArtifactStore:
    def test_point_compiles_once_per_process(self, monkeypatch):
        """Two evaluators, and a perf followed by a coverage of the same
        point, share one compile."""
        compiled = []
        real = experiment.compile_program

        def counting(source, scheme, machine):
            compiled.append((scheme, machine))
            return real(source, scheme, machine)

        monkeypatch.setattr(experiment, "compile_program", counting)
        Evaluator(seed=1, cache=False).perf("mcf", Scheme.CASTED, 3, 2)
        ev = Evaluator(seed=2, cache=False)
        ev.perf("mcf", Scheme.CASTED, 3, 2)
        ev.coverage("mcf", Scheme.CASTED, 3, 2, trials=5)
        assert [s for s, _ in compiled].count(Scheme.CASTED) == 1

    def test_coverage_counts_golden_cache_lookups(self):
        tel = obs.configure()
        try:
            for seed in (5, 6):
                ev = Evaluator(seed=seed, cache=False)
                for _ in range(2):  # the repeat is a record hit: no lookup
                    ev.coverage("mcf", Scheme.SCED, 2, 1, trials=5)
        finally:
            obs.reset()
        counters = tel.metrics.snapshot()["counters"]
        assert counters["eval.golden_cache.misses"] == 1
        assert counters["eval.golden_cache.hits"] == 1


class TestRenderers:
    def test_fig6_7(self, ev):
        data = fig6_7_data(ev, ["mcf"], issue_widths=(1, 2), delays=(1,))
        text = render_fig6_7(data, issue_widths=(1, 2))
        assert "mcf" in text and "d1 sced" in text and "iw2" in text

    def test_fig8(self, ev):
        data = fig8_data(ev, ["mcf"])
        text = render_fig8(data)
        assert "mcf noed" in text and "mcf casted" in text

    def test_fig9(self, ev):
        data = fig9_data(ev, ["mcf"], trials=20)
        text = render_fig9(data)
        assert Outcome.BENIGN.value in text and Outcome.SDC.value in text
        assert "%" in text

    def test_table1(self):
        text = render_table1()
        assert "L1" in text and "16KB" in text and "150" in text

    def test_table2(self):
        text = render_table2()
        for name in ("cjpeg", "181.mcf", "197.parser"):
            assert name in text

    def test_table3(self):
        text = render_table3()
        assert "SWIFT" in text and "CASTED" in text and "adaptive" in text
