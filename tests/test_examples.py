"""The example scripts must run clean end to end (they are documentation)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "CASTED" in out and "slowdown" in out
        assert "identical output" in out

    def test_ir_pipeline_tour(self, capsys):
        out = run_example("ir_pipeline_tour.py", [], capsys)
        assert "after replication" in out
        assert "after check emission" in out
        assert "final loop schedule" in out

    def test_custom_workload(self, capsys):
        out = run_example("custom_workload.py", [], capsys)
        assert "fault campaign" in out
        assert "coverage" in out

    @pytest.mark.heavy
    def test_adaptive_placement(self, capsys):
        out = run_example("adaptive_placement.py", ["mcf"], capsys)
        assert "best fixed" in out
        assert "CASTED" in out

    @pytest.mark.heavy
    def test_fault_injection_campaign(self, capsys):
        out = run_example("fault_injection_campaign.py", ["mcf", "60"], capsys)
        assert "detected" in out
