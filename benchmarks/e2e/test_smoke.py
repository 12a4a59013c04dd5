"""Smoke test of the end-to-end benchmark: about 1/20 of each workload.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_smoke_report_matches_pinned_digests(tmp_path):
    out = tmp_path / "smoke.json"
    proc = run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["scale"] == "smoke" and set(report["workloads"]) == set(WORKLOADS)
    expected = json.loads((HERE / "expected.json").read_text())["smoke"]
    for name, w in report["workloads"].items():
        assert w["correct"], name
        assert w["digests"] == expected[name], name
        assert set(w["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]} | {"failed_frac"}
        assert w["end_to_end"]["failed_frac"]["median"] == 0
        assert {m["name"] for m in BENCH["per_layer"]} <= set(w["per_layer"])
        # The stage table accounts for jobs x wall of the traced rep.
        stages = w["stages"]
        total = sum(stages["rows"]["measure"].values()) + stages["idle_s"] + stages["unattributed_s"]
        assert abs(total - stages["jobs"] * stages["wall_s"]) < 1e-6, name
    assert report["verify"]["oracle_mismatches"] == 0

    same = run("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout and "unresolved" not in same.stdout


def test_single_workload_result_line():
    for trace, metrics in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
        proc = run("--workload", "campaign-regbit", "--smoke", "--seed", "7",
                   "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in metrics]
        for m in metrics:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
