"""Shared benchmark fixtures.

The benchmarks regenerate the paper's tables/figures; results are cached in
``.repro_cache/`` under keys that embed a digest of the ``repro`` source, so
an edit to the code or a workload re-simulates by itself (deleting the
directory only reclaims space).  The rendered text is written under
``results/`` and echoed to the terminal (run with ``-s``).

``REPRO_TRIALS`` controls the Monte-Carlo campaign size (default 120; the
paper uses 300 — set ``REPRO_TRIALS=300`` to match it exactly).

``REPRO_JOBS`` controls evaluation parallelism (default 1; 0 = all
cores): grid-heavy benchmarks prewarm the shared result cache through
``Evaluator.sweep(..., jobs=JOBS)``, so ``REPRO_JOBS=0 pytest
benchmarks/`` fans compile + simulate + campaign work out over every
core while producing bit-identical results (see docs/performance.md).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.experiment import Evaluator
from repro.parallel import resolve_jobs
from repro.workloads import workload_names

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Monte-Carlo trials per (workload, scheme, config) campaign.
TRIALS = int(os.environ.get("REPRO_TRIALS", "120"))

#: Worker processes for cache prewarms (REPRO_JOBS; 0 = all cores).
JOBS = resolve_jobs(None)


@pytest.fixture(scope="session")
def ev() -> Evaluator:
    return Evaluator(seed=2013)


@pytest.fixture(scope="session")
def workloads() -> list[str]:
    return workload_names()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[saved to results/{name}.txt]")

    return _save
