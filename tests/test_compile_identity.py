"""Compiled output is pinned bit for bit, at two hash seeds.

Compile-path optimizations (cached register hashes, per-block DFG reuse,
block-level dataflow transfers) must not change a single compiled
program, schedule or statistic.  Passes iterate sets, whose order follows
hash values (LICM walks a loop body that is a ``frozenset`` of labels), so
hash values and set iteration order are part of that contract: the digest
is taken under ``PYTHONHASHSEED=0`` and ``=1`` (the outputs differ between
the two, see ``benchmarks/e2e/README.md``, "Hash-seed divergence"), each
in a fresh interpreter.  The string hash for a given seed also depends on
the interpreter's hash algorithm (``sys.hash_info.algorithm``: siphash13
from Python 3.11 on, siphash24 before), so digests are pinned per
algorithm, and the test is skipped where none is pinned.

The digest covers, for every compile of the grid below,
:func:`~repro.ir.printer.canonical_program_text`, every block's
``cycle_of``/``slot_of``/``length`` and the :class:`CompileStats` record.

After a change that is *meant* to alter compiled output, re-pin with::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/test_compile_identity.py
    PYTHONPATH=src PYTHONHASHSEED=1 python tests/test_compile_identity.py

and paste each printed digest into ``PINNED`` under the interpreter's
``sys.hash_info.algorithm`` and the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: SHA-256 of the whole grid, per string-hash algorithm and ``PYTHONHASHSEED``.
PINNED = {
    "siphash13": {
        "0": "079b4c04fdb78f1ed84e376ce7bef29f1557560a202192c88eeb167dba3528ab",
        "1": "ece0fd1391b3762e75fbcdbb45355f791c6332236a5523d2bdeae056c2854883",
    },
}


def compile_grid() -> list[tuple[str, str, int, int]]:
    """(workload, scheme, issue width, delay) of every pinned compile."""
    from repro.workloads import workload_names

    grid = []
    for wl in workload_names():
        for scheme in ("noed", "sced", "dced", "casted"):
            grid.append((wl, scheme, 2, 2))
        for iw, delay in ((1, 1), (4, 4)):
            for scheme in ("dced", "casted"):
                grid.append((wl, scheme, iw, delay))
    return grid


def grid_digest() -> str:
    """SHA-256 over every compile of :func:`compile_grid`, in grid order."""
    from repro.ir.printer import canonical_program_text
    from repro.machine.config import paper_machine
    from repro.pipeline import Scheme, compile_program
    from repro.workloads import get_workload

    h = hashlib.sha256()
    for wl, scheme, iw, delay in compile_grid():
        cp = compile_program(
            get_workload(wl).program, Scheme(scheme), paper_machine(iw, delay)
        )
        h.update(f"== {wl} {scheme} iw{iw} d{delay}\n".encode())
        h.update(canonical_program_text(cp.program).encode())
        for label, sched in cp.schedules.blocks.items():
            h.update(
                f"{label} {sched.cycle_of} {sched.slot_of} {sched.length}\n".encode()
            )
        stats = cp.stats
        h.update(
            json.dumps(
                [
                    stats.scheme.value,
                    stats.n_instructions,
                    stats.n_by_role,
                    repr(stats.code_growth),
                    stats.frame_words,
                    stats.n_spilled,
                    stats.static_cycles,
                    list(stats.per_cluster_instructions.items()),
                ]
            ).encode()
        )
    return h.hexdigest()


@pytest.mark.skipif(
    sys.hash_info.algorithm not in PINNED,
    reason=(
        f"no digests pinned for this interpreter's {sys.hash_info.algorithm}"
        f" string hash (pinned: {', '.join(PINNED)}; Python 3.11 and later"
        f" use siphash13, earlier versions siphash24)"
    ),
)
def test_compiled_output_matches_pinned_digest_at_both_hash_seeds():
    pinned = PINNED[sys.hash_info.algorithm]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    procs = {}
    for seed in pinned:
        procs[seed] = subprocess.Popen(
            [sys.executable, __file__],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    digests = {}
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        digests[seed] = out.strip()
    assert digests == pinned


if __name__ == "__main__":
    print(grid_digest())
