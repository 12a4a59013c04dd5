"""Seeded infrastructure fault injection: SIGKILL a process at a chaos point.

:mod:`repro.faults.injector` flips bits in the *simulated* architecture;
this module does the same to the harness itself.  Instrumented code calls
:func:`chaos_point` at named lifecycle points (``worker.shard``, reached
by a pool worker before each campaign shard); the ``REPRO_CHAOS``
environment variable arms one or more of them::

    REPRO_CHAOS="worker.shard:3"                # SIGKILL every worker on
                                                # its 3rd shard
    REPRO_CHAOS="worker.shard:1:once"           # SIGKILL the first worker
                                                # that starts a shard, once

Each entry is ``point:nth[:once]`` — the process SIGKILLs *itself* the
``nth`` time it reaches ``point`` (counted per process, so every pool
worker has its own count).  The ``once`` flag makes the kill fire at most
once across *all* processes, coordinated through a flag file named by
``REPRO_CHAOS_FLAG`` (required with ``once``): the first process to reach
the armed point creates the flag and dies; later processes sail through —
that is how a test injects a *transient* crash that retries must survive,
as opposed to a deterministic crasher that must exhaust its budget.

SIGKILL, deliberately: no ``atexit``, no ``finally``, no flush — the
harshest crash the OS can deliver, which is exactly what shard retry and
checkpoint resume claim to survive.  Unarmed (no ``REPRO_CHAOS``),
:func:`chaos_point` is a dictionary lookup and an early return.
"""

from __future__ import annotations

import os
import signal

#: Per-process hit counters, keyed by chaos-point name.
_counts: dict[str, int] = {}


def _parse(raw: str) -> dict[str, tuple[int, bool]]:
    """``point:nth[:once],...`` -> ``{point: (nth, once)}``; bad entries ignored."""
    armed: dict[str, tuple[int, bool]] = {}
    for entry in raw.split(","):
        parts = entry.strip().split(":")
        if len(parts) < 2 or not parts[0]:
            continue
        try:
            nth = int(parts[1])
        except ValueError:
            continue
        if nth < 1:
            continue
        armed[parts[0]] = (nth, len(parts) > 2 and parts[2] == "once")
    return armed


def chaos_point(name: str) -> None:
    """Die here (SIGKILL) if ``REPRO_CHAOS`` armed this point's nth visit."""
    raw = os.environ.get("REPRO_CHAOS")
    if not raw:
        return
    armed = _parse(raw).get(name)
    if armed is None:
        return
    nth, once = armed
    _counts[name] = _counts.get(name, 0) + 1
    if _counts[name] != nth:
        return
    if once:
        flag = os.environ.get("REPRO_CHAOS_FLAG")
        if not flag:
            return  # 'once' without a coordination file: refuse to arm
        try:
            # O_EXCL: exactly one process wins the right to die.
            fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)
