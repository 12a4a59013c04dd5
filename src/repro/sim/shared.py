"""Architectural snapshots in shared memory for pool workers.

A campaign worker needs the golden run's checkpoint snapshots (register
file + data memory + emitted output at ~64 trace boundaries) to fast-forward
trials.  Pickling them into every task would ship megabytes per dispatch;
re-profiling in each worker costs a full golden replay.  Instead the parent
flattens all snapshot words into **one** ``multiprocessing.shared_memory``
block and ships a tiny picklable handle (segment name + per-snapshot
layout).  The block holds the snapshots' own compact form: a keyframe's
full memory, or the one delta (changed addresses, then their values) a
snapshot adds to its predecessor.  Workers attach the segment
read-only-by-convention, rebuild the same keyframe-and-delta
:class:`~repro.ir.interp.Snapshot` objects the parent holds once (the
worker's artifact store keeps them for every injector of that program),
and detach.

Lifetime: the segment belongs to the parent.  A ``weakref.finalize`` tied
to the parent-side handle closes and unlinks it when the owning golden run
is garbage collected (the artifact store no longer pins it and its last
injector has dropped), or at interpreter exit, so campaigns never leak
``/dev/shm`` segments.  Workers unregister the attachment from their
``resource_tracker`` — otherwise every worker's tracker would try to unlink
the segment at worker exit and spew warnings for the races it loses.
"""

from __future__ import annotations

import weakref
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

import numpy as np

from repro.ir.interp import Snapshot

#: (dyn, label, n_regs, n_mem, n_output, keyframe) — enough to slice one
#: snapshot back out of the flat word block.  ``n_mem`` counts a keyframe's
#: memory words, or a delta's changed words (stored as ``n_mem`` addresses,
#: then ``n_mem`` values).
_SnapMeta = tuple[int, str, int, int, int, bool]


class SharedSnapshots:
    """A picklable handle to snapshots stored in one shared-memory block.

    Build with :meth:`export` in the parent; call :meth:`load` in a worker.
    The block holds each snapshot's registers, then its keyframe memory or
    its one delta (addresses, then values), then its output, all as
    ``uint64`` words.  :meth:`load` rebuilds the parent's keyframe-and-delta
    :class:`~repro.ir.interp.Snapshot` objects, group sharing included, so
    parent and workers hold one snapshot format.  Pickling ships only the
    segment name and layout metadata (a few hundred bytes), never the
    snapshot words themselves.
    """

    __slots__ = ("_name", "_meta", "_total_words", "_shm", "__weakref__")

    def __init__(
        self, name: str | None, meta: list[_SnapMeta], total_words: int
    ) -> None:
        self._name = name
        self._meta = meta
        self._total_words = total_words
        self._shm: shared_memory.SharedMemory | None = None

    @classmethod
    def export(cls, snapshots: Sequence[Snapshot]) -> "SharedSnapshots":
        """Copy ``snapshots`` into a fresh shared segment (parent side)."""
        chunks = [
            (s.regs, s.base, s.output) if not s.deltas
            else (s.regs, *s.deltas[-1], s.output)
            for s in snapshots
        ]
        meta: list[_SnapMeta] = [
            (s.dyn, s.label, len(s.regs), len(c[1]), len(s.output), not s.deltas)
            for s, c in zip(snapshots, chunks)
        ]
        total = sum(sum(len(chunk) for chunk in c) for c in chunks)
        if total == 0:
            return cls(None, meta, 0)
        shm = shared_memory.SharedMemory(create=True, size=total * 8)
        words = np.ndarray((total,), dtype=np.uint64, buffer=shm.buf)
        offset = 0
        for c in chunks:
            for chunk in c:
                if chunk:
                    words[offset : offset + len(chunk)] = np.array(
                        chunk, dtype=np.uint64
                    )
                    offset += len(chunk)
        handle = cls(shm.name, meta, total)
        handle._shm = shm
        # The parent owns the segment: close+unlink when the handle (and so
        # the golden run that exported it) is collected, or at exit via the
        # finalizer.  ``unlink`` unregisters from the resource tracker, so
        # the create-time registration stays balanced and the tracker never
        # sees the segment as leaked.
        weakref.finalize(handle, _release, shm)
        return handle

    def load(self) -> list[Snapshot]:
        """Rebuild the keyframe-and-delta :class:`Snapshot` list (worker side)."""
        if not self._meta:
            return []
        if self._total_words == 0 or self._name is None:
            return [
                Snapshot(dyn, label, [], [], (), ())
                for dyn, label, *_ in self._meta
            ]
        # Attach without registering with the resource tracker: only the
        # parent may unlink, and the tracker is *shared* across pool
        # workers (forked fd), so register/unregister pairs from several
        # workers attaching the same segment would race its set-based
        # bookkeeping.  Suppressing registration avoids the whole dance —
        # this process never tracks a segment it does not own.
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=self._name)
        finally:
            resource_tracker.register = orig_register
        try:
            words = np.ndarray((self._total_words,), dtype=np.uint64, buffer=shm.buf)
            offset = 0

            def take(n: int) -> np.ndarray:
                # ``.tolist()`` on these yields plain Python ints — the
                # interpreter's register/memory lists are masked Python
                # ints, and numpy scalars would silently change overflow
                # semantics.  The lists it returns are the snapshot's only
                # copy.
                nonlocal offset
                offset += n
                return words[offset - n : offset]

            out: list[Snapshot] = []
            for dyn, label, n_regs, n_mem, n_out, keyframe in self._meta:
                regs = take(n_regs).tolist()
                if keyframe:
                    mem = take(n_mem).tolist()
                    snap = Snapshot(
                        dyn, label, regs, mem, (), tuple(take(n_out).tolist())
                    )
                else:
                    addrs = array("I", take(n_mem).astype(np.uint32).tobytes())
                    delta = (addrs, tuple(take(n_mem).tolist()))
                    snap = out[-1].step(
                        dyn, label, regs, delta, tuple(take(n_out).tolist())
                    )
                out.append(snap)
            return out
        finally:
            shm.close()

    def __getstate__(self) -> tuple[str | None, list[_SnapMeta], int]:
        return (self._name, self._meta, self._total_words)

    def __setstate__(
        self, state: tuple[str | None, list[_SnapMeta], int]
    ) -> None:
        self._name, self._meta, self._total_words = state
        self._shm = None


def _release(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
        shm.unlink()
    except Exception:  # pragma: no cover - already gone
        pass
