"""One content-keyed artifact store per process.

What a process derives from a program at some cost is looked up here, by a
tuple of the content it derives from: a grid point's compiled program by
(source-program digest, scheme, ``MachineConfig``), the golden run a fault
campaign replays by :func:`repro.faults.injector.golden_key`, and a
campaign injector by (golden key, fault model).  An equal key means an
equal artifact, so any caller may reuse any entry.

The store pins its most recently used entries up to :data:`MAX_BYTES`.
Each artifact estimates its own size as ``nbytes`` from data it already
holds.  An entry the store no longer pins stays findable for as long as
something else holds it, so injectors of one program under different
fault models share one golden run however long ago the store let it go.
Pool workers have stores of their own; a forked one starts with a copy of
its parent's.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Protocol, TypeVar, cast

from repro.obs import get_telemetry


class Artifact(Protocol):
    @property
    def nbytes(self) -> int: ...


A = TypeVar("A", bound=Artifact)

#: The one bound: estimated bytes pinned per process.  It stays inside the
#: 8-15 MB the two eight-entry injector caches it replaced pinned, and it
#: loses no more campaign-injector hits in paper-repro than they did; at
#: 16 MiB the sweep workers' pinned compiles raised peak RSS by 9%.
#: Keyframe-and-delta snapshots halved a campaign injector's estimate
#: (parser/CASTED at iw2/d2: 1.90 to 0.96 MB), so 12 MiB now pins more
#: entries.  Re-measured on traced paper-repro reps (2-vCPU VM, 4 reps a
#: side), the sweep workers still rebuilt an evicted injector 3 times per
#: rep, and the largest worker's peak RSS read 60.4-61.2 MB against
#: 61.6-62.0 MB before, so the bound stays.
MAX_BYTES = 12 << 20

#: Pinned entries and their sizes at pin time, least recently used first.
_pinned: OrderedDict[Hashable, tuple[Artifact, int]] = OrderedDict()

#: Every entry something still holds, pinned or not.
_held: weakref.WeakValueDictionary[Hashable, Artifact] = weakref.WeakValueDictionary()


def get(key: Hashable, build: Callable[[], A], counter: str | None = None) -> A:
    """The artifact stored under ``key``; ``build()`` makes it on a miss.

    The entry becomes the most recently used, and the least recently used
    are unpinned until the pinned sizes sum to at most :data:`MAX_BYTES`.
    ``counter`` names the ``<counter>.hits`` / ``.misses`` pair to count.
    """
    found = _held.get(key)
    if counter is not None:
        get_telemetry().count(f"{counter}.{'misses' if found is None else 'hits'}")
    value = build() if found is None else cast(A, found)
    _held[key] = value
    _pinned.pop(key, None)
    _pinned[key] = (value, value.nbytes)
    resident = sum(size for _, size in _pinned.values())
    while resident > MAX_BYTES:
        _, (_, size) = _pinned.popitem(last=False)
        resident -= size
    return value
