import pytest

from repro.isa.registers import GP, PR, Reg, RegClass


class TestReg:
    def test_virtual_constructors(self):
        r = GP(3)
        assert r.is_gp and r.virtual and r.cluster == -1
        p = PR(1)
        assert p.is_pr

    def test_physical(self):
        r = GP(5, virtual=False, cluster=1)
        assert not r.virtual and r.cluster == 1
        assert str(r) == "c1.r5"

    def test_virtual_str(self):
        assert str(GP(2)) == "vr2"
        assert str(PR(0)) == "vp0"

    def test_hashable_and_equal(self):
        assert GP(1) == GP(1)
        assert GP(1) != PR(1)
        assert GP(1) != GP(1, virtual=False, cluster=0)
        assert len({GP(1), GP(1), GP(2)}) == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, -1)

    def test_physical_requires_cluster(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, 0, virtual=False)

    def test_virtual_must_not_have_cluster(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, 0, virtual=True, cluster=0)


def _sample_regs():
    regs = [GP(i) for i in range(8)] + [PR(i) for i in range(4)]
    regs += [GP(i, virtual=False, cluster=c) for i in range(4) for c in (0, 1)]
    regs += [PR(i, virtual=False, cluster=c) for i in range(2) for c in (0, 1)]
    return regs


_PICKLE_REGS = """
import pickle, sys
from tests.test_isa_registers import _sample_regs
sys.stdout.write(pickle.dumps(_sample_regs()).hex())
"""

_UNPICKLE_REGS = """
import pickle, sys
from tests.test_isa_registers import _sample_regs
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = _sample_regs()
fresh_set = set(fresh)
assert loaded == fresh
missing = [str(r) for r in loaded if r not in fresh_set]
rehashed = all(hash(a) == hash(b) for a, b in zip(loaded, fresh))
print(len(loaded), missing, rehashed)
"""


class TestRegHash:
    """``Reg`` caches its hash; the value and pickling stay those of the
    generated dataclass hash (set iteration order depends on them)."""

    def test_hash_is_the_field_tuple_hash(self):
        for r in _sample_regs():
            assert hash(r) == hash((r.rclass, r.index, r.virtual, r.cluster))

    def test_cached_hash_does_not_affect_equality_or_repr(self):
        a = GP(3, virtual=False, cluster=1)
        b = Reg(RegClass.GP, 3, False, 1)
        assert a == b and a is not b and hash(a) == hash(b)
        assert repr(a) == "c1.r3"

    def test_pickle_round_trip(self):
        import copy
        import pickle

        for r in _sample_regs():
            for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
                assert clone == r and hash(clone) == hash(r)

    def test_pickled_regs_are_rehashed_under_another_hash_seed(self):
        """Regs pickled at ``PYTHONHASHSEED=0`` are found in a set of
        freshly built Regs at ``PYTHONHASHSEED=1``: a pickle must never
        carry the sending process's hash."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root)])
        env = dict(os.environ, PYTHONPATH=path)
        sent = subprocess.run(
            [sys.executable, "-c", _PICKLE_REGS],
            env=dict(env, PYTHONHASHSEED="0"),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        got = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_REGS],
            env=dict(env, PYTHONHASHSEED="1"),
            input=sent, capture_output=True, text=True, timeout=120,
        )
        assert got.returncode == 0, got.stderr
        assert got.stdout.split() == [str(len(_sample_regs())), "[]", "True"]
