"""Shared fixtures."""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict

import pytest

os.environ.setdefault("REPRO_CACHE", "0")  # tests never touch the disk cache

from repro import store
from repro.ir.builder import IRBuilder
from repro.ir.program import GlobalArray, Program
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme


def build_loop_program(n: int = 10, with_memory: bool = True) -> Program:
    """A small loop: writes i*i into buf, sums it, outputs the sum."""
    b = IRBuilder("main")
    f = b.function
    b.add_and_enter("entry")
    i = f.new_gp()
    acc = f.new_gp()
    b.movi_to(i, 0)
    b.movi_to(acc, 0)
    b.jmp("loop")
    b.add_and_enter("loop")
    sq = b.mul(i, i)
    if with_memory:
        addr = b.add(i, 1)  # buf starts at word 1
        b.store(addr, sq)
        val = b.load(addr)
    else:
        val = sq
    acc2 = b.add(acc, val)
    b.mov_to(acc, acc2)
    i2 = b.add(i, 1)
    b.mov_to(i, i2)
    p = b.cmplt(i, n)
    b.brt(p, "loop", "exit")
    b.add_and_enter("exit")
    b.out(acc)
    b.halt(0)
    globals_ = [GlobalArray("buf", max(n, 1))] if with_memory else []
    return Program(f, globals_)


@pytest.fixture(autouse=True)
def _fresh_store(monkeypatch):
    """Every test starts from an empty artifact store.

    Forked pool workers copy the parent's store, so entries left by an
    earlier test would turn a worker's expected build into a hit.
    """
    monkeypatch.setattr(store, "_pinned", OrderedDict())
    monkeypatch.setattr(store, "_held", weakref.WeakValueDictionary())


@pytest.fixture
def loop_program() -> Program:
    return build_loop_program()


@pytest.fixture
def machine() -> MachineConfig:
    return MachineConfig(issue_width=2, inter_cluster_delay=1)


@pytest.fixture(params=list(Scheme), ids=lambda s: s.value)
def scheme(request) -> Scheme:
    return request.param


def pytest_addoption(parser):
    parser.addoption(
        "--heavy",
        action="store_true",
        default=False,
        help="run the heavy whole-sweep integration tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="needs --heavy")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line("markers", "heavy: long-running sweep tests")
