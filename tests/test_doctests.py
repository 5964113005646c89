"""Run the doctest examples embedded in the library's docstrings.

The API docs promise runnable examples; this test keeps that promise
honest by executing every ``>>>`` block in the listed modules.
"""

import doctest

import pytest

import repro.core.buffers
import repro.core.delays
import repro.core.privacy_core
import repro.crypto.keys
import repro.crypto.mac
import repro.crypto.modes
import repro.crypto.speck
import repro.des.engine
import repro.des.rng
import repro.des.timers
import repro.faults.gilbert_elliott
import repro.queueing.erlang
import repro.queueing.mminf
import repro.queueing.mmkk
import repro.queueing.poisson
import repro.queueing.simq
import repro.queueing.tandem
import repro.sim.simulator

MODULES = [
    repro.des.engine,
    repro.des.rng,
    repro.des.timers,
    repro.faults.gilbert_elliott,
    repro.crypto.speck,
    repro.crypto.modes,
    repro.crypto.mac,
    repro.crypto.keys,
    repro.queueing.poisson,
    repro.queueing.erlang,
    repro.queueing.mminf,
    repro.queueing.mmkk,
    repro.queueing.tandem,
    repro.queueing.simq,
    repro.core.delays,
    repro.core.buffers,
    repro.core.privacy_core,
    repro.sim.simulator,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0
