"""Micro-benchmarks of the hot kernels (auto-calibrated rounds).

These are genuine pytest-benchmark measurements (many iterations) for
the inner loops everything else is built on: the DES event loop, RCAD
buffer admissions, the Speck block cipher, the Erlang-B recursion and
the KSG mutual-information estimator -- plus vectorized-vs-scalar
pairs for adversary scoring, so the speedup of the columnar
estimators over the per-packet oracle in ``tests/oracles.py`` is
measured where the optimization lives.
"""

import numpy as np
import pytest

from repro.core.buffers import RcadBuffer
from repro.crypto.speck import Speck64_128
from repro.des import Simulator
from repro.experiments.common import build_adversary, run_paper_case
from repro.infotheory.estimators import ksg_mutual_information
from repro.queueing.erlang import erlang_b, erlang_b_batch
from tests.oracles import estimate_all_scalar


def test_des_event_throughput(benchmark):
    """Schedule + dispatch 10k chained events."""

    def run():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule_after(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 10_000


def test_rcad_buffer_admission_throughput(benchmark):
    """5k offers against a k=10 RCAD buffer, all but 10 preempting."""

    def run():
        buffer = RcadBuffer(capacity=10)
        for i in range(5000):
            buffer.offer(i, float(i), float(i) + 30.0)
        return buffer.preemption_count

    preemptions = benchmark(run)
    assert preemptions == 4990


def test_speck_block_throughput(benchmark):
    cipher = Speck64_128(bytes(range(16)))
    block = b"8bytes!!"

    def run():
        out = block
        for _ in range(500):
            out = cipher.encrypt_block(out)
        return out

    result = benchmark(run)
    assert len(result) == 8


def test_erlang_b_throughput(benchmark):
    def run():
        total = 0.0
        for rho in np.linspace(0.1, 50.0, 200):
            total += erlang_b(float(rho), 10)
        return total

    total = benchmark(run)
    assert 0.0 < total < 200.0


def test_ksg_estimator_throughput(benchmark):
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal(2000)
    z = x + rng.standard_normal(2000)

    mi = benchmark(ksg_mutual_information, x, z)
    assert mi > 0.2


# ----------------------------------------------------------------------
# Vectorized vs scalar adversary scoring.  One RCAD run's DeliveryLog is
# scored through Adversary.estimate_all and the scalar oracle in
# tests/oracles.py; BENCH_runtime.json records both timings side by side.

@pytest.fixture(scope="module")
def rcad_delivery():
    return run_paper_case(2.0, "rcad", n_packets=500, seed=0).delivery


@pytest.mark.parametrize("kind", ["naive", "baseline", "adaptive"])
def test_adversary_estimate_all_vectorized(benchmark, rcad_delivery, kind):
    adversary = build_adversary(kind, "rcad")

    estimates = benchmark(adversary.estimate_all, rcad_delivery)
    assert len(estimates) == len(rcad_delivery)


@pytest.mark.parametrize("kind", ["naive", "baseline", "adaptive"])
def test_adversary_estimate_all_scalar(benchmark, rcad_delivery, kind):
    adversary = build_adversary(kind, "rcad")

    estimates = benchmark(estimate_all_scalar, adversary, rcad_delivery)
    assert len(estimates) == len(rcad_delivery)


def test_erlang_b_batch_vectorized(benchmark):
    loads = np.linspace(0.1, 50.0, 200)

    total = benchmark(lambda: float(erlang_b_batch(loads, 10).sum()))
    assert 0.0 < total < 200.0
