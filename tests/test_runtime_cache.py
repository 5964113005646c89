"""Correctness of the content-addressed result cache."""

import pickle

import pytest

from repro.cli import main
from repro.runtime import ResultCache, run_simulation, use_runtime
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator


def _config(**overrides):
    defaults = dict(interarrival=4.0, case="rcad", n_packets=40, seed=0)
    defaults.update(overrides)
    return SimulationConfig.paper_baseline(**defaults)


class TestResultCache:
    def test_hit_returns_stored_result_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _config()
        result = SensorNetworkSimulator(config).run()
        cache.put(config, result, elapsed=1.25)

        restored = cache.get(config)
        assert restored is not None
        assert restored.delivery == result.delivery
        assert cache.stats.hits == 1
        assert cache.stats.seconds_saved == 1.25

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _config()
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        assert cache.get(_config(interarrival=6.0)) is None
        assert cache.get(_config(seed=7)) is None
        assert cache.stats.misses == 2

    def test_salt_change_misses(self, tmp_path):
        config = _config()
        old = ResultCache(tmp_path, salt="code-v1")
        old.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        new = ResultCache(tmp_path, salt="code-v2")
        assert new.get(config) is None

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _config()
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        path = cache._path_for(cache.key_for(config))
        path.write_bytes(b"not a pickle")

        assert cache.get(config) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # the bad entry is out of the store
        # ... but preserved for inspection, not silently destroyed:
        assert (cache.quarantine_dir / path.name).read_bytes() == b"not a pickle"
        # a fresh put/get cycle works again
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        assert cache.get(config) is not None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _config()
        path = cache._path_for(cache.key_for(config))
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps("just one string"))
        assert cache.get(config) is None
        assert cache.stats.corrupt == 1

    def test_bit_flip_is_caught_by_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _config()
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        path = cache._path_for(cache.key_for(config))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # one flipped byte mid-payload
        path.write_bytes(bytes(blob))

        assert cache.get(config) is None
        assert cache.stats.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()


class TestCacheMaintenance:
    def _populate(self, tmp_path, n=3):
        cache = ResultCache(tmp_path)
        result = SensorNetworkSimulator(_config()).run()
        for seed in range(n):
            cache.put(_config(seed=seed), result, elapsed=0.1)
        return cache

    def test_disk_stats_counts_entries_and_quarantine(self, tmp_path):
        cache = self._populate(tmp_path, n=3)
        stats = cache.disk_stats()
        assert stats.entries == 3
        assert stats.entry_bytes > 0
        assert stats.quarantined == 0

        # Corrupt one entry and read it: it moves to quarantine.
        victim_seed = 1
        victim = cache._path_for(cache.key_for(_config(seed=victim_seed)))
        victim.write_bytes(b"garbage")
        assert cache.get(_config(seed=victim_seed)) is None
        stats = cache.disk_stats()
        assert stats.entries == 2
        assert stats.quarantined == 1

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        cache = self._populate(tmp_path, n=3)
        victim = list(cache.iter_entry_paths())[1]
        victim.write_bytes(b"bit rot")

        report = cache.verify()
        assert report.checked == 3
        assert report.ok == 2
        assert report.quarantined == [victim.name]
        assert (cache.quarantine_dir / victim.name).exists()
        # A second verify pass is clean.
        second = cache.verify()
        assert second.checked == 2 and second.quarantined == []

    def test_purge_reclaims_everything(self, tmp_path):
        cache = self._populate(tmp_path, n=3)
        list(cache.iter_entry_paths())[0].write_bytes(b"bad")
        cache.verify()  # one entry quarantined

        removed, reclaimed = cache.purge()
        assert removed == 3  # 2 entries + 1 quarantined file
        assert reclaimed > 0
        assert cache.disk_stats().entries == 0
        assert cache.disk_stats().quarantined == 0

    def test_purge_can_keep_quarantine(self, tmp_path):
        cache = self._populate(tmp_path, n=2)
        list(cache.iter_entry_paths())[0].write_bytes(b"bad")
        cache.verify()
        cache.purge(include_quarantine=False)
        assert cache.disk_stats().entries == 0
        assert cache.disk_stats().quarantined == 1

    def test_prune_evicts_oldest_first(self, tmp_path):
        import os
        import time

        cache = self._populate(tmp_path, n=3)
        paths = list(cache.iter_entry_paths())
        # Make ages unambiguous regardless of write order.
        now = time.time()
        by_age = sorted(paths, key=str)
        for rank, path in enumerate(by_age):
            os.utime(path, (now - 100 + rank, now - 100 + rank))
        total = sum(p.stat().st_size for p in paths)
        one_size = paths[0].stat().st_size

        removed, reclaimed = cache.prune(max_bytes=total - 1)
        assert removed == 1
        assert reclaimed == one_size
        assert not by_age[0].exists()  # the oldest went first
        assert by_age[1].exists() and by_age[2].exists()

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(-1)

    def test_prune_to_zero_clears_entries(self, tmp_path):
        cache = self._populate(tmp_path, n=2)
        removed, _ = cache.prune(0)
        assert removed == 2
        assert cache.disk_stats().entries == 0


class TestConcurrentWriters:
    """Satellite (ISSUE 7): two fabric workers computing the same cell
    must both land via atomic temp-file + rename with no torn entry."""

    def test_same_key_hammer_from_multiple_processes(self, tmp_path):
        import multiprocessing
        import time

        config = _config()
        result = SensorNetworkSimulator(config).run()
        expected = result.delivery.arrival_time.tolist()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)

        def hammer():
            cache = ResultCache(tmp_path)
            barrier.wait()  # all writers fire at once
            for _ in range(25):
                cache.put(config, result, elapsed=0.1)

        procs = [ctx.Process(target=hammer) for _ in range(4)]
        for p in procs:
            p.start()

        # Concurrent reader: every get during the storm must be a clean
        # hit (identical payload) or a miss -- never a torn entry.
        reader = ResultCache(tmp_path)
        deadline = time.time() + 60
        while any(p.is_alive() for p in procs) and time.time() < deadline:
            restored = reader.get(config)
            if restored is not None:
                assert restored.delivery.arrival_time.tolist() == expected
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert reader.stats.corrupt == 0

        final = reader.get(config)
        assert final is not None
        assert final.delivery.arrival_time.tolist() == expected
        assert len(list(reader.iter_entry_paths())) == 1  # one key, one file
        assert not list(tmp_path.rglob("*.tmp"))  # every temp was renamed

    def test_sigkilled_writer_cannot_tear_an_entry(self, tmp_path):
        import multiprocessing
        import os
        import signal
        import time

        config = _config()
        result = SensorNetworkSimulator(config).run()
        ctx = multiprocessing.get_context("fork")

        def write_forever():
            cache = ResultCache(tmp_path)
            while True:
                cache.put(config, result, elapsed=0.1)

        victim = ctx.Process(target=write_forever)
        victim.start()
        time.sleep(0.3)  # let it get mid-write with high probability
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        cache = ResultCache(tmp_path)
        restored = cache.get(config)  # a hit or a miss, never a crash
        if restored is not None:
            assert cache.stats.corrupt == 0
        report = cache.verify()
        assert report.quarantined == []  # no entry file is torn
        # Any abandoned temp file from the kill is swept once stale.
        assert cache.sweep_stale_tmp(max_age_seconds=0.0) >= 0
        assert not list(tmp_path.rglob("*.tmp"))

    def test_verify_sweeps_stale_tmp_files(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        config = _config()
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        shard = next(cache.iter_entry_paths()).parent
        stale = shard / "abandoned.tmp"
        stale.write_bytes(b"half-written")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = shard / "inflight.tmp"
        fresh.write_bytes(b"being written right now")

        report = cache.verify()
        assert report.stale_tmp_removed == 1
        assert not stale.exists()
        assert fresh.exists()  # young temps belong to live writers
        assert report.quarantined == []


class TestRunSimulationCaching:
    def test_warm_rerun_makes_zero_simulator_invocations(self, tmp_path):
        config = _config()
        with use_runtime(cache_dir=tmp_path) as cold:
            first = run_simulation(config)
        assert cold.stats.simulations == 1
        assert cold.cache.stats.stores == 1

        with use_runtime(cache_dir=tmp_path) as warm:
            second = run_simulation(config)
        assert warm.stats.simulations == 0
        assert warm.cache.stats.hits == 1
        assert second.delivery == first.delivery

    def test_cold_cell_fingerprints_its_config_once(self, tmp_path, monkeypatch):
        import repro.runtime.cache as cache_module

        calls = []
        original = cache_module.stable_fingerprint

        def counting(obj):
            calls.append(obj)
            return original(obj)

        monkeypatch.setattr(cache_module, "stable_fingerprint", counting)
        with use_runtime(cache_dir=tmp_path) as cold:
            run_simulation(_config())
        assert cold.cache.stats.misses == 1 and cold.cache.stats.stores == 1
        assert len(calls) == 1  # shared by the miss and the store

        calls.clear()
        with use_runtime(cache_dir=tmp_path) as warm:
            run_simulation(_config())
        assert warm.cache.stats.hits == 1
        assert len(calls) == 1

    def test_no_cache_context_never_touches_disk(self, tmp_path):
        config = _config()
        with use_runtime() as ctx:
            run_simulation(config)
        assert ctx.cache is None
        assert ctx.stats.simulations == 1
        assert list(tmp_path.iterdir()) == []


class TestCliCacheIntegration:
    def test_fig2_jobs4_warm_cache_zero_invocations(self, tmp_path, capsys):
        """Acceptance: a warm-cache rerun reruns no simulation at all."""
        argv = [
            "fig2", "--packets", "50", "--interarrivals", "2,20",
            "--jobs", "4", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hits, 6 misses, 6 stored" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: 6 hits, 0 misses, 0 stored" in warm
        # identical tables modulo the cache-stats line
        def strip(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("cache:")
            ]

        assert strip(cold) == strip(warm)

    def test_no_cache_flag_bypasses_reads_and_writes(self, tmp_path, capsys):
        argv = [
            "fig2", "--packets", "50", "--interarrivals", "20",
            "--no-cache", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert list(tmp_path.iterdir()) == []
