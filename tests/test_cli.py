"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.packets == 1000
        assert args.seed == 0

    def test_run_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "bogus"])

    def test_fig3_path_aware_flag(self):
        args = build_parser().parse_args(["fig3", "--path-aware"])
        assert args.path_aware is True


class TestCountAndSeedOptions:
    """Every verb's ``--packets`` and ``--seed``, the runtime options
    ``--jobs``/``--retries``, ``serve --flows/--events/--port``, the
    ``serve`` sizes and ``--burst-factor``, ``cache prune --max-bytes``,
    ``run --flow`` and ``chaos --intensities`` are checked at parse
    time: exit code 2, a usage message naming the flag, no traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            *[([verb, "--packets", "0"], "--packets")
              for verb in ("fig2", "fig3", "run", "chaos")],
            *[([verb, "--seed", "-1"], "--seed")
              for verb in ("fig2", "fig3", "run", "chaos", "serve")],
            (["fig2", "--packets", "many"], "--packets"),
            (["run", "--seed", "1.5"], "--seed"),
            *[([verb, "--jobs", "-1"], "--jobs")
              for verb in ("fig2", "fig3", "run", "chaos", "scenarios")],
            (["fig2", "--jobs", "two"], "--jobs"),
            (["fig2", "--retries", "-1"], "--retries"),
            (["chaos", "--retries", "1.5"], "--retries"),
            (["serve", "--flows", "0"], "--flows"),
            (["serve", "--events", "-1"], "--events"),
            (["serve", "--port", "-2"], "--port"),
            (["serve", "--shards", "0"], "--shards"),
            (["serve", "--capacity", "-3"], "--capacity"),
            (["serve", "--max-buffered", "0"], "--max-buffered"),
            *[(["serve", "--burst-factor", bad], "--burst-factor")
              for bad in ("0.5", "0.999", "-2")],
            (["cache", "prune", "--max-bytes", "-1"], "--max-bytes"),
            *[(["run", "--flow", bad], "--flow") for bad in ("0", "5", "7", "-1", "x")],
            *[(["chaos", "--intensities", bad], "--intensities")
              for bad in ("0,2", "nope", "-0.5", "nan", "0.5,inf", ",")],
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_rejected_at_parse_time(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--packets", "0"], ["fig3", "--packets", "0"],
            ["fig2", "--seed", "-1"], ["fig2", "--interarrivals", "inf"],
            ["run", "--interarrival", "nan"], ["serve", "--rate", "nan"],
            ["fig2", "--item-timeout", "nan"], ["run", "--flow", "0"],
            ["chaos", "--intensities", "0,2"],
        ],
        ids=" ".join,
    )
    def test_command_line_exits_without_traceback(self, argv):
        import os
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"argument {argv[1]}:" in proc.stderr

    def test_valid_values_parse(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--packets", "1", "--seed", "0"])
        assert (args.packets, args.seed) == (1, 0)
        args = parser.parse_args(["fig2", "--jobs", "0", "--retries", "0"])
        assert (args.jobs, args.retries) == (0, 0)
        assert parser.parse_args(["run", "--flow", "4"]).flow == 4
        assert parser.parse_args(["run"]).flow == 1
        assert parser.parse_args(["chaos", "--intensities", "0, 0.5,1"]).intensities == (
            0.0, 0.5, 1.0,
        )
        assert parser.parse_args(["chaos"]).intensities == (0.0, 0.25, 0.5, 1.0)
        args = parser.parse_args(["serve", "--flows", "1", "--events", "0", "--port", "-1"])
        assert (args.flows, args.events, args.port) == (1, 0, -1)


class TestFloatOptions:
    """Every float option is finite and positive by its argparse type:
    NaN and inf exit 2 at parse time, naming the flag, before any work."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            *[(["fig2", "--interarrivals", bad], "--interarrivals")
              for bad in ("inf", "nan", "2,nan", "-3", "0", "2,apple", ",")],
            (["fig3", "--interarrivals", "4,inf"], "--interarrivals"),
            *[(["run", "--interarrival", bad], "--interarrival")
              for bad in ("nan", "inf", "-1")],
            (["chaos", "--interarrival", "nan"], "--interarrival"),
            *[([verb, "--item-timeout", bad], "--item-timeout")
              for verb in ("fig2", "scenarios") for bad in ("nan", "inf")],
            *[(["serve", flag, "nan"], flag)
              for flag in ("--rate", "--duration", "--mean-delay",
                           "--burst-factor", "--drain-timeout")],
            (["serve", "--duration", "inf"], "--duration"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_non_finite_rejected_at_parse_time(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_sweep_values_parse_to_floats(self):
        args = build_parser().parse_args(["fig2", "--interarrivals", "2, 4.5"])
        assert args.interarrivals == (2.0, 4.5)
        assert build_parser().parse_args(["fig3"]).interarrivals[0] == 2.0


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "15" in out

    def test_fig2_small(self, capsys):
        code = main(
            ["fig2", "--packets", "60", "--seed", "1", "--interarrivals", "4,20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out and "Figure 2(b)" in out
        assert "NoDelay" in out and "Delay&LimitedBuffers" in out

    def test_fig3_small(self, capsys):
        code = main(
            ["fig3", "--packets", "60", "--seed", "1", "--interarrivals", "4,20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BaselineAdversary" in out and "AdaptiveAdversary" in out

    def test_run_rcad(self, capsys):
        code = main(
            ["run", "--case", "rcad", "--packets", "60", "--interarrival", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adversary MSE" in out
        assert "preemptions" in out

    def test_run_no_delay_zero_mse(self, capsys):
        main(["run", "--case", "no-delay", "--packets", "30"])
        out = capsys.readouterr().out
        assert "adversary MSE   : 0.0" in out

    def test_invalid_sweep_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--interarrivals", "2,apple"])
        with pytest.raises(SystemExit):
            main(["fig2", "--interarrivals", "-3"])

    def test_fig3_csv_and_json_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig3.csv"
        json_path = tmp_path / "fig3.json"
        code = main([
            "fig3", "--packets", "40", "--seed", "1",
            "--interarrivals", "4,20",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        csv_text = csv_path.read_text()
        assert csv_text.splitlines()[0].startswith("1/lambda,")
        assert len(csv_text.strip().splitlines()) == 3  # header + 2 rows
        from repro.analysis.records import ExperimentTable

        restored = ExperimentTable.from_json(json_path.read_text())
        assert [s.label for s in restored.series] == [
            "BaselineAdversary", "AdaptiveAdversary",
        ]

    def test_theory_fast(self, capsys):
        assert main(["theory", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "bits-through-queues" in out
        assert "EPI lower bound" in out
        assert "exponential" in out

    def test_queueing_fast(self, capsys):
        assert main(["queueing", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "M/M/inf validation" in out
        assert "Erlang loss validation" in out
        assert "QueueTreeModel" in out

    def test_fig2_export_writes_both_panels(self, tmp_path, capsys):
        base = tmp_path / "fig2.csv"
        main([
            "fig2", "--packets", "40", "--seed", "1",
            "--interarrivals", "4", "--csv", str(base),
        ])
        assert base.exists()
        assert (tmp_path / "fig2.csv.latency.csv").exists()


class TestJobsOption:
    def test_negative_jobs_rejected_with_existing_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--jobs", "-2"])
        assert exc.value.code == 2
        assert "argument --jobs: must be non-negative, got -2" in capsys.readouterr().err

    def test_jobs_zero_means_auto(self, monkeypatch, tmp_path, capsys):
        import os

        seen = {}
        import repro.runtime as runtime_module

        real_use_runtime = runtime_module.use_runtime

        def spy_use_runtime(jobs=1, **kwargs):
            seen["jobs"] = jobs
            return real_use_runtime(jobs=jobs, **kwargs)

        monkeypatch.setattr(runtime_module, "use_runtime", spy_use_runtime)
        assert main([
            "fig2", "--packets", "30", "--interarrivals", "20",
            "--jobs", "0", "--cache-dir", str(tmp_path),
        ]) == 0
        assert seen["jobs"] == (os.cpu_count() or 1)

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--retries", "-1"])
        assert exc.value.code == 2
        assert "argument --retries: must be non-negative, got -1" in (
            capsys.readouterr().err
        )

    def test_negative_item_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--item-timeout", "-5"])
        assert exc.value.code == 2
        assert "argument --item-timeout: must be a finite positive number" in (
            capsys.readouterr().err
        )

    def test_zero_item_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--item-timeout", "0"])
        assert exc.value.code == 2
        assert "argument --item-timeout: must be a finite positive number" in (
            capsys.readouterr().err
        )

    def test_validation_fires_before_any_simulation(self, monkeypatch, capsys):
        # The SystemExit must come from option validation, not from a
        # traceback deep inside the supervisor: no simulation may start.
        import repro.experiments.fig2 as fig2_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulation ran despite invalid options")

        monkeypatch.setattr(fig2_module, "figure2", boom)
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--retries", "-3"])
        assert exc.value.code == 2
        assert "argument --retries:" in capsys.readouterr().err

    def test_resume_requires_cache(self):
        with pytest.raises(SystemExit, match="--resume needs the result cache"):
            main(["fig2", "--resume", "--no-cache"])


class TestResumeOption:
    def test_resumed_rerun_reports_journal_hits(self, tmp_path, capsys):
        argv = [
            "fig2", "--packets", "40", "--interarrivals", "4,20",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "journal: 0 resumed, 6 recorded" in first

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "journal: 6 resumed, 0 recorded" in second
        assert "cache: 0 hits, 0 misses" in second  # cells never recomputed

        def strip(text):
            return [
                line for line in text.splitlines()
                if not line.startswith(("cache:", "journal:"))
            ]

        assert strip(first) == strip(second)


class TestScenariosCommand:
    def test_list_defenses(self, capsys):
        assert main(["scenarios", "--list-defenses"]) == 0
        out = capsys.readouterr().out
        for name in ("no-delay", "rcad", "drop-tail", "phantom"):
            assert name in out
        assert "walk_length" in out

    def test_example_round_trips(self, capsys):
        import json

        from repro.scenarios import example_suite, parse_suite

        assert main(["scenarios", "--example"]) == 0
        out = capsys.readouterr().out
        assert parse_suite(json.loads(out)) == example_suite()

    def test_missing_spec_is_friendly(self):
        with pytest.raises(SystemExit, match="--example"):
            main(["scenarios"])

    def test_unknown_scenario_name_rejected(self, tmp_path, capsys):
        import json

        from repro.scenarios import example_suite, suite_to_dict

        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_to_dict(example_suite())))
        with pytest.raises(SystemExit, match="nope"):
            main(["scenarios", str(path), "--scenario", "nope"])

    def test_small_suite_runs_and_exports(self, tmp_path, capsys):
        import json

        suite = {
            "scenarios": [
                {
                    "name": "mini",
                    "topology": {"family": "line", "n_nodes": 5},
                    "traffic": [{"model": "periodic", "interarrival": 6.0}],
                    "defenses": [{"name": "no-delay"}, {"name": "rcad"}],
                    "n_packets": 4,
                }
            ]
        }
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(suite))
        out_path = tmp_path / "out.json"
        code = main([
            "scenarios", str(spec_path),
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario mini" in out
        assert "no-delay" in out and "rcad" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["summaries"]) == 2
        by_defense = {s["defense"]: s for s in payload["summaries"]}
        assert by_defense["no-delay"]["mse"] == 0.0
        assert by_defense["rcad"]["mse"] > 0.0


class TestCacheSubcommand:
    def _warm(self, tmp_path):
        main([
            "fig2", "--packets", "30", "--interarrivals", "20",
            "--cache-dir", str(tmp_path),
        ])

    def test_stats_counts_entries_and_journal(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries         : 3" in out
        assert "quarantined     : 0" in out
        assert "journal         : 1 sweeps" in out

    def test_verify_moves_corrupt_entry_to_quarantine(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        from repro.runtime import ResultCache

        victim = next(ResultCache(tmp_path).iter_entry_paths())
        victim.write_bytes(b"bit rot")
        assert main(["cache", "--cache-dir", str(tmp_path), "verify"]) == 0
        out = capsys.readouterr().out
        assert "verified 3 entries: 2 ok, 1 quarantined" in out
        assert (tmp_path / "quarantine" / victim.name).exists()

    def test_purge_reclaims_space_and_journal(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "purge"]) == 0
        out = capsys.readouterr().out
        assert "purged 3 cache files and 1 journal sweeps" in out
        capsys.readouterr()
        main(["cache", "--cache-dir", str(tmp_path), "stats"])
        assert "entries         : 0" in capsys.readouterr().out

    def test_prune_respects_byte_budget(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main([
            "cache", "--cache-dir", str(tmp_path), "prune", "--max-bytes", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 3 oldest entries" in out
        assert "0 entries (0 bytes) remain" in out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_prune_without_flags_rejected(self, tmp_path):
        with pytest.raises(
            SystemExit, match="--max-bytes and/or --compact-journals"
        ):
            main(["cache", "--cache-dir", str(tmp_path), "prune"])

    def test_prune_compact_journals_drops_superseded_lines(
        self, tmp_path, capsys
    ):
        from repro.runtime import SweepJournal

        journal = SweepJournal(tmp_path / "journal", "sweep1", n_items=2)
        journal.record(0, "old")
        journal.record(0, "new")  # superseded
        journal.record(1, "only")
        journal.close()

        assert main([
            "cache", "--cache-dir", str(tmp_path), "prune",
            "--compact-journals",
        ]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 journals" in out
        assert "dropped 1 lines" in out
        loaded = SweepJournal(
            tmp_path / "journal", "sweep1", n_items=2, resume=True
        ).load()
        assert loaded == {0: "new", 1: "only"}

    def test_prune_combines_max_bytes_and_compaction(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main([
            "cache", "--cache-dir", str(tmp_path), "prune",
            "--max-bytes", "1", "--compact-journals",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 3 oldest entries" in out
        assert "compacted 1 journals" in out


class TestResilienceOptions:
    def test_flags_map_to_retry_policy_and_journal(self, monkeypatch, tmp_path):
        import repro.runtime as runtime_module

        seen = {}
        real_use_runtime = runtime_module.use_runtime

        def spy_use_runtime(jobs=1, **kwargs):
            seen.update(kwargs, jobs=jobs)
            return real_use_runtime(jobs=jobs, **kwargs)

        monkeypatch.setattr(runtime_module, "use_runtime", spy_use_runtime)
        assert main([
            "fig2", "--packets", "30", "--interarrivals", "20",
            "--cache-dir", str(tmp_path),
            "--retries", "2", "--item-timeout", "5", "--quarantine",
        ]) == 0
        policy = seen["retry"]
        assert policy.max_attempts == 3  # --retries counts extra attempts
        assert policy.timeout == 5.0
        assert policy.on_failure == "quarantine"
        assert seen["journal_dir"] == tmp_path / "journal"
        assert seen["resume"] is False


class TestChaosCommand:
    def test_chaos_small(self, capsys):
        assert main([
            "chaos", "--packets", "40", "--seed", "2",
            "--intensities", "0,1", "--no-arq",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "drop-tail" in out and "rcad" in out

    def test_invalid_intensities_rejected(self, capsys):
        for bad in ("0,2", "nope"):
            with pytest.raises(SystemExit) as exc:
                main(["chaos", "--intensities", bad])
            assert exc.value.code == 2
            assert "argument --intensities:" in capsys.readouterr().err


class TestFabricCommands:
    def test_parser_defaults(self):
        assert build_parser().parse_args(["fig2"]).listen is None
        args = build_parser().parse_args(["worker", "--connect", "host:1"])
        assert (args.connect, args.worker_id, args.cache_dir) == ("host:1", None, None)

    _BAD_ENDPOINTS = [
        (["fig2", "--listen", "nope"], "--listen: endpoint must look like host:port"),
        (["fig3", "--listen", ":8000"], "--listen: endpoint ':8000' has an empty host"),
        (["run", "--listen", "host:70000"], "--listen: endpoint port must be in [0, 65535]"),
        (["scenarios", "--listen", "host:http"], "--listen: endpoint 'host:http' has a non-numeric"),
        (["worker", "--connect", "nope"], "--connect: endpoint must look like host:port"),
        (["worker", "--connect", "host:0"], "--connect: endpoint port must be in [1, 65535]"),
        (["worker", "--connect", "host:-1"], "--connect: endpoint port must be in [1, 65535]"),
    ]

    @pytest.mark.parametrize(
        ("argv", "message"),
        _BAD_ENDPOINTS,
        ids=[" ".join(argv) for argv, _ in _BAD_ENDPOINTS],
    )
    def test_invalid_endpoints_rejected_before_network_io(self, argv, message, capsys):
        """Endpoint validation is a parse-time usage error, no socket touched."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {message}" in capsys.readouterr().err

    def test_listen_port_zero_is_allowed(self):
        args = build_parser().parse_args(["chaos", "--listen", "127.0.0.1:0"])
        assert args.listen == "127.0.0.1:0"

    def test_validation_fires_before_any_fork(self, monkeypatch, capsys):
        import repro.runtime.context as context_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("runtime started despite invalid options")

        monkeypatch.setattr(context_module, "use_runtime", boom)
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--listen", "127.0.0.1:0", "--jobs", "-5"])
        assert exc.value.code == 2
        assert "argument --jobs:" in capsys.readouterr().err

    def test_worker_needs_connect(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worker"])
        assert exc.value.code == 2
        assert "--connect" in capsys.readouterr().err

    def test_worker_connect_refused_is_a_clean_exit(self, monkeypatch):
        import socket

        from repro.runtime import transport as transport_module

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        original = transport_module.TransportClient.__init__

        def fast_init(self, endpoint, worker_id="client", **kwargs):
            kwargs["max_retry_elapsed"] = 0.3
            original(self, endpoint, worker_id, **kwargs)

        monkeypatch.setattr(
            transport_module.TransportClient, "__init__", fast_init
        )
        with pytest.raises(SystemExit, match="unreachable"):
            main(["worker", "--connect", f"127.0.0.1:{port}"])

    def test_listen_busy_port_is_a_clean_exit(self):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            with pytest.raises(SystemExit, match="cannot listen"):
                main(["fig2", "--listen", f"127.0.0.1:{port}", "--no-cache"])
        finally:
            blocker.close()

    def test_fig2_listen_matches_fig2_output(self, tmp_path, capsys):
        argv = [
            "fig2", "--packets", "40", "--seed", "1",
            "--interarrivals", "4,20", "--no-cache",
        ]
        assert main(argv) == 0
        fig2_out = capsys.readouterr().out

        assert main(argv + ["--listen", "127.0.0.1:0", "--jobs", "2"]) == 0
        fabric_out = capsys.readouterr().out
        assert "fabric endpoint listening on 127.0.0.1:" in fabric_out
        assert "6 uploads (0 duplicates)" in fabric_out

        def tables_only(text):
            return [
                line for line in text.splitlines()
                if line.strip() and not line.startswith("fabric")
            ]

        assert tables_only(fig2_out) == tables_only(fabric_out)


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 4
        assert args.capacity == 64
        assert args.max_buffered == 256
        assert args.port == 0
        assert args.burst_factor == 1.0
        assert args.snapshot is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--rate", "0"],
            ["serve", "--rate", "-5"],
            ["serve", "--flows", "0"],
            ["serve", "--events", "-1"],
            ["serve", "--duration", "0"],
            ["serve", "--burst-factor", "0.5"],
            ["serve", "--port", "-2"],
            ["serve", "--drain-timeout", "0"],
            ["serve", "--shards", "0"],
            ["serve", "--mean-delay", "0"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_invalid_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_tiny_run_end_to_end(self, capsys, tmp_path):
        import json

        report = tmp_path / "report.json"
        assert main([
            "serve", "--events", "40", "--rate", "4000",
            "--mean-delay", "0.005", "--port", "-1",
            "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "service up" in out
        assert "submitted       : 40" in out
        payload = json.loads(report.read_text())
        assert payload["submitted"] == 40
        assert len(payload["releases"]) == payload["outcomes"]["admitted"]
