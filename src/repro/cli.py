"""Command-line interface: ``python -m repro <command>``.

Every paper artifact can be regenerated from the shell without writing
code.  Commands:

* ``fig1`` -- print the Figure 1 topology facts;
* ``fig2`` -- regenerate Figure 2(a) (MSE) and 2(b) (latency) tables;
* ``fig3`` -- regenerate the Figure 3 adversary comparison;
* ``run``  -- one simulation of a chosen case at a chosen load, scored
  by a chosen adversary;
* ``chaos`` -- the fault-injection sweep: delivery, privacy, latency
  and retransmission overhead vs fault intensity, drop-tail vs RCAD;
* ``scenarios`` -- expand a declarative scenario suite (JSON: topology
  family x source placement x traffic mix x buffer model x registry
  defenses x seeds) into a matrix run on the parallel runtime and
  print per-cell privacy/latency/delivery summaries;
  ``--example`` prints a ready-to-run suite, ``--list-defenses`` the
  defense registry;
* ``theory`` -- the Section 3 bound validations;
* ``queueing`` -- the Section 4 closed-form validations;
* ``metrics`` -- summarize a telemetry run manifest (``--series`` /
  ``--chart`` inspect the recorded time series);
* ``cache`` -- inspect and heal the on-disk result cache
  (``stats`` / ``verify`` / ``purge`` / ``prune --max-bytes N
  --compact-journals``);
* ``worker`` -- join a simulation command started with ``--listen
  HOST:PORT`` from another shell or host (``--connect HOST:PORT``) and
  compute its sweep cells until the command ends;
* ``serve`` -- run the streaming temporal-privacy service against a
  closed-loop load generator: sharded delay buffers, the tiered
  degradation ladder, Prometheus ``/metrics`` plus ``/healthz`` and
  ``/readyz`` probes, crash-safe snapshots (SIGTERM persists every
  buffered event; the next ``serve --snapshot`` restores them) and
  clean drain on SIGINT or end of load.

Common options: ``--packets`` (default 1000, the paper's size; use a
smaller value for a fast look), ``--seed``, and for ``fig2``/``fig3``
``--interarrivals`` as comma-separated values.

Simulation commands also accept the runtime options ``--jobs N``
(process-pool parallelism; results are bit-identical to serial; 0
means one worker per CPU), ``--cache-dir PATH`` and ``--no-cache``
(the on-disk result cache is on by default; a cache-stats line is
printed after the command), plus the resilience options ``--retries``,
``--item-timeout``, ``--quarantine`` and ``--resume`` (see
EXPERIMENTS.md "Fault-tolerant sweeps").  An interrupted sweep
(SIGINT) flushes its checkpoint journal and prints the ``--resume``
command that skips the already-completed cells.  ``--listen
HOST:PORT`` runs the sweeps on the distributed fabric instead of a
local process pool: ``--jobs`` local workers plus every ``repro worker
--connect HOST:PORT`` that joins, under the same retry, journal and
bit-identity rules (EXPERIMENTS.md "Distributed sweeps").

``--telemetry`` instruments every simulation the command runs (buffer
occupancy series, latency histograms, engine counters) and writes a
run manifest plus a JSONL series file under ``--telemetry-dir``
(default ``<cache-dir>/telemetry``); ``repro metrics`` reads them
back.  Telemetry changes the cached-result identity, so instrumented
and plain runs never collide in the cache.  Cache hits re-publish the
stored run's telemetry; journal-``--resume``d cells bypass the
simulator entirely and are not re-instrumented (the manifest records
0 runs for them).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


#: commands that run simulations and therefore take runtime options.
_SIMULATION_COMMANDS = ("fig2", "fig3", "run", "chaos", "scenarios")


def _int_at_least(minimum: int, requirement: str):
    """argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


#: the types of every verb's counts (``--packets``, ``--flows``, the
#: ``serve`` sizes), of ``--seed``, ``--jobs``, ``--retries``, ``serve
#: --events`` and ``cache prune --max-bytes``
_positive_int = _int_at_least(1, "at least 1")
_non_negative_int = _int_at_least(0, "non-negative")


def _flow_id(text: str) -> int:
    """argparse type: a flow id of the paper's deployment (1..4)."""
    # Imported on use: the experiments package is not needed to parse.
    from repro.experiments.common import PAPER_N_SOURCES

    requirement = f"a flow id in 1..{PAPER_N_SOURCES}"
    value = _int_at_least(1, requirement)(text)
    if value > PAPER_N_SOURCES:
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero (NaN and inf rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}"
        )
    return value


def _float_at_least_one(text: str) -> float:
    """argparse type: a finite number of at least 1."""
    value = _positive_float(text)
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _positive_float_list(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated :func:`_positive_float` values."""
    values = tuple(_positive_float(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected comma-separated positive numbers")
    return values


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1] (NaN rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return value


def _fraction_list(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated :func:`_fraction` values."""
    values = tuple(_fraction(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected comma-separated values in [0, 1]")
    return values


def _endpoint(allow_port_zero: bool):
    """argparse type: a ``host:port`` address (checked, kept as text)."""

    def parse(text: str) -> str:
        # Imported on use: the transport module loads asyncio.
        from repro.runtime.transport import parse_endpoint

        try:
            parse_endpoint(text, allow_port_zero=allow_port_zero)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return text

    return parse


def _add_runtime_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=_non_negative_int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial; "
        "0 = one per CPU; results are bit-identical at any N)",
    )
    sub.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (neither read nor write)",
    )
    sub.add_argument(
        "--cache-dir", type=str, default=None, metavar="PATH",
        help="result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/results)",
    )
    sub.add_argument(
        "--retries", type=_non_negative_int, default=0, metavar="K",
        help="retry a failing/hung sweep cell up to K extra times with "
        "exponential backoff (default 0 = fail fast)",
    )
    sub.add_argument(
        "--item-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout; a hung worker is killed and "
        "the cell retried/quarantined (parallel and --listen runs only)",
    )
    sub.add_argument(
        "--quarantine", action="store_true",
        help="complete the sweep even when cells fail permanently: "
        "failed cells are quarantined and listed in a failure report "
        "instead of aborting the run",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint journal: cells completed by an "
        "earlier (possibly interrupted) run are not recomputed",
    )
    sub.add_argument(
        "--telemetry", action="store_true",
        help="instrument the simulations (occupancy series, latency "
        "histograms, engine counters) and emit a run manifest + metric "
        "series next to the result cache; inspect with 'repro metrics'",
    )
    sub.add_argument(
        "--telemetry-dir", type=str, default=None, metavar="PATH",
        help="where to write the manifest/series artifacts "
        "(default: <cache-dir>/telemetry)",
    )
    sub.add_argument(
        "--listen", type=_endpoint(allow_port_zero=True), default=None,
        metavar="HOST:PORT",
        help="run the sweeps on the distributed fabric served at HOST:PORT "
        "(port 0 = ephemeral, printed at start): --jobs local workers plus "
        "every 'repro worker --connect HOST:PORT' that joins",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Temporal Privacy in Wireless Sensor Networks' "
            "(ICDCS 2007): regenerate the paper's figures and analyses."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("fig1", help="print the Figure 1 topology facts")

    for name, help_text in (
        ("fig2", "regenerate Figure 2(a) MSE and 2(b) latency tables"),
        ("fig3", "regenerate the Figure 3 adversary comparison"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--packets", type=_positive_int, default=1000,
            help="packets per source (paper: 1000)",
        )
        sub.add_argument("--seed", type=_non_negative_int, default=0, help="root random seed")
        sub.add_argument(
            "--interarrivals", type=_positive_float_list,
            default="2,4,6,8,10,12,14,16,18,20",
            help="comma-separated 1/lambda sweep values",
        )
        sub.add_argument(
            "--chart", action="store_true",
            help="also draw ASCII bar charts of the series",
        )
        sub.add_argument(
            "--csv", type=str, default=None, metavar="PATH",
            help="also write the series as CSV to PATH "
                 "(fig2 writes PATH and PATH.latency.csv)",
        )
        sub.add_argument(
            "--json", type=str, default=None, metavar="PATH",
            help="also write the series as JSON to PATH "
                 "(fig2 writes PATH and PATH.latency.json)",
        )
        if name == "fig3":
            sub.add_argument(
                "--path-aware", action="store_true",
                help="include the extension path-aware adversary series",
            )
        _add_runtime_options(sub)

    run = commands.add_parser(
        "run", help="one simulation at one load, scored by one adversary"
    )
    run.add_argument(
        "--case", choices=("no-delay", "unlimited", "rcad"), default="rcad"
    )
    run.add_argument(
        "--adversary", choices=("naive", "baseline", "adaptive"), default="baseline"
    )
    run.add_argument("--interarrival", type=_positive_float, default=2.0)
    run.add_argument("--packets", type=_positive_int, default=1000)
    run.add_argument("--seed", type=_non_negative_int, default=0)
    run.add_argument("--flow", type=_flow_id, default=1, help="flow id to score (1..4)")
    run.add_argument(
        "--traffic", choices=("periodic", "poisson"), default="periodic",
        help="source traffic model (default: the paper's periodic sources; "
        "poisson matches the Section 4 queueing predictions)",
    )
    _add_runtime_options(run)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection sweep: drop-tail vs RCAD under bursty loss, "
        "jitter, duplication, crashes and ARQ",
    )
    chaos.add_argument(
        "--packets", type=_positive_int, default=300,
        help="packets per source (smaller than the paper's 1000: the sweep "
        "runs many cells)",
    )
    chaos.add_argument("--seed", type=_non_negative_int, default=0, help="root random seed")
    chaos.add_argument(
        "--intensities", type=_fraction_list, default=(0.0, 0.25, 0.5, 1.0),
        help="comma-separated fault intensity values in [0, 1]",
    )
    chaos.add_argument(
        "--interarrival", type=_positive_float, default=2.0,
        help="1/lambda of every source",
    )
    chaos.add_argument(
        "--no-arq", action="store_true",
        help="skip the ARQ-enabled half of the sweep",
    )
    _add_runtime_options(chaos)

    scenarios = commands.add_parser(
        "scenarios",
        help="expand a scenario suite file into a (defense x seed) "
        "matrix run with per-cell privacy/latency/delivery summaries",
    )
    scenarios.add_argument(
        "spec", nargs="?", default=None,
        help="scenario suite JSON file (start from 'repro scenarios "
        "--example > suite.json'); not needed with --example / "
        "--list-defenses",
    )
    scenarios.add_argument(
        "--example", action="store_true",
        help="print the built-in example suite (3 topology families x "
        "5 registry defenses) as JSON and exit",
    )
    scenarios.add_argument(
        "--list-defenses", action="store_true",
        help="list the defense registry entries with their parameter "
        "signatures and exit",
    )
    scenarios.add_argument(
        "--scenario", type=str, default=None, metavar="NAME",
        help="run only the named scenario of the suite",
    )
    scenarios.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the per-cell summaries as JSON to PATH",
    )
    _add_runtime_options(scenarios)

    for name, help_text in (
        ("theory", "Section 3 information-bound validations"),
        ("queueing", "Section 4 queueing validations"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--fast", action="store_true",
            help="reduced sample sizes / horizons for a quick look",
        )

    metrics = commands.add_parser(
        "metrics", help="summarize a telemetry run manifest and its series"
    )
    metrics.add_argument(
        "path", nargs="?", default=None,
        help="manifest file or telemetry directory (default: the newest "
        "manifest under the default cache's telemetry directory)",
    )
    metrics.add_argument(
        "--run", type=str, default=None, metavar="KEY",
        help="run fingerprint (prefix accepted) to inspect; default: "
        "the manifest's first run",
    )
    metrics.add_argument(
        "--series", type=str, default=None, metavar="NAME",
        help="print one named time series of the selected run as "
        "'time value' lines",
    )
    metrics.add_argument(
        "--chart", action="store_true",
        help="draw occupancy-vs-time and preemption-rate-vs-time charts "
        "for the selected run",
    )
    metrics.add_argument(
        "--node", type=int, default=None, metavar="N",
        help="restrict --chart occupancy to one node id",
    )

    serve = commands.add_parser(
        "serve",
        help="run the streaming temporal-privacy service with a "
        "closed-loop load generator",
    )
    serve.add_argument(
        "--shards", type=_positive_int, default=4, help="independent buffer shards"
    )
    serve.add_argument(
        "--capacity", type=_positive_int, default=64, help="buffer slots per shard"
    )
    serve.add_argument(
        "--max-buffered", type=_positive_int, default=256,
        help="global bound on buffered events; beyond it arrivals are shed",
    )
    serve.add_argument(
        "--mean-delay", type=_positive_float, default=0.05,
        help="mean exponential added delay in seconds",
    )
    serve.add_argument("--seed", type=_non_negative_int, default=0, help="root random seed")
    serve.add_argument(
        "--rate", type=_positive_float, default=500.0,
        help="mean offered events/second",
    )
    serve.add_argument(
        "--flows", type=_positive_int, default=8,
        help="synthetic flow ids to round-robin",
    )
    serve.add_argument(
        "--events", type=_non_negative_int, default=1000,
        help="events to generate (0 = no load: restore a snapshot and drain)",
    )
    serve.add_argument(
        "--duration", type=_positive_float, default=None, metavar="SECONDS",
        help="generate rate*duration events instead of --events",
    )
    serve.add_argument(
        "--burst-factor", type=_float_at_least_one, default=1.0,
        help="1 = steady Poisson arrivals; >1 = Markov on/off bursts at "
        "rate*burst-factor during ON periods (same mean rate)",
    )
    serve.add_argument(
        "--port", type=_int_at_least(-1, "-1, 0 or a port number"), default=0,
        help="metrics/health HTTP port (0 = ephemeral, printed at start; "
        "-1 = no HTTP endpoint)",
    )
    serve.add_argument(
        "--snapshot", type=str, default=None, metavar="PATH",
        help="crash-safe snapshot file: SIGTERM persists buffered events "
        "here, the next serve restores them",
    )
    serve.add_argument(
        "--report", type=str, default=None, metavar="PATH",
        help="write a JSON run report (outcomes, releases, stats) to PATH",
    )
    serve.add_argument(
        "--drain-timeout", type=_positive_float, default=60.0, metavar="SECONDS",
        help="max wall time to wait for buffers to empty on drain",
    )

    worker = commands.add_parser(
        "worker",
        help="join a command started with --listen as a remote worker",
    )
    worker.add_argument(
        "--connect", type=_endpoint(allow_port_zero=False), required=True,
        metavar="HOST:PORT", help="the coordinator's --listen address",
    )
    worker.add_argument(
        "--worker-id", type=str, default=None, metavar="ID",
        help="unique worker id (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--cache-dir", type=str, default=None, metavar="PATH",
        help="result cache to read/write (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/results; sharing one directory across workers "
        "deduplicates work)",
    )

    cache = commands.add_parser(
        "cache", help="inspect and heal the on-disk result cache"
    )
    cache.add_argument(
        "--cache-dir", type=str, default=None, metavar="PATH",
        help="cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/results)",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_commands.add_parser(
        "stats", help="entry/quarantine/journal counts and byte totals"
    )
    cache_commands.add_parser(
        "verify",
        help="checksum every entry; corrupt files are moved to "
        "<dir>/quarantine, not deleted",
    )
    purge = cache_commands.add_parser(
        "purge", help="delete every entry, quarantined file and journal"
    )
    purge.add_argument(
        "--keep-quarantine", action="store_true",
        help="leave quarantined files in place for inspection",
    )
    prune = cache_commands.add_parser(
        "prune",
        help="evict oldest entries until the store fits a byte budget "
        "and/or compact the checkpoint journals",
    )
    prune.add_argument(
        "--max-bytes", type=_non_negative_int, default=None, metavar="N",
        help="target size of the entry store in bytes",
    )
    prune.add_argument(
        "--compact-journals", action="store_true",
        help="rewrite every sweep journal keeping only the last record "
        "per cell (drops superseded duplicates and corrupt lines); do "
        "not run against a live sweep",
    )
    return parser


def _cmd_fig1() -> None:
    from repro.experiments.fig1 import topology_summary

    print(topology_summary().render())


def _export(table, path: str | None, kind: str, suffix: str = "") -> None:
    if path is None:
        return
    target = path if not suffix else f"{path}.{suffix}.{kind}"
    text = table.to_csv() if kind == "csv" else table.to_json()
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {target}")


def _cmd_fig2(args: argparse.Namespace) -> None:
    from repro.experiments.fig2 import figure2

    mse, latency = figure2(
        interarrivals=args.interarrivals,
        n_packets=args.packets,
        seed=args.seed,
    )
    print(mse.render())
    print()
    print(latency.render())
    if args.chart:
        from repro.analysis.charts import render_chart

        print()
        print(render_chart(mse, log_scale=True))
        print()
        print(render_chart(latency))
    _export(mse, args.csv, "csv")
    _export(latency, args.csv, "csv", suffix="latency")
    _export(mse, args.json, "json")
    _export(latency, args.json, "json", suffix="latency")


def _cmd_fig3(args: argparse.Namespace) -> None:
    from repro.experiments.fig3 import figure3

    table = figure3(
        interarrivals=args.interarrivals,
        n_packets=args.packets,
        seed=args.seed,
        include_path_aware=args.path_aware,
    )
    print(table.render())
    if args.chart:
        from repro.analysis.charts import render_chart

        print()
        print(render_chart(table, log_scale=True))
    _export(table, args.csv, "csv")
    _export(table, args.json, "json")


def _cmd_worker(args: argparse.Namespace) -> int:
    import os
    import socket

    from repro.runtime import default_cache_dir
    from repro.runtime.fabric import FabricError, FabricWorker
    from repro.runtime.transport import TransportClient, TransportError

    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    worker = FabricWorker(
        TransportClient(args.connect, worker_id),
        cache_dir=args.cache_dir or default_cache_dir(),
    )
    print(f"worker {worker_id} joining {args.connect}", flush=True)
    try:
        computed = worker.run()
    except KeyboardInterrupt:
        print(f"worker {worker_id}: interrupted, its leases will lapse")
        return 130
    except (FabricError, TransportError) as exc:
        raise SystemExit(f"worker {worker_id}: {exc}")
    print(f"worker {worker_id}: computed {computed} cells")
    return 0


def _cmd_run(args: argparse.Namespace) -> None:
    from repro.experiments.common import build_adversary, run_paper_case, score_flow

    result = run_paper_case(
        interarrival=args.interarrival,
        case=args.case,
        n_packets=args.packets,
        seed=args.seed,
        traffic=args.traffic,
    )
    metrics = score_flow(
        result, build_adversary(args.adversary, args.case), flow_id=args.flow
    )
    print(f"case            : {args.case}")
    print(f"traffic         : {args.traffic}")
    print(f"adversary       : {args.adversary}")
    print(f"1/lambda        : {args.interarrival:g}")
    print(f"flow            : {args.flow} ({metrics.n_packets} packets)")
    print(f"adversary MSE   : {metrics.mse:,.1f}")
    print(f"adversary RMSE  : {metrics.rmse:,.2f}")
    print(f"mean latency    : {metrics.latency.mean:.2f}")
    print(f"p95 latency     : {metrics.latency.p95:.2f}")
    print(f"preemptions     : {result.total_preemptions()}")
    print(f"drops           : {result.drop_count()}")


def _cmd_chaos(args: argparse.Namespace) -> None:
    from repro.experiments.chaos import chaos_sweep, render_chaos_rows

    rows = chaos_sweep(
        intensities=args.intensities,
        arq_modes=(False,) if args.no_arq else (False, True),
        interarrival=args.interarrival,
        n_packets=args.packets,
        seed=args.seed,
    )
    print(render_chaos_rows(rows))


def _cmd_scenarios_info(args: argparse.Namespace) -> int:
    """--example / --list-defenses: informational, no runtime needed."""
    import json

    if args.example:
        from repro.scenarios import example_suite, suite_to_dict

        print(json.dumps(suite_to_dict(example_suite()), indent=2))
        return 0
    from repro.defenses import DEFENSES

    for name in DEFENSES.names():
        print(f"{name}{DEFENSES.signature(name)}")
        print(f"    {DEFENSES.describe()[name]}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> None:
    import json

    from repro.scenarios import (
        load_suite,
        render_summaries,
        run_suite,
        summaries_to_dict,
    )

    if args.spec is None:
        raise SystemExit(
            "scenarios needs a suite file (generate one with "
            "'repro scenarios --example > suite.json')"
        )
    try:
        specs = load_suite(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.scenario is not None:
        specs = [spec for spec in specs if spec.name == args.scenario]
        if not specs:
            raise SystemExit(
                f"no scenario named {args.scenario!r} in {args.spec}"
            )
    summaries = run_suite(specs)
    print(render_summaries(summaries))
    if args.json is not None:
        payload = summaries_to_dict(summaries)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")


def _cmd_theory(fast: bool) -> None:
    from repro.experiments.theory import (
        delay_distribution_comparison,
        validate_bits_through_queues,
        validate_epi_bound,
    )

    n_realizations = 1200 if fast else 4000
    n_samples = 2500 if fast else 8000
    print(validate_bits_through_queues(n_realizations=n_realizations).render())
    print()
    print(validate_epi_bound(n_samples=n_samples).render())
    print()
    print("# delay families at equal mean (nats of leakage)")
    for family, value in sorted(
        delay_distribution_comparison(n_samples=n_samples).items(),
        key=lambda kv: kv[1],
    ):
        print(f"  {family:>12}: {value:.3f}")


def _cmd_queueing(fast: bool) -> None:
    from repro.experiments.queueing_validation import (
        erlang_loss_validation,
        mm_infinity_validation,
        tree_occupancy_validation,
    )

    horizon = 10_000.0 if fast else 60_000.0
    n_packets = 800 if fast else 2000
    report = mm_infinity_validation(horizon=horizon)
    print("# M/M/inf validation (lambda=0.5, 1/mu=30)")
    for key, value in report.items():
        print(f"  {key:>18}: {value:10.4f}")
    print()
    print(erlang_loss_validation(horizon=horizon).render())
    print()
    print(tree_occupancy_validation(n_packets=n_packets).render())


def _resolve_manifest(path_arg: str | None):
    from pathlib import Path

    from repro.runtime import default_cache_dir
    from repro.telemetry import latest_manifest

    if path_arg is None:
        path = latest_manifest(Path(default_cache_dir()) / "telemetry")
        if path is None:
            raise SystemExit(
                "no telemetry manifests found; run a simulation command "
                "with --telemetry first (or pass a manifest path)"
            )
        return path
    path = Path(path_arg)
    if path.is_dir():
        found = latest_manifest(path)
        if found is None:
            raise SystemExit(f"no *.manifest.json under {path}")
        return found
    if not path.is_file():
        raise SystemExit(f"no such manifest: {path}")
    return path


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry import load_manifest, load_series

    manifest_path = _resolve_manifest(args.path)
    manifest = load_manifest(manifest_path)
    print(f"manifest        : {manifest_path}")
    print(f"command         : {manifest['command']}")
    print(f"git describe    : {manifest['git_describe']}")
    print(f"wall time       : {manifest['wall_time_seconds']:.2f}s")
    print(f"simulations     : {manifest['runtime']['simulations']} "
          f"({manifest['runtime']['sim_seconds']:.2f}s simulated wall, "
          f"{manifest['runtime']['jobs']} jobs)")
    print(f"runs            : {len(manifest['runs'])}")
    counters = manifest["metrics"]["counters"]
    if counters:
        print("counters:")
        for name, value in counters.items():
            print(f"  {name:<24} {value}")
    histograms = manifest["metrics"]["histograms"]
    if histograms:
        print("histograms:")
        for name, data in histograms.items():
            if data["count"]:
                print(
                    f"  {name:<24} n={data['count']} "
                    f"mean={data['sum'] / data['count']:.2f} "
                    f"min={data['min']:.2f} max={data['max']:.2f}"
                )
            else:
                print(f"  {name:<24} (empty)")

    wants_series = args.series is not None or args.chart
    if not wants_series:
        return 0
    if not manifest.get("series_file"):
        raise SystemExit("manifest has no series file")
    series_path = manifest_path.parent / manifest["series_file"]
    if not series_path.is_file():
        raise SystemExit(f"series file missing: {series_path}")
    series, run_metrics = load_series(series_path)

    run_key = args.run or (manifest["runs"][0] if manifest["runs"] else None)
    if run_key is None:
        raise SystemExit("manifest records no runs")
    # Resolve against the metrics lines: every run has one, whereas a
    # run may record no series at all (e.g. the no-delay case).
    known = set(run_metrics) | {key for key, _ in series}
    matches = sorted(key for key in known if key.startswith(run_key))
    if not matches:
        raise SystemExit(f"no run matching {run_key!r} in {series_path.name}")
    if len(matches) > 1:
        raise SystemExit(f"run prefix {run_key!r} is ambiguous: {matches}")
    run_key = matches[0]
    print(f"run             : {run_key}")

    if args.series is not None:
        one = series.get((run_key, args.series))
        if one is None:
            available = sorted(n for k, n in series if k == run_key)
            raise SystemExit(
                f"no series {args.series!r} for this run; available: {available}"
            )
        for t, v in zip(one.times, one.values):
            print(f"{t:g} {v:g}")
    if args.chart:
        from repro.analysis.charts import render_event_rate, render_timeseries

        occupancy = sorted(
            (name, s) for (key, name), s in series.items()
            if key == run_key and name.startswith("occupancy/")
        )
        if args.node is not None:
            occupancy = [
                (name, s) for name, s in occupancy
                if name == f"occupancy/node-{args.node}"
            ]
            if not occupancy:
                raise SystemExit(f"no occupancy series for node {args.node}")
        for name, s in occupancy:
            print()
            print(render_timeseries(
                s.times, s.values, title=name, y_label="packets buffered",
            ))
        preempts = series.get((run_key, "events/preempt"))
        if preempts is not None and len(preempts):
            print()
            print(render_event_rate(
                preempts.times, title="preemption rate vs time", window=50.0,
            ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.service import (
        MetricsServer,
        ServiceConfig,
        ServiceLoadGenerator,
        TemporalPrivacyService,
    )
    from repro.traffic import MarkovOnOffTraffic, PoissonTraffic

    try:
        config = ServiceConfig(
            shards=args.shards,
            shard_capacity=args.capacity,
            max_buffered_total=args.max_buffered,
            mean_delay=args.mean_delay,
            seed=args.seed,
            snapshot_path=args.snapshot,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    if args.burst_factor > 1.0:
        # Same mean rate as the Poisson case: ON at rate*factor for a
        # duty cycle of 1/factor.
        mean_on = 0.1
        model = MarkovOnOffTraffic(
            burst_rate=args.rate * args.burst_factor,
            mean_on=mean_on,
            mean_off=mean_on * (args.burst_factor - 1.0),
        )
    else:
        model = PoissonTraffic(rate=args.rate)
    n_events = (
        args.events if args.duration is None
        else max(1, int(args.rate * args.duration))
    )

    async def _run() -> int:
        service = TemporalPrivacyService(config)
        gen = ServiceLoadGenerator(service, model, flows=args.flows, seed=args.seed)
        service.set_on_release(gen.on_release)
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        sigint = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        loop.add_signal_handler(signal.SIGINT, sigint.set)

        restored = await service.start()
        if restored:
            print(f"restored {restored} buffered events from {args.snapshot}")
        http = None
        if args.port >= 0:
            http = MetricsServer(service, port=args.port)
            await http.start()
            print(f"serving metrics on http://127.0.0.1:{http.port}/metrics")
        print(
            f"service up: {config.shards} shards x {config.shard_capacity} "
            f"slots, global bound {config.max_buffered_total}, "
            f"mean delay {config.mean_delay:g}s", flush=True,
        )

        drive = asyncio.create_task(gen.drive(n_events))
        waiters = {
            asyncio.create_task(sigterm.wait()): "sigterm",
            asyncio.create_task(sigint.wait()): "sigint",
        }
        done, _ = await asyncio.wait(
            {drive, *waiters}, return_when=asyncio.FIRST_COMPLETED
        )
        persisted = None
        exit_code = 0
        if any(waiters.get(t) == "sigterm" for t in done):
            drive.cancel()
            persisted = await service.shutdown()
            print(f"SIGTERM: persisted {persisted} buffered events to snapshot")
        else:
            if any(waiters.get(t) == "sigint" for t in done):
                drive.cancel()
                print("SIGINT: draining...")
            drained = await service.drain(timeout=args.drain_timeout)
            if not drained:
                print(
                    f"drain timed out after {args.drain_timeout:g}s with "
                    f"{service.buffered_total} events still buffered"
                )
                exit_code = 1
        for task in (drive, *waiters):
            task.cancel()
        await asyncio.gather(drive, *waiters, return_exceptions=True)
        if http is not None:
            await http.stop()

        report = gen.report
        stats = service.stats()
        counters = stats["counters"]
        print(f"submitted       : {report.submitted}")
        print(f"admitted        : {report.admitted}")
        print(f"released        : {counters.get('service/released', 0)} "
              f"({counters.get('service/released-early', 0)} early)")
        print(f"shed            : {report.shed}")
        print(f"tier transitions: {stats['tier_transitions']}")
        if report.wall_time > 0:
            print(f"events/sec      : {report.submitted / report.wall_time:,.0f}")
        if args.report:
            payload = {
                "submitted": report.submitted,
                "outcomes": {k.value: v for k, v in report.outcomes.items()},
                "restored": [
                    [e.flow_id, e.seq] for e in service.restored_events
                ],
                "persisted": persisted,
                "releases": [
                    {
                        "flow_id": r.event.flow_id,
                        "seq": r.event.seq,
                        "shard": r.shard,
                        "admitted_at": r.admitted_at,
                        "release_time": r.release_time,
                        "released_at": r.released_at,
                        "early": r.early,
                    }
                    for r in report.releases
                ],
                "stats": stats,
            }
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.report}")
        return exit_code

    return asyncio.run(_run())


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    journal_dir = cache.directory / "journal"

    def journal_files() -> list:
        if not journal_dir.is_dir():
            return []
        return sorted(p for p in journal_dir.iterdir() if p.is_file())

    if args.cache_command == "stats":
        print(cache.disk_stats().render())
        files = journal_files()
        total = sum(p.stat().st_size for p in files)
        print(f"journal         : {len(files)} sweeps ({total} bytes)")
    elif args.cache_command == "verify":
        report = cache.verify()
        print(report.render())
        if report.quarantined:
            print(f"(moved to {cache.quarantine_dir})")
    elif args.cache_command == "purge":
        removed, reclaimed = cache.purge(
            include_quarantine=not args.keep_quarantine
        )
        journal_removed = 0
        for path in journal_files():
            reclaimed += path.stat().st_size
            path.unlink()
            journal_removed += 1
        print(
            f"purged {removed} cache files and {journal_removed} journal "
            f"sweeps; reclaimed {reclaimed} bytes"
        )
    elif args.cache_command == "prune":
        if args.max_bytes is None and not args.compact_journals:
            raise SystemExit(
                "prune needs --max-bytes and/or --compact-journals"
            )
        if args.max_bytes is not None:
            removed, reclaimed = cache.prune(args.max_bytes)
            remaining = cache.disk_stats()
            print(
                f"pruned {removed} oldest entries; reclaimed {reclaimed} bytes; "
                f"{remaining.entries} entries ({remaining.entry_bytes} bytes) remain"
            )
        if args.compact_journals:
            from repro.runtime import compact_journal

            targets = [p for p in journal_files() if p.suffix == ".jsonl"]
            reclaimed = dropped = 0
            for path in targets:
                stats = compact_journal(path)
                reclaimed += stats.bytes_reclaimed
                dropped += (
                    stats.dropped_superseded
                    + stats.dropped_events
                    + stats.dropped_corrupt
                )
                if stats.bytes_reclaimed or stats.dropped_corrupt:
                    print(f"  {stats.render()}")
            print(
                f"compacted {len(targets)} journals; dropped {dropped} "
                f"lines, reclaimed {reclaimed} bytes"
            )
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown cache command {args.cache_command!r}")
    return 0


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "fig1":
        _cmd_fig1()
    elif args.command == "fig2":
        _cmd_fig2(args)
    elif args.command == "fig3":
        _cmd_fig3(args)
    elif args.command == "run":
        _cmd_run(args)
    elif args.command == "chaos":
        _cmd_chaos(args)
    elif args.command == "scenarios":
        _cmd_scenarios(args)
    elif args.command == "theory":
        _cmd_theory(args.fast)
    elif args.command == "queueing":
        _cmd_queueing(args.fast)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an
        # error.  Redirect stdout to devnull so the interpreter's
        # shutdown flush does not print a second traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "scenarios" and (args.example or args.list_defenses):
        return _cmd_scenarios_info(args)
    if args.command not in _SIMULATION_COMMANDS:
        _dispatch(args)
        return 0

    import os
    import time

    from repro.runtime import (
        ResultCache,
        RetryPolicy,
        default_cache_dir,
        use_runtime,
    )

    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.resume and cache is None:
        raise SystemExit("--resume needs the result cache (drop --no-cache)")
    retry = RetryPolicy(
        max_attempts=args.retries + 1,
        timeout=args.item_timeout,
        on_failure="quarantine" if args.quarantine else "raise",
    )
    journal_dir = cache.directory / "journal" if cache is not None else None
    fabric_errors: tuple = ()
    if args.listen is not None:
        from repro.runtime.fabric import FabricError

        fabric_errors = (FabricError,)
    started_at = time.time()
    started_clock = time.monotonic()
    try:
        with use_runtime(
            jobs=jobs,
            cache=cache,
            retry=retry,
            journal_dir=journal_dir,
            resume=args.resume,
            telemetry=args.telemetry,
            listen=args.listen,
        ) as context:
            if args.listen is not None:
                address = context.fabric.address
                print(
                    f"fabric endpoint listening on {address} "
                    f"(join with: repro worker --connect {address})",
                    flush=True,
                )
            _dispatch(args)
    except KeyboardInterrupt:
        # The supervisor already flushed the journal and printed the
        # resume hint; exit with the conventional SIGINT code.
        return 130
    except fabric_errors as exc:
        raise SystemExit(str(exc))
    if args.telemetry:
        import dataclasses
        from pathlib import Path

        from repro.telemetry import build_manifest, write_run_artifacts

        if args.telemetry_dir is not None:
            telemetry_dir = Path(args.telemetry_dir)
        elif cache is not None:
            telemetry_dir = cache.directory / "telemetry"
        else:
            telemetry_dir = Path(args.cache_dir or default_cache_dir()) / "telemetry"
        manifest = build_manifest(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            aggregate=context.telemetry,
            wall_time_seconds=time.monotonic() - started_clock,
            seed=getattr(args, "seed", None),
            jobs=jobs,
            simulations=context.stats.simulations,
            sim_seconds=context.stats.sim_seconds,
            cache_stats=dataclasses.asdict(cache.stats) if cache is not None else None,
            started_at=started_at,
        )
        manifest_path, _ = write_run_artifacts(
            telemetry_dir, args.command, manifest, context.telemetry
        )
        print(f"telemetry manifest: {manifest_path}")
    if args.listen is not None:
        print(context.fabric.render())
    if cache is not None:
        print(cache.stats.render())
    if journal_dir is not None:
        print(context.journal_stats.render())
    for report in context.failure_reports:
        print(report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
