"""Command-line interface: ``servet`` (or ``python -m repro``).

Subcommands:

- ``servet machines`` — list the built-in machine models.
- ``servet run --machine dunnington -o report.json`` — run the full
  suite on a simulated machine and store the report (the paper's
  install-time step).  With ``--registry`` the report is also published
  into the fingerprint-keyed report registry.
- ``servet report report.json`` — pretty-print a stored report
  (``--registry`` + a fingerprint spec or ``latest`` instead of a path).
- ``servet advise report.json --matmul-elem 8`` — sample autotuning
  answers derived from a report (registry specs work here too).
- ``servet serve`` — drive the in-process tuning service with the
  deterministic concurrent-client harness and print cache metrics.
- ``servet serve --listen HOST:PORT`` — run the batching,
  hot-reloading tuning daemon until SIGTERM or a client ``drain``.
- ``servet query SPEC KIND`` — answer one tuning query from a stored
  report (``--remote HOST:PORT`` asks a running daemon instead).
- ``servet registry list|gc`` — inspect / garbage-collect the registry.
- ``servet fleet generate|survey|status|resume`` — fault-tolerant
  characterization of a whole fleet: dedup machines by hardware class,
  survive worker crashes via leases and bounded retries, checkpoint
  and resume, and report per-machine health.
- ``servet zoo generate|recover|sweep`` — seeded machines from families
  the paper never measured (exclusive/victim caches, sectored lines,
  odd associativity, sub-NUMA cells, big.LITTLE cores, multi-NIC and
  oversubscribed interconnects), plus the blind-recovery harness that
  scores every detected parameter against frozen ground truth.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys
import threading
from pathlib import Path
from collections.abc import Sequence

from .autotune import Advisor
from .backends import SimulatedBackend
from .core import ServetReport, ServetSuite
from .errors import ReproError, ServicedError
from .fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetFaultPlan,
    FleetReport,
    FleetSpec,
    generate_fleet,
)
from .resilience import (
    FaultInjectingBackend,
    FaultPlan,
    HardenedBackend,
)
from .netsim import default_comm_config
from .obs import MetricsRegistry, Tracer, explain, load_jsonl, summarize
from .planner import PRUNE_MODES
from .service import (
    ReportRegistry,
    TuningService,
    fingerprint_of,
    incremental_refresh,
    run_harness,
)
from .service.server import QUERY_KINDS, QueryKind
from .serviced import ServicedClient, TuningDaemon
from .zoo import (
    generate_machine,
    generate_zoo,
    recover_all,
    recover_machine,
)
from .zoo import family_names as zoo_family_names
from .topology import (
    Cluster,
    build_machine,
    builder_names,
    finis_terrae,
    load_cluster,
    save_cluster,
)


#: Default registry root: ``$SERVET_REGISTRY`` or ``~/.servet/registry``.
DEFAULT_REGISTRY = os.environ.get(
    "SERVET_REGISTRY", str(Path.home() / ".servet" / "registry")
)


def _api_default(fn, name: str):
    """The default of ``fn``'s parameter ``name``.  A flag that feeds the
    parameter takes its default from this one definition."""
    return inspect.signature(fn).parameters[name].default


def _add_query_options(parser: argparse.ArgumentParser, kind: QueryKind) -> None:
    """The flags of one query kind, generated from its table entry."""
    for option in kind.options:
        parser.add_argument(
            option.flag,
            dest=option.dest,
            type=None if option.sep else option.type,
            default=option.default,
            metavar=option.metavar,
            help=option.help,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="servet",
        description="Servet benchmark suite (simulated-substrate reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list built-in machine models")

    run = sub.add_parser("run", help="run the full suite on a machine model")
    run.add_argument(
        "--machine",
        default="dunnington",
        help=f"one of: {', '.join(builder_names())}",
    )
    run.add_argument(
        "--machine-file",
        default=None,
        help="JSON cluster description (see 'servet export-machine'); "
        "overrides --machine",
    )
    run.add_argument(
        "--nodes",
        type=int,
        default=1,
        help="number of cluster nodes (finis_terrae only; default 1)",
    )
    run.add_argument("--seed", type=int, default=42, help="measurement RNG seed")
    run.add_argument(
        "--noise",
        type=float,
        default=_api_default(SimulatedBackend, "noise"),
        help="relative measurement noise",
    )
    run.add_argument(
        "-o", "--output", default=None, help="write the JSON report here"
    )
    run.add_argument(
        "--lenient",
        action="store_true",
        help="degrade gracefully on phase failures (record them in the "
        "report) instead of aborting the run",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="serialize partial suite state here after every phase",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint instead of re-measuring finished "
        "phases",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="harden measurements: retry each up to N times with "
        "exponential backoff (charged to virtual time; "
        f"{_api_default(HardenedBackend, 'retries')} when only --samples is given)",
    )
    run.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="K",
        help="harden measurements: combine K repeated samples with a "
        "median (outlier rejection; "
        f"{_api_default(HardenedBackend, 'samples')} when only --retries is given)",
    )
    run.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject deterministic faults from a JSON fault plan "
        "(resilience drill; see repro.resilience.FaultPlan)",
    )
    run.add_argument(
        "--prune",
        choices=list(PRUNE_MODES),
        default=_api_default(ServetSuite, "prune"),
        help="symmetry-prune pairwise measurements: measure one "
        "representative per topology-equivalence class ('topology'), "
        "additionally spot-check each class ('verify'), or measure "
        "every pair ('off', the default)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write structured spans (suite phases, planner probes, "
        "backend calls) as JSON Lines; inspect with 'servet trace "
        "summarize'",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the run's metrics registry (probe counters, cache "
        "hit/miss, per-phase durations) as JSON",
    )
    run.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="also publish the report into this fingerprint-keyed "
        "registry (see 'servet registry')",
    )

    rep = sub.add_parser("report", help="pretty-print a stored report")
    rep.add_argument(
        "path",
        help="JSON report produced by 'servet run' (with --registry: a "
        "fingerprint digest/prefix or 'latest')",
    )
    rep.add_argument(
        "--registry",
        nargs="?",
        const=DEFAULT_REGISTRY,
        default=None,
        metavar="DIR",
        help="read from this report registry instead of a file path "
        f"(default {DEFAULT_REGISTRY})",
    )

    adv = sub.add_parser(
        "advise",
        help="sample autotuning answers for a report; the special path "
        "'co-schedule' ranks workload placements instead",
    )
    adv.add_argument(
        "path",
        help="JSON report produced by 'servet run' (with --registry: a "
        "fingerprint digest/prefix or 'latest'), or the literal "
        "'co-schedule' to rank workload placements (then give the "
        "report via --report or --registry)",
    )
    adv.add_argument(
        "--matmul-elem", type=int, default=8, help="matrix element size in bytes"
    )
    adv.add_argument(
        "--registry",
        nargs="?",
        const=DEFAULT_REGISTRY,
        default=None,
        metavar="DIR",
        help="read from this report registry instead of a file path "
        f"(default {DEFAULT_REGISTRY})",
    )
    adv.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="report file for 'advise co-schedule'",
    )
    _add_query_options(adv, QUERY_KINDS["co-schedule"])
    adv.add_argument(
        "--json",
        action="store_true",
        help="print the full advice as JSON (co-schedule)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve tuning queries: with --listen, run the network daemon; "
        "otherwise drive the in-process service with the deterministic "
        "concurrent-client harness",
    )
    srv.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run as a network daemon on this address (port 0 picks a "
        "free port; SIGTERM or a client 'drain' request shuts down "
        "gracefully)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=_api_default(TuningDaemon, "workers"),
        help="daemon worker threads (with --listen; default %(default)s)",
    )
    srv.add_argument(
        "--batch-max",
        type=int,
        default=_api_default(TuningDaemon, "batch_max"),
        help="max requests a worker batches per loop (with --listen; "
        "default %(default)s)",
    )
    srv.add_argument(
        "--poll-interval",
        type=float,
        default=_api_default(TuningDaemon, "poll_interval"),
        help="seconds between registry hot-reload probes (with --listen; "
        "default %(default)s)",
    )
    srv.add_argument(
        "--report", default=None, metavar="PATH", help="serve this report file"
    )
    srv.add_argument(
        "--registry",
        default=DEFAULT_REGISTRY,
        metavar="DIR",
        help="serve from this registry when --report is not given",
    )
    srv.add_argument(
        "--fingerprint",
        default=_api_default(TuningDaemon, "spec"),
        help="registry spec to serve: digest, unique prefix, or 'latest'",
    )
    srv.add_argument(
        "--clients",
        type=int,
        default=_api_default(run_harness, "clients"),
        help="concurrent clients",
    )
    srv.add_argument(
        "--queries",
        type=int,
        default=_api_default(run_harness, "queries_per_client"),
        help="queries per client",
    )
    srv.add_argument(
        "--seed",
        type=int,
        default=_api_default(run_harness, "seed"),
        help="harness RNG seed",
    )
    srv.add_argument(
        "--capacity",
        type=int,
        default=_api_default(TuningService, "capacity"),
        help="answer-cache capacity",
    )
    srv.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write per-query spans as JSON Lines",
    )
    srv.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the service metrics registry as JSON",
    )

    qry = sub.add_parser("query", help="answer one tuning query from a report")
    qry.add_argument(
        "path",
        help="report file (with --registry: digest/prefix or 'latest')",
    )
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "--registry",
        nargs="?",
        const=DEFAULT_REGISTRY,
        default=None,
        metavar="DIR",
        help="read from this report registry instead of a file path",
    )
    source.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="ask a running 'servet serve --listen' daemon instead of "
        "loading a report (the positional path is ignored; pass '-')",
    )
    kinds = qry.add_subparsers(
        dest="kind", required=True, metavar="KIND", help="which question to ask"
    )
    for kind in QUERY_KINDS.values():
        _add_query_options(
            kinds.add_parser(kind.name, help=kind.help, parents=[source]), kind
        )

    wkl = sub.add_parser(
        "workload", help="inspect the synthetic workload generators"
    )
    wkl_sub = wkl.add_subparsers(dest="workload_command", required=True)
    wkl_sub.add_parser("list", help="list workload generators and defaults")
    wprof = wkl_sub.add_parser(
        "profile", help="profile one workload's reuse-distance histogram"
    )
    wprof.add_argument(
        "spec", help="workload spec, e.g. 'zipf:lines=8192,s=1.3'"
    )
    wprof.add_argument("--seed", type=int, default=0, help="stream seed")
    wprof.add_argument(
        "--capacity",
        default=None,
        metavar="LINES[,LINES...]",
        help="also print solo miss ratios at these capacities (in lines)",
    )
    wprof.add_argument(
        "--json",
        action="store_true",
        help="print the full serialized profile as JSON",
    )

    reg = sub.add_parser("registry", help="inspect the report registry")
    reg_sub = reg.add_subparsers(dest="registry_command", required=True)
    reg_list = reg_sub.add_parser("list", help="list stored report versions")
    reg_list.add_argument(
        "--registry", default=DEFAULT_REGISTRY, metavar="DIR", help="registry root"
    )
    reg_gc = reg_sub.add_parser("gc", help="drop old report versions")
    reg_gc.add_argument(
        "--registry", default=DEFAULT_REGISTRY, metavar="DIR", help="registry root"
    )
    reg_gc.add_argument(
        "--keep", type=int, default=1, help="versions to keep per fingerprint"
    )
    reg_refresh = reg_sub.add_parser(
        "refresh",
        help="incrementally re-measure a stored report against a (changed) "
        "machine model",
    )
    reg_refresh.add_argument(
        "--registry", default=DEFAULT_REGISTRY, metavar="DIR", help="registry root"
    )
    reg_refresh.add_argument(
        "--base", default="latest", help="stored report to refresh from"
    )
    reg_refresh.add_argument(
        "--machine", default="dunnington", help=f"one of: {', '.join(builder_names())}"
    )
    reg_refresh.add_argument(
        "--machine-file",
        default=None,
        help="JSON cluster description; overrides --machine",
    )
    reg_refresh.add_argument(
        "--nodes", type=int, default=1, help="cluster nodes (finis_terrae only)"
    )
    reg_refresh.add_argument("--seed", type=int, default=42, help="RNG seed")
    reg_refresh.add_argument(
        "--noise",
        type=float,
        default=_api_default(SimulatedBackend, "noise"),
        help="relative measurement noise",
    )
    reg_refresh.add_argument(
        "--prune",
        choices=list(PRUNE_MODES),
        default=_api_default(ServetSuite, "prune"),
        help="prune mode",
    )

    fleet = sub.add_parser(
        "fleet",
        help="survey a whole fleet of machines fault-tolerantly",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fgen = fleet_sub.add_parser(
        "generate",
        help="write a reproducible heterogeneous fleet spec (JSON)",
    )
    fgen.add_argument("-o", "--output", required=True, help="output JSON path")
    fgen.add_argument(
        "--machines", type=int, default=200, help="fleet size (default 200)"
    )
    fgen.add_argument(
        "--classes",
        type=int,
        default=40,
        help="distinct hardware classes (default 40)",
    )
    fgen.add_argument(
        "--seed",
        type=int,
        default=_api_default(generate_fleet, "seed"),
        help="fleet RNG seed",
    )
    fgen.add_argument(
        "--noise",
        type=float,
        default=_api_default(generate_fleet, "noise"),
        help="measurement noise (default %(default)s)",
    )
    fgen.add_argument(
        "--name", default=_api_default(generate_fleet, "name"), help="fleet name"
    )

    def _add_survey_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="fleet spec JSON (see 'fleet generate')")
        p.add_argument(
            "--store",
            required=True,
            metavar="DIR",
            help="report registry for the class reports (plus "
            "fleet_report.json)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=_api_default(FleetConfig, "workers"),
            help="worker count (default %(default)s)",
        )
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="fleet checkpoint path (rewritten after every finished class)",
        )
        p.add_argument(
            "--fault-plan",
            default=None,
            metavar="PATH",
            help="inject deterministic fleet faults (crashes, stragglers, "
            "flaky machines) from a JSON FleetFaultPlan",
        )
        p.add_argument(
            "--lease",
            type=float,
            default=None,
            metavar="SECONDS",
            help="job lease duration (logical seconds)",
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=None,
            metavar="N",
            help="reassignments before a class is marked failed",
        )
        p.add_argument(
            "-o", "--output", default=None, help="also write the fleet report here"
        )
        p.add_argument(
            "--metrics",
            default=None,
            metavar="FILE",
            help="write the survey's metrics registry as JSON",
        )

    fsurvey = fleet_sub.add_parser(
        "survey", help="characterize every machine of a fleet"
    )
    _add_survey_options(fsurvey)

    fresume = fleet_sub.add_parser(
        "resume",
        help="resume an interrupted survey from its fleet checkpoint",
    )
    _add_survey_options(fresume)

    fstatus = fleet_sub.add_parser(
        "status", help="pretty-print a fleet report"
    )
    fstatus.add_argument(
        "path",
        help="fleet report JSON, or a store directory containing "
        "fleet_report.json",
    )

    zoo = sub.add_parser(
        "zoo",
        help="generate off-paper machines and verify blind recovery "
        "against their frozen ground truth",
    )
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)

    zgen = zoo_sub.add_parser(
        "generate",
        help="write one generated machine (cluster + comm + ground truth)",
    )
    zgen.add_argument(
        "--family",
        required=True,
        help=f"one of: {', '.join(zoo_family_names())}",
    )
    zgen.add_argument("--seed", type=int, default=0, help="machine seed")
    zgen.add_argument(
        "-o",
        "--output",
        default=None,
        help="write machine JSON here (default: print the ground truth)",
    )

    zrec = zoo_sub.add_parser(
        "recover",
        help="run the blind suite on one generated machine and score it",
    )
    zrec.add_argument(
        "--family",
        required=True,
        help=f"one of: {', '.join(zoo_family_names())}",
    )
    zrec.add_argument("--seed", type=int, default=0, help="machine seed")
    zrec.add_argument(
        "--noise",
        type=float,
        default=_api_default(recover_machine, "noise"),
        help="backend noise (default %(default)s)",
    )
    zrec.add_argument(
        "--json", action="store_true", help="print the full verdict JSON"
    )

    zsweep = zoo_sub.add_parser(
        "sweep",
        help="recover many machines per family; any WRONG fails the run",
    )
    zsweep.add_argument(
        "--families",
        default=None,
        help="comma-separated family list (default: all)",
    )
    zsweep.add_argument(
        "--seeds", type=int, default=25, help="machines per family (default 25)"
    )
    zsweep.add_argument(
        "--noise",
        type=float,
        default=_api_default(recover_all, "noise"),
        help="backend noise (default %(default)s)",
    )
    zsweep.add_argument(
        "-o", "--output", default=None, help="write the sweep report JSON here"
    )

    val = sub.add_parser(
        "validate",
        help="compare a report against a built-in machine's ground truth "
        "(repository CI helper)",
    )
    val.add_argument("path", help="JSON report produced by 'servet run'")
    val.add_argument(
        "--machine",
        required=True,
        help=f"one of: {', '.join(builder_names())}",
    )

    xpl = sub.add_parser(
        "explain",
        help="show which probes justified a detected parameter "
        "(provenance lookup)",
    )
    xpl.add_argument(
        "path",
        help="report file (with --registry: digest/prefix or 'latest')",
    )
    xpl.add_argument(
        "parameter",
        nargs="?",
        default=None,
        help="dotted parameter path (e.g. cache.L2.size) or a prefix; "
        "omit to list every parameter with provenance",
    )
    xpl.add_argument(
        "--registry",
        nargs="?",
        const=DEFAULT_REGISTRY,
        default=None,
        metavar="DIR",
        help="read from this report registry instead of a file path",
    )

    trc = sub.add_parser(
        "trace", help="inspect traces written by 'servet run --trace'"
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    trc_sum = trc_sub.add_parser(
        "summarize", help="per-phase time and probe breakdown of a trace"
    )
    trc_sum.add_argument("path", help="JSON Lines trace file")

    exp = sub.add_parser(
        "export-machine",
        help="write a built-in machine's JSON description (a template for "
        "describing your own system)",
    )
    exp.add_argument("machine", help=f"one of: {', '.join(builder_names())}")
    exp.add_argument("-o", "--output", required=True, help="output JSON path")
    exp.add_argument(
        "--nodes", type=int, default=1, help="number of cluster nodes"
    )
    return parser


def _cmd_machines() -> int:
    for name in builder_names():
        machine = build_machine(name)
        print(machine.summary())
        print()
    return 0


def _build_system(args: argparse.Namespace):
    """The (system, comm_config) a machine-selecting command names."""
    comm_config = None
    if args.machine_file is not None:
        system, comm_config = load_cluster(args.machine_file)
    elif args.machine == "finis_terrae" and args.nodes > 1:
        system = finis_terrae(args.nodes)
    else:
        if args.nodes > 1:
            print(
                f"note: --nodes ignored for {args.machine} (single-node model)",
                file=sys.stderr,
            )
        system = build_machine(args.machine)
    return system, comm_config


def _load_report_arg(path_or_spec: str, registry: str | None) -> ServetReport:
    """A report named either by file path or by registry spec."""
    if registry is not None:
        return ReportRegistry(registry).get(path_or_spec)
    return ServetReport.load(path_or_spec)


def _cmd_run(args: argparse.Namespace) -> int:
    system, comm_config = _build_system(args)
    backend = SimulatedBackend(
        system,
        comm_config=comm_config,
        seed=args.seed,
        noise=args.noise,
    )
    if args.fault_plan is not None:
        backend = FaultInjectingBackend(backend, FaultPlan.load(args.fault_plan))
    if args.retries is not None or args.samples is not None:
        retries, samples = (
            _api_default(HardenedBackend, name) if value is None else value
            for name, value in (("retries", args.retries), ("samples", args.samples))
        )
        backend = HardenedBackend(backend, retries=retries, samples=samples)
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    tracer = Tracer(virtual_clock=lambda: backend.virtual_time) if args.trace else None
    suite = ServetSuite(backend, prune=args.prune, tracer=tracer)
    report = suite.run(
        strict=not args.lenient,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(report.summary())
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace written to {args.trace} ({len(tracer.spans())} spans)")
    if args.metrics:
        suite.metrics.save_json(args.metrics)
        print(f"metrics written to {args.metrics}")
    if report.degraded:
        print(
            "\nWARNING: degraded run — phases "
            + ", ".join(
                f"{p}={s}"
                for p, s in report.phase_status.items()
                if s != "ok"
            ),
            file=sys.stderr,
        )
    if args.output:
        report.save(args.output)
        print(f"\nreport written to {args.output}")
    if args.registry:
        fingerprint = fingerprint_of(backend, options={"prune": args.prune})
        entry = ReportRegistry(args.registry).put(fingerprint, report)
        print(
            f"report registered as {entry.short} v{entry.version} "
            f"in {args.registry}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(_load_report_arg(args.path, args.registry).summary())
    return 0


def _cmd_advise_coschedule(args: argparse.Namespace) -> int:
    query = QUERY_KINDS["co-schedule"].from_options(vars(args))
    if args.report is not None:
        report = ServetReport.load(args.report)
    elif args.registry is not None:
        report = _load_report_arg("latest", args.registry)
    else:
        raise ReproError(
            "'advise co-schedule' needs the report via --report PATH "
            "or --registry [DIR]"
        )
    advice = Advisor(report).co_schedule(**vars(query))
    if args.json:
        print(json.dumps(advice.to_dict(), indent=2, sort_keys=True))
        return 0
    prov = advice.provenance
    print(
        f"Co-scheduling advice for {advice.system} "
        f"(L{advice.level}, {prov['instances']} instance(s) of "
        f"{prov['group_size']} core(s), "
        f"{prov['cache_size'] // 1024} KB each):"
    )
    for rank, option in enumerate(advice.options, start=1):
        blocks = " | ".join(
            "+".join(advice.names[i].split(":")[0] for i in block)
            for block in option.blocks
        )
        print(
            f"  #{rank}: {blocks}  "
            f"(worst slowdown {option.worst_slowdown:.3f}, "
            f"mean {option.mean_slowdown:.3f})"
        )
    best = advice.best
    for block, prediction in zip(best.blocks, best.predictions):
        for i, w in zip(block, prediction.workloads):
            print(
                f"    best: {advice.names[i]} -> "
                f"miss {w.solo_miss_ratio:.4f} solo / "
                f"{w.corun_miss_ratio:.4f} co-run, "
                f"slowdown {w.slowdown:.3f}"
            )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    if args.path == "co-schedule":
        return _cmd_advise_coschedule(args)
    report = _load_report_arg(args.path, args.registry)
    advisor = Advisor(report)
    print(f"Autotuning advice for {report.system}:")
    plan = advisor.matmul_tiles(elem_size=args.matmul_elem)
    for level, side in sorted(plan.sides.items()):
        print(f"  matmul tile for L{level}: {side} x {side}")
    if report.memory_levels:
        k = advisor.max_useful_streaming_cores()
        group = report.memory_levels[0].groups[0] if report.memory_levels[0].groups else []
        print(
            f"  streaming cores worth using in group {group}: {k}"
        )
    for layer in report.comm_layers:
        advice = None
        if layer.pairs:
            a, b = layer.pairs[0]
            advice = advisor.should_aggregate(a, b, 16, 4096)
        if advice is not None:
            verb = "aggregate" if advice.aggregate else "send separately"
            print(
                f"  layer {layer.index}: 16 x 4KB messages -> {verb} "
                f"(speedup {advice.speedup:.2f}x)"
            )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = ServetReport.load(args.path)
    machine = build_machine(args.machine)
    failures: list[str] = []

    if report.cache_sizes != list(machine.cache_sizes):
        failures.append(
            f"cache sizes: detected {report.cache_sizes}, "
            f"truth {list(machine.cache_sizes)}"
        )
    for cache in report.caches:
        try:
            truth_pairs = set(machine.shared_level_pairs(cache.level))
        except ReproError:
            truth_pairs = set()
        got_pairs = set(cache.shared_pairs)
        if got_pairs != truth_pairs:
            failures.append(
                f"L{cache.level} sharing: detected {len(got_pairs)} pairs, "
                f"truth {len(truth_pairs)}"
            )
    if failures:
        print(f"VALIDATION FAILED for {report.system} vs {machine.name}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"validation OK: {report.system} report matches {machine.name} "
        f"ground truth ({len(report.caches)} cache levels, "
        f"{len(report.comm_layers)} comm layers)"
    )
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ServicedError(
            f"address {spec!r} is not HOST:PORT (e.g. 127.0.0.1:7777)"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ServicedError(f"address {spec!r} has a non-numeric port") from exc


def _cmd_serve_daemon(args: argparse.Namespace) -> int:
    host, port = _parse_hostport(args.listen)
    if args.report is not None:
        daemon = TuningDaemon(
            report=ServetReport.load(args.report),
            host=host,
            port=port,
            workers=args.workers,
            batch_max=args.batch_max,
            capacity=args.capacity,
        )
        source = args.report
    else:
        daemon = TuningDaemon(
            registry=ReportRegistry(args.registry),
            spec=args.fingerprint,
            host=host,
            port=port,
            workers=args.workers,
            batch_max=args.batch_max,
            poll_interval=args.poll_interval,
            capacity=args.capacity,
        )
        source = f"{args.registry} [{args.fingerprint}]"
    daemon.start()
    # The parseable "listening" line is the contract the smoke test (and
    # any process supervisor) reads the bound port from.
    print(f"tuning daemon for {daemon.report.system} ({source})")
    print(f"listening on {daemon.host}:{daemon.port}", flush=True)

    def _on_signal(signum, frame):
        daemon.drain(wait=False)

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    daemon.wait()
    stats = daemon.stats()
    service = stats["service"]
    print(
        f"drained: served {service['queries']} queries "
        f"(hit rate {100 * service['hit_rate']:.1f}%) "
        f"at report version v{stats['version']}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _cmd_serve_daemon(args)
    if args.report is not None:
        report = ServetReport.load(args.report)
        source = args.report
    else:
        report = ReportRegistry(args.registry).get(args.fingerprint)
        source = f"{args.registry} [{args.fingerprint}]"
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    service = TuningService(
        report,
        capacity=args.capacity,
        metrics=registry,
        tracer=tracer,
    )
    print(f"tuning service for {report.system} ({source})")
    result = run_harness(
        service,
        clients=args.clients,
        queries_per_client=args.queries,
        seed=args.seed,
    )
    metrics = result.metrics
    print(
        f"harness: {result.queries} queries from {result.clients} clients "
        f"in {result.wall_seconds * 1e3:.1f} ms "
        f"({result.queries_per_second:,.0f} q/s)"
    )
    print(
        f"cache: {metrics['hits']} hits / {metrics['misses']} misses "
        f"(hit rate {100 * metrics['hit_rate']:.1f}%), "
        f"{metrics['cache_entries']} entries, "
        f"{metrics['evictions']} evictions"
    )
    print(
        "latency: p50 {:.1f} us, p90 {:.1f} us, p99 {:.1f} us".format(
            metrics["latency_p50"] * 1e6,
            metrics["latency_p90"] * 1e6,
            metrics["latency_p99"] * 1e6,
        )
    )
    if args.trace:
        tracer.save(args.trace)
        print(f"trace written to {args.trace} ({len(tracer.spans())} spans)")
    if args.metrics:
        registry.save_json(args.metrics)
        print(f"metrics written to {args.metrics}")
    if result.mismatches:
        print(
            f"ERROR: {result.mismatches} answers diverged from the "
            "uncached reference",
            file=sys.stderr,
        )
        return 1
    print("all answers match the uncached reference")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    query = QUERY_KINDS[args.kind].from_options(vars(args))
    if args.remote is not None:
        host, port = _parse_hostport(args.remote)
        with ServicedClient(host, port) as client:
            result = client.query(query)
    else:
        result = TuningService(_load_report_arg(args.path, args.registry)).query(query)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .workload import GENERATORS, parse_workload, profile_workload

    if args.workload_command == "list":
        print("workload generators (name: defaults):")
        for name in sorted(GENERATORS):
            defaults, _ = GENERATORS[name]
            rendered = ",".join(f"{k}={v}" for k, v in defaults.items())
            print(f"  {name}: {rendered}")
        return 0
    if args.workload_command == "profile":
        workload = parse_workload(args.spec)
        profile = profile_workload(workload, seed=args.seed)
        if args.json:
            print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"reuse profile of {profile.name} (seed {profile.seed}):")
        print(
            f"  accesses {profile.accesses}, distinct lines "
            f"{profile.distinct_lines}, cold miss ratio "
            f"{profile.cold / profile.accesses:.4f}"
        )
        print(f"  histogram rows: {len(profile.bins)}")
        for point, share in profile.cdf()[:: max(1, len(profile.bins) // 8)]:
            print(f"    P[distance <= {point:10.1f}] = {share:.4f}")
        if args.capacity:
            for token in args.capacity.split(","):
                capacity = int(token)
                print(
                    f"  solo miss ratio @ {capacity} lines: "
                    f"{profile.miss_ratio(capacity):.4f}"
                )
        return 0
    raise AssertionError("unreachable")


def _cmd_registry(args: argparse.Namespace) -> int:
    registry = ReportRegistry(args.registry)
    if args.registry_command == "list":
        entries = registry.entries()
        quarantined = registry.quarantined_counts()
        if not entries and not quarantined:
            print(f"registry {args.registry} is empty")
            return 0
        print(f"registry {args.registry}:")
        for entry in entries:
            flag = ""
            if entry.digest in quarantined:
                flag = f"  [{quarantined[entry.digest]} quarantined]"
            print(
                f"  {entry.short} v{entry.version}  {entry.system} "
                f"({entry.n_cores} cores, schema v{entry.schema_version})"
                f"{flag}"
            )
        listed = {entry.digest for entry in entries}
        for digest, count in sorted(quarantined.items()):
            if digest not in listed:
                print(
                    f"  {digest[:12]}  no intact versions "
                    f"[{count} quarantined]"
                )
        total = sum(quarantined.values())
        if total:
            print(
                f"  ({total} quarantined file(s) across "
                f"{len(quarantined)} fingerprint(s); "
                "'servet registry gc' sweeps them)"
            )
        return 0
    if args.registry_command == "gc":
        removed = registry.gc(keep=args.keep)
        print(f"removed {len(removed)} file(s), keeping {args.keep} per fingerprint")
        return 0
    if args.registry_command == "refresh":
        system, comm_config = _build_system(args)
        backend = SimulatedBackend(
            system, comm_config=comm_config, seed=args.seed, noise=args.noise
        )
        result = incremental_refresh(
            registry, backend, base=args.base, options={"prune": args.prune}
        )
        print(result.staleness.summary())
        print(f"refresh mode: {result.mode}")
        if result.entry is not None:
            print(
                f"stored as {result.entry.short} v{result.entry.version} "
                f"(probes issued: {result.report.planner.get('issued', 0)})"
            )
        return 0
    raise AssertionError("unreachable")


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "generate":
        spec = generate_fleet(
            n_machines=args.machines,
            n_classes=args.classes,
            seed=args.seed,
            name=args.name,
            noise=args.noise,
        )
        spec.save(args.output)
        print(
            f"fleet spec written to {args.output}: "
            f"{len(spec.machines)} machine(s) in {len(spec.classes())} "
            f"hardware class(es)"
        )
        return 0
    if args.fleet_command == "status":
        path = Path(args.path)
        if path.is_dir():
            path = path / "fleet_report.json"
        print(FleetReport.load(path).summary())
        return 0
    if args.fleet_command in ("survey", "resume"):
        resume = args.fleet_command == "resume"
        if resume and args.checkpoint is None:
            print("error: fleet resume requires --checkpoint", file=sys.stderr)
            return 2
        spec = FleetSpec.load(args.spec)
        overrides = {}
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.lease is not None:
            overrides["lease_seconds"] = args.lease
        if args.max_attempts is not None:
            overrides["max_attempts"] = args.max_attempts
        config = FleetConfig(**overrides)
        fault_plan = (
            FleetFaultPlan.load(args.fault_plan)
            if args.fault_plan is not None
            else None
        )
        coordinator = FleetCoordinator(
            spec,
            store=ReportRegistry(args.store),
            config=config,
            fault_plan=fault_plan,
            checkpoint=args.checkpoint,
        )
        report = coordinator.survey(resume=resume)
        print(report.summary())
        if args.metrics:
            coordinator.metrics.save_json(args.metrics)
            print(f"metrics written to {args.metrics}")
        if args.output:
            report.save(args.output)
            print(f"fleet report written to {args.output}")
        print(f"class reports stored in {args.store}")
        if not report.complete:
            return 3  # drained before finishing; resume to continue
        if report.counts.get("failed"):
            return 1
        return 0
    raise AssertionError("unreachable")


def _cmd_zoo(args: argparse.Namespace) -> int:
    if args.zoo_command == "generate":
        gm = generate_machine(args.family, args.seed)
        if args.output:
            save_cluster(gm.cluster, args.output, comm=gm.comm)
            print(f"machine description written to {args.output}")
        print(json.dumps(gm.truth.to_dict(), indent=2))
        return 0
    if args.zoo_command == "recover":
        gm = generate_machine(args.family, args.seed)
        result = recover_machine(gm, noise=args.noise)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            counts = result.counts()
            print(
                f"{result.machine_name}: "
                + ", ".join(f"{k}={v}" for k, v in counts.items())
            )
            for v in result.verdicts:
                detail = f" ({v.reason})" if v.reason else ""
                print(f"  {v.verdict:12s} {v.parameter}{detail}")
        return 0 if result.ok else 1
    if args.zoo_command == "sweep":
        families = (
            [f.strip() for f in args.families.split(",") if f.strip()]
            if args.families
            else None
        )
        machines = generate_zoo(families=families, seeds=args.seeds)
        report = recover_all(machines, noise=args.noise)
        print(report.summary())
        if args.output:
            Path(args.output).write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
            print(f"sweep report written to {args.output}")
        return 0 if report.ok else 1
    raise AssertionError("unreachable")


def _cmd_explain(args: argparse.Namespace) -> int:
    report = _load_report_arg(args.path, args.registry)
    print(explain(report, args.parameter))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summarize":
        print(summarize(load_jsonl(args.path)))
        return 0
    raise AssertionError("unreachable")


def _cmd_export_machine(args: argparse.Namespace) -> int:
    if args.machine == "finis_terrae" and args.nodes > 1:
        cluster = finis_terrae(args.nodes)
    else:
        machine = build_machine(args.machine)
        cluster = Cluster(machine.name, machine, n_nodes=1)
    save_cluster(cluster, args.output, comm=default_comm_config(cluster))
    print(f"machine description written to {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "machines":
            return _cmd_machines()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "advise":
            return _cmd_advise(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "registry":
            return _cmd_registry(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "zoo":
            return _cmd_zoo(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "export-machine":
            return _cmd_export_machine(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
