"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show every registered workload (suite, footprint, intensity) and the
    available TLB configurations.
run
    Simulate one workload under one or more configurations and print the
    headline metrics.
sweep
    Run a workload across all paper configurations, normalised to 4KB —
    a one-workload slice of Figure 10.  Supports ``--journal``/``--resume``
    (checkpointed, resumable execution), ``--checkpoint-every N`` (mid-cell
    snapshots, so ``--resume`` restarts inside an interrupted cell), ``--audit``
    (runtime invariant checking), ``--retries`` and ``--cell-timeout``
    (per-cell isolation).  Cells run under the **process supervisor** by
    default: ``--workers N`` parallel worker processes (``--workers 0``
    runs them in this process, without the process-only budgets), hard
    SIGKILL timeouts, ``--heartbeat-timeout`` hang detection,
    ``--memory-limit-mb`` per-worker budgets (structured ``oom`` status),
    ``--quarantine-after`` crash quarantine, and graceful SIGINT/SIGTERM
    shutdown that leaves the journal byte-identically resumable (exit
    code 3).  ``--chaos-kill-prob``/``--chaos-seed`` inject worker
    SIGKILLs at random drain-loop boundaries — fault injection aimed at
    the supervisor itself (the chaos CI job).  ``--print-digest`` prints
    the journal's order-independent row digest for cross-run comparison.
    ``--metrics`` runs every cell with the observability layer and
    aggregates per-cell snapshots into a ``<journal>.metrics.json``
    sidecar (the journal itself stays byte-identical).
metrics
    Observability front-end (``docs/observability.md``).  Run one
    (workload, configuration) cell with the telemetry hub enabled and
    print its metric snapshot as a table (``--format text``), JSON, or
    Prometheus text exposition; ``--chrome-trace PATH`` additionally
    writes the phase-span timeline as a Chrome trace-event file.
    Alternatively ``--journal PATH`` prints the aggregated totals from a
    ``sweep --metrics`` sidecar instead of running anything.
bisect-divergence
    Run one (workload, configuration) cell twice — fresh vs.
    resumed-from-checkpoint by default, or against a second seed
    (``--seed-b``) or a perturbed trace (``--fault``) — and binary-search
    the per-interval golden state digests for the first boundary and
    component where the two runs diverge.  Exit 0 when identical, 1 on
    divergence (the determinism CI gate).
describe
    Print a configuration's structure inventory (Figure 9 style).
audit
    Simulate with the invariant auditor enabled and report the number of
    accounting checks passed (or the first violation).
lint
    Run the two-phase reprolint static-analysis pass (per-file rules
    RL001–RL006, RL010 plus whole-program rules RL007–RL009) over the
    package (or given paths).  ``--strict`` applies the
    ``.reprolint-baseline.json`` ratchet and fails on new findings;
    ``--update-baseline`` rewrites it; ``--explain RLxxx`` documents a
    rule; ``--changed`` reports only on files the working tree touched.
    See ``docs/static_analysis.md``.
fuzz
    Differential fuzzing harness (``fuzz run|replay|minimize``).
    ``run`` samples seeded random cases (hierarchy geometry, Lite knobs,
    page-size mixes, trace patterns + perturbations, OS-event schedules)
    and drives each through the oracle stack — reference-vs-fast digest
    equality, kill-and-resume identity, invariant auditing, taxonomy
    containment — minimizing failures into ``--corpus`` reproducers
    bucketed by fingerprint (``--cases``/``--max-seconds`` budgets; exit
    1 on failures, consistent with ``sweep``).  ``replay`` re-runs every
    corpus reproducer deterministically (exit 1 on any failure);
    ``minimize`` re-shrinks one reproducer file.  See
    ``docs/robustness.md``.

Unknown workload or configuration names exit with a did-you-mean message
instead of a traceback; structured simulator errors print as
``error-class: message``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

from .analysis.experiments import ExperimentSettings, prepare_run, run_workload_config
from .analysis.report import render_table
from .core.organizations import (
    CONFIG_NAMES,
    EXTENDED_CONFIG_NAMES,
    build_organization,
    paging_policy_for,
)
from .errors import InvariantViolation, ReproError, UnknownConfigError
from .lint.cli import add_lint_arguments, run_lint
from .mem.physical import PhysicalMemory
from .mem.process import Process
from .mmu.translation import PAGES_PER_2MB
from .resilience.auditor import InvariantAuditor
from .resilience.bisect import describe_divergence, record_resumed, record_trail
from .resilience.checkpoint import first_divergence
from .resilience.faults import TRACE_FAULTS, ChaosPolicy
from .resilience.sweep import SweepJournal, run_resilient_sweep
from .workloads.registry import all_workloads, get_workload

#: Journal used by ``sweep --resume`` when ``--journal`` is not given.
DEFAULT_JOURNAL = "repro-sweep.journal"


def _config_name(name: str) -> str:
    """Argparse type for configuration names with did-you-mean errors."""
    if name not in EXTENDED_CONFIG_NAMES:
        error = UnknownConfigError(name, EXTENDED_CONFIG_NAMES)
        raise argparse.ArgumentTypeError(str(error))
    return name


def _cmd_list(_args) -> int:
    rows = [
        [
            workload.name,
            workload.suite,
            f"{workload.footprint_mb:.0f} MB",
            "yes" if workload.tlb_intensive else "no",
        ]
        for workload in all_workloads().values()
    ]
    print(render_table(["workload", "suite", "memory", "TLB-intensive"], rows))
    print("\nconfigurations:", ", ".join(EXTENDED_CONFIG_NAMES))
    return 0


def _cmd_run(args) -> int:
    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)
    auditor = InvariantAuditor() if args.audit else None
    rows = []
    for config in args.configs:
        result = run_workload_config(workload, config, settings, auditor=auditor)
        rows.append(
            [
                config,
                result.energy_per_access_pj,
                result.l1_mpki,
                result.l2_mpki,
                result.miss_cycles,
            ]
        )
    print(
        render_table(
            ["config", "pJ/access", "L1 MPKI", "L2 MPKI", "miss cycles"],
            rows,
            title=f"{workload.name} ({workload.footprint_mb:.0f} MB), "
            f"{args.accesses} accesses",
        )
    )
    if auditor is not None:
        print(f"\nauditor: {auditor.checks_run} invariant checks passed")
    return 0


def _cmd_sweep(args) -> int:
    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)
    journal_path = args.journal
    if journal_path is None and args.resume:
        journal_path = DEFAULT_JOURNAL
    chaos = None
    if args.chaos_kill_prob > 0.0:
        chaos = ChaosPolicy(
            kill_probability=args.chaos_kill_prob, seed=args.chaos_seed
        )
    report = run_resilient_sweep(
        [workload],
        CONFIG_NAMES,
        settings,
        journal_path=journal_path,
        resume=args.resume,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        audit=args.audit,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers if args.workers > 0 else None,
        quarantine_after=args.quarantine_after,
        heartbeat_timeout_s=args.heartbeat_timeout,
        memory_limit_mb=args.memory_limit_mb,
        chaos=chaos,
        metrics=args.metrics,
    )
    baseline_cell = report.cell(workload.name, CONFIG_NAMES[0])
    baseline = baseline_cell.row if baseline_cell and baseline_cell.completed else None
    rows = []
    for config in CONFIG_NAMES:
        cell = report.cell(workload.name, config)
        if cell is not None and cell.completed and baseline is not None:
            row = cell.row
            rows.append(
                [
                    config,
                    row["total_energy_pj"] / baseline["total_energy_pj"],
                    row["miss_cycles"] / max(baseline["miss_cycles"], 1),
                    cell.status,
                ]
            )
        else:
            status = cell.status if cell is not None else "missing"
            rows.append([config, "—", "—", status.upper()])
    print(
        render_table(
            ["config", "energy vs 4KB", "miss cycles vs 4KB", "status"],
            rows,
            title=f"{workload.name} — Figure 10 slice",
        )
    )
    if args.print_digest and journal_path is not None:
        print(f"journal digest: {SweepJournal(journal_path).digest()}")
    if args.metrics and report.metrics is not None:
        totals = report.metrics["totals"]
        counters = totals.get("counters", {})
        drained = counters.get("sim.accesses_drained", 0)
        boundaries = counters.get("sim.boundaries", 0)
        line = (
            f"metrics: {len(report.metrics['cells'])} cells, "
            f"{drained} accesses drained over {boundaries} boundaries"
        )
        if journal_path is not None:
            from .observability.hooks import metrics_sidecar_path

            line += f" → {metrics_sidecar_path(journal_path)}"
        print(line)
    if report.interrupted:
        print(
            f"\nsweep interrupted ({report.summary()}); the journal is "
            "resumable with --resume",
            file=sys.stderr,
        )
        return 3
    if report.failed_cells:
        print(f"\nwarning: incomplete sweep ({report.summary()})", file=sys.stderr)
        for cell in report.failed_cells:
            print(f"  {cell.configuration}: {cell.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_bisect(args) -> int:
    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)
    reference = record_trail(
        prepare_run(workload, args.config, settings), digest_every=args.digest_every
    )
    if args.fault is not None:
        comparison = "clean trace vs fault-injected trace " f"({args.fault})"
        # Perturbed traces produce unmappable VPNs; the tolerant simulator
        # survives them, so the trail reaches the end of the trace.
        faulted = prepare_run(workload, args.config, settings, on_fault="record")
        faulted.trace = TRACE_FAULTS[args.fault](faulted.trace, seed=args.fault_seed)
        other = record_trail(faulted, digest_every=args.digest_every)
    elif args.seed_b is not None:
        comparison = f"seed {args.seed} vs seed {args.seed_b}"
        settings_b = ExperimentSettings(
            trace_accesses=args.accesses, seed=args.seed_b
        )
        other = record_trail(
            prepare_run(workload, args.config, settings_b),
            digest_every=args.digest_every,
        )
    else:
        comparison = (
            f"fresh run vs run killed after {args.abort_after} boundaries "
            "and resumed from its snapshot"
        )
        with tempfile.TemporaryDirectory(prefix="repro-bisect-") as tmp:
            other = record_resumed(
                partial(prepare_run, workload, args.config, settings),
                args.abort_after,
                Path(tmp) / "cell.ckpt",
                digest_every=args.digest_every,
            )
    divergence = first_divergence(reference.trail, other.trail)
    print(
        f"{workload.name} / {args.config}: {comparison} — "
        f"{len(reference.trail.boundaries)} digested boundaries"
    )
    print(describe_divergence(divergence))
    return 0 if divergence is None else 1


def _cmd_describe(args) -> int:
    process = Process(PhysicalMemory(1 << 30, seed=0), paging_policy_for(args.config))
    process.mmap(PAGES_PER_2MB * 2, name="heap")
    organization = build_organization(args.config, process)
    print(organization.summary.render())
    return 0


def _cmd_fuzz(args) -> int:
    from .resilience.fuzz import (
        corpus_paths,
        load_reproducer,
        minimize_reproducer,
        replay_corpus,
        run_fuzz,
    )

    if args.fuzz_command == "run":
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            max_seconds=args.max_seconds,
            corpus_dir=args.corpus,
            minimize=not args.no_minimize,
            minimize_evaluations=args.minimize_evaluations,
            log=lambda line: print(line, file=sys.stderr),
        )
        budget = " (time budget exhausted)" if report.budget_exhausted else ""
        print(
            f"fuzz: {report.cases_run}/{report.cases_requested} cases, "
            f"{len(report.failures)} failures, seed {report.seed}, "
            f"{report.seconds:.1f}s{budget}"
        )
        for entry in report.failures:
            failure = entry["failure"]
            shrunk = entry["minimized"]
            size = (
                f", minimized {shrunk['original_entries']}→{shrunk['entries']} "
                f"entries in {shrunk['evaluations']} evals"
                if shrunk
                else ""
            )
            print(
                f"  case {entry['index']} ({entry['config']}): "
                f"{failure.oracle}/{failure.kind} [{failure.fingerprint}]{size}"
            )
        for path in report.new_reproducers:
            print(f"  reproducer: {path}")
        return 1 if report.failures else 0

    if args.fuzz_command == "replay":
        paths = (
            [Path(p) for p in args.reproducers]
            if args.reproducers
            else corpus_paths(args.corpus)
        )
        if not paths:
            print(f"fuzz replay: no reproducers under {args.corpus}")
            return 0
        replayed = replay_corpus(paths)
        failed = 0
        for item in replayed:
            if item.status == "pass":
                print(f"  {item.path.name}: pass")
                continue
            failed += 1
            failure = item.outcome.failure
            note = (
                ""
                if item.status == "fail"
                else f" (bucket changed: was {item.fingerprint})"
            )
            print(
                f"  {item.path.name}: FAIL {failure.oracle}/{failure.kind} "
                f"[{failure.fingerprint}]{note} — {failure.detail}"
            )
        print(f"fuzz replay: {len(replayed) - failed}/{len(replayed)} pass")
        return 1 if failed else 0

    # minimize: re-shrink one reproducer file.
    _case, envelope = load_reproducer(args.reproducer)
    destination = minimize_reproducer(
        args.reproducer,
        out_path=args.out,
        max_evaluations=args.minimize_evaluations,
    )
    _case, shrunk = load_reproducer(destination)
    stats = shrunk["found"].get("reminimized", {})
    print(
        f"minimized {args.reproducer} → {destination} "
        f"({stats.get('original_entries', '?')}→{stats.get('entries', '?')} "
        f"entries, {stats.get('evaluations', '?')} evals, "
        f"fingerprint {shrunk['fingerprint']})"
    )
    return 0


def _cmd_metrics(args) -> int:
    from .observability.hooks import (
        Observability,
        metrics_sidecar_path,
        read_metrics_sidecar,
        render_totals_prometheus,
    )

    if args.journal is not None:
        document = read_metrics_sidecar(metrics_sidecar_path(args.journal))
        if args.format == "json":
            print(json.dumps(document, indent=2, sort_keys=True))
        elif args.format == "prometheus":
            print(render_totals_prometheus(document), end="")
        else:
            _print_snapshot_table(
                document.get("totals", {}),
                title=f"aggregated over {len(document.get('cells', {}))} cells",
            )
        return 0

    if args.workload is None:
        print(
            "metrics: a workload is required unless --journal is given",
            file=sys.stderr,
        )
        return 2
    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)
    observability = Observability()
    prepared = prepare_run(
        workload,
        args.config,
        settings,
        engine=args.engine,
        observability=observability,
    )
    prepared.run()
    if args.chrome_trace is not None:
        observability.write_chrome_trace(args.chrome_trace)
        print(f"chrome trace: {args.chrome_trace}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(observability.to_json(), indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(observability.render_prometheus(), end="")
    else:
        _print_snapshot_table(
            observability.snapshot(),
            title=f"{workload.name} / {args.config} ({args.engine} engine)",
        )
    return 0


def _print_snapshot_table(snapshot: dict, title: str) -> None:
    """Text rendering shared by the live and sidecar modes of ``metrics``."""
    rows = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rows.append([name, "counter", value])
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        rows.append([name, "gauge", value])
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        rows.append([name, "histogram", f"n={data['count']} sum={data['sum']:.6f}"])
    if not rows:
        print(f"no metrics recorded ({title})")
        return
    print(render_table(["metric", "kind", "value"], rows, title=title))


def _cmd_audit(args) -> int:
    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)
    for config in args.configs:
        auditor = InvariantAuditor()
        try:
            result = run_workload_config(workload, config, settings, auditor=auditor)
        except InvariantViolation as violation:
            print(f"{config}: FAILED after {auditor.checks_run} checks")
            print(f"  {violation}")
            return 1
        print(
            f"{config}: ok — {auditor.checks_run} invariant checks over "
            f"{result.accesses} measured accesses"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Energy-Efficient Address Translation' (HPCA 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and configurations")

    run_parser = sub.add_parser("run", help="simulate one workload")
    run_parser.add_argument("workload")
    run_parser.add_argument(
        "--configs", nargs="+", default=["THP"], type=_config_name
    )
    run_parser.add_argument("--accesses", type=int, default=200_000)
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument(
        "--audit", action="store_true", help="enable the runtime invariant auditor"
    )

    sweep_parser = sub.add_parser("sweep", help="all six paper configurations")
    sweep_parser.add_argument("workload")
    sweep_parser.add_argument("--accesses", type=int, default=200_000)
    sweep_parser.add_argument("--seed", type=int, default=42)
    sweep_parser.add_argument(
        "--journal",
        default=None,
        help="checkpoint journal path (enables resumable sweeps)",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help=f"resume from the journal (default path: {DEFAULT_JOURNAL})",
    )
    sweep_parser.add_argument(
        "--audit", action="store_true", help="enable the runtime invariant auditor"
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=1, help="retries per failing cell"
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per cell attempt; the worker "
        "is SIGKILLed past it (needs --workers N >= 1)",
    )
    sweep_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot the in-flight cell every N interval boundaries "
        "(with --resume, restarts the interrupted cell mid-trace; "
        "requires --journal)",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes that run the cells (default 1: serial, "
        "byte-identical journals; 0 runs them in this process, which "
        "rejects --cell-timeout, --heartbeat-timeout, --memory-limit-mb "
        "and --chaos-kill-prob)",
    )
    sweep_parser.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="N",
        help="journal a cell as quarantined (and skip it on --resume) "
        "after its worker crashed N times",
    )
    sweep_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SIGKILL a worker whose heartbeat goes silent this long "
        "(hang detection ahead of --cell-timeout); workers beat at most "
        "once per 0.05 s poll, so it must exceed 0.1",
    )
    sweep_parser.add_argument(
        "--memory-limit-mb",
        type=int,
        default=None,
        metavar="MB",
        help="per-worker address-space budget; a breach becomes the "
        "structured 'oom' cell status instead of a crash",
    )
    sweep_parser.add_argument(
        "--chaos-kill-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="chaos mode: SIGKILL each first-attempt worker with this "
        "per-boundary probability (tests the supervisor itself)",
    )
    sweep_parser.add_argument(
        "--chaos-seed", type=int, default=0, help="seed for --chaos-kill-prob"
    )
    sweep_parser.add_argument(
        "--print-digest",
        action="store_true",
        help="print the journal's order-independent row digest "
        "(requires --journal)",
    )
    sweep_parser.add_argument(
        "--metrics",
        action="store_true",
        help="run every cell with the observability layer; aggregates "
        "land in a <journal>.metrics.json sidecar (the journal itself "
        "stays byte-identical) — inspect with 'python -m repro metrics "
        "--journal'",
    )

    bisect_parser = sub.add_parser(
        "bisect-divergence",
        help="find the first interval and component where two runs diverge",
    )
    bisect_parser.add_argument("workload")
    bisect_parser.add_argument("--config", type=_config_name, default="TLB_Lite")
    bisect_parser.add_argument("--accesses", type=int, default=50_000)
    bisect_parser.add_argument("--seed", type=int, default=42)
    bisect_parser.add_argument(
        "--digest-every",
        type=int,
        default=1,
        metavar="N",
        help="record state digests every N interval boundaries",
    )
    bisect_mode = bisect_parser.add_mutually_exclusive_group()
    bisect_mode.add_argument(
        "--seed-b",
        type=int,
        default=None,
        help="compare against a second run with this trace seed",
    )
    bisect_mode.add_argument(
        "--fault",
        choices=sorted(TRACE_FAULTS),
        default=None,
        help="compare against a run on a perturbed trace",
    )
    bisect_parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for --fault injection"
    )
    bisect_parser.add_argument(
        "--abort-after",
        type=int,
        default=5,
        metavar="K",
        help="default mode: kill the second run after K boundaries, then "
        "resume it from the snapshot (determinism check)",
    )

    describe_parser = sub.add_parser("describe", help="show a configuration")
    describe_parser.add_argument("config", type=_config_name)

    metrics_parser = sub.add_parser(
        "metrics", help="run one cell with telemetry on and print its metrics"
    )
    metrics_parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload to simulate (omit with --journal)",
    )
    metrics_parser.add_argument("--config", type=_config_name, default="TLB_Lite")
    metrics_parser.add_argument("--accesses", type=int, default=50_000)
    metrics_parser.add_argument("--seed", type=int, default=42)
    metrics_parser.add_argument(
        "--engine",
        choices=("reference", "fast"),
        default="reference",
        help="drain engine (the fast engine adds fastpath.* counters)",
    )
    metrics_parser.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="text table, full JSON document, or Prometheus exposition",
    )
    metrics_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="print the aggregated totals from a 'sweep --metrics' "
        "journal's sidecar instead of running a simulation",
    )
    metrics_parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="also write the phase-span timeline as Chrome trace-event "
        "JSON (open in chrome://tracing or Perfetto)",
    )

    audit_parser = sub.add_parser(
        "audit", help="simulate with runtime invariant checking"
    )
    audit_parser.add_argument("workload")
    audit_parser.add_argument(
        "--configs", nargs="+", default=list(CONFIG_NAMES), type=_config_name
    )
    audit_parser.add_argument("--accesses", type=int, default=50_000)
    audit_parser.add_argument("--seed", type=int, default=42)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing with minimization and a corpus"
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="generate random cases and run the oracle stack"
    )
    fuzz_run.add_argument("--cases", type=int, default=100, help="case budget")
    fuzz_run.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_run.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; generation stops when spent (CI mode)",
    )
    fuzz_run.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write one minimized reproducer per new failure bucket here",
    )
    fuzz_run.add_argument(
        "--no-minimize",
        action="store_true",
        help="report raw failing cases without delta-debugging them",
    )
    fuzz_run.add_argument(
        "--minimize-evaluations",
        type=int,
        default=160,
        metavar="N",
        help="oracle re-runs the minimizer may spend per failure",
    )

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run corpus reproducers deterministically"
    )
    fuzz_replay.add_argument(
        "reproducers",
        nargs="*",
        help="specific reproducer files (default: every *.json in --corpus)",
    )
    fuzz_replay.add_argument(
        "--corpus", default="corpus", metavar="DIR", help="corpus directory"
    )

    fuzz_minimize = fuzz_sub.add_parser(
        "minimize", help="re-shrink one reproducer file"
    )
    fuzz_minimize.add_argument("reproducer", help="reproducer JSON file")
    fuzz_minimize.add_argument(
        "--out", default=None, help="write here instead of in place"
    )
    fuzz_minimize.add_argument(
        "--minimize-evaluations", type=int, default=160, metavar="N"
    )

    lint_parser = sub.add_parser(
        "lint", help="static-analysis pass enforcing simulator invariants"
    )
    add_lint_arguments(lint_parser)

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "bisect-divergence": _cmd_bisect,
        "describe": _cmd_describe,
        "metrics": _cmd_metrics,
        "audit": _cmd_audit,
        "fuzz": _cmd_fuzz,
        "lint": run_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
