"""Command-line interface: regenerate any paper table or figure.

Installed as ``repro-explore``::

    repro-explore table 5
    repro-explore figure 6
    repro-explore compare
    repro-explore rank --top 10
    repro-explore rank --checkpoint sweep.store   # killed? rerun to resume
    repro-explore rank --faults "pcie:fail=0.2" --retries 3
    repro-explore faults --rates 0.05,0.1,0.2
    repro-explore figure 5 --trace-out fig5.json --metrics-out fig5.csv
    repro-explore metrics-diff before.csv after.csv
    repro-explore check
    repro-explore check --fixtures --rule PAS001
    repro-explore bench --out BENCH_hotpath.json --baseline benchmarks/output/BENCH_hotpath.json
    repro-explore rank --store results.store      # killed? rerun replays from disk
    repro-explore store verify results.store
    repro-explore serve --port 8763 --store results.store
    repro-explore chaos --seed 7

All output goes through the structured ``repro`` logger onto stdout
(byte-identical to plain printing by default); ``--quiet`` silences it and
``-v`` adds debug detail. Exit codes: 0 success, 1 failed comparison
checks, 2 configuration errors (including malformed ``--faults`` specs),
3 simulation errors (including jobs that failed every retry), 4
static-checker violations (``check`` subcommand, or a ``--check error``
gate refusal), 5 store integrity errors (``store verify`` on a corrupt
store, or a chaos scenario ending in an unexpected state), 130
interrupted (Ctrl-C; a ``--checkpoint``/``--store`` directory keeps
every completed group of points, so rerunning resumes).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.analysis import compare as compare_mod
from repro.analysis import figures, metrics_diff, tables
from repro.config import knobs
from repro.core.explorer import Explorer
from repro.core.report import format_table
from repro.core.space import DesignSpace
from repro.errors import (
    ChaosError,
    CheckError,
    ConfigError,
    DesignSpaceError,
    ProgramError,
    ReproError,
    StoreCorruptionError,
    StoreError,
    TraceError,
)
from repro.exec.retry import RetryPolicy
from repro.faults.spec import FaultPlan
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricSnapshot, write_metrics_csv, write_metrics_json
from repro.obs.tracing import trace_from_results
from repro.version import __version__

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_CONFIG_ERROR",
    "EXIT_SIMULATION_ERROR",
    "EXIT_CHECK_VIOLATIONS",
    "EXIT_STORE_ERROR",
    "EXIT_INTERRUPTED",
]

#: Exit codes: configuration mistakes (bad flags/values) vs failures while
#: actually simulating vs static-checker violations vs store integrity
#: problems — scripts can tell them apart. 130 (128 + SIGINT) follows
#: shell convention for Ctrl-C; a store-backed rank has already committed
#: every completed group of points when it is returned.
EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_SIMULATION_ERROR = 3
EXIT_CHECK_VIOLATIONS = 4
EXIT_STORE_ERROR = 5
EXIT_INTERRUPTED = 130

_log = get_logger("cli")


def _out(text: str) -> None:
    """Emit CLI output (INFO on stdout; ``--quiet`` silences it)."""
    _log.info("%s", text)


# -- observability sinks ------------------------------------------------------


def _collect_metrics(explorer: Explorer) -> MetricSnapshot:
    """One flat sample set for a finished run: summed simulation counters
    (channel counters scoped under ``comm.``), the ``exec.`` runtime
    metrics, the memo-layer cache statistics (``exec.cache.*`` — trace,
    result, and segment-compile caches), and — when a durable store backs
    the run — its ``store.`` hit/miss/corruption counters."""
    totals: Dict[str, float] = {}
    for result in explorer.last_results:
        for key, value in result.counters.items():
            name = key if "." in key else f"comm.{key}"
            totals[name] = totals.get(name, 0.0) + value
    for key, value in explorer.run_stats.metrics.as_dict().items():
        totals[f"exec.{key}"] = value
    for name, stats in explorer.cache_stats().items():
        for key, value in stats.items():
            totals[f"exec.cache.{name}.{key}"] = value
    if explorer.store is not None:
        for key, value in explorer.store.metrics.as_dict().items():
            totals[f"store.{key}"] = value
    return MetricSnapshot(totals)


def _print_stats(args: argparse.Namespace, explorer: Explorer) -> None:
    """Honor ``--stats``: runtime summary plus the store line when backed."""
    if not getattr(args, "stats", False):
        return
    _out(f"\n[run] {explorer.run_stats.summary()}")
    store = explorer.store
    if store is not None:
        _out(
            f"[store] entries={len(store)} hits={store.hits} "
            f"misses={store.misses} corruptions={store.corruptions}"
        )


def _write_observability(args: argparse.Namespace, explorer: Explorer) -> None:
    """Honor ``--trace-out`` / ``--metrics-out`` after a command's run."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out:
        tracer = trace_from_results(
            explorer.last_results, run_stats=explorer.run_stats
        )
        tracer.write(trace_out)
        _out(f"wrote {trace_out}")
    if metrics_out:
        snapshot = _collect_metrics(explorer)
        if metrics_out.endswith(".json"):
            write_metrics_json(metrics_out, snapshot)
        else:
            write_metrics_csv(metrics_out, snapshot)
        _out(f"wrote {metrics_out}")


def _explorer_from_args(args: argparse.Namespace) -> Explorer:
    """Build a subcommand's Explorer, resilience knobs included.

    A malformed ``--faults`` spec raises
    :class:`~repro.errors.FaultSpecError` (a :class:`ConfigError`), which
    ``main`` maps to exit code 2 like any other bad flag value.
    """
    faults = FaultPlan.parse(args.faults) if getattr(args, "faults", None) else None
    retries = getattr(args, "retries", 0)
    store = None
    if getattr(args, "store", None):
        from repro.store import ResultStore

        store = ResultStore(args.store)
    return Explorer(
        jobs=args.jobs,
        check=args.check,
        faults=faults,
        retry=RetryPolicy(retries=retries) if retries else None,
        job_timeout=getattr(args, "job_timeout", None),
        store=store,
    )


# -- subcommands --------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    builders = {
        1: tables.table1,
        2: tables.table2,
        3: tables.table3,
        4: tables.table4,
        5: tables.table5,
    }
    _out(builders[args.number]())
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    explorer = _explorer_from_args(args)
    builders = {
        "5": figures.figure5_text,
        "6": figures.figure6_text,
        "7": figures.figure7_text,
        "coherence": figures.coherence_text,
    }
    _out(builders[args.number](explorer))
    _print_stats(args, explorer)
    _write_observability(args, explorer)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    checks = compare_mod.compare_all()
    for check in checks:
        _out(check.line())
    failed = sum(1 for c in checks if not c.passed)
    _out(f"\n{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    explorer = _explorer_from_args(args)
    points = DesignSpace().feasible_sample(args.sample)
    shards = explorer.shard_count(args.shards)
    if shards > 1 and explorer.jobs > 1:
        explorer.runner.prestart()
    evaluations = explorer.rank_design_points(points, shards=shards)[: args.top]
    rows = [
        (
            e.point.label,
            f"{e.mean_seconds * 1e6:.1f}",
            f"{e.mean_comm_fraction:.1%}",
            e.comm_lines_total,
            e.locality_options,
        )
        for e in evaluations
    ]
    _out(
        format_table(
            ("design point", "mean us", "comm%", "comm lines", "locality options"),
            rows,
            title=f"Top {len(rows)} design points",
        )
    )
    _print_stats(args, explorer)
    _write_observability(args, explorer)
    return EXIT_OK


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    before = metrics_diff.load_metrics(args.before)
    after = metrics_diff.load_metrics(args.after)
    _out(
        metrics_diff.format_metrics_diff(
            before, after, include_unchanged=args.all
        )
    )
    return EXIT_OK


def _cmd_guidelines(args: argparse.Namespace) -> int:
    from repro.core.metrics import EfficiencyMetric, MetricWeights

    weights = MetricWeights(
        performance=args.w_perf,
        energy=args.w_energy,
        programmability=args.w_prog,
        versatility=args.w_options,
    )
    _out(EfficiencyMetric(weights=weights).guidelines())
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.core.partition import optimal_split, rate_based_split
    from repro.kernels.registry import all_kernels

    rows = []
    for k in all_kernels():
        rate = rate_based_split(k)
        best = optimal_split(k)
        rows.append(
            (
                k.name,
                f"{rate:.2f}",
                f"{best.cpu_fraction:.2f}",
                f"{best.speedup_over_even:.2f}x",
            )
        )
    _out(
        format_table(
            ("kernel", "rate-based split", "optimal split", "speedup vs 50/50"),
            rows,
            title="Adaptive work partitioning (Qilin-style, paper ref [25])",
        )
    )
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report_md import full_report, write_report

    if args.path:
        path = write_report(args.path)
        _out(f"wrote {path}")
    else:
        _out(full_report())
    return EXIT_OK


def _cmd_codegen(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.progmodel.lowering import lower
    from repro.progmodel.spec import all_program_specs
    from repro.taxonomy import AddressSpaceKind

    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for spec in all_program_specs():
        for kind in AddressSpaceKind:
            program = lower(spec, kind)
            slug = spec.name.replace(" ", "_")
            path = out_dir / f"{slug}.{kind.short.lower()}.c"
            path.write_text(program.render() + "\n")
            count += 1
    _out(f"wrote {count} generated sources to {out_dir}/")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_results

    path = export_results(args.path)
    _out(f"wrote {path}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckConfig, Severity, check_trace, merge_reports
    from repro.check.rules import rule
    from repro.config.presets import CASE_STUDIES, case_study
    from repro.kernels.registry import all_kernels, kernel

    severity = Severity.parse(args.severity) if args.severity else None
    if args.rule:
        rule(args.rule)  # validate the id up front (ConfigError on typos)

    triples = []
    if args.fixtures:
        from repro.check.fixtures import all_fixtures

        # OPT/INF fixtures only fire in optimize mode; each fixture says
        # which mode it needs.
        triples = [
            (fx.trace, fx.config, fx.optimize or args.optimize)
            for fx in all_fixtures()
        ]
    else:
        kernels = [kernel(name) for name in args.kernel] or list(all_kernels())
        cases = [case_study(name) for name in args.case] or list(
            CASE_STUDIES.values()
        )
        triples = [
            (k.trace(), CheckConfig.from_case_study(case), args.optimize)
            for k in kernels
            for case in cases
        ]

    reports = [
        check_trace(trace, config, optimize=optimize).filtered(
            rule=args.rule, severity=severity
        )
        for trace, config, optimize in triples
    ]
    shown = reports if args.all else [r for r in reports if not r.ok]
    for report in shown:
        _out(report.format_text())
    findings = sum(len(r.findings) for r in reports)
    errors = sum(r.errors for r in reports)
    warnings = sum(r.warnings for r in reports)
    _out(
        f"\n{len(reports)} checks, {findings} findings "
        f"({errors} errors, {warnings} warnings)"
    )
    if args.json:
        import json as json_mod

        with open(args.json, "w", encoding="utf-8") as handle:
            json_mod.dump(
                [r.as_dict() for r in reports], handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        _out(f"wrote {args.json}")
    if args.sarif:
        from repro.check.sarif import write_sarif

        write_sarif(args.sarif, reports)
        _out(f"wrote {args.sarif}")
    if args.metrics_out:
        snapshot = merge_reports(reports)
        if args.metrics_out.endswith(".json"):
            write_metrics_json(args.metrics_out, snapshot)
        else:
            write_metrics_csv(args.metrics_out, snapshot)
        _out(f"wrote {args.metrics_out}")
    return EXIT_CHECK_VIOLATIONS if findings else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        compare_to_baseline,
        format_bench,
        load_bench_json,
        run_coherence_bench,
        run_hotpath_bench,
        run_store_bench,
        run_sweep_bench,
        write_bench_json,
    )

    doc: dict = {}
    if args.mode in ("hotpath", "all"):
        doc = run_hotpath_bench(
            scale=args.scale,
            repeats=args.repeats,
            case_name=args.case,
            kernels=args.kernel or None,
        )
    if args.mode in ("coherence", "all"):
        coherence_doc = run_coherence_bench(
            scale=args.scale,
            repeats=args.repeats,
            case_name=args.case,
            kernels=args.kernel or None,
        )
        if doc:
            doc["coherence"] = coherence_doc["coherence"]
        else:
            doc = coherence_doc
    if args.mode in ("sweep", "all"):
        sweep_doc = run_sweep_bench(
            scale=args.sweep_scale,
            repeats=args.repeats,
            kernels=args.kernel or None,
            stride=args.stride,
        )
        if doc:
            doc["sweep"] = sweep_doc["sweep"]
        else:
            doc = sweep_doc
    if args.mode in ("store", "all"):
        store_doc = run_store_bench(
            repeats=args.repeats,
            kernels=args.kernel or None,
            stride=args.store_stride,
        )
        if doc:
            doc["store"] = store_doc["store"]
        else:
            doc = store_doc
    _out(format_bench(doc))
    if args.out:
        write_bench_json(args.out, doc)
        _out(f"wrote {args.out}")
    failed = False
    if args.min_speedup is not None:
        for name, data in doc.get("fidelities", {}).items():
            if data["geomean_speedup"] < args.min_speedup:
                _out(
                    f"FAIL: {name} geomean speedup "
                    f"{data['geomean_speedup']:.2f}x < {args.min_speedup:g}x"
                )
                failed = True
        sweep = doc.get("sweep")
        if sweep is not None and sweep["geomean_speedup"] < args.min_speedup:
            _out(
                f"FAIL: sweep geomean speedup "
                f"{sweep['geomean_speedup']:.2f}x < {args.min_speedup:g}x"
            )
            failed = True
    if args.baseline:
        problems = compare_to_baseline(
            doc, load_bench_json(args.baseline), tolerance=args.tolerance
        )
        for problem in problems:
            _out(f"REGRESSION: {problem}")
        if problems:
            failed = True
        else:
            _out(f"no regressions vs {args.baseline}")
    return 1 if failed else EXIT_OK


def _cmd_litmus(args: argparse.Namespace) -> int:
    from repro.consistency.litmus import LITMUS_TESTS, model_for
    from repro.consistency.model import is_allowed
    from repro.taxonomy import ConsistencyModel

    rows = []
    for test in LITMUS_TESTS:
        verdicts = {}
        for consistency in (ConsistencyModel.STRONG, ConsistencyModel.WEAK):
            allowed = is_allowed(test.program, test.observation, model_for(consistency))
            verdicts[consistency] = "allowed" if allowed else "forbidden"
        rows.append(
            (
                test.name,
                verdicts[ConsistencyModel.STRONG],
                verdicts[ConsistencyModel.WEAK],
                test.description,
            )
        )
    _out(
        format_table(
            ("litmus", "strong (SC)", "weak (buffered)", "description"),
            rows,
            title="Consistency-model litmus verdicts (Table I's consistency axis)",
        )
    )
    return EXIT_OK


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.resilience import fault_sensitivity

    points = DesignSpace().feasible_sample(args.sample)
    sensitivities = fault_sensitivity(
        points=points,
        rates=args.rates,
        seed=args.seed,
        jobs=args.jobs,
        retries=args.retries,
    )
    shown = sensitivities[: args.top]
    nonzero = [rate for rate, _ in shown[0].seconds_by_rate if rate > 0.0]
    rows = []
    for entry in shown:
        cells: List[str] = [entry.point.label, f"{entry.baseline_seconds * 1e6:.1f}"]
        for rate, seconds in entry.seconds_by_rate:
            if rate == 0.0:
                continue
            if seconds == float("inf") or entry.baseline_seconds <= 0:
                cells.append("failed")
            else:
                cells.append(f"x{seconds / entry.baseline_seconds:.3f}")
        rows.append(tuple(cells))
    _out(
        format_table(
            ("design point", "base us") + tuple(f"@{r:g}" for r in nonzero),
            rows,
            title=(
                f"Fault sensitivity: {len(rows)} most fragile of "
                f"{len(sensitivities)} points (seed {args.seed})"
            ),
        )
    )
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_scenarios, scenarios

    if args.list:
        from repro.core.report import format_table

        rows = [(s.id, s.description) for s in scenarios()]
        _out(format_table(("scenario", "contract"), rows, title="chaos scenarios"))
        return EXIT_OK
    outcomes = run_scenarios(args.scenario or None, seed=args.seed)
    for outcome in outcomes:
        _out(outcome.line())
    failed = [o for o in outcomes if not o.ok]
    _out(f"\n{len(outcomes) - len(failed)}/{len(outcomes)} scenarios passed")
    return EXIT_STORE_ERROR if failed else EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import run_server

    server = run_server(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        deadline=args.deadline,
        watchdog_budget=args.watchdog_budget,
        store_path=args.store,
        retries=args.retries,
        job_timeout=args.job_timeout,
    )
    if threading.current_thread() is threading.main_thread():
        # A background job of a non-interactive shell starts with SIGINT
        # ignored; Ctrl-C (or kill -INT) must still stop the server.
        signal.signal(signal.SIGINT, signal.default_int_handler)
    _out(f"serving on {server.address} (Ctrl-C to stop)")
    server.serve_forever()
    return EXIT_OK


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.core.report import format_table
    from repro.store import ResultStore

    with ResultStore.open_existing(args.root) as store:
        if args.action == "stat":
            rows = [
                (name, f"{value:g}") for name, value in sorted(store.stat().items())
            ]
            _out(format_table(("statistic", "value"), rows, title=f"store {args.root}"))
            return EXIT_OK
        if args.action == "verify":
            report = store.verify()
            _out(f"store {args.root}: {report.summary()}")
            for key in report.corrupt:
                _out(f"  corrupt: {key}")
            return EXIT_OK if report.ok else EXIT_STORE_ERROR
        if args.action == "gc":
            outcome = store.gc()
            _out(
                f"store {args.root}: kept {outcome['kept']} entr"
                f"{'y' if outcome['kept'] == 1 else 'ies'}, dropped "
                f"{outcome['dropped']}, reclaimed {outcome['reclaimed_bytes']} bytes"
            )
            return EXIT_OK
        # export
        if not args.out:
            raise ConfigError("store export needs an output path argument")
        count = store.export(args.out)
        _out(f"exported {count} entries to {args.out}")
        return EXIT_OK


def _check_knobs(args: argparse.Namespace) -> None:
    """Replace each knob flag's text (or default) with its checked value
    (:mod:`repro.config.knobs`), so a bad one exits 2 before any explorer,
    store or server exists."""
    for name, raw in list(vars(args).items()):
        if name in knobs.KNOBS:
            setattr(args, name, knobs.value(name, raw, "--" + name.replace("_", "-")))


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        default=1,
        metavar="N",
        help="worker processes for simulation fan-out (default 1 = "
        f"in-process; 'auto' = one per CPU core; at most {knobs.JOBS_CAP}; "
        "results are identical at any job count)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print runtime job/cache statistics after the output",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON timeline of the run "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's aggregated metrics (CSV, or JSON if the "
        "path ends in .json)",
    )
    parser.add_argument(
        "--check",
        choices=knobs.KNOBS["check"].choices,
        default="off",
        help="pre-simulation static memory-model checker: warn logs "
        "findings, error refuses violating (trace, design point) pairs "
        "with exit code 4, optimize additionally logs advisory OPT/INF "
        "findings without gating (default off)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject seeded communication faults, e.g. "
        "'seed=1;pcie:fail=0.2,degrade=0.1;dma:drop=0.05' "
        "(targets: pcie, aperture, memctrl, interconnect, dma, ideal, or "
        "'*'; faults: fail, attempts, degrade, factor, window, drop). "
        "Deterministic per seed; results are uncached.",
    )
    parser.add_argument(
        "--retries",
        default=0,
        metavar="N",
        help="re-attempt failed simulation jobs up to N times with "
        "deterministic exponential backoff (default 0 = fail fast)",
    )
    parser.add_argument(
        "--job-timeout",
        default=None,
        metavar="SECONDS",
        help="kill and retry any worker job running longer than this "
        "(parallel runs only; counts against --retries)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="back the result memo with a durable content-addressed store "
        "at this directory: completed simulations survive crashes and "
        "reruns replay them from disk (default: no persistence)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description="Design-space exploration of heterogeneous memory models "
        "(reproduction of Lim & Kim, MSPC 2012)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="debug logging (runner fallbacks, cache behaviour)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress all output except errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p_table.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser(
        "figure",
        help="regenerate a paper figure (5/6/7) or the coherence-overhead "
        "figure ('coherence')",
    )
    p_fig.add_argument("number", choices=("5", "6", "7", "coherence"))
    _add_jobs_arg(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_cmp = sub.add_parser("compare", help="run all paper-vs-measured checks")
    p_cmp.set_defaults(func=_cmd_compare)

    p_rank = sub.add_parser("rank", help="rank feasible design points")
    p_rank.add_argument("--top", default=10)
    p_rank.add_argument(
        "--sample", default=40, help="evaluate at most N points (0 = all)"
    )
    p_rank.add_argument(
        "--checkpoint",
        dest="store",
        metavar="DIR",
        default=None,
        help="another name for --store DIR: the store keeps every completed "
        "group of points, so rerunning with the same directory resumes a "
        "killed sweep and produces identical output",
    )
    p_rank.add_argument(
        "--shards",
        default=None,
        metavar="N",
        help="evaluate the point space as N timing-key-aware shards, each "
        "ranked entirely inside a worker ('auto' = 2x --jobs; default: one "
        "shard, in-process); output is byte-identical at every shard count, "
        "and a --store/--checkpoint directory resumes at any of them",
    )
    _add_jobs_arg(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_faults = sub.add_parser(
        "faults",
        help="rank design points by fragility under injected "
        "communication faults (most fragile first)",
    )
    p_faults.add_argument(
        "--rates",
        metavar="R1,R2,...",
        default=None,
        help="comma-separated fault rates to sweep (default 0.05,0.1,0.2; "
        "a clean 0.0 baseline always runs first)",
    )
    p_faults.add_argument(
        "--seed", type=int, default=0, help="fault-injection seed (default 0)"
    )
    p_faults.add_argument(
        "--retries",
        default=2,
        metavar="N",
        help="harness re-attempts per failed job (default 2)",
    )
    p_faults.add_argument(
        "--sample", default=12, help="evaluate at most N points (0 = all)"
    )
    p_faults.add_argument("--top", default=10)
    p_faults.add_argument(
        "--jobs",
        default=1,
        metavar="N",
        help="worker processes (default 1 = in-process; 'auto' = one per "
        f"CPU core; at most {knobs.JOBS_CAP})",
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_diff = sub.add_parser(
        "metrics-diff",
        help="diff two --metrics-out files (largest relative change first)",
    )
    p_diff.add_argument("before", help="baseline metrics file (CSV or JSON)")
    p_diff.add_argument("after", help="comparison metrics file (CSV or JSON)")
    p_diff.add_argument(
        "--all",
        action="store_true",
        help="include unchanged metrics in the report",
    )
    p_diff.set_defaults(func=_cmd_metrics_diff)

    p_guide = sub.add_parser(
        "guidelines", help="efficiency guidelines per address space (future work, §VII)"
    )
    p_guide.add_argument("--w-perf", type=float, default=1.0)
    p_guide.add_argument("--w-energy", type=float, default=1.0)
    p_guide.add_argument("--w-prog", type=float, default=1.0)
    p_guide.add_argument("--w-options", type=float, default=1.0)
    p_guide.set_defaults(func=_cmd_guidelines)

    p_part = sub.add_parser(
        "partition", help="makespan-optimal CPU/GPU work splits per kernel"
    )
    p_part.set_defaults(func=_cmd_partition)

    p_litmus = sub.add_parser(
        "litmus", help="consistency-model litmus verdicts (strong vs weak)"
    )
    p_litmus.set_defaults(func=_cmd_litmus)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the detailed simulator's compiled hot path against "
        "the reference generator expansion (exit 1 on regression)",
    )
    p_bench.add_argument(
        "--mode",
        choices=("hotpath", "sweep", "coherence", "store", "all"),
        default="hotpath",
        help="hotpath: reference oracle vs production per kernel; sweep: per-point vs "
        "batched design-point axis on a rank-style workload; coherence: "
        "protocol-on vs protocol-off simulation overhead; store: "
        "warm-store vs cold sweep wall-clock; all: every section "
        "(default hotpath)",
    )
    p_bench.add_argument(
        "--scale",
        default=0.05,
        help="trace scale factor for the hotpath cells (default 0.05)",
    )
    p_bench.add_argument(
        "--sweep-scale",
        default=0.01,
        metavar="X",
        help="trace scale for the sweep mode's rank-style workload "
        "(default 0.01 — smaller than --scale because the per-point "
        "oracle replays the trace once per sampled design point)",
    )
    p_bench.add_argument(
        "--stride",
        default=3,
        metavar="N",
        help="sample every Nth feasible design point for the sweep "
        "workload (default 3: ~645 of the 1933 points)",
    )
    p_bench.add_argument(
        "--store-stride",
        default=8,
        metavar="N",
        help="sample every Nth feasible design point for the store "
        "workload (default 8 — the cold side simulates every point)",
    )
    p_bench.add_argument(
        "--repeats",
        default=1,
        metavar="N",
        help="take the best of N timings per cell (default 1)",
    )
    p_bench.add_argument(
        "--case",
        default="CPU+GPU",
        metavar="NAME",
        help="case-study system to simulate (default CPU+GPU)",
    )
    p_bench.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="benchmark only this kernel (repeatable; default: all six)",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the BENCH_hotpath JSON document here",
    )
    p_bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare speedups against a stored BENCH_hotpath JSON; any "
        "regression beyond --tolerance exits 1",
    )
    p_bench.add_argument(
        "--tolerance",
        default=0.5,
        help="allowed fractional speedup drop vs the baseline before "
        "failing (default 0.5, loose enough for shared CI runners)",
    )
    p_bench.add_argument(
        "--min-speedup",
        default=None,
        metavar="X",
        help="fail unless every measured speedup headline (fidelity "
        "geomeans, sweep geomean) is at least X",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser(
        "check",
        help="static memory-model checker: races, ownership, transfers, "
        "staleness (exit 4 when violations are found)",
    )
    p_check.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="check only this kernel (repeatable; default: all six)",
    )
    p_check.add_argument(
        "--case",
        action="append",
        default=[],
        metavar="NAME",
        help="check only under this case-study system (repeatable; "
        "default: all five paper systems)",
    )
    p_check.add_argument(
        "--fixtures",
        action="store_true",
        help="check the seeded-violation fixture suite instead of the "
        "paper kernels (exercises every rule id; exits 4)",
    )
    p_check.add_argument(
        "--rule", default=None, metavar="ID", help="report only this rule id"
    )
    p_check.add_argument(
        "--severity",
        default=None,
        choices=("error", "warning"),
        help="report only findings of this severity",
    )
    p_check.add_argument(
        "--all",
        action="store_true",
        help="also print clean (trace, configuration) pairs",
    )
    p_check.add_argument(
        "--optimize",
        action="store_true",
        help="also run the advisory dataflow optimization passes "
        "(OPT001 dead transfers, OPT002 redundant transfers, INF001 "
        "inferable declareAccess modes)",
    )
    p_check.add_argument(
        "--json", default=None, metavar="PATH", help="write the reports as JSON"
    )
    p_check.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="write the findings as a SARIF 2.1.0 document (rule "
        "metadata, locations, fix hints) for CI annotation",
    )
    p_check.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write aggregated check.* metrics (CSV, or JSON if the path "
        "ends in .json)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_export = sub.add_parser(
        "export", help="write every regenerated experiment to a JSON file"
    )
    p_export.add_argument("path", help="output path, e.g. results.json")
    p_export.set_defaults(func=_cmd_export)

    p_report = sub.add_parser(
        "report", help="full markdown reproduction report (tables, figures, checks)"
    )
    p_report.add_argument("path", nargs="?", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_codegen = sub.add_parser(
        "codegen",
        help="emit the lowered pseudo-C for every kernel under every "
        "address space (the Figure 2/3 code patterns)",
    )
    p_codegen.add_argument("dir", help="output directory")
    p_codegen.set_defaults(func=_cmd_codegen)

    p_store = sub.add_parser(
        "store",
        help="inspect or maintain a durable result store (see --store): "
        "stat, verify (exit 5 on corruption), gc, export",
    )
    p_store.add_argument("action", choices=("stat", "verify", "gc", "export"))
    p_store.add_argument("root", help="store directory")
    p_store.add_argument(
        "out", nargs="?", default=None, help="output path (export only)"
    )
    p_store.set_defaults(func=_cmd_store)

    p_serve = sub.add_parser(
        "serve",
        help="run the supervised exploration daemon: queued, coalesced, "
        "deadline-bounded design-point evaluations over HTTP",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        default=8763,
        help="listen port (0 picks a free port; default 8763)",
    )
    p_serve.add_argument(
        "--jobs",
        default=1,
        metavar="N",
        help="worker processes per evaluation (default 1; 'auto' = one "
        f"per CPU core; at most {knobs.JOBS_CAP})",
    )
    p_serve.add_argument(
        "--queue-depth",
        default=32,
        metavar="N",
        help="pending-job bound; submissions past it get HTTP 503 "
        "(default 32)",
    )
    p_serve.add_argument(
        "--deadline",
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (default 30; requests can "
        "override)",
    )
    p_serve.add_argument(
        "--watchdog-budget",
        default=3,
        metavar="N",
        help="explorer rebuilds allowed after crashed worker pools "
        "before the service goes unready (default 3)",
    )
    p_serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="durable result store to warm-start from and write through to",
    )
    p_serve.add_argument(
        "--retries",
        default=0,
        metavar="N",
        help="per-job retry budget (default 0)",
    )
    p_serve.add_argument(
        "--job-timeout",
        default=None,
        metavar="SECONDS",
        help="kill and retry any worker job running longer than this",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the seeded chaos scenario suite (worker kills, torn "
        "writes, corruption, live-server faults); any violated contract "
        "exits 5",
    )
    p_chaos.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="ID",
        help="run only this scenario (repeatable; default: all)",
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for every scenario's random choices (default 0)",
    )
    p_chaos.add_argument(
        "--list", action="store_true", help="list scenarios and their contracts"
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    try:
        _check_knobs(args)
        return args.func(args)
    except KeyboardInterrupt:
        # A store-backed rank commits each completed group of points, so
        # a rerun with the same --store/--checkpoint resumes; 130 = 128 + SIGINT.
        print("repro-explore: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (StoreCorruptionError, ChaosError) as exc:
        # Integrity failures: a corrupt store surfaced by an explicit
        # verify, or a chaos scenario that ended in an unexpected state.
        print(f"repro-explore: integrity error: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    except StoreError as exc:
        # Structural store problems (unwritable root, wrong format) are
        # configuration mistakes, not integrity failures.
        print(f"repro-explore: store error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ConfigError, TraceError, ProgramError, DesignSpaceError) as exc:
        print(f"repro-explore: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CheckError as exc:
        print(f"repro-explore: check violations: {exc}", file=sys.stderr)
        return EXIT_CHECK_VIOLATIONS
    except ReproError as exc:
        print(f"repro-explore: simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION_ERROR
    except OSError as exc:
        # Commands report unreadable inputs themselves; what escapes is an
        # output path that cannot be written (missing directory, no access).
        print(
            f"repro-explore: cannot write {exc.filename}: {exc.strerror}",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
