"""Command-line interface.

Examples::

    repro list                      # enumerate the paper's experiments
    repro run table3b               # regenerate one table
    repro run all                   # regenerate every table
    repro predict BT W 9 -L 3       # one-off prediction comparison
    repro machine                   # show the simulated IBM SP
    repro profile LU A 8            # per-kernel application profile
    repro serve --cache-dir DIR     # JSON-lines prediction service on stdin
    repro campaign BT --classes S,W --procs 4,9 --jobs 4 \
        --cache-dir .repro-cache    # parallel sweep with simulation memo
    repro metrics --port 7101       # scrape a running server's metrics
    repro trace BT S 4 -o t.json    # Chrome/Perfetto timeline of one run
    repro lint src                  # AST invariant checks (REP001-REP010)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.analytic.tiers import tier_policy_name
from repro.errors import ReproError
from repro.npb import BENCHMARKS, CLASS_NAMES

__all__ = ["main", "build_parser"]

#: Canonical (upper-case) choice lists; arguments use ``type=str.upper`` so
#: lower-case spellings normalize before the choices check instead of each
#: list carrying both cases.
BENCHMARK_CHOICES = list(BENCHMARKS)
CLASS_CHOICES = list(CLASS_NAMES)


def _add_configuration_arguments(
    parser: argparse.ArgumentParser, with_class: bool = True
) -> None:
    """The benchmark/class/nprocs triple shared by several subcommands."""
    parser.add_argument(
        "benchmark",
        type=str.upper,
        choices=BENCHMARK_CHOICES,
        help="NPB work-alike (case-insensitive)",
    )
    if with_class:
        parser.add_argument(
            "problem_class",
            type=str.upper,
            choices=CLASS_CHOICES,
            help="problem class (case-insensitive)",
        )
        parser.add_argument("nprocs", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Kernel-coupling performance prediction "
            "(reproduction of Taylor et al., HPDC 2002)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper's experiments")

    run = sub.add_parser("run", help="regenerate one experiment table (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. table3b, or 'all'")
    run.add_argument(
        "--repetitions", type=int, default=None, help="harness repetitions"
    )
    run.add_argument("--seed", type=int, default=0, help="measurement noise seed")

    predict = sub.add_parser(
        "predict", help="predict one configuration with every method"
    )
    _add_configuration_arguments(predict)
    predict.add_argument(
        "-L", "--chain-length", type=int, default=3, help="coupling chain length"
    )
    predict.add_argument(
        "--tier", type=tier_policy_name, default="exact", metavar="POLICY",
        help="serving-ladder policy: fast | balanced | exact "
        "(case-insensitive; exact always simulates)",
    )

    sub.add_parser("machine", help="describe the simulated machine")

    report = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    report.add_argument(
        "-o", "--output", default="EXPERIMENTS.md", help="output markdown path"
    )
    report.add_argument(
        "--repetitions", type=int, default=8, help="harness repetitions"
    )
    report.add_argument("--seed", type=int, default=0)

    campaign = sub.add_parser(
        "campaign",
        help=(
            "full prediction campaign over a sweep grid, optionally across "
            "worker processes with a content-addressed simulation cache"
        ),
    )
    _add_configuration_arguments(campaign, with_class=False)
    campaign.add_argument(
        "--classes", default="S", help="comma-separated problem classes"
    )
    campaign.add_argument(
        "--procs", default="4", help="comma-separated processor counts"
    )
    campaign.add_argument(
        "--chains", default="2", help="comma-separated coupling chain lengths"
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for a sweep's missing measurements",
    )
    campaign.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="simulation memo directory (e.g. .repro-cache); reruns skip "
        "already-simulated work",
    )
    campaign.add_argument("--repetitions", type=int, default=6)
    campaign.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile",
        help=(
            "per-kernel application profile, or the sampling profiler "
            "('profile run ...' / 'profile report --in ...')"
        ),
    )
    # Three spellings share this subparser, so the positionals are loose
    # and validated in the handler: the legacy kernel profile
    # (``profile BT S 4``), the sampling profiler (``profile run BT S 4``,
    # arguments shifted one slot right), and saved-profile reporting
    # (``profile report --in PROFILE.json``).
    profile.add_argument(
        "benchmark",
        type=str.upper,
        help="NPB work-alike, or the verb 'run' / 'report'",
    )
    profile.add_argument(
        "problem_class", type=str.upper, nargs="?", default=None
    )
    profile.add_argument("nprocs", nargs="?", default=None)
    profile.add_argument("extra", nargs="*", default=[])
    profile.add_argument(
        "--interval", type=float, default=0.005,
        help="sampling period in seconds (profile run)",
    )
    profile.add_argument(
        "--jobs", type=int, default=1,
        help="campaign worker processes; their samples merge back "
        "(profile run)",
    )
    profile.add_argument(
        "--chains", default="2",
        help="comma-separated coupling chain lengths (profile run)",
    )
    profile.add_argument(
        "--repetitions", type=int, default=6, help="(profile run)"
    )
    profile.add_argument(
        "-o", "--out", default="PROFILE.json", metavar="PATH",
        help="where 'profile run' saves the raw profile",
    )
    profile.add_argument(
        "--flamegraph", default=None, metavar="PATH",
        help="also write collapsed stacks (flamegraph.pl / speedscope)",
    )
    profile.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also write a Chrome-trace sample timeline",
    )
    profile.add_argument(
        "--in", dest="profile_in", default=None, metavar="PATH",
        help="saved profile to report on (profile report)",
    )
    profile.add_argument(
        "--sort", choices=["self", "cumulative"], default="self",
        help="report ordering (profile report)",
    )
    profile.add_argument(
        "--limit", type=int, default=20,
        help="rows in the report table (profile report)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve predictions over JSON lines (stdin) or a TCP socket",
    )
    serve.add_argument(
        "--db", default=None, metavar="PATH",
        help="ignored (kept for old command lines); see --cache-dir",
    )
    serve.add_argument("--repetitions", type=int, default=6)
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="L1 report LRU capacity"
    )
    serve.add_argument(
        "--ttl", type=float, default=None, help="L1 entry lifetime in seconds"
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes that simulate cold cells"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="max outstanding cells before rejecting with retry-after",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="serve over TCP on this port instead of stdin (0 = ephemeral)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="simulation memo directory shared with 'repro campaign'; "
        "warm cells are served without simulating",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="JSON fault plan (repro.faults) to inject while serving",
    )
    serve.add_argument(
        "--tier-policy", type=tier_policy_name, default="exact",
        metavar="POLICY",
        help="serving-ladder policy: fast | balanced | exact "
        "(case-insensitive; fast/balanced answer from the analytic tier "
        "and escalate on low confidence)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant checks (repro.analysis) over source paths",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    metrics = sub.add_parser(
        "metrics",
        help="fetch metrics from a running 'repro serve --port N' server",
    )
    metrics.add_argument(
        "--port", type=int, required=True, help="server TCP port"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="Prometheus text exposition (default) or the JSON snapshot",
    )
    metrics.add_argument(
        "--timeout", type=float, default=10.0, help="socket timeout in seconds"
    )

    trace = sub.add_parser(
        "trace",
        help="run one application and export a Chrome/Perfetto trace",
    )
    _add_configuration_arguments(trace)
    trace.add_argument(
        "-o", "--out", default="timeline.json",
        help="output trace path (open in ui.perfetto.dev or chrome://tracing)",
    )
    trace.add_argument(
        "--max-records", type=int, default=200000,
        help="simulator trace ring-buffer capacity (newest records kept)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--format", choices=["chrome", "collapsed"], default="chrome",
        help="chrome (Perfetto timeline, default) or collapsed "
        "(flamegraph stacks of the span tree, self-time weighted)",
    )

    slo = sub.add_parser(
        "slo",
        help="rolling SLO report from a running 'repro serve --port N' "
        "server (per-tier p50/p95/p99, error-budget burn)",
    )
    slo.add_argument("--port", type=int, required=True, help="server TCP port")
    slo.add_argument("--host", default="127.0.0.1")
    slo.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="human-readable table (default) or the raw JSON judgement",
    )
    slo.add_argument(
        "--timeout", type=float, default=10.0, help="socket timeout in seconds"
    )

    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS as reg

    # Trigger driver registration.
    import repro.experiments.bt_tables  # noqa: F401
    import repro.experiments.cross_machine  # noqa: F401
    import repro.experiments.extensions  # noqa: F401
    import repro.experiments.extrapolation_exp  # noqa: F401
    import repro.experiments.lu_tables  # noqa: F401
    import repro.experiments.scaling_exp  # noqa: F401
    import repro.experiments.sp_tables  # noqa: F401

    for exp_id in sorted(reg):
        exp = reg[exp_id]
        print(f"{exp_id:<10} {exp.title:<36} {exp.description}")
    return 0


def _cmd_run(experiment: str, repetitions: Optional[int], seed: int) -> int:
    from repro import obs
    from repro.experiments import ExperimentPipeline, ExperimentSettings, run_experiment
    from repro.instrument import MeasurementConfig

    obs.configure_logging()
    measurement = MeasurementConfig(
        repetitions=repetitions if repetitions is not None else 8,
        warmup=2,
        seed=seed,
    )
    pipeline = ExperimentPipeline(ExperimentSettings(measurement=measurement))
    if experiment == "all":
        import repro.experiments.bt_tables  # noqa: F401
        import repro.experiments.cross_machine  # noqa: F401
        import repro.experiments.extensions  # noqa: F401
        import repro.experiments.extrapolation_exp  # noqa: F401
        import repro.experiments.lu_tables  # noqa: F401
        import repro.experiments.scaling_exp  # noqa: F401
        import repro.experiments.sp_tables  # noqa: F401
        from repro.experiments.registry import EXPERIMENTS

        ids = sorted(EXPERIMENTS)
    else:
        ids = [experiment]
    for exp_id in ids:
        with obs.span("experiment.run", experiment=exp_id):
            result = run_experiment(exp_id, pipeline=pipeline)
        obs.log("experiment.done", experiment=exp_id)
        print(result.table.render())
        print()
        print(result.comparison())
        print()
    return 0


def _cmd_predict(
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_length: int,
    tier: str = "exact",
) -> int:
    from repro import quick_prediction

    report = quick_prediction(
        benchmark, problem_class, nprocs, chain_length, tier=tier
    )
    print(f"Actual:               {report.actual:.3f} s")
    for name, value in report.predictions.items():
        print(
            f"{name + ':':<21} {value:.3f} s "
            f"({report.relative_error(name):.2f} % relative error)"
        )
    print(f"Best predictor: {report.best()}")
    print(f"Tier: {report.tier} (policy: {tier})")
    return 0


def _cmd_machine() -> int:
    from repro.simmachine import ibm_sp_argonne

    cfg = ibm_sp_argonne()
    proc = cfg.processor
    net = cfg.network
    print(f"machine: {cfg.name} (up to {cfg.max_procs} processors)")
    print(
        f"  processor: {proc.clock_hz / 1e6:.0f} MHz x "
        f"{proc.flops_per_cycle:.0f} flops/cycle, "
        f"{100 * proc.efficiency:.0f} % sustained "
        f"({1e-6 / proc.flop_time:.0f} Mflop/s)"
    )
    for level in proc.cache_levels:
        print(
            f"  {level.name}: {level.capacity_bytes // 1024} KiB, "
            f"{level.byte_time * 1e9:.2f} ns/B"
        )
    print(f"  memory: {proc.memory_byte_time * 1e9:.2f} ns/B")
    print(
        f"  network: {net.latency * 1e6:.0f} us latency, "
        f"{1e-6 / net.byte_time:.0f} MB/s per link, "
        f"contention coeff {net.contention_coeff}"
    )
    print(f"  noise: cv={cfg.noise_cv}, floor={cfg.noise_floor * 1e6:.0f} us")
    return 0


def _cmd_report(output: str, repetitions: int, seed: int) -> int:
    from repro import obs
    from repro.experiments import ExperimentPipeline, ExperimentSettings
    from repro.experiments.reportgen import generate_markdown
    from repro.instrument import MeasurementConfig

    obs.configure_logging()
    pipeline = ExperimentPipeline(
        ExperimentSettings(
            measurement=MeasurementConfig(
                repetitions=repetitions, warmup=2, seed=seed
            )
        )
    )
    with obs.span("report.generate"):
        text = generate_markdown(pipeline)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)
    obs.log("report.written", path=output, bytes=len(text))
    print(f"wrote {output}")
    return 0


def _cmd_campaign(args) -> int:
    import time

    from repro import obs
    from repro.experiments import ExperimentPipeline, ExperimentSettings
    from repro.instrument import MeasurementConfig

    obs.configure_logging()
    chain_lengths = tuple(int(c) for c in args.chains.split(","))
    pipeline = ExperimentPipeline(
        ExperimentSettings(
            measurement=MeasurementConfig(
                repetitions=args.repetitions, warmup=2, seed=args.seed
            )
        ),
        memo=args.cache_dir,
        jobs=args.jobs,
    )
    proc_counts = [int(p) for p in args.procs.split(",")]
    started = time.perf_counter()
    rows = []
    for cls in (c.upper() for c in args.classes.split(",")):
        for result in pipeline.sweep(
            args.benchmark, cls, proc_counts, chain_lengths=chain_lengths
        ):
            rows.append(result)
    elapsed = time.perf_counter() - started
    header = f"{'class':>5} {'procs':>5} {'actual':>10} {'summation':>12}"
    for length in chain_lengths:
        header += f" {'coupling L=' + str(length):>14}"
    print(header)
    for result in rows:
        line = (
            f"{result.problem_class:>5} {result.nprocs:>5} "
            f"{result.actual:>10.3f} {result.summation:>12.3f}"
        )
        for length in chain_lengths:
            line += f" {result.coupling_prediction(length):>14.3f}"
        print(line)
    summary = f"{len(rows)} cells in {elapsed:.2f} s (jobs={args.jobs})"
    if args.cache_dir is not None:
        # Worker counter deltas merge into the global registry, so these
        # totals cover pool cells too. A warm re-run reads one cell record
        # per cell: its hits are those.
        registry = obs.get_registry()
        hits = registry.counter("parallel_memo_hits").value
        stores = registry.counter("parallel_memo_stores").value
        summary += (
            f"; memo: {hits} hits, {stores} stores in {args.cache_dir}"
        )
    print(summary)
    return 0


def _cmd_profile(args) -> int:
    if args.benchmark == "RUN":
        return _cmd_profile_run(args)
    if args.benchmark == "REPORT":
        return _cmd_profile_report(args)
    return _cmd_profile_kernels(
        args.benchmark, args.problem_class, args.nprocs
    )


def _cmd_profile_kernels(
    benchmark: str, problem_class: Optional[str], nprocs
) -> int:
    from repro.instrument import profile_application
    from repro.npb import make_benchmark
    from repro.simmachine import ibm_sp_argonne

    if benchmark not in BENCHMARK_CHOICES:
        raise ReproError(
            f"unknown benchmark {benchmark!r}; choose from "
            f"{BENCHMARK_CHOICES} (or the verbs 'run' / 'report')"
        )
    if problem_class not in CLASS_CHOICES:
        raise ReproError(
            f"profile needs a problem class from {CLASS_CHOICES}, "
            f"got {problem_class!r}"
        )
    try:
        nprocs = int(nprocs)
    except (TypeError, ValueError):
        raise ReproError(f"nprocs must be an integer, got {nprocs!r}")
    bench = make_benchmark(benchmark, problem_class, nprocs)
    report = profile_application(bench, ibm_sp_argonne())
    print(report.render())
    return 0


def _cmd_profile_run(args) -> int:
    """Sample a small campaign: ``repro profile run BT S 4 [options]``.

    The positionals arrive shifted one slot right of the legacy form
    (``benchmark`` holds the verb), so the real triple is
    (problem_class, nprocs, extra[0]).
    """
    import json
    import time

    from repro import obs
    from repro.experiments import ExperimentPipeline, ExperimentSettings
    from repro.instrument import MeasurementConfig

    shifted = [args.problem_class, args.nprocs, *args.extra]
    if len(shifted) < 3 or shifted[0] is None or shifted[1] is None:
        raise ReproError(
            "usage: repro profile run BENCHMARK CLASS NPROCS [options]"
        )
    benchmark = str(shifted[0]).upper()
    problem_class = str(shifted[1]).upper()
    if benchmark not in BENCHMARK_CHOICES:
        raise ReproError(
            f"unknown benchmark {benchmark!r}; choose from {BENCHMARK_CHOICES}"
        )
    if problem_class not in CLASS_CHOICES:
        raise ReproError(
            f"unknown problem class {problem_class!r}; "
            f"choose from {CLASS_CHOICES}"
        )
    try:
        nprocs = int(shifted[2])
    except ValueError:
        raise ReproError(f"nprocs must be an integer, got {shifted[2]!r}")
    obs.configure_logging()
    chain_lengths = tuple(int(c) for c in args.chains.split(","))
    pipeline = ExperimentPipeline(
        ExperimentSettings(
            measurement=MeasurementConfig(
                repetitions=args.repetitions, warmup=2
            )
        ),
        jobs=args.jobs,
    )
    profiler = obs.start_profiler(interval=args.interval)
    started = time.perf_counter()
    try:
        pipeline.sweep(
            benchmark, problem_class, [nprocs], chain_lengths=chain_lengths
        )
    finally:
        data = profiler.stop()
    elapsed = time.perf_counter() - started
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data.to_dict(), fh, indent=2, sort_keys=True)
    if args.flamegraph is not None:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(data.collapsed())
    if args.chrome is not None:
        document = data.chrome_trace()
        obs.validate_chrome_trace(document)
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    obs.log(
        "profile.run_done",
        benchmark=benchmark,
        backend=profiler.backend,
        samples=data.sample_count,
        stacks=len(data.samples),
        out=args.out,
    )
    print(
        f"profiled {benchmark}/{problem_class}/{nprocs}: "
        f"{data.sample_count} samples over {elapsed:.2f} s "
        f"({profiler.backend} backend) -> {args.out}"
    )
    _print_profile_table(data, sort=args.sort, limit=args.limit)
    return 0


def _print_profile_table(data, sort: str, limit: int) -> None:
    table = (
        data.self_seconds() if sort == "self" else data.cumulative_seconds()
    )
    rows = sorted(table.items(), key=lambda kv: -kv[1])[:limit]
    if not rows:
        print("(no samples)")
        return
    print(f"{sort + ' seconds':>14}  location")
    for label, seconds in rows:
        print(f"{seconds:>14.4f}  {label}")
    spans = data.span_seconds()
    if spans:
        print("by span/tag:")
        for name, seconds in sorted(spans.items(), key=lambda kv: -kv[1])[
            :limit
        ]:
            print(f"{seconds:>14.4f}  {name}")


def _cmd_profile_report(args) -> int:
    import json

    from repro.obs.profile import ProfileData

    if args.profile_in is None:
        raise ReproError(
            "usage: repro profile report --in PROFILE.json "
            "[--sort self|cumulative] [--limit N]"
        )
    with open(args.profile_in, encoding="utf-8") as fh:
        data = ProfileData.from_dict(json.load(fh))
    print(
        f"{args.profile_in}: {data.sample_count} samples @ "
        f"{data.interval * 1e3:g} ms over {data.duration:.2f} s"
    )
    _print_profile_table(data, sort=args.sort, limit=args.limit)
    if args.flamegraph is not None:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(data.collapsed())
        print(f"wrote {args.flamegraph}")
    return 0


def _cmd_serve(args) -> int:
    import contextlib
    import json

    from repro import faults, obs
    from repro.instrument import MeasurementConfig
    from repro.service import PredictionService, serve_jsonl, serve_socket

    obs.configure_logging()
    if args.db is not None:
        # Accepted for old command lines; the memo directory (--cache-dir)
        # is the one persistent tier.
        obs.log("serve.db_ignored", db=args.db)
    plan = None
    if args.fault_plan is not None:
        with open(args.fault_plan, encoding="utf-8") as handle:
            plan = faults.FaultPlan.from_json(handle.read())
        obs.log(
            "serve.faults_installed",
            plan=args.fault_plan,
            sites=[spec.site for spec in plan.specs],
            seed=plan.seed,
        )
    with contextlib.ExitStack() as stack:
        stack.callback(faults.clear)
        if plan is not None:
            faults.install(plan)
        service = stack.enter_context(
            PredictionService(
                measurement=MeasurementConfig(
                    repetitions=args.repetitions, warmup=2, seed=args.seed
                ),
                cache_capacity=args.cache_size,
                cache_ttl=args.ttl,
                max_workers=args.workers,
                queue_depth=args.queue_depth,
                tier_policy=args.tier_policy,
                cache_dir=args.cache_dir,
            )
        )
        obs.log(
            "serve.configured",
            workers=args.workers,
            queue_depth=args.queue_depth,
            cache_dir=args.cache_dir,
            tier_policy=args.tier_policy,
        )
        if args.port is not None:
            stats = serve_socket(service, args.host, args.port)
        else:
            stats = serve_jsonl(service, sys.stdin, sys.stdout)
    obs.log("serve.closed", requests=stats["requests"])
    print(json.dumps(stats, indent=2), file=sys.stderr)
    return 0


def _server_command(args, cmd: str) -> dict:
    """Send ``{"cmd": cmd}`` to the server at ``--host``/``--port``.

    Returns its reply; an unreachable server, a closed connection and an
    ``ok: false`` reply each raise :class:`ReproError`.
    """
    from repro.service import LineClient

    try:
        with LineClient(args.host, args.port, timeout=args.timeout) as client:
            payload = client.request({"cmd": cmd})
    except OSError as exc:
        raise ReproError(
            f"cannot reach {args.host}:{args.port}: {exc}"
        ) from exc
    if not payload.get("ok"):
        raise ReproError(f"server error: {payload.get('error', 'unknown')}")
    return payload


def _cmd_metrics(args) -> int:
    import json

    payload = _server_command(args, "metrics")
    if args.format == "json":
        print(json.dumps(payload["metrics"], indent=2, sort_keys=True))
    else:
        sys.stdout.write(payload["prometheus"])
    return 0


def _cmd_slo(args) -> int:
    import json

    payload = _server_command(args, "slo")
    report = payload["slo"]
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    window = report["window"]
    print(
        f"window: {window.get('requests', 0)} requests over "
        f"{window.get('snapshots', 1)} snapshots"
    )
    print(f"{'tier':<12} {'requests':>9} {'p50':>10} {'p95':>10} {'p99':>10}")
    rows = {"overall": report["overall"], **report["tiers"]}
    for tier, doc in rows.items():
        print(
            f"{tier:<12} {doc['requests']:>9} {doc['p50']:>10.4g} "
            f"{doc['p95']:>10.4g} {doc['p99']:>10.4g}"
        )
    print(
        f"{'objective':<18} {'kind':<11} {'target':>7} {'compliance':>11} "
        f"{'burn':>7}  met"
    )
    for verdict in report["objectives"]:
        print(
            f"{verdict['name']:<18} {verdict['kind']:<11} "
            f"{verdict['target']:>7.3g} {verdict['compliance']:>11.4g} "
            f"{verdict['burn_rate']:>7.3g}  "
            f"{'yes' if verdict['met'] else 'NO'}"
        )
    print(f"breaches: {report['breaches']}")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.instrument.runner import ApplicationRunner
    from repro.npb import make_benchmark
    from repro.simmachine import ibm_sp_argonne

    obs.configure_logging()
    bench = make_benchmark(args.benchmark, args.problem_class, args.nprocs)
    runner = ApplicationRunner(
        bench, ibm_sp_argonne(), seed=args.seed, trace=args.max_records
    )
    result = runner.run()
    tracer = obs.get_tracer()
    if args.format == "collapsed":
        text = obs.collapsed_spans(tracer.spans())
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        obs.log(
            "trace.written",
            path=args.out,
            format="collapsed",
            stacks=len(text.splitlines()),
            total_time=round(result.total_time, 6),
        )
        print(
            f"wrote {args.out} — feed to flamegraph.pl or "
            "https://www.speedscope.app"
        )
        return 0
    document = obs.write_chrome_trace(
        args.out, spans=tracer.spans(), machine_trace=result.trace
    )
    obs.log(
        "trace.written",
        path=args.out,
        events=len(document["traceEvents"]),
        sim_records=len(result.trace) if result.trace else 0,
        dropped=result.trace.dropped if result.trace else 0,
        total_time=round(result.total_time, 6),
    )
    print(f"wrote {args.out} — open in https://ui.perfetto.dev")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Parsing happens inside the error boundary: ``type=`` callbacks (e.g.
    ``--tier``'s policy lookup) raise :class:`ConfigurationError`, which
    must print as a clean CLI error, not a traceback.
    """
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    """Route a parsed command to its handler."""
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.repetitions, args.seed)
    if args.command == "predict":
        return _cmd_predict(
            args.benchmark,
            args.problem_class,
            args.nprocs,
            args.chain_length,
            args.tier,
        )
    if args.command == "machine":
        return _cmd_machine()
    if args.command == "report":
        return _cmd_report(args.output, args.repetitions, args.seed)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "slo":
        return _cmd_slo(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return 2  # pragma: no cover — argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
