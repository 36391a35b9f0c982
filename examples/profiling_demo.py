"""Profile a campaign, render a flamegraph, and read the serving latencies.

End-to-end tour of the observability stack added with the continuous
profiling PR:

1. run a small BT/S sweep under the sampling profiler and print the
   hottest frames (self and cumulative) plus the span/tag attribution;
2. write the collapsed-stack file a flamegraph renders from
   (``flamegraph.pl profile.folded > profile.svg``, or paste into
   https://www.speedscope.app);
3. drive a short served workload and print each serving tier's request
   count and latency quantiles from the service's own histograms.

Run:  python examples/profiling_demo.py
"""

from repro import obs
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.service import PredictionService, PredictRequest

MEASUREMENT = MeasurementConfig(repetitions=3, warmup=1, seed=0)


def profile_campaign() -> None:
    print("=== 1. sampling profiler over a BT/S sweep ===\n")
    profiler = obs.SamplingProfiler(interval=0.002).start()
    try:
        pipeline = ExperimentPipeline(
            ExperimentSettings(measurement=MEASUREMENT)
        )
        list(pipeline.sweep("BT", "S", [4], chain_lengths=[2]))
    finally:
        data = profiler.stop()

    total = sum(data.samples.values())
    print(
        f"{total} samples over {data.duration:.2f}s "
        f"({profiler.backend} backend)\n"
    )
    print("hottest frames (self time):")
    for stack, seconds in sorted(
        data.self_seconds().items(), key=lambda kv: -kv[1]
    )[:8]:
        print(f"  {seconds:8.3f}s  {stack}")
    print("\nby span/tag:")
    for name, seconds in sorted(
        data.span_seconds().items(), key=lambda kv: -kv[1]
    )[:8]:
        print(f"  {seconds:8.3f}s  {name}")

    with open("profile.folded", "w", encoding="utf-8") as fh:
        fh.write(data.collapsed())
    print(
        "\nwrote profile.folded — render with "
        "`flamegraph.pl profile.folded > profile.svg` or speedscope"
    )


def serve_and_report_latency() -> None:
    print("\n=== 2. serving latency per tier for a short workload ===\n")
    with PredictionService(
        measurement=MEASUREMENT, max_workers=2
    ) as service:
        for nprocs in (4, 9, 4, 4, 9, 4):
            service.predict(
                PredictRequest("BT", "S", nprocs, chain_length=2),
                timeout=120,
            )
        metrics = service.metrics

    for tier, histogram in sorted(metrics.tier_latency.items()):
        if not histogram.count:
            continue
        print(
            f"  {tier:12s} {histogram.count:4d} req  "
            f"p50 {histogram.quantile(0.5) * 1e3:8.2f}ms  "
            f"p95 {histogram.quantile(0.95) * 1e3:8.2f}ms"
        )


def main() -> None:
    profile_campaign()
    serve_and_report_latency()


if __name__ == "__main__":
    main()
