"""A persistent measurement campaign with prediction error bars.

Combines three production features:

* :class:`~repro.experiments.pipeline.ExperimentPipeline` with a memo
  directory — sweep (class, procs) cells, archiving every measurement in
  the content-addressed memo store so re-runs are free (the Prophesy
  workflow the paper's group built);
* :func:`~repro.core.uncertainty.prediction_interval` — propagate the
  measurement noise through the coupling pipeline into an error bar, so
  the class-S "measuring errors get magnified" effect is quantified
  rather than guessed;
* predictor comparison per cell.

Run:  python examples/measurement_campaign.py
"""

import os
import tempfile

from repro.core import MeasuredQuantity, prediction_interval
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import ChainRunner, MeasurementConfig
from repro.npb import make_benchmark
from repro.parallel import measure_chain

CHAIN = 2


def main() -> None:
    cache_dir = os.path.join(tempfile.gettempdir(), "repro_campaign_memo")
    settings = ExperimentSettings(
        measurement=MeasurementConfig(repetitions=8, warmup=2)
    )
    pipeline = ExperimentPipeline(settings, memo=cache_dir)
    results = [
        result
        for cls in ("S", "W")
        for result in pipeline.sweep("BT", cls, [4, 16], chain_lengths=[CHAIN])
    ]

    print(f"{'cell':>8} {'summation':>11} {'coupling':>10} {'95% interval':>24}")
    for result in results:
        # Per-measurement noise for the interval (mean + sem), read back
        # from the memo store the sweep just filled.
        bench = make_benchmark("BT", result.problem_class, result.nprocs)
        runner = ChainRunner(bench, settings.machine, settings.measurement)

        def quantity(kernels):
            return MeasuredQuantity.from_measurement(
                measure_chain(runner, kernels, pipeline.memo)
            )

        flow = result.inputs.flow
        interval = prediction_interval(
            flow,
            result.inputs.iterations,
            {k: quantity((k,)) for k in flow.names},
            {w: quantity(w) for w in flow.windows(CHAIN)},
            CHAIN,
            pre={k: quantity((k,)) for k in bench.pre_kernel_names},
            post={k: quantity((k,)) for k in bench.post_kernel_names},
            draws=300,
        )
        print(
            f"{result.problem_class}/{result.nprocs:>2}p "
            f"{result.summation:>11.3f} "
            f"{result.coupling_prediction(CHAIN):>10.3f} "
            f"[{interval.lo95:.3f}, {interval.hi95:.3f}] "
            f"(+-{100 * interval.relative_halfwidth:.2f} %)"
        )
    stats = pipeline.memo.stats()
    print(
        f"\nmemo: {stats['hits']} hits, {stats['stores']} stores in "
        f"{cache_dir}\nRe-run this script: every cell and measurement comes "
        "back from the memo store instantly."
    )


if __name__ == "__main__":
    main()
