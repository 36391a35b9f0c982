"""The observability substrate end-to-end on one served prediction.

Drives a BT class S prediction through the serving layer with a
correlation ID bound, then shows everything the substrate captured:

* structured log lines stamped with the correlation/trace/span IDs;
* the request's span tree (service.store, then service.predict ->
  service.dispatch); the cell itself runs in a worker process, and its
  spans (app.run, measure.chain ...) come back as the merged
  ``span_seconds`` histograms of the exposition below;
* the merged Prometheus text exposition — the same bytes a running
  ``repro serve --port N`` answers to the ``{"cmd": "metrics"}`` command
  (or ``repro metrics --port N``).

Run:  python examples/observability_demo.py
"""

import sys

from repro import obs
from repro.instrument import MeasurementConfig
from repro.service import PredictionService, PredictRequest


def main() -> None:
    obs.configure_logging(stream=sys.stderr)

    service = PredictionService(
        measurement=MeasurementConfig(repetitions=2, warmup=1),
        max_workers=2,
    )
    request = PredictRequest("BT", "S", 4, chain_length=2)
    with service:
        with obs.correlation("demo-1"):
            report = service.predict(request)
        obs.log(
            "demo.predicted",
            actual=round(report.actual, 4),
            best=report.best(),
        )
        # A repeat of the same question: served from the L1 cache.
        with obs.correlation("demo-2"):
            service.predict(request)

        print("\n--- span tree (name, trace, parent) ---")
        for span in obs.get_tracer().spans():
            print(
                f"{span.name:<20} trace={span.trace_id:<8} "
                f"parent={span.parent_id or '-':<6} "
                f"{span.duration * 1e3:8.2f} ms"
            )

        print("\n--- Prometheus exposition ---")
        print(obs.to_prometheus(*service.metrics_registries()), end="")


if __name__ == "__main__":
    main()
