"""Load-test the prediction service and read its metrics.

Drives a repeated workload — four distinct questions cycled from several
client threads — through one :class:`~repro.service.PredictionService`
and prints the metrics that explain where the time went:

* the first cycle misses and runs real measurement campaigns (batched so
  chain lengths of one configuration share a cell);
* concurrent identical requests coalesce onto a single flight;
* everything afterwards is an L1 cache hit;
* re-running this script reuses the memo directory: the service answers
  the whole workload with zero new simulations (``l2_hits`` instead of
  ``misses``).

Run:  python examples/service_load_test.py
"""

import os
import tempfile
import threading
import time

from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService, render_stats

WORKLOAD = [
    PredictRequest("BT", "S", 4, chain_length=2),
    PredictRequest("BT", "S", 4, chain_length=3),
    PredictRequest("BT", "S", 1, chain_length=2),
    PredictRequest("BT", "S", 9, chain_length=2),
]
CLIENTS = 4
CYCLES = 10


def client(service: PredictionService, reports: list) -> None:
    for _ in range(CYCLES):
        for request in WORKLOAD:
            reports.append(service.predict(request, timeout=120))


def main() -> None:
    cache_dir = os.path.join(tempfile.gettempdir(), "repro_service_memo")
    with PredictionService(
        cache_dir=cache_dir,
        measurement=MeasurementConfig(repetitions=4, warmup=2, seed=0),
        max_workers=2,
    ) as service:
        reports: list = []
        threads = [
            threading.Thread(target=client, args=(service, reports))
            for _ in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        total = CLIENTS * CYCLES * len(WORKLOAD)
        print(
            f"{total} requests from {CLIENTS} threads in {elapsed:.2f}s "
            f"({total / elapsed:,.0f} req/s)\n"
        )
        print(render_stats(service.stats()))

        best = reports[0].best()
        print(
            f"\nsample answer: {WORKLOAD[0].benchmark}/"
            f"{WORKLOAD[0].problem_class}/{WORKLOAD[0].nprocs}p -> "
            f"best predictor {best} "
            f"({reports[0].relative_error(best):+.2f} % error)"
        )
    print(
        f"\nRe-run this script: the memo directory {cache_dir} lets the "
        "service answer everything without a single new simulation."
    )


if __name__ == "__main__":
    main()
