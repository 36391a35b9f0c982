"""Simulated-work gate: the golden cells' clock-free activity totals.

Every simulated run flushes its totals into the obs registry
(``Machine._flush_obs``). Summed over one cell, they count the work the
simulator did, independent of the host: engine events, messages and
bytes, noise draws and cache bytes. This test pins them exactly, so any
change to the amount of simulated work fails here on every host, even
when the simulated times stay bit-identical.

A change that removes work on purpose updates the pinned counts in the
same commit and records the old and new values in CHANGES.md.
"""

import pytest

from repro import obs
from repro.experiments.pipeline import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig

#: The golden-table protocol.
SETTINGS = ExperimentSettings(
    measurement=MeasurementConfig(repetitions=2, warmup=1, seed=0)
)

CHAIN_LENGTH = 2

#: cell -> totals over isolated kernels, chain windows and the application.
PINNED = {
    ("BT", "A", 16): {
        "sim_events": 14207,
        "sim_messages": 5798,
        "sim_message_bytes": 601630720,
        "sim_noise_draws": 6240,
        "sim_cache_bytes_hit": 4594860032,
        "sim_cache_bytes_missed": 5863636992,
    },
    ("SP", "A", 16): {
        "sim_events": 15369,
        "sim_messages": 6158,
        "sim_message_bytes": 245114880,
        "sim_noise_draws": 6784,
        "sim_cache_bytes_hit": 3728736256,
        "sim_cache_bytes_missed": 1488977920,
    },
    ("LU", "A", 8): {
        "sim_events": 54334,
        "sim_messages": 559546,
        "sim_message_bytes": 49829824,
        "sim_noise_draws": 35744,
        "sim_cache_bytes_hit": 1192755200,
        "sim_cache_bytes_missed": 673972224,
    },
}


@pytest.mark.parametrize(
    "cell", sorted(PINNED), ids=[".".join(map(str, c)) for c in sorted(PINNED)]
)
def test_cell_work_matches_pin(cell):
    # The autouse fixture gives every test a fresh registry.
    ExperimentPipeline(SETTINGS).config_result(*cell, [CHAIN_LENGTH])
    registry = obs.get_registry()
    measured = {name: registry.counter(name).value for name in PINNED[cell]}
    assert measured == PINNED[cell]
