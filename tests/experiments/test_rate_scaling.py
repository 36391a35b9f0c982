"""Rate-scaling oracle: a machine twice as slow in every rate doubles every time.

Halving the clock and doubling every memory, cache and network time
leaves the simulation the same sequence of decisions on a time axis
stretched by two. Multiplying by a power of two is exact in IEEE
arithmetic, so every measured time doubles bit for bit: the application
run, each isolated kernel, each chain window and both predictions. The
coupling values are ratios of those times and so stay bit-equal. Any
time constant the simulator does not take from the machine config, or
any arithmetic that is not homogeneous in time, breaks the ratio.

This holds with noise on too: the seeded draws do not depend on time,
the multiplicative factor scales a doubled time, and the additive OS
jitter is a draw times ``noise_floor``, which doubles with the rest.
"""

from dataclasses import replace

import pytest

from repro.experiments.pipeline import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.simmachine.machine import MachineConfig, ibm_sp_argonne

SCALE = 2.0
CHAIN_LENGTH = 2
MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1, seed=0)


def slowed(config: MachineConfig, factor: float) -> MachineConfig:
    """``config`` with every time-like parameter multiplied by ``factor``."""
    proc = config.processor
    net = config.network
    return config.with_(
        noise_floor=config.noise_floor * factor,
        processor=replace(
            proc,
            clock_hz=proc.clock_hz / factor,
            cache_levels=tuple(
                replace(level, byte_time=level.byte_time * factor)
                for level in proc.cache_levels
            ),
            memory_byte_time=proc.memory_byte_time * factor,
        ),
        network=replace(
            net,
            latency=net.latency * factor,
            byte_time=net.byte_time * factor,
            injection_byte_time=net.injection_byte_time * factor,
            per_message_overhead=net.per_message_overhead * factor,
            drain_window=net.drain_window * factor,
        ),
    )


def measure(machine: MachineConfig, cell):
    settings = ExperimentSettings(machine=machine, measurement=MEASUREMENT)
    return ExperimentPipeline(settings).config_result(*cell, [CHAIN_LENGTH])


CELLS = {"BT.S.4": ("BT", "S", 4), "LU.W.4": ("LU", "W", 4), "SP.W.9": ("SP", "W", 9)}


@pytest.mark.parametrize(
    "cell, noisy",
    [
        pytest.param(cell, noisy, id=name + ("-noise" if noisy else ""))
        for noisy in (False, True)
        for name, cell in CELLS.items()
    ],
)
def test_doubling_every_rate_doubles_every_time(cell, noisy):
    machine = ibm_sp_argonne()
    if not noisy:
        machine = machine.with_(noise_cv=0.0, noise_floor=0.0)
    base = measure(machine, cell)
    slow = measure(slowed(machine, SCALE), cell)

    assert slow.actual == SCALE * base.actual
    assert slow.summation == SCALE * base.summation
    assert slow.coupling_prediction(CHAIN_LENGTH) == SCALE * base.coupling_prediction(
        CHAIN_LENGTH
    )
    for name, seconds in base.inputs.loop_times.items():
        assert slow.inputs.loop_times[name] == SCALE * seconds, name
    assert base.inputs.chain_times
    for window, seconds in base.inputs.chain_times.items():
        assert slow.inputs.chain_times[window] == SCALE * seconds, window
    assert slow.coupling_values(CHAIN_LENGTH) == base.coupling_values(CHAIN_LENGTH)
