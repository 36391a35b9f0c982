"""Discrete-event simulated parallel machine.

This subpackage is the hardware substrate of the reproduction: an
event-driven simulator (:mod:`repro.simmachine.engine`) on which simulated
ranks run as Python generators, a two-level cache / memory-hierarchy model
(:mod:`repro.simmachine.memory`) whose state persists *across kernels* —
the physical origin of kernel coupling — an interconnect model with
latency, bandwidth and contention (:mod:`repro.simmachine.network`), and a
seeded load-imbalance noise model (:mod:`repro.simmachine.noise`).

The machine presets (:func:`repro.simmachine.machine.ibm_sp_argonne`)
approximate the Argonne IBM SP used in the paper: 120 MHz P2SC processors
and a multistage switch.
"""

from repro.simmachine.engine import Event, Process, Simulator, Timeout
from repro.simmachine.machine import (
    CacheLevelConfig,
    MachineConfig,
    commodity_cluster_2002,
    NetworkConfig,
    ProcessorConfig,
    ibm_sp_argonne,
    linear_test_machine,
)
from repro.simmachine.memory import DataRegion, MemoryHierarchy, TouchResult
from repro.simmachine.network import NetworkModel
from repro.simmachine.noise import NoiseModel
from repro.simmachine.process import Machine, RankContext

__all__ = [
    "CacheLevelConfig",
    "DataRegion",
    "Event",
    "Machine",
    "MachineConfig",
    "MemoryHierarchy",
    "NetworkConfig",
    "NetworkModel",
    "NoiseModel",
    "Process",
    "ProcessorConfig",
    "RankContext",
    "Simulator",
    "Timeout",
    "TouchResult",
    "commodity_cluster_2002",
    "ibm_sp_argonne",
    "linear_test_machine",
]
