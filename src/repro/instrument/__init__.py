"""Measurement harness: the paper's kernel-isolation protocol.

The paper obtains each performance value "by placing a given kernel or pair
of kernels into a loop, such that the loop dominates the application
execution time", then subtracting the time beyond the kernel(s) (§2).
:class:`~repro.instrument.runner.ChainRunner` implements that protocol on
the simulated machine:

* the chain (length 1 = isolated kernel) runs in a timing loop;
* before each timed iteration the caches are flushed and the network
  backlog drained — re-creating the *application context* around the chain
  (between two executions of a kernel in the real application, the other
  kernels run and evict its data), while interactions *within* the chain
  are preserved;
* a separate empty-chain run measures the harness overhead, which is
  subtracted — the paper's "time beyond the given kernel or pair";
* each measurement is averaged over repetitions with independent seeded
  noise (the paper averages 50 runs).

:class:`~repro.instrument.runner.ApplicationRunner` produces the "Actual"
rows of the paper's tables by running the full application (optionally
extrapolating the homogeneous main loop from a measured window — validated
against full runs in the test suite).
"""

from repro.instrument.cache_counters import CacheCounterReport, cache_report
from repro.instrument.profiler import KernelProfile, ProfileReport, profile_application
from repro.instrument.runner import (
    ApplicationResult,
    ApplicationRunner,
    ChainRunner,
    Measurement,
    MeasurementConfig,
)
from repro.instrument.timeline import render_timeline

__all__ = [
    "ApplicationResult",
    "ApplicationRunner",
    "CacheCounterReport",
    "ChainRunner",
    "KernelProfile",
    "Measurement",
    "MeasurementConfig",
    "ProfileReport",
    "cache_report",
    "profile_application",
    "render_timeline",
]
