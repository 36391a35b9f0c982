"""Generate EXPERIMENTS.md: paper-vs-measured for every table.

``repro report -o EXPERIMENTS.md`` runs the complete experimental campaign
(every table of the paper plus the scaling experiment) and renders a
markdown report recording, per experiment: the regenerated table, the
paper's reported numbers where the source text preserves them, and the
shape observations.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence

from repro._version import __version__
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["generate_markdown"]

_ORDER = [
    "table1", "table2a", "table2b", "table3a", "table3b", "table4a",
    "table4b", "table5", "table6a", "table6b", "table6c", "table7",
    "table8a", "table8b", "table8c", "scaling",
    "ext_best_chain", "ext_miss_coupling", "ext_composition",
    "ext_cross_machine", "ext_extrapolation",
]

_PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table in *Taylor, Wu, Geisler, Stevens: "Using
Kernel Couplings to Predict Parallel Application Performance"* (HPDC
2002), regenerated on the simulated Argonne IBM SP (`repro {version}`).

**Reading guide.** Absolute seconds are not comparable — the paper ran on
real 2002 hardware, we run on a calibrated discrete-event simulator (see
DESIGN.md, "Key substitutions"); the paper's own absolute cell values were
additionally lost in the available text. What *is* compared, per table:

* the percent relative error of each predictor at each processor count
  (these survive in the paper text almost completely);
* the *shape*: which predictor wins, in which direction summation errs,
  how errors trend with processor count and problem class, and the
  coupling-value regimes (constructive/flat for class W, 0.9 -> 0.8 drop
  for class A, finite transition counts).

Regenerate this file with `repro report -o EXPERIMENTS.md` (or
`python -m repro report ...`). Each table also has a benchmark under
`benchmarks/` asserting its shape criteria.

**Analytic-tier accuracy bound.** All tables below are simulation ground
truth (the `exact` tier policy). The analytic fast path
(`repro.analytic`, selected with `--tier fast|balanced`) answers the
same BT/SP/LU cells from closed forms instead; its per-kernel `E_k`,
chain times, and application totals are cross-validated against these
tables and stay within a **10 % relative-error bound**
(`repro.analytic.model.ANALYTIC_REL_ERROR_BOUND`) — enforced by
`tests/analytic/test_cross_validation.py` (class W) and the
`bench-tiers` CI job (class A, `benchmarks/test_tier_ladder.py`).
"""


def generate_markdown(
    pipeline: Optional[ExperimentPipeline] = None,
    experiment_ids: Optional[Sequence[str]] = None,
) -> str:
    """Run the experiments and render the markdown report."""
    # Populate the registry.
    import repro.experiments.bt_tables  # noqa: F401
    import repro.experiments.cross_machine  # noqa: F401
    import repro.experiments.extensions  # noqa: F401
    import repro.experiments.extrapolation_exp  # noqa: F401
    import repro.experiments.lu_tables  # noqa: F401
    import repro.experiments.scaling_exp  # noqa: F401
    import repro.experiments.sp_tables  # noqa: F401

    if pipeline is None:
        pipeline = ExperimentPipeline()
    ids = list(experiment_ids) if experiment_ids else _ORDER
    out = io.StringIO()
    out.write(_PREAMBLE.format(version=__version__))

    machine = pipeline.settings.machine
    meas = pipeline.settings.measurement
    out.write("\n## Setup\n\n")
    out.write(
        f"* machine: `{machine.name}` — "
        f"{machine.processor.clock_hz / 1e6:.0f} MHz x "
        f"{machine.processor.flops_per_cycle:.0f} flops/cycle at "
        f"{100 * machine.processor.efficiency:.0f} % sustained; caches "
        + ", ".join(
            f"{lv.name} {lv.capacity_bytes // 1024} KiB"
            for lv in machine.processor.cache_levels
        )
        + f"; memory {machine.processor.memory_byte_time * 1e9:.0f} ns/B; "
        f"network {machine.network.latency * 1e6:.0f} us / "
        f"{1e-6 / machine.network.byte_time:.0f} MB/s\n"
    )
    out.write(
        f"* measurement protocol: {meas.repetitions} repetitions, "
        f"{meas.warmup} warmup, isolated context `{meas.isolated_context}`, "
        f"chain context `{meas.chain_context}`, seed {meas.seed}\n"
    )

    for exp_id in ids:
        experiment = EXPERIMENTS[exp_id]
        result = run_experiment(exp_id, pipeline=pipeline)
        out.write(f"\n## {exp_id} — {experiment.title}\n\n")
        out.write(f"{experiment.description}.\n\n")
        out.write("```\n")
        out.write(result.table.render())
        out.write("\n```\n\n")
        out.write("```\n")
        out.write(result.comparison())
        out.write("\n```\n")
    return out.getvalue()
