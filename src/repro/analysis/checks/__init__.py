"""Built-in rules; importing this package registers them all."""

from repro.analysis.checks import (  # noqa: F401
    asyncsafety,
    blocking,
    determinism,
    faultsites,
    locks,
    obsdiscipline,
    picklable,
    taxonomy,
    tierpurity,
    transitive,
)
