"""Shared utilities: seeded RNG, array primitives, table formatting,
statistics, validation."""

from repro.utils.arrays import sorted_unique
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import (
    Histogram,
    Summary,
    degree_histogram_bins,
    geometric_mean,
    histogram,
    summarize,
)
from repro.utils.tables import Table, format_si, format_seconds
from repro.utils.validation import (
    check_in_range,
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "sorted_unique",
    "make_rng",
    "spawn_rngs",
    "Histogram",
    "Summary",
    "degree_histogram_bins",
    "geometric_mean",
    "histogram",
    "summarize",
    "Table",
    "format_si",
    "format_seconds",
    "check_in_range",
    "check_nonnegative_int",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
