"""Shared utilities: unit conversions, table rendering, sweep axes.

These helpers are deliberately dependency-free (except numpy) so that they
can be used from every other subpackage without creating import cycles.
"""

from repro.util.units import (
    MICROSECONDS_PER_SECOND,
    SECONDS_PER_DAY,
    SECONDS_PER_MONTH,
    days_to_seconds,
    microseconds,
    seconds,
    seconds_to_days,
    seconds_to_months,
    us_to_seconds,
)
from repro.util.tables import Table, format_table
from repro.util.sweep import geometric_range, powers_of_two

__all__ = [
    "MICROSECONDS_PER_SECOND",
    "SECONDS_PER_DAY",
    "SECONDS_PER_MONTH",
    "days_to_seconds",
    "microseconds",
    "seconds",
    "seconds_to_days",
    "seconds_to_months",
    "us_to_seconds",
    "Table",
    "format_table",
    "geometric_range",
    "powers_of_two",
]
