"""Shared utilities: XML provisioning plans, statistics, validation."""

from repro.util.stats import RunningStats, WindowedAverage
from repro.util.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)
from repro.util.xmlplan import PlanningEntry, read_planning, write_planning

__all__ = [
    "RunningStats",
    "WindowedAverage",
    "ensure_in_range",
    "ensure_non_negative",
    "ensure_positive",
    "PlanningEntry",
    "read_planning",
    "write_planning",
]
