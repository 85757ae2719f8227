"""Budget-constrained scheduling (the paper's stated future work).

The conclusion of the paper announces: "We intend to leverage control over
energy consumption by considering budget constrained scheduling."  This
module implements that extension on top of the existing stack:

* :class:`EnergyBudget` — a consumable energy allowance over a period,
  optionally renewed every ``period`` seconds (e.g. a daily allowance).
* :class:`BudgetAwareScheduler` — a plug-in scheduler decorator: it defers
  to an inner policy while the budget's consumption stays below a soft
  threshold, and switches to strict energy-greedy ranking (and optionally
  refuses the most expensive servers) once the budget runs low.
* :class:`BudgetTracker` — glue that charges completed task energy (or
  wattmeter energy) against the budget during a simulation.

The decorator composes with every existing policy, so a provider can run
``BudgetAwareScheduler(PerformancePolicy(), budget)`` and get
performance-oriented behaviour that degrades gracefully to energy-saving
behaviour as the allowance is consumed — exactly the kind of provider-side
control knob Section III-B motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.scoring import score_vectors
from repro.middleware.plugin_scheduler import CandidateEntry, PluginScheduler, sort_by_key
from repro.middleware.requests import ServiceRequest
from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive


@dataclass
class EnergyBudget:
    """A consumable energy allowance.

    Parameters
    ----------
    allowance:
        Joules available per period.
    period:
        Length of the renewal period in seconds; ``None`` means a single,
        non-renewing allowance.
    """

    allowance: float
    period: float | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.allowance, "allowance")
        if self.period is not None:
            ensure_positive(self.period, "period")
        self._consumed = 0.0
        self._period_start = 0.0

    # -- accounting -----------------------------------------------------------
    def charge(self, joules: float, *, now: float = 0.0) -> None:
        """Consume ``joules`` from the allowance at time ``now``."""
        ensure_non_negative(joules, "joules")
        self._roll(now)
        self._consumed += joules

    def _roll(self, now: float) -> None:
        if self.period is None:
            return
        ensure_non_negative(now, "now")
        while now >= self._period_start + self.period:
            self._period_start += self.period
            self._consumed = 0.0

    # -- queries -----------------------------------------------------------------
    def consumed(self, *, now: float = 0.0) -> float:
        """Joules consumed in the current period."""
        self._roll(now)
        return self._consumed

    def remaining(self, *, now: float = 0.0) -> float:
        """Joules left in the current period (never negative)."""
        return max(self.allowance - self.consumed(now=now), 0.0)

    def utilisation(self, *, now: float = 0.0) -> float:
        """Fraction of the allowance consumed, capped at 1.0."""
        return min(self.consumed(now=now) / self.allowance, 1.0)

    def exhausted(self, *, now: float = 0.0) -> bool:
        """Whether the allowance is fully consumed."""
        return self.remaining(now=now) <= 0.0


class BudgetAwareScheduler(PluginScheduler):
    """Wraps another policy and tightens it as the energy budget depletes.

    Behaviour:

    * budget utilisation below ``soft_threshold`` — candidates are ranked
      by the inner policy, untouched;
    * utilisation in ``[soft_threshold, 1.0)`` — candidates are re-ranked
      by their expected per-task energy (Equation 5), cheapest first;
    * budget exhausted and ``strict`` — the ranking additionally drops the
      most expensive half of the candidates (at least one is always kept,
      so requests never become unservable because of the budget).
    """

    name = "BUDGET_AWARE"

    def __init__(
        self,
        inner: PluginScheduler,
        budget: EnergyBudget,
        *,
        soft_threshold: float = 0.8,
        strict: bool = True,
        clock=None,
    ) -> None:
        ensure_in_range(soft_threshold, "soft_threshold", 0.0, 1.0)
        self.inner = inner
        self.budget = budget
        self.soft_threshold = soft_threshold
        self.strict = strict
        #: Callable returning the current time for budget-period rolling;
        #: defaults to "no time" (0.0), which suits single-period budgets.
        self._clock = clock or (lambda: 0.0)

    def _energy_ranking(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        _, energies, _ = score_vectors(
            [entry.estimation for entry in candidates],
            flop=request.task.flop,
            user_preference=0.9,
        )
        return sort_by_key(candidates, energies.tolist())

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        if not candidates:
            return []
        now = self._clock()
        utilisation = self.budget.utilisation(now=now)
        if utilisation < self.soft_threshold:
            return self.inner.sort(request, candidates)
        ranked = self._energy_ranking(request, candidates)
        if self.strict and self.budget.exhausted(now=now) and len(ranked) > 1:
            keep = max(1, len(ranked) // 2)
            ranked = ranked[:keep]
        return ranked


class BudgetTracker:
    """Charges completed-task energy against a budget during a simulation.

    Attach it to a :class:`~repro.middleware.driver.MiddlewareSimulation`
    by calling :meth:`charge_executions` after the run (batch accounting),
    or call :meth:`charge` incrementally from a custom driver loop.
    """

    def __init__(self, budget: EnergyBudget) -> None:
        self.budget = budget
        self._charged_tasks = 0

    def charge(self, joules: float, *, now: float = 0.0) -> None:
        """Charge one task's energy."""
        self.budget.charge(joules, now=now)
        self._charged_tasks += 1

    def charge_executions(self, executions) -> int:
        """Charge a sequence of :class:`TaskExecution` records.  Returns the count."""
        for execution in executions:
            self.charge(execution.energy, now=execution.completed_at)
        return self._charged_tasks

    @property
    def charged_tasks(self) -> int:
        """Number of tasks charged so far."""
        return self._charged_tasks
