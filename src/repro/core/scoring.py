"""Completion-time, energy and score models (Equations 4–6).

For a task ``i`` of ``n_i`` FLOPs on a server ``s`` the paper defines:

Equation 4 — completion time::

    time = w_s + n_i / f_s          if the server is active
    time = bt_s + n_i / f_s         if the server is inactive (must boot)

Equation 5 — energy consumption::

    energy = c_s * n_i / f_s                    if active
    energy = bt_s * bc_s + c_s * n_i / f_s      if inactive

Equation 6 — score (lower is better)::

    Sc = time ** (2 / (P + 1) - 1) * energy

where ``P`` is the (clamped) user preference.  Equation 7 sanity-checks
the exponent: P → −0.9 makes the score time-dominated, P → 0 yields
time × energy, P → +0.9 makes it energy-dominated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.preferences import PRACTICAL_USER_BOUND, UserPreference
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.util.validation import ensure_non_negative, ensure_positive


def completion_time(
    flop: float,
    flops_per_second: float,
    *,
    active: bool,
    waiting_time: float = 0.0,
    boot_time: float = 0.0,
) -> float:
    """Equation 4: expected completion time of a task on a server (s)."""
    ensure_non_negative(flop, "flop")
    ensure_positive(flops_per_second, "flops_per_second")
    ensure_non_negative(waiting_time, "waiting_time")
    ensure_non_negative(boot_time, "boot_time")
    execution = flop / flops_per_second
    if active:
        return waiting_time + execution
    return boot_time + execution


def energy_consumption(
    flop: float,
    flops_per_second: float,
    *,
    active: bool,
    full_load_power: float,
    boot_time: float = 0.0,
    boot_power: float = 0.0,
) -> float:
    """Equation 5: expected energy of a task on a server (J)."""
    ensure_non_negative(flop, "flop")
    ensure_positive(flops_per_second, "flops_per_second")
    ensure_non_negative(full_load_power, "full_load_power")
    ensure_non_negative(boot_time, "boot_time")
    ensure_non_negative(boot_power, "boot_power")
    execution_energy = full_load_power * flop / flops_per_second
    if active:
        return execution_energy
    return boot_time * boot_power + execution_energy


def preference_exponent(user_preference: float) -> float:
    """The exponent ``2 / (P + 1) − 1`` of Equation 6.

    The user preference is clamped to the practical ``[-0.9, 0.9]`` range
    before use, which keeps the exponent finite (P = −1 would make it blow
    up) — exactly the reason the paper recommends the clamp.
    """
    clamped = UserPreference(user_preference).clamped(PRACTICAL_USER_BOUND)
    return 2.0 / (clamped + 1.0) - 1.0


def score(time: float, energy: float, user_preference: float) -> float:
    """Equation 6: the server score ``Sc`` (lower is better)."""
    ensure_positive(time, "time")
    ensure_non_negative(energy, "energy")
    return time ** preference_exponent(user_preference) * energy


# -- Equations 4–6 over a candidate axis ------------------------------------------------
#
# ``green_scores`` evaluates the same float64 expressions as the scalar
# functions above, element-wise over numpy arrays, so it scores an election's
# candidates once and bit-identically to ``ServerScore.from_vector``:
# IEEE-754 ``+``, ``*`` and ``/`` round the same way in scalar and array form
# (the association is kept: ``(power * flop) / flops``), and the Equation 6
# power goes through Python's float ``**`` — numpy's SIMD ``np.power`` may
# differ from the C library's ``pow`` in the last bit on some CPUs.


def _require(values: np.ndarray, name: str, servers, *, strict: bool = False) -> None:
    """Raise ``ValueError`` unless every value is finite and ``> 0`` (strict) or ``>= 0``.

    One ``min`` and one ``max`` decide the common case (a NaN fails the
    ``min`` comparison); only a failing column is searched for its culprit.
    """
    low = values.min()
    if (low > 0 if strict else low >= 0) and values.max() < math.inf:
        return
    per_server = servers is not None and values.ndim == 1
    values = np.atleast_1d(values)
    bad = ~np.isfinite(values) | ((values <= 0) if strict else (values < 0))
    index = int(np.flatnonzero(bad)[0])
    where = f" for server {servers[index]!r}" if per_server else ""
    bound = "> 0" if strict else ">= 0"
    raise ValueError(f"{name}{where} must be finite and {bound}, got {values[index]!r}")


def green_scores(
    flop: float,
    flops_per_second: np.ndarray,
    full_load_power: np.ndarray,
    user_preference: float,
    *,
    active: np.ndarray | bool = True,
    waiting_time: np.ndarray | float = 0.0,
    boot_time: np.ndarray | float = 0.0,
    boot_power: np.ndarray | float = 0.0,
    servers: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equations 4–6 over the candidate axis: ``(time, energy, score)`` arrays.

    Active servers pay their waiting queue, inactive ones their boot time
    and boot energy.  Inputs are checked once per call, as arrays; they
    raise :class:`ValueError` exactly where the scalar functions would
    (``servers``, when given, names the offending candidate), and a score
    overflowing float64 raises :class:`OverflowError` as ``**`` does.

    >>> time, energy, score = green_scores(
    ...     2e9, np.array([1e9, 2e9]), np.array([100.0, 300.0]), 0.0,
    ...     active=np.array([True, False]), boot_time=10.0, boot_power=50.0)
    >>> time.tolist(), energy.tolist(), score.tolist()
    ([2.0, 11.0], [200.0, 800.0], [400.0, 8800.0])
    """
    ensure_non_negative(flop, "flop")
    flops = np.asarray(flops_per_second, dtype=np.float64)
    if flops.size == 0:
        empty = np.zeros(0)
        return empty, empty, empty
    waiting = np.asarray(waiting_time, dtype=np.float64)
    boot = np.asarray(boot_time, dtype=np.float64)
    power = np.asarray(full_load_power, dtype=np.float64)
    boot_draw = np.asarray(boot_power, dtype=np.float64)
    _require(flops, "flops_per_second", servers, strict=True)
    _require(waiting, "waiting_time", servers)
    _require(boot, "boot_time", servers)
    _require(power, "full_load_power", servers)
    _require(boot_draw, "boot_power", servers)
    execution = flop / flops
    time = np.where(active, waiting + execution, boot + execution)
    execution_energy = power * flop / flops
    energy = np.where(active, execution_energy, boot * boot_draw + execution_energy)
    _require(time, "time", servers, strict=True)
    _require(energy, "energy", servers)
    exponent = preference_exponent(user_preference)
    powered = np.array([value**exponent for value in time.tolist()], dtype=np.float64)
    return time, energy, powered * energy


def score_vectors(
    vectors: Sequence[EstimationVector],
    *,
    flop: float,
    user_preference: float,
    use_dynamic_power: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`green_scores` of estimation vectors, each scored once.

    Reads the same tags, with the same defaults, as
    :meth:`ServerScore.from_vector`, whose per-vector results these arrays
    equal bit for bit.
    """
    power_tag = EstimationTags.MEAN_POWER if use_dynamic_power else EstimationTags.PEAK_POWER
    rows = [
        (
            values[EstimationTags.FLOPS_PER_CORE],
            values[power_tag],
            values.get(EstimationTags.WAITING_TIME, 0.0),
            values.get(EstimationTags.BOOT_TIME, 0.0),
            values.get(EstimationTags.BOOT_POWER, 0.0),
            values.get(EstimationTags.NODE_AVAILABLE, 0.0),
        )
        for values in (vector.values for vector in vectors)
    ]
    table = np.fromiter(chain.from_iterable(rows), np.float64, 6 * len(rows))
    flops, power, waiting, boot_time, boot_power, available = table.reshape(-1, 6).T
    return green_scores(
        flop,
        flops,
        power,
        user_preference,
        active=available >= 0.5,
        waiting_time=waiting,
        boot_time=boot_time,
        boot_power=boot_power,
        servers=[vector.server for vector in vectors],
    )


@dataclass(frozen=True)
class ServerScore:
    """The scored evaluation of one server for one task."""

    server: str
    time: float
    energy: float
    score: float

    @classmethod
    def from_vector(
        cls,
        vector: EstimationVector,
        *,
        flop: float,
        user_preference: float,
        use_dynamic_power: bool = True,
    ) -> "ServerScore":
        """Score a server from its estimation vector.

        ``active`` servers (powered on) pay their waiting queue; inactive
        servers pay their boot time and boot energy (Equations 4–5).  The
        full-load power ``c_s`` is taken from the dynamic mean-power tag by
        default, falling back to the nameplate peak power when requested.
        Elections score many vectors at once with :func:`score_vectors`;
        this scalar form is its reference.
        """
        active = vector.available
        flops = vector.get(EstimationTags.FLOPS_PER_CORE)
        waiting = vector.get(EstimationTags.WAITING_TIME, 0.0)
        boot_time = vector.get(EstimationTags.BOOT_TIME, 0.0)
        boot_power = vector.get(EstimationTags.BOOT_POWER, 0.0)
        if use_dynamic_power:
            full_load_power = vector.get(EstimationTags.MEAN_POWER)
        else:
            full_load_power = vector.get(EstimationTags.PEAK_POWER)
        time = completion_time(
            flop,
            flops,
            active=active,
            waiting_time=waiting,
            boot_time=boot_time,
        )
        energy = energy_consumption(
            flop,
            flops,
            active=active,
            full_load_power=full_load_power,
            boot_time=boot_time,
            boot_power=boot_power,
        )
        return cls(
            server=vector.server,
            time=time,
            energy=energy,
            score=score(time, energy, user_preference),
        )
