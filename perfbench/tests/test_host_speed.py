"""Scaled-seconds arithmetic of :class:`perfbench.common.HostSpeed`."""

from __future__ import annotations

import time

import pytest

from perfbench import common


def test_work_is_rescaled_by_the_ticks_around_it_and_ticks_are_excluded(monkeypatch):
    # A host where the reference takes 20 ms: twice REFERENCE_S, so scaled
    # seconds are half the host seconds.
    monkeypatch.setattr(common, "REFERENCE_S", 0.010)
    monkeypatch.setattr(common, "reference_work", lambda: time.sleep(0.020))
    speed = common.HostSpeed(every=0.03)
    speed.tick()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.1:  # work, with ticks inside it
        speed.maybe_tick()
        time.sleep(0.002)
    ended = time.perf_counter()
    speed.tick()
    assert len(speed.samples) >= 4
    host = speed.host(started, ended)
    ticks_inside = (len(speed.samples) - 2) * 0.020
    assert host == pytest.approx(ended - started - ticks_inside, rel=0.25)
    assert speed.scaled(started, ended) == pytest.approx(host / 2.0, rel=0.15)


def test_an_interval_before_the_first_tick_counts_nothing():
    speed = common.HostSpeed()
    started = time.perf_counter()
    speed.tick()
    assert speed.host(started, time.perf_counter()) == 0.0
