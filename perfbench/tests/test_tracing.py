"""Self-time arithmetic and the span wrappers."""

from __future__ import annotations

import asyncio
import time

import pytest

from perfbench.tracing import Patcher, Recorder, async_span, merge_summaries, self_times, span


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    layers = [0, 1, 2, 1]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    counts, totals, selfs = self_times(layers, starts, ends, parents, 3)
    assert list(counts) == [1, 2, 1]
    assert list(totals) == [10.0, 7.0, 1.0]
    assert list(selfs) == [3.0, 6.0, 1.0]
    assert sum(selfs) == pytest.approx(10.0)  # self times tile the top-level span


def test_same_layer_nesting_is_not_counted_twice():
    counts, totals, selfs = self_times([0, 0], [0.0, 2.0], [10.0, 6.0], [-1, 0], 1)
    assert list(counts) == [2]
    assert list(selfs) == [10.0]


def test_recorder_spans_nest_and_window():
    recorder = Recorder()
    inner = span(recorder, "inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        time.sleep(0.01)

    outer = span(recorder, "outer", outer_body)
    outer()
    summary = recorder.summary()
    layers = summary["layers"]
    assert layers["outer"]["count"] == layers["inner"]["count"] == 1
    assert layers["outer"]["total_s"] == pytest.approx(
        layers["outer"]["self_s"] + layers["inner"]["total_s"]
    )
    assert summary["attributed_s"] == pytest.approx(layers["outer"]["total_s"])
    assert recorder.summary(since=time.perf_counter())["layers"] == {}


def test_window_cut_makes_children_top_level():
    recorder = Recorder()
    marks = {}

    def body():
        marks["since"] = time.perf_counter()
        span(recorder, "child", lambda: time.sleep(0.005))()

    span(recorder, "parent", body)()
    summary = recorder.summary(since=marks["since"])
    assert list(summary["layers"]) == ["child"]
    assert summary["attributed_s"] == pytest.approx(summary["layers"]["child"]["self_s"])


def test_coroutine_steps_exclude_suspended_time():
    recorder = Recorder()

    async def sleeper():
        await asyncio.sleep(0.05)
        return 7

    traced = async_span(recorder, "coro", sleeper)

    async def main():
        return await traced()

    assert asyncio.run(main()) == 7
    row = recorder.summary()["layers"]["coro"]
    assert row["count"] == 2  # started, then resumed once after the sleep
    assert row["self_s"] < 0.02


def test_patcher_restores_inherited_and_own_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        @classmethod
        def g(cls):
            return "g"

    patch = Patcher()
    patch.replace(Child, "f", lambda original: lambda self: "patched " + original(self))
    patch.replace(Child, "g", lambda original: lambda cls: "patched " + original(cls))
    assert Child().f() == "patched base" and Child.g() == "patched g"
    patch.restore()
    assert "f" not in Child.__dict__ and Child().f() == "base" and Child.g() == "g"


def test_merge_sums_layers_and_counters():
    one = {"layers": {"a": {"count": 1, "total_s": 2.0, "self_s": 1.0}},
           "counters": {"x": 1}, "maxima": {"m": 3}, "attributed_s": 2.0}
    two = {"layers": {"a": {"count": 2, "total_s": 1.0, "self_s": 1.0}},
           "counters": {"x": 2}, "maxima": {"m": 5}, "attributed_s": 1.0}
    merged = merge_summaries([one, two])
    assert merged["layers"]["a"] == {"count": 3, "total_s": 3.0, "self_s": 2.0}
    assert merged["counters"] == {"x": 3}
    assert merged["maxima"] == {"m": 5}
    assert merged["attributed_s"] == 3.0
