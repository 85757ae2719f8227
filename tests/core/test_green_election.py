"""GREEN_SCORE scored once per election: vectorised == scalar, flat == tree walk.

The election scores every candidate once, with one numpy pass over the
candidate axis (:func:`repro.core.scoring.green_scores`), and the Master
Agent sorts the hierarchy's candidates once instead of at every level.
Both shortcuts are only valid if they change no bit:

* the vectorised scores equal the scalar ``ServerScore.from_vector``
  oracle exactly, and the order equals sorting by ``(score, server)``;
* the flat election equals the hierarchical tree walk on any MA/LA
  topology, with or without a provisioning-style candidate filter;
* every input the scalar path rejects is still rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.budget import BudgetAwareScheduler, EnergyBudget
from repro.core.policies import GreenSchedulerPolicy, PowerPolicy
from repro.core.scoring import (
    ServerScore,
    completion_time,
    green_scores,
    score,
    score_vectors,
)
from repro.infrastructure.node import Node, NodeState
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.estimation import EstimationTags
from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task
from tests.conftest import make_spec, make_vector

#: Preferences including both clamp edges and the neutral 0 (which falls
#: back to the policy's default preference).
PREFERENCES = st.one_of(
    st.sampled_from([-1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)

#: A few values reused across candidates so equal scores (ties) are common.
vector_strategy = st.fixed_dictionaries(
    {
        "flops_per_core": st.sampled_from([1.0e9, 2.5e9, 3.7e9, 1.23456789e10]),
        "waiting_time": st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
        "mean_power": st.sampled_from([95.0, 180.5, 220.0]),
        "peak_power": st.sampled_from([120.0, 220.0, 301.25]),
        "boot_power": st.sampled_from([0.0, 150.0, 181.3]),
        "boot_time": st.sampled_from([0.0, 60.0, 150.0]),
        "available": st.booleans(),
    }
)


def _entries(rows) -> list[CandidateEntry]:
    return [
        CandidateEntry.from_vector(make_vector(f"node-{index:02d}", **row))
        for index, row in enumerate(rows)
    ]


def _oracle(entries, request, *, preference, use_dynamic_power=True):
    """The scalar reference: one ``ServerScore.from_vector`` per candidate."""
    return [
        ServerScore.from_vector(
            entry.estimation,
            flop=request.task.flop,
            user_preference=preference,
            use_dynamic_power=use_dynamic_power,
        )
        for entry in entries
    ]


def _bits(values) -> list[str]:
    return [float(value).hex() for value in values]


class TestVectorisedEqualsScalar:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(vector_strategy, min_size=1, max_size=12),
        flop=st.floats(min_value=1.0, max_value=1e13),
        preference=PREFERENCES,
        default_preference=PREFERENCES,
        use_dynamic_power=st.booleans(),
    )
    def test_scores_and_order_are_bit_identical(
        self, rows, flop, preference, default_preference, use_dynamic_power
    ):
        entries = _entries(rows)
        request = ServiceRequest.from_task(Task(flop=flop, user_preference=preference))
        policy = GreenSchedulerPolicy(
            default_preference=default_preference, use_dynamic_power=use_dynamic_power
        )
        effective = default_preference if preference == 0.0 else preference
        expected = _oracle(
            entries, request, preference=effective, use_dynamic_power=use_dynamic_power
        )
        time, energy, score = score_vectors(
            [entry.estimation for entry in entries],
            flop=flop,
            user_preference=effective,
            use_dynamic_power=use_dynamic_power,
        )
        assert _bits(time) == _bits(item.time for item in expected)
        assert _bits(energy) == _bits(item.energy for item in expected)
        assert _bits(score) == _bits(item.score for item in expected)

        ranked = policy.sort(request, entries)
        reference = sorted(zip(expected, entries), key=lambda p: (p[0].score, p[1].server))
        assert [entry.server for entry in ranked] == [e.server for _, e in reference]

    @settings(max_examples=50, deadline=None)
    @given(
        flops=st.lists(st.floats(min_value=1e8, max_value=1e11), min_size=1, max_size=10),
        powers=st.lists(st.floats(min_value=10.0, max_value=500.0), min_size=10, max_size=10),
        preference=PREFERENCES,
    )
    def test_point_metric_matches_the_scalar_score(self, flops, powers, preference):
        powers = powers[: len(flops)]
        request = ServiceRequest.from_task(Task(flop=3.3e10, user_preference=preference))
        policy = GreenSchedulerPolicy(default_preference=0.4)
        metric = policy.point_metric(
            request, flops=np.array(flops), power=np.array(powers)
        )
        effective = 0.4 if preference == 0.0 else preference
        entries = _entries(
            {
                "flops_per_core": f,
                "mean_power": p,
                "peak_power": p,
                "boot_power": 0.0,
                "boot_time": 0.0,
            }
            for f, p in zip(flops, powers)
        )
        expected = _oracle(entries, request, preference=effective)
        assert _bits(metric) == _bits(item.score for item in expected)

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(vector_strategy, min_size=1, max_size=10))
    def test_budget_energy_ranking_matches_the_scalar_energy(self, rows):
        entries = _entries(rows)
        request = ServiceRequest.from_task(Task(flop=2.0e11))
        budget = EnergyBudget(allowance=1.0)
        budget.charge(2.0)
        policy = BudgetAwareScheduler(PowerPolicy(), budget, strict=False)
        expected = _oracle(entries, request, preference=0.9)
        reference = sorted(zip(expected, entries), key=lambda p: (p[0].energy, p[1].server))
        assert [e.server for e in policy.sort(request, entries)] == [
            e.server for _, e in reference
        ]

    def test_ties_are_broken_by_server_name(self):
        entries = _entries([{}] * 3)[::-1]
        request = ServiceRequest.from_task(Task(flop=1e9))
        ranked = GreenSchedulerPolicy().sort(request, entries)
        assert [entry.server for entry in ranked] == ["node-00", "node-01", "node-02"]

    def test_empty_candidate_list(self):
        request = ServiceRequest.from_task(Task(flop=1e9))
        assert GreenSchedulerPolicy().sort(request, []) == []
        time, energy, score = score_vectors([], flop=1e9, user_preference=0.0)
        assert time.size == energy.size == score.size == 0


class TestRejectedInputs:
    """Every input the scalar path rejects still raises, now once per election."""

    @pytest.mark.parametrize(
        "row",
        [
            {"flops_per_core": 0.0},
            {"flops_per_core": -1e9},
            {"waiting_time": -1.0},
            {"boot_time": -5.0},
            {"boot_power": -1.0},
            {"mean_power": -10.0},
            {"waiting_time": -1.0, "available": False},
            {"boot_time": -5.0, "available": True},
        ],
    )
    def test_invalid_vector_values(self, row):
        entries = _entries([{}, row])
        request = ServiceRequest.from_task(Task(flop=1e9))
        with pytest.raises(ValueError):
            _oracle(entries, request, preference=0.0)
        with pytest.raises(ValueError, match="node-01"):
            GreenSchedulerPolicy().sort(request, entries)

    @pytest.mark.parametrize(
        "tag",
        [
            EstimationTags.FLOPS_PER_CORE,
            EstimationTags.WAITING_TIME,
            EstimationTags.MEAN_POWER,
            EstimationTags.BOOT_TIME,
            EstimationTags.BOOT_POWER,
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vector_values(self, tag, bad):
        entries = _entries([{}, {}])
        entries[0].estimation.values[tag] = bad  # bypasses EstimationVector.set
        request = ServiceRequest.from_task(Task(flop=1e9))
        with pytest.raises(ValueError):
            _oracle(entries, request, preference=0.0)
        with pytest.raises(ValueError):
            GreenSchedulerPolicy().sort(request, entries)

    def test_zero_completion_time(self):
        # No work on an idle active server: time 0, which Equation 6 rejects.
        time = completion_time(0.0, 1e9, active=True)
        with pytest.raises(ValueError):
            score(time, 0.0, 0.0)
        with pytest.raises(ValueError, match="time"):
            green_scores(0.0, np.array([1e9]), np.array([100.0]), 0.0)

    @pytest.mark.parametrize("flop", [math.nan, -1.0, math.inf])
    def test_invalid_flop(self, flop):
        with pytest.raises(ValueError):
            green_scores(flop, np.array([1e9]), np.array([100.0]), 0.0)

    def test_overflowing_score_raises_like_the_scalar_power(self):
        # P = -0.9 gives the exponent 19; a 1e20 s completion time overflows.
        entries = _entries([{"flops_per_core": 1.0}])
        request = ServiceRequest.from_task(Task(flop=1e20, user_preference=-0.9))
        with pytest.raises(OverflowError):
            _oracle(entries, request, preference=-0.9)
        with pytest.raises(OverflowError):
            GreenSchedulerPolicy().sort(request, entries)

    def test_missing_required_tag(self):
        entries = _entries([{}])
        del entries[0].estimation.values[EstimationTags.MEAN_POWER]
        request = ServiceRequest.from_task(Task(flop=1e9))
        with pytest.raises(KeyError, match="mean_power"):
            GreenSchedulerPolicy().sort(request, entries)


# -- flat election == tree walk --------------------------------------------------------

#: Node-state moves applied before an election (skipped when illegal).
MOVES = ("enqueue", "start", "record_power", "power_off", "fail")


class CountingGreenPolicy(GreenSchedulerPolicy):
    """GREEN_SCORE that counts its sorts (the flat election sorts once)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sorts = 0

    def sort(self, request, candidates):
        self.sorts += 1
        return super().sort(request, candidates)


def _fleet(count: int) -> list[ServerDaemon]:
    """SeDs over a few node types, so scores tie across nodes."""
    seds = []
    for index in range(count):
        kind = index % 3
        spec = make_spec(
            name=f"node-{index:02d}",
            cluster=f"cluster-{kind}",
            cores=1 + kind,
            flops_per_core=(1.0e9, 2.2e9, 3.1e9)[kind],
            idle_power=(60.0, 90.0, 120.0)[kind],
            peak_power=(110.0, 190.0, 260.0)[kind],
        )
        seds.append(ServerDaemon(Node(spec)))
    return seds


def _apply(move: str, sed: ServerDaemon, magnitude: float) -> None:
    node = sed.node
    if node.state is not NodeState.ON:
        return
    if move == "enqueue":
        sed.queue.enqueue(Task(flop=magnitude * 1e9))
    elif move == "start" and node.free_cores > 0:
        task = sed.queue.pop_next()
        if task is not None:
            node.acquire_core()
            sed.queue.mark_running(task)
    elif move == "record_power":
        sed.record_request_power(magnitude, magnitude * 10.0)
    elif move == "power_off" and node.busy_cores == 0:
        node.power_off()
    elif move == "fail":
        node.fail()


def _build(seds, layout, scheduler) -> MasterAgent:
    """A MA/LA tree: ``layout[i]`` places SeD ``i`` (0 = MA, k = LA k)."""
    master = MasterAgent(scheduler=scheduler)
    agents: list = [master]
    for index in range(max(layout) if layout else 0):
        agent = LocalAgent(f"la-{index}", scheduler=scheduler)
        # Nest every third LA under the previous one for deeper trees.
        parent = agents[-1] if index % 3 == 2 else master
        parent.add_agent(agent)
        agents.append(agent)
    for sed, slot in zip(seds, layout):
        agents[slot].add_sed(sed)
    return master


def _selection_filter(allowed: frozenset[str]):
    """The provisioning planner's filter: keep allowed nodes, else keep all."""

    def candidate_filter(request, candidates):
        filtered = [entry for entry in candidates if entry.server in allowed]
        return filtered if filtered else list(candidates)

    return candidate_filter


class TestFlatElectionEqualsTreeWalk:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=12),
        agents=st.integers(min_value=0, max_value=5),
        preference=PREFERENCES,
        with_filter=st.booleans(),
    )
    def test_rankings_identical(self, data, count, agents, preference, with_filter):
        seds = _fleet(count)
        layout = data.draw(
            st.lists(st.integers(0, agents), min_size=count, max_size=count), "layout"
        )
        flat_policy = CountingGreenPolicy(default_preference=0.3)
        walk_policy = CountingGreenPolicy(default_preference=0.3)
        flat = _build(seds, layout, flat_policy)
        walk = _build(seds, layout, walk_policy)
        walk.use_resident_ranking = False
        if with_filter:
            # Possibly empty, or naming only unavailable nodes: "keep all".
            allowed = data.draw(
                st.frozensets(st.sampled_from([sed.name for sed in seds])), "allowed"
            )
            flat.set_candidate_filter(_selection_filter(allowed))
            walk.set_candidate_filter(_selection_filter(allowed))
        moves = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(MOVES),
                    st.integers(0, count - 1),
                    st.floats(min_value=1.0, max_value=1e3),
                ),
                max_size=20,
            ),
            "moves",
        )
        for step, move in enumerate([None, *moves]):
            if move is not None:
                kind, selector, magnitude = move
                _apply(kind, seds[selector], magnitude)
            request = ServiceRequest.from_task(
                Task(flop=1e9 * (1 + step), user_preference=preference)
            )
            before = flat_policy.sorts
            fast = flat.submit(request)
            slow = walk.submit(request)
            assert fast.elected == slow.elected
            assert [v.server for v in fast.ranked_candidates] == [
                v.server for v in slow.ranked_candidates
            ]
            assert flat_policy.sorts - before == (1 if fast.ranked_candidates else 0)

    def test_mixed_schedulers_keep_the_tree_walk(self):
        seds = _fleet(4)
        master = _build(seds, [0, 1, 1, 2], GreenSchedulerPolicy())
        master.child_agents[0].scheduler = GreenSchedulerPolicy()
        assert not master._flat_election()
        assert master.submit(ServiceRequest.from_task(Task(flop=1e9))).elected

    def test_policies_without_a_total_order_keep_the_tree_walk(self):
        master = _build(_fleet(3), [0, 1, 1], PowerPolicy())
        assert not master._flat_election()

    def test_scheduler_swap_re_checks_the_flat_path(self):
        scheduler = GreenSchedulerPolicy()
        master = _build(_fleet(4), [0, 1, 1, 2], scheduler)
        assert master._flat_election()
        master.child_agents[1].scheduler = GreenSchedulerPolicy()
        assert not master._flat_election()
        master.child_agents[1].scheduler = scheduler
        assert master._flat_election()
