"""Handover relaxation: the indexed cursor walk against the plain walk.

``handover_relaxation`` jumps from group to group over the per-group sid
lists of ``SystemState``. ``reference_relaxation`` visits every session in
ascending sid. On random states they must make the same moves, return the
same result, and, when converged, leave no group that gains by switching.
``_switching_groups``, which asks all four groups at once, must name the
same groups as the one-group predicate ``oracles.wants_switch``, and a
relaxation asks it once per state it reaches: 1 + switches times.

The per-group sid lists are the one record of who is where. ``admit``
and ``move`` keep them and the carried loads up to date, and so does
``simulate``, which books arrivals and departures on the lists in place.
``assert_groups_consistent`` requires that the four lists be strictly
ascending and pairwise disjoint, and that the loads have the bits of a
recomputation from the group sizes; ``assert_below_capacity``, that each
load stays below its network's capacity. ``CheckedState`` checks both
after every ``admit`` and ``move``. A run checks both on entry to every
relaxation, which follows every admitted arrival and every departure.
"""

import collections
import itertools

from hypothesis import event, given, settings
from hypothesis import strategies as st

from nettax import simulator
from nettax.analytics import NetworkPair
from nettax.simulator import (
    CLASS_A,
    CLASS_B,
    ClassProfile,
    SimConfig,
    SystemState,
    TaxPolicy,
    _switching_groups,
    handover_relaxation,
    run,
)
from oracles import reference_relaxation, wants_switch
import workloads

GROUPS = ((1, CLASS_A), (1, CLASS_B), (2, CLASS_A), (2, CLASS_B))


def assert_groups_consistent(state: SystemState) -> None:
    assert list(state.groups) == list(GROUPS)
    assert all(a is b for a, b in zip(state.lists, state.groups.values(), strict=True))
    for sids in state.groups.values():
        assert all(a < b for a, b in zip(sids, sids[1:]))
    everyone = [sid for sids in state.groups.values() for sid in sids]
    assert len(set(everyone)) == len(everyone)
    # The stored loads must have the bits of a recomputation from scratch.
    eps = {CLASS_A: state.cfg.class_a.throughput, CLASS_B: state.cfg.class_b.throughput}
    n = {g: len(sids) for g, sids in state.groups.items()}
    for p in (1, 2):
        fresh = n[(p, CLASS_A)] * eps[CLASS_A] + n[(p, CLASS_B)] * eps[CLASS_B]
        assert state.loads[p] == fresh


def assert_below_capacity(state: SystemState) -> None:
    assert state.loads[1] < state.cfg.net.c1
    assert state.loads[2] < state.cfg.net.c2


class CheckedState(SystemState):
    def admit(self, sid, cls, p):
        super().admit(sid, cls, p)
        assert_groups_consistent(self)
        assert_below_capacity(self)

    def move(self, sid, cls, q):
        super().move(sid, cls, q)
        assert_groups_consistent(self)
        assert_below_capacity(self)


@st.composite
def relaxation_cases(draw):
    counts = [draw(st.integers(0, 12)) for _ in GROUPS]
    # Groups interleave over the sids, which have gaps and are admitted in
    # a random order.
    labels = draw(st.permutations([g for g, n in zip(GROUPS, counts) for _ in range(n)]))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
    sessions = list(zip(itertools.accumulate(gaps), labels))
    admission = draw(st.permutations(sessions))

    eps = {CLASS_A: draw(st.floats(0.02, 1.0)), CLASS_B: draw(st.floats(0.02, 1.0))}
    load = {1: 0.0, 2: 0.0}
    for _, (p, cls) in sessions:
        load[p] += eps[cls]
    c1 = load[1] + draw(st.floats(0.05, 5.0))
    c2 = max(c1, load[2]) + draw(st.floats(0.05, 5.0))
    alpha_b = draw(st.floats(0.1, 3.0))
    alpha_a = alpha_b + draw(st.floats(0.01, 3.0))
    cfg = SimConfig(
        net=NetworkPair(c1, c2),
        class_a=ClassProfile(1.0, 1.0, eps[CLASS_A], alpha_a),
        class_b=ClassProfile(1.0, 1.0, eps[CLASS_B], alpha_b),
        handovers=True,
        policy=TaxPolicy.OPTIMAL,
        horizon=1.0,
        handover_hysteresis=draw(st.sampled_from([0.0, 1e-6]) | st.floats(0.0, 0.2)),
        max_handover_rounds=draw(st.sampled_from([None, 1, 2, 3])),
    )
    tau2 = draw(st.just(0.0) | st.floats(0.0, 1.0))
    return cfg, admission, tau2


def build_state(cfg: SimConfig, admission, state_type=SystemState) -> SystemState:
    state = state_type(cfg)
    for sid, (p, cls) in admission:
        state.admit(sid, cls, p)
    return state


@given(case=relaxation_cases())
@settings(max_examples=300, deadline=None)
def test_indexed_relaxation_matches_reference_walk(case):
    cfg, admission, tau2 = case
    state = build_state(cfg, admission, CheckedState)
    expected_state = build_state(cfg, admission)
    assert_groups_consistent(state)

    result = handover_relaxation(state, tau2)
    assert result == reference_relaxation(expected_state, tau2)
    assert state.groups == expected_state.groups
    assert_groups_consistent(state)

    switches, converged = result
    event(f"converged={converged}")
    if converged:
        for (p, cls), sids in state.groups.items():
            if sids:
                assert not wants_switch(state, cls, p, tau2, cfg.handover_hysteresis)


@given(case=relaxation_cases())
@settings(max_examples=300, deadline=None)
def test_switching_groups_match_reference_predicate(case):
    cfg, admission, tau2 = case
    state = build_state(cfg, admission)
    hysteresis = cfg.handover_hysteresis
    occupied = [(p, cls) for p, cls in GROUPS if state.groups[(p, cls)]]
    expected = {
        (p, cls) for p, cls in occupied if wants_switch(state, cls, p, tau2, hysteresis)
    }
    found = _switching_groups(state, tau2)
    assert len(found) == len(set(found))
    assert set(found) == expected

    caps = {1: cfg.net.c1, 2: cfg.net.c2}
    eps = {CLASS_A: cfg.class_a.throughput, CLASS_B: cfg.class_b.throughput}
    if len(occupied) < len(GROUPS):
        event("an empty group")
    if any(state.loads[3 - p] + eps[cls] >= caps[3 - p] for p, cls in occupied):
        event("a saturated target")


def test_group_lists_track_sessions_through_a_run(monkeypatch):
    # The run books arrivals and departures in place, and relaxation follows
    # every one that admitted or removed a session: checking the state on
    # entry to it checks every such event. CheckedState checks the moves.
    monkeypatch.setattr(simulator, "SystemState", CheckedState)
    calls = []

    def recorded(state, tau2):
        assert isinstance(state, CheckedState)
        assert_groups_consistent(state)
        assert_below_capacity(state)
        result = handover_relaxation(state, tau2)
        calls.append(result)
        return result

    monkeypatch.setattr(simulator, "handover_relaxation", recorded)
    cfg = SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
        handovers=True,
        policy=TaxPolicy.OPTIMAL,
        horizon=20.0,
        seed=3,
    )
    trace = run(cfg)
    changed = [s for s in trace.samples if s.event[:3] in ("arr", "dep")]
    assert len(calls) == len(changed) > 1000
    assert sum(s for s, _ in calls) > 0
    assert trace.summary.relaxation_warnings == 0
    assert workloads.audit(
        workloads.trace_auditor(cfg), workloads.trace_rows(trace),
        trace.summary.avg_poa, trace.blocking.rate, "seed 3",
    ) == []


def test_sampled_load_is_the_sum_of_the_group_loads():
    # Handovers off: the loads change only by the arrivals and departures
    # the loop books itself. Every sample's load has the bits of the load
    # rule applied to its four counts, and no session is lost or made up.
    # The offered load is about 0.97 of capacity, so both classes see
    # blocked arrivals.
    cfg = SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(16.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(24.0, 2.5, 0.184, 1.0),
        handovers=False,
        policy=TaxPolicy.OPTIMAL,
        horizon=20.0,
        seed=3,
    )
    eps_a, eps_b = cfg.class_a.throughput, cfg.class_b.throughput
    seen = collections.Counter()
    active = 0

    def sink(s):
        nonlocal active
        seen[s.event] += 1
        active += {"arr": 1, "dep": -1, "blk": 0}[s.event[:3]]
        assert s.n1a + s.n1b + s.n2a + s.n2b == active
        assert s.load == (s.n1a * eps_a + s.n1b * eps_b) + (s.n2a * eps_a + s.n2b * eps_b)

    simulator.simulate(cfg, sink)
    assert min(seen[e + c] for e in ("arr", "dep", "blk") for c in (CLASS_A, CLASS_B)) > 0
    assert seen["arrA"] + seen["arrB"] > 700


def test_each_relaxation_asks_once_per_state(monkeypatch):
    # _switching_groups is asked once up front and once after each move,
    # never again for a state it has already judged: a relaxation asks
    # 1 + switches times, however many sweeps it makes. This seed has
    # relaxations whose moves take more than one sweep.
    asked = []
    original = simulator._switching_groups

    def counted(state, tau2):
        asked[-1] += 1
        return original(state, tau2)

    def recorded(state, tau2):
        asked.append(0)
        switches, converged = handover_relaxation(state, tau2)
        assert asked[-1] == 1 + switches
        return switches, converged

    monkeypatch.setattr(simulator, "_switching_groups", counted)
    monkeypatch.setattr(simulator, "handover_relaxation", recorded)
    cfg = SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
        handovers=True,
        policy=TaxPolicy.NONE,
        horizon=20.0,
        seed=0,
    )
    run(cfg)
    assert len(asked) > 1000
