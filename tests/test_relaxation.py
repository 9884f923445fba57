"""Handover relaxation: the indexed cursor walk against the plain walk.

``handover_relaxation`` jumps from group to group over the group bytes of
``SystemState.where``. ``reference_relaxation`` visits every session in
ascending sid. On random states they must make the same moves, return the
same result, and, when converged, leave no group that gains by switching.
``_switching_groups``, which asks all four groups at once, must name the
same groups as the one-group predicate ``oracles.wants_switch``, and a
relaxation asks it once per state it reaches: 1 + switches times.

``where`` is the one record of who is where, and ``n`` and ``loads``
summarise it. Relaxation keeps them up to date, and so does
``simulate``, which books arrivals and departures in place.
``assert_record_consistent`` requires that each group's size be the count
of its bytes, that every other byte mark a departed session, and that the
loads have the bits of a recomputation from the group sizes;
``assert_below_capacity``, that each load stays below its network's
capacity. ``checking_moves`` checks both on every state a relaxation asks
about: on entry and after every move. A run checks them, and that the
departed prefix is trimmed, after every event.
"""

import collections
import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nettax import simulator
from nettax.analytics import NetworkPair
from nettax.simulator import (
    _GONE,
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
from oracles import GROUPS, placements_of, reference_relaxation, state_from, wants_switch
import workloads


def assert_record_consistent(state: SystemState) -> None:
    where, n = state.where, state.n
    assert [where.count(g) for g in range(4)] == n
    assert len(where) == sum(n) + where.count(_GONE)
    # The stored loads must have the bits of a recomputation from scratch.
    eps_a, eps_b = state.cfg.class_a.throughput, state.cfg.class_b.throughput
    assert state.loads == [n[0] * eps_a + n[1] * eps_b, n[2] * eps_a + n[3] * eps_b]


def assert_below_capacity(state: SystemState) -> None:
    assert state.loads[0] < state.cfg.net.c1
    assert state.loads[1] < state.cfg.net.c2


def checking_moves(mp: pytest.MonkeyPatch) -> None:
    """Check the record of every state ``_switching_groups`` is asked
    about: relaxation asks on entry and after every move."""
    original = simulator._switching_groups

    def checked(state, tau2):
        assert_record_consistent(state)
        assert_below_capacity(state)
        return original(state, tau2)

    mp.setattr(simulator, "_switching_groups", checked)


@st.composite
def relaxation_cases(draw):
    counts = [draw(st.integers(0, 12)) for _ in GROUPS]
    # Groups interleave over the sids, which have gaps: departed sessions.
    labels = draw(st.permutations([g for g, n in zip(GROUPS, counts) for _ in range(n)]))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
    placements = [None] * sum(gaps)
    for sid, label in zip(itertools.accumulate(gaps), labels):
        placements[sid - 1] = label

    eps = {CLASS_A: draw(st.floats(0.02, 1.0)), CLASS_B: draw(st.floats(0.02, 1.0))}
    load = {1: 0.0, 2: 0.0}
    for p, cls in labels:
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
    return cfg, placements, tau2


@given(case=relaxation_cases())
@settings(max_examples=300, deadline=None)
def test_indexed_relaxation_matches_reference_walk(case):
    cfg, placements, tau2 = case
    state = state_from(cfg, placements)
    assert placements_of(state) == placements
    assert_record_consistent(state)

    with pytest.MonkeyPatch.context() as mp:
        checking_moves(mp)
        result = handover_relaxation(state, tau2)
    assert (result, placements_of(state)) == reference_relaxation(cfg, placements, tau2)
    assert_record_consistent(state)

    switches, converged = result
    event(f"converged={converged}")
    if converged:
        for g, (p, cls) in enumerate(GROUPS):
            if state.n[g]:
                assert not wants_switch(cfg, state.loads, p, cls, tau2)


@given(case=relaxation_cases())
@settings(max_examples=300, deadline=None)
def test_switching_groups_match_reference_predicate(case):
    cfg, placements, tau2 = case
    state = state_from(cfg, placements)
    occupied = [g for g in range(4) if state.n[g]]
    expected = {g for g in occupied if wants_switch(cfg, state.loads, *GROUPS[g], tau2)}
    found = _switching_groups(state, tau2)
    assert len(found) == len(set(found))
    assert set(found) == expected

    caps = (cfg.net.c1, cfg.net.c2)
    eps = (cfg.class_a.throughput, cfg.class_b.throughput)
    if len(occupied) < len(GROUPS):
        event("an empty group")
    if any(state.loads[1 - (g >> 1)] + eps[g & 1] >= caps[1 - (g >> 1)] for g in occupied):
        event("a saturated target")


RUN = SimConfig(
    net=NetworkPair(4.0, 11.0),
    class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
    class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
    handovers=True,
    policy=TaxPolicy.OPTIMAL,
    horizon=20.0,
    seed=3,
)


def checked_run(cfg: SimConfig, monkeypatch) -> tuple[simulator.SimTrace, list, list]:
    """``run(cfg)`` with the record checked after every event and on every
    state a relaxation asks about; returns the trace, the result of every
    relaxation and the length of ``where`` after every event."""
    states, calls, spans = [], [], []

    class Recorded(SystemState):
        def __init__(self, cfg):
            super().__init__(cfg)
            states.append(self)

    def relaxed(state, tau2):
        result = handover_relaxation(state, tau2)
        calls.append(result)
        return result

    samples = []

    def sink(sample):
        (state,) = states
        assert_record_consistent(state)
        assert_below_capacity(state)
        # The departed prefix is trimmed: the first byte is a live session.
        assert not state.where or state.where[0] != _GONE
        assert tuple(state.n) == sample[6:10]
        samples.append(sample)
        spans.append(len(state.where))

    monkeypatch.setattr(simulator, "SystemState", Recorded)
    monkeypatch.setattr(simulator, "handover_relaxation", relaxed)
    checking_moves(monkeypatch)
    blocking, summary = simulator.simulate(cfg, sink)
    return simulator.SimTrace(samples, blocking, summary), calls, spans


def test_group_lists_track_sessions_through_a_run(monkeypatch):
    # The run books arrivals and departures in place, and relaxation follows
    # every one that admitted or removed a session.
    trace, calls, _ = checked_run(RUN, monkeypatch)
    changed = [s for s in trace.samples if s.event[:3] in ("arr", "dep")]
    assert len(calls) == len(changed) > 1000
    assert sum(s for s, _ in calls) > 0
    assert trace.summary.relaxation_warnings == 0
    assert workloads.audit(
        workloads.trace_auditor(RUN), workloads.trace_rows(trace),
        trace.summary.avg_poa, trace.blocking.rate, "seed 3",
    ) == []


@pytest.mark.parametrize("policy", list(TaxPolicy))
@pytest.mark.parametrize("handovers, rounds", [(True, None), (False, None), (True, 1)])
def test_record_tracks_sessions_after_every_event(policy, handovers, rounds, monkeypatch):
    # Every policy, handovers on and off, and relaxation stopped after one
    # sweep. The offered load, 15.1 Mbit/s, is about the capacity, so
    # arrivals are blocked, and many sessions end, so the front trim runs.
    cfg = SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(16.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(24.0, 2.5, 0.184, 1.0),
        handovers=handovers,
        policy=policy,
        horizon=40.0,
        seed=5,
        max_handover_rounds=rounds,
    )
    trace, calls, spans = checked_run(cfg, monkeypatch)
    kinds = collections.Counter(s.event[:3] for s in trace.samples)
    assert min(kinds["arr"], kinds["dep"], kinds["blk"]) > 0
    assert any(b < a for a, b in zip(spans, spans[1:]))
    assert len(calls) == (kinds["arr"] + kinds["dep"] if handovers else 0)


def test_sampled_load_is_the_sum_of_the_group_loads():
    # Handovers off: the loads change only by the arrivals and departures
    # the loop books itself. Every sample's load has the bits of the load
    # rule applied to its four counts, and no session is lost or made up.
    # The offered load is about 1.01 of capacity (15.14 against 15), so
    # both classes see blocked arrivals.
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
