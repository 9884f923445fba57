"""Event-driven simulation of atomic two-class users over two networks.

Users of each class arrive as a Poisson process, hold an exponentially
distributed connection carrying a fixed per-user throughput, and pick the
network with the lowest perceived cost (latency with their own flow
included, plus sensitivity-weighted tax). Arrivals finding no room on
either network are dropped. With handovers enabled, active sessions keep
best-responding to load and tax changes until no profitable switch
remains. A tax policy recomputes the price on the large network at every
event from the currently carried load.

``simulate`` hands each event's sample to a sink as it is made and keeps
none: ``run`` collects them into a trace, ``nettax simulate`` streams them
to its CSV, and sweeps pass no sink, so no sample is built at all.

Runs are deterministic: a config (including its seed) maps to a single
trace. Replications derive their RNG stream from the string
``"{seed}:{index}"``, so paired comparisons across policies share random
numbers when they share the index.
"""

from __future__ import annotations

import bisect
import heapq
import math
import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .analytics import NetworkPair, _optimal_cost, _tau2

CLASS_A = "A"
CLASS_B = "B"


class TaxPolicy(Enum):
    NONE = "none"
    APPROX = "approx"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class ClassProfile:
    """Arrival rate (users/min), mean connection duration (min),
    per-user throughput (Mbit/s) and tax sensitivity of one class."""

    arrival_rate: float
    mean_duration: float
    throughput: float
    alpha: float

    def __post_init__(self):
        # Written so that nan fails every test; inf has no meaning here.
        if not 0 <= self.arrival_rate < math.inf:
            raise ValueError(f"arrival_rate must be finite and >= 0, got {self.arrival_rate}")
        for name in ("mean_duration", "throughput", "alpha"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def offered_load(self) -> float:
        """Expected carried throughput lambda * mean_duration * eps."""
        return self.arrival_rate * self.mean_duration * self.throughput


@dataclass(frozen=True)
class SimConfig:
    net: NetworkPair
    class_a: ClassProfile
    class_b: ClassProfile
    handovers: bool
    policy: TaxPolicy
    horizon: float
    warmup: float = 0.0
    seed: int | str = 0
    handover_hysteresis: float = 1e-6
    # None: dynamic cap of 100 sweeps per active session.
    max_handover_rounds: int | None = None

    def __post_init__(self):
        for name in ("horizon", "warmup"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.class_a.alpha > self.class_b.alpha:
            raise ValueError(
                "class A must be the more tax-sensitive one "
                f"(alpha_a={self.class_a.alpha} <= alpha_b={self.class_b.alpha})"
            )
        if not self.horizon > self.warmup >= 0:
            raise ValueError(
                f"requires horizon > warmup >= 0, got {self.horizon}, {self.warmup}"
            )
        if not 0 <= self.handover_hysteresis < math.inf:
            raise ValueError(
                "handover_hysteresis must be finite and >= 0, "
                f"got {self.handover_hysteresis}"
            )
        if self.max_handover_rounds is not None and self.max_handover_rounds < 1:
            raise ValueError(
                f"max_handover_rounds must be >= 1, got {self.max_handover_rounds}"
            )


class SystemState:
    """Active sessions and the per-network carried throughput.

    ``groups`` is the one record of who is where: ``groups[(p, cls)]``
    holds the ascending ids of the class-``cls`` sessions on network p, in
    the order 1A, 1B, 2A, 2B, and a group's size is the ``len`` of its
    list. ``lists`` holds the same four list objects in that order, so
    that the hot paths unpack them in one step. ``loads[p]`` is the
    throughput carried by network p, a stored cache. Whatever changes a
    group of network p stores it again from the group sizes, as
    n_pA * eps_A + n_pB * eps_B: ``admit`` and ``move`` here, and
    ``simulate``, which books arrivals and departures on the lists in
    place. So it has the same bits as recomputing it, and no
    floating-point drift can accumulate. ``profiles`` maps each class to
    its (throughput, alpha). ``consts`` holds the run's constants: c1, c2,
    the handover hysteresis, the bands of networks 1 and 2, and the
    profiles of classes A and B.

    A session joins network p only if it ``fits``: ``loads[p] + eps < c_p``
    can hold while the load then stored rounds to exactly c_p. Below the
    band of network p, 1e-12 short of c_p, it always fits: one comparison.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.groups: dict[tuple[int, str], list[int]] = {
            (p, c): [] for p in (1, 2) for c in (CLASS_A, CLASS_B)
        }
        self.lists = tuple(self.groups.values())
        self.profiles = {
            c: (p.throughput, p.alpha) for c, p in ((CLASS_A, cfg.class_a), (CLASS_B, cfg.class_b))
        }
        self.loads = {1: 0.0, 2: 0.0}
        c1, c2 = cfg.net.c1, cfg.net.c2
        self.caps = {1: c1, 2: c2}
        self.consts = (c1, c2, cfg.handover_hysteresis, c1 * (1.0 - 1e-12),
                       c2 * (1.0 - 1e-12), self.profiles[CLASS_A], self.profiles[CLASS_B])

    def fits(self, cls: str, p: int) -> bool:
        """Whether network p has room for one more class-``cls`` session:
        both its load plus the session's and the load then stored are
        below capacity."""
        groups, profiles, cap = self.groups, self.profiles, self.caps[p]
        n_a = len(groups[(p, CLASS_A)]) + (cls == CLASS_A)
        n_b = len(groups[(p, CLASS_B)]) + (cls == CLASS_B)
        return (self.loads[p] + profiles[cls][0] < cap
                and n_a * profiles[CLASS_A][0] + n_b * profiles[CLASS_B][0] < cap)

    def admit(self, sid: int, cls: str, p: int) -> None:
        groups = self.groups
        bisect.insort(groups[(p, cls)], sid)
        _, _, _, _, _, (eps_a, _), (eps_b, _) = self.consts
        self.loads[p] = len(groups[(p, CLASS_A)]) * eps_a + len(groups[(p, CLASS_B)]) * eps_b

    def move(self, sid: int, cls: str, q: int) -> None:
        """Move session ``sid`` of class ``cls`` from network 3 - q to q."""
        groups = self.groups
        group = groups[(3 - q, cls)]
        del group[bisect.bisect_left(group, sid)]
        bisect.insort(groups[(q, cls)], sid)
        on1a, on1b, on2a, on2b = self.lists
        _, _, _, _, _, (eps_a, _), (eps_b, _) = self.consts
        loads = self.loads
        loads[1] = len(on1a) * eps_a + len(on1b) * eps_b
        loads[2] = len(on2a) * eps_a + len(on2b) * eps_b


def current_tax(state: SystemState) -> float:
    """Price tau2 on network 2 for the currently carried load. Network 1
    is never taxed, so this one float is the whole incentive signal.

    OPTIMAL reads the true class-B carried load to pick the branch; APPROX
    substitutes the long-run average class-B load eps_B * lambda_B / mu_B.
    The magnitude only ever depends on the total load, which ``run()``
    keeps below each network's capacity, so the demand is not checked.
    ``simulate`` never calls it under NONE; OPTIMAL, the common rule, is
    tested first, since an Enum member read through its class is slow.
    """
    cfg = state.cfg
    _, _, _, _, _, (_, alpha_a), (eps_b, alpha_b) = state.consts
    if cfg.policy is TaxPolicy.OPTIMAL:
        _, on1b, _, on2b = state.lists
        d_b = (len(on1b) + len(on2b)) * eps_b
    elif cfg.policy is TaxPolicy.APPROX:
        d_b = cfg.class_b.offered_load
    else:
        return 0.0
    loads = state.loads
    return _tau2(cfg.net, loads[1] + loads[2], d_b, alpha_a, alpha_b)[0]


def choose_network(state: SystemState, cls: str, tau2: float) -> int | None:
    """Cheapest network admitting the user (own flow included), or None
    when both are full. Ties go to network 2, the larger one. A network is
    a candidate only if it has room (``SystemState.fits``), so f < c."""
    c1, c2, _, band1, band2, _, _ = state.consts
    eps, alpha = state.profiles[cls]
    loads = state.loads
    best, best_cost = None, math.inf
    load = loads[2] + eps
    if load < band2 or state.fits(cls, 2):
        best, best_cost = 2, 1.0 / (c2 - load) + alpha * tau2
    load = loads[1] + eps
    if (load < band1 or state.fits(cls, 1)) and 1.0 / (c1 - load) < best_cost:
        best = 1
    return best


def _switching_groups(state: SystemState, tau2: float) -> list[tuple[int, str]]:
    """The occupied (network, class) groups whose sessions would cut their
    perceived cost by more than the hysteresis by moving to the other
    network. All sessions of a group face identical costs, so the switch
    decision is a per-group predicate, not a per-session one. The latency
    of staying on a network is the same for both classes, so one call
    computes at most 6 latencies 1 / (c - f), written out as in ``delay``:
    a move needs room on the target (``SystemState.fits``), and staying at
    capacity costs +inf."""
    c1, c2, hysteresis, band1, band2, (eps_a, alpha_a), (eps_b, alpha_b) = state.consts
    on1a, on1b, on2a, on2b = state.lists
    loads = state.loads
    load1, load2 = loads[1], loads[2]
    stay1 = 1.0 / (c1 - load1) if load1 < c1 else math.inf
    stay2 = 1.0 / (c2 - load2) if load2 < c2 else math.inf
    out = []
    if on1a:
        moved = load2 + eps_a
        if (moved < band2 or state.fits(CLASS_A, 2)) and (
            1.0 / (c2 - moved) + alpha_a * tau2 < stay1 - hysteresis
        ):
            out.append((1, CLASS_A))
    if on2a:
        moved = load1 + eps_a
        if (moved < band1 or state.fits(CLASS_A, 1)) and (
            1.0 / (c1 - moved) < stay2 + alpha_a * tau2 - hysteresis
        ):
            out.append((2, CLASS_A))
    if on1b:
        moved = load2 + eps_b
        if (moved < band2 or state.fits(CLASS_B, 2)) and (
            1.0 / (c2 - moved) + alpha_b * tau2 < stay1 - hysteresis
        ):
            out.append((1, CLASS_B))
    if on2b:
        moved = load1 + eps_b
        if (moved < band1 or state.fits(CLASS_B, 1)) and (
            1.0 / (c1 - moved) < stay2 + alpha_b * tau2 - hysteresis
        ):
            out.append((2, CLASS_B))
    return out


def handover_relaxation(state: SystemState, tau2: float) -> tuple[int, bool]:
    """Sequential best-response sweeps in ascending session id until a
    sweep makes no switch or the round cap is hit.

    One sweep moves, in ascending sid, every session that wants to switch
    when its turn comes. Whether a session wants to switch depends only on
    its (network, class) group, and the state changes only when a session
    moves. So a sweep is a cursor walk over ``state.groups``: ask which
    non-empty groups want to switch (``_switching_groups``), move the
    lowest sid above the cursor among them, set the cursor to that sid,
    and repeat until no group yields one. The sessions it jumps over sit
    in groups that do not want to switch, and a session moved earlier in
    the sweep now lies at or below the cursor. This is the same sequence of
    moves as visiting every session in ascending sid. Each state is asked
    about once: a sweep starts from the answer that ended the last one, and
    if no one wants to switch up front it returns (0, True) at once. When a
    sweep ends with no group wanting to switch, the relaxation returns.

    Returns (total switches, converged). Convergence means no session can
    improve its perceived cost by more than the hysteresis by moving.
    """
    wanting = _switching_groups(state, tau2)
    if not wanting:
        return 0, True
    groups = state.groups
    cap = state.cfg.max_handover_rounds
    if cap is None:
        cap = 100 * sum(map(len, groups.values()))  # wanting names an occupied group
    total = 0
    for _ in range(cap):
        cursor = -math.inf
        while True:
            nxt = None
            for p, cls in wanting:
                sids = groups[(p, cls)]
                i = bisect.bisect_right(sids, cursor)
                if i < len(sids) and (nxt is None or sids[i] < nxt):
                    nxt, moving, q = sids[i], cls, 3 - p
            if nxt is None:
                break
            state.move(nxt, moving, q)
            cursor = nxt
            total += 1
            wanting = _switching_groups(state, tau2)
        if not wanting:
            return total, True
    return total, False


class Sample(NamedTuple):
    """State snapshot taken right after one event. A tuple, so that a
    sample costs one allocation."""

    t: float
    load: float
    tau2: float
    cost: float
    cost_opt: float
    poa: float
    n1a: int
    n1b: int
    n2a: int
    n2b: int
    event: str


@dataclass
class BlockingStats:
    """Arrival/block counters, whole run and measurement window."""

    arrivals: dict = field(default_factory=lambda: {CLASS_A: 0, CLASS_B: 0})
    blocked: dict = field(default_factory=lambda: {CLASS_A: 0, CLASS_B: 0})
    measured_arrivals: int = 0
    measured_blocked: int = 0

    @property
    def rate(self) -> float:
        if self.measured_arrivals == 0:
            return 0.0
        return self.measured_blocked / self.measured_arrivals


@dataclass
class SimSummary:
    avg_poa: float
    relaxation_warnings: int
    events: int


@dataclass
class SimTrace:
    samples: list[Sample]
    blocking: BlockingStats
    summary: SimSummary


def replication_seed(seed: int | str, index: int) -> str:
    """Documented stream-splitting rule for independent replications."""
    return f"{seed}:{index}"


def run(cfg: SimConfig) -> SimTrace:
    """Simulate one trajectory and keep the sample of every event: the
    trace of ``simulate`` with a sink that appends to a list. The samples
    are held until the run ends; ``nettax simulate`` streams its rows to
    the CSV instead, and sweeps keep none."""
    samples: list[Sample] = []
    blocking, summary = simulate(cfg, samples.append)
    return SimTrace(samples=samples, blocking=blocking, summary=summary)


def simulate(
    cfg: SimConfig, sink: Callable[[Sample], object] | None = None
) -> tuple[BlockingStats, SimSummary]:
    """Simulate one trajectory and integrate metrics event by event.

    The tax in force is recomputed whenever an event changes the state,
    by the price rule picked once for the run: NONE has none, so tau2
    stays 0.0, and every rule prices the empty system the run starts from
    at 0.0, below the threshold.
    Each event's admission / handover decisions use the pre-event tax; the
    sample carries the post-event tax, which is the one in force until the
    next event and hence that event's pre-event tax. Each sample goes to
    ``sink`` as soon as it is made, and none is kept; with no sink, none is
    built. Time averages use exact piecewise-constant integration over
    [warmup, horizon].

    The loop books arrivals and departures itself, in place on
    ``state.lists``, and stores the load of the network it touched by the
    rule of ``SystemState``; handover moves go through ``SystemState.move``.
    """
    random_ = random.Random(str(cfg.seed)).random
    log, inf = math.log, math.inf
    heappush, heappop, bisect_left = heapq.heappush, heapq.heappop, bisect.bisect_left
    state = SystemState(cfg)
    tax = None if cfg.policy is TaxPolicy.NONE else current_tax
    choose, optimal_cost = choose_network, _optimal_cost
    relax = handover_relaxation if cfg.handovers else None
    blocking = BlockingStats()
    arrivals, blocked = blocking.arrivals, blocking.blocked
    measured_arrivals = measured_blocked = warnings = events = 0
    warmup, horizon, net = cfg.warmup, cfg.horizon, cfg.net
    c1, c2, _, _, _, (eps_a, _), (eps_b, _) = state.consts
    loads = state.loads
    on1a, on1b, on2a, on2b = state.lists

    # (t, sid, cls): (t, sid) is unique, so cls never decides the order.
    departures: list[tuple[float, int, str]] = []
    next_sid = 0
    # Each class draws with its arrival rate, then with 1 / mean duration.
    # A draw is random.expovariate's own formula, -log(1 - U) / rate.
    lam_a, lam_b = cfg.class_a.arrival_rate, cfg.class_b.arrival_rate
    mu_a, mu_b = 1.0 / cfg.class_a.mean_duration, 1.0 / cfg.class_b.mean_duration
    t_a = -log(1.0 - random_()) / lam_a if lam_a > 0 else inf
    t_b = -log(1.0 - random_()) / lam_b if lam_b > 0 else inf

    load = cost = cost_opt = clock = poa_integral = tau2 = 0.0
    poa = 1.0

    while True:
        t_dep = departures[0][0] if departures else inf
        t = t_a if t_a <= t_b else t_b
        departing = t_dep <= t
        if departing:
            t = t_dep
        if t > horizon:
            break
        # Integrate the PoA in force since the last event over [warmup, t].
        lo = warmup if warmup > clock else clock
        if t > lo:
            poa_integral += poa * (t - lo)
        clock = t

        changed = True
        if departing:
            _, sid, cls = heappop(departures)
            on1, on2 = (on1a, on2a) if cls == CLASS_A else (on1b, on2b)
            i = bisect_left(on1, sid)
            if i < len(on1) and on1[i] == sid:
                del on1[i]
                loads[1] = len(on1a) * eps_a + len(on1b) * eps_b
            else:
                del on2[bisect_left(on2, sid)]
                loads[2] = len(on2a) * eps_a + len(on2b) * eps_b
            kind = "dep"
        else:
            # Fixed draw order (inter-arrival, then duration), consumed even
            # for blocked arrivals: keeps streams aligned across policies.
            if t_a <= t_b:
                cls, on1, on2 = CLASS_A, on1a, on2a
                t_a = t + -log(1.0 - random_()) / lam_a
                duration = -log(1.0 - random_()) / mu_a
            else:
                cls, on1, on2 = CLASS_B, on1b, on2b
                t_b = t + -log(1.0 - random_()) / lam_b
                duration = -log(1.0 - random_()) / mu_b
            in_window = t >= warmup
            arrivals[cls] += 1
            measured_arrivals += in_window
            p = choose(state, cls, tau2)
            if p is None:
                blocked[cls] += 1
                measured_blocked += in_window
                kind = "blk"
                changed = False
            else:
                # next_sid is above every sid so far: the list stays ascending.
                if p == 1:
                    on1.append(next_sid)
                    loads[1] = len(on1a) * eps_a + len(on1b) * eps_b
                else:
                    on2.append(next_sid)
                    loads[2] = len(on2a) * eps_a + len(on2b) * eps_b
                heappush(departures, (t + duration, next_sid, cls))
                next_sid += 1
                kind = "arr"

        if changed:
            if relax is not None and not relax(state, tau2)[1]:
                warnings += 1
            if tax:
                tau2 = tax(state)
            # A blocked arrival changes no load, so keeps the metrics too.
            load1, load2 = loads[1], loads[2]
            load = load1 + load2
            if load == 0:
                cost = cost_opt = 0.0
                poa = 1.0
            else:
                # link_cost written out: each load stays below its capacity.
                cost = load1 * (1.0 / (c1 - load1)) + load2 * (1.0 / (c2 - load2))
                cost_opt = optimal_cost(net, load)
                poa = cost / cost_opt

        events += 1
        if sink is not None:
            sink(Sample(t, load, tau2, cost, cost_opt, poa,
                        len(on1a), len(on1b), len(on2a), len(on2b), kind + cls))

    lo = warmup if warmup > clock else clock
    if horizon > lo:
        poa_integral += poa * (horizon - lo)
    avg_poa = poa_integral / (horizon - warmup)
    blocking.measured_arrivals, blocking.measured_blocked = measured_arrivals, measured_blocked
    return blocking, SimSummary(avg_poa, warnings, events)


# ---------------------------------------------------------------------------
# Load sweeps


@dataclass(frozen=True)
class SweepRow:
    """Aggregated result of one (load, policy, handover) cell."""

    load: float
    policy: TaxPolicy
    handovers: bool
    mean_poa: float
    se_poa: float
    blocking_rate: float
    replications: int
    poa_values: tuple[float, ...]


def scale_arrival_rates(
    base: SimConfig, load: float, ratio: float
) -> tuple[float, float]:
    """Arrival rates hitting a target normalized offered load at a fixed
    rate ratio lambda_a / lambda_b."""
    if not 0 < load < 1:
        raise ValueError(f"normalized load must be in (0, 1), got {load}")
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and > 0, got {ratio}")
    target = load * base.net.total
    per_lambda_b = (
        ratio * base.class_a.mean_duration * base.class_a.throughput
        + base.class_b.mean_duration * base.class_b.throughput
    )
    lam_b = target / per_lambda_b
    return ratio * lam_b, lam_b


def replication_config(
    base: SimConfig,
    load: float,
    ratio: float,
    policy: TaxPolicy,
    handovers: bool,
    index: int,
) -> SimConfig:
    lam_a, lam_b = scale_arrival_rates(base, load, ratio)
    return replace(
        base,
        class_a=replace(base.class_a, arrival_rate=lam_a),
        class_b=replace(base.class_b, arrival_rate=lam_b),
        handovers=handovers,
        policy=policy,
        seed=replication_seed(base.seed, index),
    )


def _run_cell_replication(cfg: SimConfig) -> tuple[float, int, int]:
    blocking, summary = simulate(cfg)
    return summary.avg_poa, blocking.measured_arrivals, blocking.measured_blocked


def sweep_load(
    base: SimConfig,
    loads: list[float],
    ratio: float,
    replications: int,
    policies: tuple[TaxPolicy, ...] = (TaxPolicy.NONE, TaxPolicy.APPROX, TaxPolicy.OPTIMAL),
    handover_settings: tuple[bool, ...] = (True, False),
    max_workers: int | None = None,
) -> list[SweepRow]:
    """Run the policy x handover x load x replication matrix.

    Replication i of every cell uses the stream ``"{seed}:{i}"``, so cells
    at the same load are paired through common random numbers. Results are
    aggregated per cell in replication order regardless of how the runs are
    scheduled.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    cells = [
        (load, policy, handover)
        for load in loads
        for handover in handover_settings
        for policy in policies
    ]
    jobs = [
        replication_config(base, load, ratio, policy, handover, i)
        for (load, policy, handover) in cells
        for i in range(replications)
    ]
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Heaviest first (Graham's LPT rule): a run costs more the higher
        # its load, so the highest loads go first; results go back by index.
        order = sorted(range(len(jobs)), key=lambda k: cells[k // replications][0], reverse=True)
        results = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            runs = pool.map(_run_cell_replication, [jobs[k] for k in order], chunksize=1)
            for k, result in zip(order, runs):
                results[k] = result
    else:
        results = [_run_cell_replication(cfg) for cfg in jobs]

    rows = []
    for k, (load, policy, handover) in enumerate(cells):
        chunk = results[k * replications : (k + 1) * replications]
        poas = tuple(r[0] for r in chunk)
        arrivals = sum(r[1] for r in chunk)
        blocked = sum(r[2] for r in chunk)
        mean = sum(poas) / replications
        if replications > 1:
            var = sum((x - mean) ** 2 for x in poas) / (replications - 1)
            se = math.sqrt(var / replications)
        else:
            se = 0.0
        rate = blocked / arrivals if arrivals else 0.0
        rows.append(SweepRow(load, policy, handover, mean, se, rate, replications, poas))
    return rows


def pooled_blocking_by_load(
    rows: list[SweepRow], handovers: bool
) -> list[tuple[float, float]]:
    """Blocking rate pooled over policies, per load, for one handover
    setting; (load, rate) pairs sorted by load."""
    by_load: dict[float, list[SweepRow]] = {}
    for row in rows:
        if row.handovers == handovers:
            by_load.setdefault(row.load, []).append(row)
    return [(x, sum(r.blocking_rate for r in g) / len(g)) for x, g in sorted(by_load.items())]


def blocking_crossing(points: list[tuple[float, float]], level: float) -> float | None:
    """First load at which the blocking curve crosses ``level``, linearly
    interpolated between grid points; None if it never does."""
    if points and points[0][1] >= level:
        return points[0][0]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y0 < level <= y1:
            return x0 + (level - y0) * (x1 - x0) / (y1 - y0)
    return None


# ---------------------------------------------------------------------------
# CSV export (9 significant digits for all floats)

TRACE_HEADER = "t,D,tau2,C,C_opt,PoA,n1A,n1B,n2A,n2B,event"
SUMMARY_HEADER = "load,policy,handover,mean_poa,se_poa,blocking_rate,replications"
# One row from a Sample or a SweepRow; "%.9g" gives the same text as _fmt.
TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%d,%d,%d,%s\n"
SUMMARY_ROW = "%.9g,%s,%s,%.9g,%.9g,%.9g,%d\n"


def _fmt(x: float) -> str:
    return format(x, ".9g")


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(TRACE_ROW % s for s in trace.samples)


def write_summary_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        fh.writelines(
            SUMMARY_ROW
            % (r.load, r.policy.value, "true" if r.handovers else "false",
               r.mean_poa, r.se_poa, r.blocking_rate, r.replications)
            for r in rows
        )
