"""Event-driven simulation of atomic two-class users over two networks.

Users of each class arrive as a Poisson process, hold an exponentially
distributed connection carrying a fixed per-user throughput, and pick the
network with the lowest perceived cost (latency with their own flow
included, plus sensitivity-weighted tax). Arrivals finding no room on
either network are dropped. With handovers enabled, active sessions keep
best-responding to load and tax changes until no profitable switch
remains. A tax policy recomputes the price on the large network at every
event from the currently carried load.

The run's state is one record indexed by session id (``SystemState``):
a byte per session naming its (network, class) group, the four group
sizes, and the two carried loads stored from those sizes. A departure
reads its session's group there, relaxation moves a session by
rewriting its byte, and the departed prefix is trimmed as the oldest
live session leaves, so the record spans the sids from the oldest live
session on, however long the run.

``simulate`` hands each event's sample to a sink as it is made and keeps
none: ``run`` collects them into a trace, ``nettax simulate`` streams them
to its CSV, and sweeps pass no sink, so no sample is built at all.

Runs are deterministic: a config (including its seed) maps to a single
trace. Replications derive their RNG stream from the string
``"{seed}:{index}"``, so paired comparisons across policies share random
numbers when they share the index.
"""

from __future__ import annotations

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


# The byte of a departed session in ``SystemState.where``; groups are 0-3.
_GONE = 4


class SystemState:
    """Active sessions and the per-network carried throughput.

    ``where`` is the one record of who is where: a ``bytearray`` with one
    byte per session, indexed by sid less an offset that ``simulate``
    keeps. The byte is the session's group: 0-3 for 1A, 1B, 2A, 2B, so
    group g lies on network (g >> 1) + 1, holds class A when g is even,
    and ``g ^ 2`` is the same class on the other network. A departed
    session's byte is ``_GONE``. When the front session departs,
    ``simulate`` deletes the departed prefix in place and advances its
    offset, so ``where`` starts at the oldest live session: its first
    byte, if any, names a live group. ``n[g]`` is the size of group g.
    ``loads[i]`` is the throughput carried by network i + 1, a stored
    cache. Whatever changes a group of a network stores its load again
    from the group sizes, as n_A * eps_A + n_B * eps_B, on that network:
    relaxation here, and ``simulate``, which books arrivals and departures
    in place. So it has the same bits as recomputing it, and no
    floating-point drift can accumulate. ``consts`` holds the run's
    constants: c1, c2, the handover hysteresis, the bands of networks 1
    and 2, and the (throughput, alpha) of classes A and B.

    A session joins group g only if it ``fits``: its network's load plus
    eps can be below c while the load then stored rounds to exactly c.
    Below the band of the network, 1e-12 short of c, it always fits: one
    comparison.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.where = bytearray()
        self.n = [0, 0, 0, 0]
        self.loads = [0.0, 0.0]
        c1, c2, a, b = cfg.net.c1, cfg.net.c2, cfg.class_a, cfg.class_b
        self.consts = (c1, c2, cfg.handover_hysteresis, c1 * (1.0 - 1e-12),
                       c2 * (1.0 - 1e-12), (a.throughput, a.alpha), (b.throughput, b.alpha))

    def fits(self, g: int) -> bool:
        """Whether group g has room for one more session: both the load
        of its network plus the session's and the load then stored are
        below capacity."""
        c1, c2, _, _, _, (eps_a, _), (eps_b, _) = self.consts
        n, i = self.n, g & 2
        cap = c2 if i else c1
        return (self.loads[g >> 1] + (eps_b if g & 1 else eps_a) < cap
                and (n[i] + (g == i)) * eps_a + (n[i + 1] + (g != i)) * eps_b < cap)


def choose_network(state: SystemState, cls: str, tau2: float) -> int | None:
    """Cheapest network admitting the user (own flow included), or None
    when both are full. Ties go to network 2, the larger one. A network is
    a candidate only if it has room (``SystemState.fits``), so f < c."""
    c1, c2, _, band1, band2, profile_a, profile_b = state.consts
    k, (eps, alpha) = (0, profile_a) if cls == CLASS_A else (1, profile_b)
    load1, load2 = state.loads
    best, best_cost = None, math.inf
    load = load2 + eps
    if load < band2 or state.fits(k + 2):
        best, best_cost = 2, 1.0 / (c2 - load) + alpha * tau2
    load = load1 + eps
    if (load < band1 or state.fits(k)) and 1.0 / (c1 - load) < best_cost:
        best = 1
    return best


def _switching_groups(state: SystemState, tau2: float) -> list[int]:
    """The occupied groups whose sessions would cut their perceived cost
    by more than the hysteresis by moving to the other network. All
    sessions of a group face identical costs, so the switch decision is a
    per-group predicate, not a per-session one. The latency of staying on
    a network is the same for both classes, so one call computes at most 6
    latencies 1 / (c - f), written out as in ``delay``: a move needs room
    on the target (``SystemState.fits``), and staying at capacity costs
    +inf."""
    c1, c2, hysteresis, band1, band2, (eps_a, alpha_a), (eps_b, alpha_b) = state.consts
    n1a, n1b, n2a, n2b = state.n
    load1, load2 = state.loads
    stay1 = 1.0 / (c1 - load1) if load1 < c1 else math.inf
    stay2 = 1.0 / (c2 - load2) if load2 < c2 else math.inf
    out = []
    if n1a:
        moved = load2 + eps_a
        if (moved < band2 or state.fits(2)) and (
            1.0 / (c2 - moved) + alpha_a * tau2 < stay1 - hysteresis
        ):
            out.append(0)
    if n2a:
        moved = load1 + eps_a
        if (moved < band1 or state.fits(0)) and (
            1.0 / (c1 - moved) < stay2 + alpha_a * tau2 - hysteresis
        ):
            out.append(2)
    if n1b:
        moved = load2 + eps_b
        if (moved < band2 or state.fits(3)) and (
            1.0 / (c2 - moved) + alpha_b * tau2 < stay1 - hysteresis
        ):
            out.append(1)
    if n2b:
        moved = load1 + eps_b
        if (moved < band1 or state.fits(1)) and (
            1.0 / (c1 - moved) < stay2 + alpha_b * tau2 - hysteresis
        ):
            out.append(3)
    return out


def handover_relaxation(state: SystemState, tau2: float) -> tuple[int, bool]:
    """Sequential best-response sweeps in ascending session id until a
    sweep makes no switch or the round cap is hit.

    One sweep moves, in ascending sid, every session that wants to switch
    when its turn comes. Whether a session wants to switch depends only on
    its group, and the state changes only when a session moves. So a
    sweep is a cursor walk over ``state.where``: ask which occupied groups
    want to switch (``_switching_groups``), find the first session of each
    at or after the cursor, move the first of those by rewriting its byte
    from g to g ^ 2, set the cursor just past it, and repeat until no
    group yields one. The sessions it jumps over sit in groups that do not
    want to switch, and a session moved earlier in the sweep now lies
    before the cursor. This is the same sequence of moves as visiting
    every session in ascending sid. Each state is asked about once: a
    sweep starts from the answer that ended the last one, and if no one
    wants to switch up front it returns (0, True) at once. When a sweep
    ends with no group wanting to switch, the relaxation returns.

    Returns (total switches, converged). Convergence means no session can
    improve its perceived cost by more than the hysteresis by moving.
    """
    wanting = _switching_groups(state, tau2)
    if not wanting:
        return 0, True
    where, n, loads = state.where, state.n, state.loads
    _, _, _, _, _, (eps_a, _), (eps_b, _) = state.consts
    cap = state.cfg.max_handover_rounds
    if cap is None:
        cap = 100 * sum(n)  # wanting names an occupied group
    total = 0
    for _ in range(cap):
        cursor = 0
        while True:
            nxt = -1
            for g in wanting:
                i = where.find(g, cursor)
                if i >= 0 and (nxt < 0 or i < nxt):
                    nxt, moving = i, g
            if nxt < 0:
                break
            where[nxt] = moving ^ 2
            n[moving] -= 1
            n[moving ^ 2] += 1
            loads[0] = n[0] * eps_a + n[1] * eps_b
            loads[1] = n[2] * eps_a + n[3] * eps_b
            cursor = nxt + 1
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
    stays 0.0; OPTIMAL prices the carried load with the carried class-B
    load, and APPROX substitutes the long-run average class-B load
    eps_B * lambda_B / mu_B. Every rule prices the empty system the run
    starts from at 0.0, below the threshold. The total load stays below
    the combined capacity, so the demand is not checked.
    Each event's admission / handover decisions use the pre-event tax; the
    sample carries the post-event tax, which is the one in force until the
    next event and hence that event's pre-event tax. Each sample goes to
    ``sink`` as soon as it is made, and none is kept; with no sink, none is
    built. Time averages use exact piecewise-constant integration over
    [warmup, horizon].

    The loop books arrivals and departures itself, in place on the record
    of ``SystemState``, and stores the load of the network it touched by
    the rule there. A departure's heap entry is (time, sid), and the
    session's byte in ``where`` names its group.
    """
    random_ = random.Random(str(cfg.seed)).random
    log, inf = math.log, math.inf
    heappush, heappop = heapq.heappush, heapq.heappop
    state = SystemState(cfg)
    choose, optimal_cost, tau2_of = choose_network, _optimal_cost, _tau2
    relax = handover_relaxation if cfg.handovers else None
    priced = cfg.policy is not TaxPolicy.NONE
    carried, offered_b = cfg.policy is TaxPolicy.OPTIMAL, cfg.class_b.offered_load
    blocking = BlockingStats()
    arrivals, blocked = blocking.arrivals, blocking.blocked
    measured_arrivals = measured_blocked = warnings = events = 0
    warmup, horizon, net = cfg.warmup, cfg.horizon, cfg.net
    c1, c2, _, _, _, (eps_a, alpha_a), (eps_b, alpha_b) = state.consts
    where, n, loads = state.where, state.n, state.loads
    classes = (CLASS_A, CLASS_B, CLASS_A, CLASS_B)

    # (t, sid): unique, since sids are. Session sid has byte where[sid - base].
    departures: list[tuple[float, int]] = []
    base = 0
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
            i = heappop(departures)[1] - base
            g = where[i]
            where[i] = _GONE
            n[g] -= 1
            j = g & 2
            loads[g >> 1] = n[j] * eps_a + n[j + 1] * eps_b
            if i == 0:  # the front session left: drop the departed prefix
                while i < len(where) and where[i] == _GONE:
                    i += 1
                del where[:i]
                base += i
            kind, cls = "dep", classes[g]
        else:
            # Fixed draw order (inter-arrival, then duration), consumed even
            # for blocked arrivals: keeps streams aligned across policies.
            if t_a <= t_b:
                cls, g = CLASS_A, 0
                t_a = t + -log(1.0 - random_()) / lam_a
                duration = -log(1.0 - random_()) / mu_a
            else:
                cls, g = CLASS_B, 1
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
                # Blocked arrivals take no sid: the new session is the next byte.
                heappush(departures, (t + duration, base + len(where)))
                j = 2 * p - 2
                g += j
                where.append(g)
                n[g] += 1
                loads[p - 1] = n[j] * eps_a + n[j + 1] * eps_b
                kind = "arr"

        if changed:
            if relax is not None and not relax(state, tau2)[1]:
                warnings += 1
            # A blocked arrival changes no load, so keeps the tax and the
            # metrics too.
            load1, load2 = loads
            load = load1 + load2
            if priced:
                d_b = (n[1] + n[3]) * eps_b if carried else offered_b
                tau2 = tau2_of(net, load, d_b, alpha_a, alpha_b)[0]
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
            sink(Sample(t, load, tau2, cost, cost_opt, poa, n[0], n[1], n[2], n[3], kind + cls))

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
# One row from a Sample or a SweepRow; "%.9g" gives the same text as cli._fmt.
TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%d,%d,%d,%s\n"
SUMMARY_ROW = "%.9g,%s,%s,%.9g,%.9g,%.9g,%d\n"


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
