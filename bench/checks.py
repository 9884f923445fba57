"""Reference checks for the benchmark, written apart from ``nettax``.

Nothing here imports the package under test. Every check takes plain
numbers (or rows of them) and returns a list of violation messages, empty
when the output is correct. The checks recompute what they can from first
principles (M/M/1 latency, the first-order condition of the optimal
split, the Wardrop inequalities, Proposition 1) and test properties the
method must have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

EVENTS = ("arrA", "arrB", "depA", "depB", "blkA", "blkB")


def _close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y), 1.0)


def mm1(c: float, f: float) -> float:
    """M/M/1 sojourn time 1/(c - f), infinite at or beyond capacity."""
    return math.inf if f >= c else 1.0 / (c - f)


def link_cost(c: float, f: float) -> float:
    return 0.0 if f == 0 else f * mm1(c, f)


def threshold(c1: float, c2: float) -> float:
    """Demand at which the marginal cost of network 2 alone, c2/(c2-D)^2,
    reaches the marginal cost of an empty network 1, 1/c1."""
    return c2 - math.sqrt(c1 * c2)


def optimum(c1: float, c2: float, demand: float) -> tuple[float, float]:
    """Split minimising f1/(c1-f1) + f2/(c2-f2), from the first-order
    condition sqrt(c1)*(c2-f2) = sqrt(c2)*(c1-f1) clamped at f1 = 0."""
    r1, r2 = math.sqrt(c1), math.sqrt(c2)
    f1 = (r2 * c1 - r1 * (c2 - demand)) / (r1 + r2)
    f1 = min(max(f1, 0.0), demand)
    return f1, demand - f1


def optimum_cost(c1: float, c2: float, demand: float) -> float:
    f1, f2 = optimum(c1, c2, demand)
    return link_cost(c1, f1) + link_cost(c2, f2)


def wardrop_latency(c1: float, c2: float, demand: float) -> float:
    """Common latency of the untaxed selfish split (network 2 alone while
    it is faster than an empty network 1)."""
    if demand <= c2 - c1:
        return mm1(c2, demand)
    return 2.0 / (c1 + c2 - demand)


# ---------------------------------------------------------------------------
# Closed forms and the equilibrium solver


def check_latencies(c1, c2, f1, f2, latencies, rtol=1e-12) -> list[str]:
    """Reported per-network latencies equal the M/M/1 formula."""
    errs = []
    for p, (c, f, got) in enumerate(((c1, f1, latencies[0]), (c2, f2, latencies[1])), 1):
        want = mm1(c, f)
        if not _close(got, want, rtol):
            errs.append(f"latency of network {p}: got {got!r}, M/M/1 gives {want!r}")
    return errs


def check_optimal_split(c1, c2, demand, f1, f2, cost, rtol=1e-9) -> list[str]:
    """The returned optimum conserves demand, meets the first-order
    condition (equal marginal costs c/(c-f)^2 where network 1 is used,
    network 1 no cheaper at the margin where it is not) and costs what
    optimal_cost reports."""
    errs = []
    if f1 < 0 or f2 < 0:
        errs.append(f"negative optimal flow ({f1!r}, {f2!r})")
        return errs
    if not _close(f1 + f2, demand, rtol):
        errs.append(f"optimal split {f1!r}+{f2!r} does not sum to demand {demand!r}")
    m1 = c1 / (c1 - f1) ** 2
    m2 = c2 / (c2 - f2) ** 2
    if f1 > 1e-9 * max(1.0, demand):
        if not _close(m1, m2, 1e-7):
            errs.append(f"marginal costs differ at the optimum: {m1!r} vs {m2!r}")
    elif m1 < m2 * (1 - 1e-7):
        errs.append(f"network 1 unused although cheaper at the margin ({m1!r} < {m2!r})")
    ref1, _ = optimum(c1, c2, demand)
    if abs(f1 - ref1) > 1e-9 * max(1.0, demand):
        errs.append(f"optimal f1 {f1!r} differs from the first-order root {ref1!r}")
    own = link_cost(c1, f1) + link_cost(c2, f2)
    if not _close(own, cost, rtol):
        errs.append(f"optimal cost {cost!r} differs from the split's cost {own!r}")
    return errs


def check_equilibrium(
    c1, c2, alpha_a, alpha_b, tau1, tau2, d_a, d_b, split, tol=1e-8, support=1e-9
) -> list[str]:
    """Wardrop inequalities of a two-class split (f1_a, f1_b, f2_a, f2_b):
    each class conserves its demand, and every network carrying more than
    ``support`` of a class costs that class no more than the other one."""
    f1_a, f1_b, f2_a, f2_b = split
    errs = []
    if min(split) < 0:
        return [f"negative class flow in {split!r}"]
    for name, used, want in (("A", f1_a + f2_a, d_a), ("B", f1_b + f2_b, d_b)):
        if not _close(used, want, 1e-9):
            errs.append(f"class {name} places {used!r}, demand is {want!r}")
    f1, f2 = f1_a + f1_b, f2_a + f2_b
    l1, l2 = mm1(c1, f1), mm1(c2, f2)
    if math.isinf(l1) or math.isinf(l2):
        return errs + [f"split saturates a network: f = ({f1!r}, {f2!r})"]
    scale = max(1.0, l1, l2)
    for name, alpha, on1, on2 in (("A", alpha_a, f1_a, f2_a), ("B", alpha_b, f1_b, f2_b)):
        cost1 = l1 + alpha * tau1
        cost2 = l2 + alpha * tau2
        if on1 > support and cost1 > cost2 + tol * scale:
            errs.append(f"class {name} on network 1 pays {cost1!r} > {cost2!r}")
        if on2 > support and cost2 > cost1 + tol * scale:
            errs.append(f"class {name} on network 2 pays {cost2!r} > {cost1!r}")
    return errs


def check_proposition1(c1, c2, d_a, d_b, tau1, tau2, f1, f2, tol=1e-6) -> list[str]:
    """Proposition 1: the flat tax on the large network is zero exactly
    when demand is at or below the threshold, and the equilibrium it
    induces places the optimal aggregate flows."""
    demand = d_a + d_b
    errs = []
    if tau1 != 0:
        errs.append(f"optimal tax charges network 1: tau1 = {tau1!r}")
    below = demand <= threshold(c1, c2)
    if (tau2 == 0) != below:
        errs.append(
            f"tau2 = {tau2!r} at demand {demand!r}, threshold {threshold(c1, c2)!r}"
        )
    ref1, ref2 = optimum(c1, c2, demand)
    if abs(f1 - ref1) > tol * max(1.0, demand) or abs(f2 - ref2) > tol * max(1.0, demand):
        errs.append(f"taxed equilibrium ({f1!r}, {f2!r}) is not the optimum ({ref1!r}, {ref2!r})")
    return errs


def check_class_latencies(c1, c2, demand, share_a, lats, rtol=1e-7) -> list[str]:
    """Per-class average latencies under the optimal tax: NaN exactly for
    an empty class, between the two network latencies otherwise, and
    demand-weighted to the optimal total cost; the reference latency is
    that of the untaxed selfish split."""
    lat_a, lat_b, lat_ref = lats
    d_a = share_a * demand
    d_b = demand - d_a
    f1, f2 = optimum(c1, c2, demand)
    lo = mm1(c2, f2) if f1 == 0 else min(mm1(c1, f1), mm1(c2, f2))
    hi = mm1(c2, f2) if f1 == 0 else max(mm1(c1, f1), mm1(c2, f2))
    errs = []
    weighted = 0.0
    for name, d, lat in (("A", d_a, lat_a), ("B", d_b, lat_b)):
        if d <= 0:
            if not math.isnan(lat):
                errs.append(f"empty class {name} has latency {lat!r}")
            continue
        if math.isnan(lat) or lat < lo * (1 - rtol) or lat > hi * (1 + rtol):
            errs.append(f"class {name} latency {lat!r} outside [{lo!r}, {hi!r}]")
            continue
        weighted += d * lat
    if not errs and demand > 0:
        want = optimum_cost(c1, c2, demand)
        if not _close(weighted, want, 1e-6):
            errs.append(f"class latencies weight to cost {weighted!r}, optimum is {want!r}")
    if demand > 0:
        want_ref = wardrop_latency(c1, c2, demand)
        if not _close(lat_ref, want_ref, rtol):
            errs.append(f"no-tax latency {lat_ref!r}, selfish split gives {want_ref!r}")
    elif not math.isnan(lat_ref):
        errs.append(f"no-tax latency {lat_ref!r} at zero demand")
    return errs


# ---------------------------------------------------------------------------
# Simulator traces


class TraceAuditor:
    """Streams the rows of one simulator trace and checks each against the
    row before it.

    Per row: time order, capacity, load = counts x throughput, the cost
    and optimal cost recomputed from the counts, PoA >= 1 and equal to
    their ratio, and the tax active exactly when a policy is set and the
    load exceeds the threshold. An active tax must make a marginal class
    indifferent at the optimal split: tau2 * alpha = l1* - l2* for
    alpha_A or alpha_B, and under the optimal policy for the class that
    Proposition 1 makes marginal (B fills network 2 first).

    Between rows: counts move only as the event says; an admitted arrival
    joined the cheapest network with room under the previous row's counts
    and tax (its network is visible only without handovers); a blocked
    arrival found no room; with handovers, after every arrival or
    departure no occupied (class, network) group gains more than the
    hysteresis by switching under the previous row's tax. ``finish``
    compares the run's average PoA and blocking rate against the
    auditor's own integration over [warmup, horizon].
    """

    MAX_MESSAGES = 20

    def __init__(
        self,
        c1: float,
        c2: float,
        eps: tuple[float, float],
        alphas: tuple[float, float],
        policy: str,
        handovers: bool,
        hysteresis: float,
        warmup: float,
        horizon: float,
        rtol: float = 1e-9,
    ):
        self.c = (c1, c2)
        self.eps = {"A": eps[0], "B": eps[1]}
        self.alpha = {"A": alphas[0], "B": alphas[1]}
        if policy not in ("none", "approx", "optimal"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.handovers = handovers
        self.hysteresis = hysteresis
        self.warmup = warmup
        self.horizon = horizon
        self.rtol = rtol
        self.thr = threshold(c1, c2)
        self.errors: list[str] = []
        self.violations = 0
        self.rows = 0
        self.group_checks = 0
        self.prev_counts = {(1, "A"): 0, (1, "B"): 0, (2, "A"): 0, (2, "B"): 0}
        self.prev_tau2 = 0.0
        self.prev_t = 0.0
        self.prev_poa = 1.0
        self.clock = 0.0
        self.poa_integral = 0.0
        self.arrivals = 0
        self.blocked = 0

    def _fail(self, msg: str) -> None:
        self.violations += 1
        if len(self.errors) < self.MAX_MESSAGES:
            self.errors.append(f"row {self.rows}: {msg}")

    def _load(self, counts, p: int) -> float:
        return counts[(p, "A")] * self.eps["A"] + counts[(p, "B")] * self.eps["B"]

    def _cost(self, counts, tau2: float, cls: str, p: int, extra: float) -> float:
        tau = tau2 if p == 2 else 0.0
        return mm1(self.c[p - 1], self._load(counts, p) + extra) + self.alpha[cls] * tau

    def _advance(self, to: float) -> None:
        lo, hi = max(self.clock, self.warmup), min(to, self.horizon)
        if hi > lo:
            self.poa_integral += self.prev_poa * (hi - lo)
        self.clock = to

    def row(self, t, load, tau2, cost, cost_opt, poa, n1a, n1b, n2a, n2b, event) -> None:
        self.rows += 1
        counts = {(1, "A"): n1a, (1, "B"): n1b, (2, "A"): n2a, (2, "B"): n2b}
        prev = self.prev_counts
        rtol = self.rtol
        if t < self.prev_t or t > self.horizon:
            self._fail(f"time {t!r} after {self.prev_t!r} / horizon {self.horizon!r}")
        if min(counts.values()) < 0:
            self._fail(f"negative count in {counts}")
        f1, f2 = self._load(counts, 1), self._load(counts, 2)
        if f1 >= self.c[0] or f2 >= self.c[1]:
            self._fail(f"over capacity: loads ({f1!r}, {f2!r})")
        total = f1 + f2
        if not _close(load, total, rtol):
            self._fail(f"load {load!r} != counts x throughput {total!r}")
        if total == 0:
            if cost != 0 or poa != 1.0:
                self._fail(f"empty system with cost {cost!r}, PoA {poa!r}")
        else:
            own = link_cost(self.c[0], f1) + link_cost(self.c[1], f2)
            if not _close(cost, own, rtol):
                self._fail(f"cost {cost!r} != cost from counts {own!r}")
            opt = optimum_cost(*self.c, total)
            if not _close(cost_opt, opt, rtol):
                self._fail(f"optimal cost {cost_opt!r} != own optimum {opt!r}")
            if poa < 1 - 1e-9:
                self._fail(f"PoA {poa!r} < 1")
            if not _close(poa, own / opt, rtol):
                self._fail(f"PoA {poa!r} != cost ratio {own / opt!r}")
        if abs(total - self.thr) > 1e-9 * self.thr:
            active = self.policy != "none" and total > self.thr
            if (tau2 > 0) != active:
                self._fail(f"tau2 {tau2!r} at load {total!r}, threshold {self.thr!r}")
            elif active:
                self._check_tax_level(counts, total, tau2)
        if tau2 < 0:
            self._fail(f"negative tax {tau2!r}")
        self._check_transition(prev, counts, event)

        self._advance(t)
        if event in ("arrA", "arrB", "blkA", "blkB") and t >= self.warmup:
            self.arrivals += 1
            self.blocked += event.startswith("blk")
        self.prev_counts = counts
        self.prev_tau2 = tau2
        self.prev_t = t
        self.prev_poa = poa

    def _check_tax_level(self, counts, total, tau2) -> None:
        f1, f2 = optimum(*self.c, total)
        gap = mm1(self.c[0], f1) - mm1(self.c[1], f2)
        d_b = (counts[(1, "B")] + counts[(2, "B")]) * self.eps["B"]
        marginal = {"A", "B"}
        if self.policy == "optimal" and abs(d_b - f2) > 1e-9 * total:
            marginal = {"A"} if d_b < f2 else {"B"}
        if not any(_close(tau2 * self.alpha[m], gap, self.rtol * 10) for m in marginal):
            self._fail(f"tau2 {tau2!r} leaves no marginal class {sorted(marginal)} "
                       f"indifferent (latency gap {gap!r})")

    def _check_transition(self, prev, counts, event) -> None:
        if event not in EVENTS:
            self._fail(f"unknown event {event!r}")
            return
        kind, cls = event[:3], event[3]
        other = "B" if cls == "A" else "A"
        delta = {k: counts[k] - prev[k] for k in counts}
        step = {"arr": 1, "dep": -1, "blk": 0}[kind]
        if delta[(1, cls)] + delta[(2, cls)] != step or delta[(1, other)] + delta[(2, other)]:
            self._fail(f"{event} changes counts by {delta}")
            return
        tau2 = self.prev_tau2
        eps = self.eps[cls]
        room = [p for p in (1, 2) if self._load(prev, p) + eps < self.c[p - 1] * (1 - 1e-12)]
        if kind == "blk":
            if room:
                self._fail(f"{event} although network {room[0]} had room")
            return
        if kind == "arr":
            fits = [p for p in (1, 2) if self._load(prev, p) + eps < self.c[p - 1] * (1 + 1e-12)]
            if not fits:
                self._fail(f"{event} admitted with no room on either network")
                return
            if not self.handovers:
                joined = 1 if delta[(1, cls)] == 1 else 2
                if delta[(joined, cls)] != 1 or joined not in fits:
                    self._fail(f"{event} joined network {joined} without room")
                    return
                mine = self._cost(prev, tau2, cls, joined, eps)
                for q in fits:
                    theirs = self._cost(prev, tau2, cls, q, eps)
                    if mine > theirs + self.rtol * 100 * max(1.0, theirs):
                        self._fail(f"{event} joined network {joined} at {mine!r}, "
                                   f"network {q} costs {theirs!r}")
        elif not self.handovers and min(delta[(1, cls)], delta[(2, cls)]) != -1:
            self._fail(f"{event} removed no session of class {cls}")
        if self.handovers:
            self._check_nash(counts, tau2)

    def _check_nash(self, counts, tau2) -> None:
        for (p, cls), n in counts.items():
            if n == 0:
                continue
            self.group_checks += 1
            q = 3 - p
            if self._load(counts, q) + self.eps[cls] >= self.c[q - 1]:
                continue
            stay = self._cost(counts, tau2, cls, p, 0.0)
            move = self._cost(counts, tau2, cls, q, self.eps[cls])
            if move < stay - self.hysteresis - 1e-9 * max(1.0, stay):
                self._fail(f"class {cls} on network {p} gains {stay - move!r} by switching")

    def finish(self, avg_poa: float, blocking_rate: float) -> list[str]:
        """Close the integration at the horizon and compare the summary."""
        self._advance(self.horizon)
        own_poa = self.poa_integral / (self.horizon - self.warmup)
        if not _close(avg_poa, own_poa, self.rtol * 10):
            self._fail(f"avg_poa {avg_poa!r} != integrated PoA {own_poa!r}")
        own_rate = self.blocked / self.arrivals if self.arrivals else 0.0
        if not _close(blocking_rate, own_rate, self.rtol, 1e-12):
            self._fail(f"blocking_rate {blocking_rate!r} != counted {own_rate!r}")
        if self.violations > len(self.errors):
            self.errors.append(f"{self.violations} violations in all")
        return self.errors
