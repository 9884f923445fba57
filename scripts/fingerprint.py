#!/usr/bin/env python3
"""Fingerprint the simulator and the equilibrium solver, cell by cell.

Prints one SHA-256 per cell of a fixed, seeded set of runs, so that the
outputs of two checkouts can be compared with ``diff`` and a difference
names the cells that moved.

- ``sim`` cells: ``run()`` of the default scenario at normalized loads
  0.3/0.5/0.7/0.8/0.9, for each policy with handovers on and off, 6
  replications each (180 runs, horizon 200). One hash per (policy,
  handovers, load) over ``repr((samples, blocking, summary))`` of its
  replications.
- ``solver`` cells: seeded ``taxed_equilibrium`` instances in bands of
  ``1 - D/C`` down to 1e-12, with the optimal tax or an arbitrary tax
  pair (either order, differences up to 1e8). One hash per (band, tax
  kind) over the ``repr`` of each report.
- ``latencies`` cells: ``class_latencies`` of each band's optimal-tax
  games, hashed the same way, one cell per band.

``--small`` runs a reduced set (1 replication, horizon 20, fewer solves)
for a quick smoke test; its hashes are not comparable to the full set's.

Usage: PYTHONPATH=src python3 scripts/fingerprint.py [--small]
"""

import argparse
import dataclasses
import hashlib
import random

from nettax.analytics import Demand, NetworkPair, Sensitivities, TaxVector, optimal_tax
from nettax.equilibrium import class_latencies, taxed_equilibrium
from nettax.scenario import DEFAULT_SCENARIO, parse_scenario
from nettax.simulator import TaxPolicy, replication_config, run

LOADS = (0.3, 0.5, 0.7, 0.8, 0.9)
# Bands (lo, hi] of the relative headroom 1 - D/C.
BANDS = ((1e-1, 1.0), (1e-3, 1e-1), (1e-6, 1e-3), (1e-9, 1e-6), (1e-12, 1e-9))
TAX_KINDS = ("optimal", "arbitrary")


def sim_cells(replications: int, horizon: float):
    scn = parse_scenario(DEFAULT_SCENARIO)
    warmup = scn.sim.warmup * horizon / scn.sim.horizon
    base = dataclasses.replace(scn.sim, horizon=horizon, warmup=warmup)
    for policy in TaxPolicy:
        for handovers in (True, False):
            for load in LOADS:
                digest = hashlib.sha256()
                for i in range(replications):
                    cfg = replication_config(base, load, scn.sweep.ratio, policy, handovers, i)
                    trace = run(cfg)
                    digest.update(repr((trace.samples, trace.blocking, trace.summary)).encode())
                label = "handovers" if handovers else "no-handovers"
                yield f"sim {policy.value} {label} load={load}", digest.hexdigest()


def solver_instance(rng: random.Random, band: tuple[float, float], kind: str):
    c1 = rng.uniform(0.1, 50.0)
    net = NetworkPair(c1, c1 + rng.uniform(0.01, 100.0))
    lo, hi = band
    headroom = lo * (hi / lo) ** rng.random()
    demand = (1.0 - headroom) * net.total
    d_b = demand * rng.choice((0.0, 1.0, rng.random()))
    dem = Demand(max(demand - d_b, 0.0), d_b)
    alpha_b = rng.uniform(0.01, 10.0)
    sens = Sensitivities(alpha_b * rng.uniform(1.001, 10.0), alpha_b)
    if kind == "optimal":
        return net, dem, sens, optimal_tax(net, dem, sens)
    tau1 = rng.choice((0.0, rng.uniform(0.0, 10.0)))
    taxes = TaxVector(tau1, tau1 + 10.0 ** rng.uniform(-13.0, 8.0))
    if rng.random() < 0.5:
        taxes = TaxVector(taxes.tau2, taxes.tau1)
    return net, dem, sens, taxes


def hashed(name: str, solve, games) -> tuple[str, str]:
    """One cell: a hash over the ``repr`` of ``solve(*args)`` for each
    args in ``games``."""
    digest = hashlib.sha256()
    for args in games:
        digest.update(repr(solve(*args)).encode() + b"\n")
    return name, digest.hexdigest()


def solver_cells(solves: int):
    for band in BANDS:
        for kind in TAX_KINDS:
            rng = random.Random(f"fingerprint/{band}/{kind}")
            games = (solver_instance(rng, band, kind) for _ in range(solves))
            yield hashed(f"solver gap=({band[0]:g},{band[1]:g}] {kind}", taxed_equilibrium, games)


def latency_args(rng: random.Random, band: tuple[float, float]):
    """``class_latencies``' arguments for one optimal-tax solver game."""
    net, dem, sens, _ = solver_instance(rng, band, "optimal")
    return net, dem.total(), dem.d_a / dem.total(), sens


def latency_cells(solves: int):
    for band in BANDS:
        rng = random.Random(f"fingerprint/{band}/latencies")
        games = (latency_args(rng, band) for _ in range(solves))
        yield hashed(f"latencies gap=({band[0]:g},{band[1]:g}]", class_latencies, games)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--small", action="store_true", help="reduced set for a smoke test")
    args = p.parse_args()
    if args.small:
        cells = [sim_cells(1, 20.0), solver_cells(200), latency_cells(200)]
    else:
        cells = [sim_cells(6, 200.0), solver_cells(10_000), latency_cells(10_000)]
    for group in cells:
        for name, digest in group:
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
