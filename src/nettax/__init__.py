"""Incentive taxes for two-class selfish selection between two parallel
M/M/1 access networks: closed-form analysis, equilibrium solver, and a
discrete-event simulator with dynamic arrivals, blocking and handovers."""

from .analytics import (
    Demand,
    DemandExceedsCapacity,
    FlowAssignment,
    NetworkPair,
    Sensitivities,
    TaxVector,
    delay,
    optimal_assignment,
    optimal_cost,
    optimal_tax,
    total_cost,
    wardrop_no_tax,
)
from .equilibrium import (
    ClassFlowSplit,
    EquilibriumReport,
    NoEquilibriumFound,
    class_latencies,
    taxed_equilibrium,
    verify_proposition1,
)
from .simulator import (
    ClassProfile,
    SimConfig,
    SimTrace,
    TaxPolicy,
    run,
    sweep_load,
)

__all__ = [
    "ClassFlowSplit",
    "ClassProfile",
    "Demand",
    "DemandExceedsCapacity",
    "EquilibriumReport",
    "FlowAssignment",
    "NetworkPair",
    "NoEquilibriumFound",
    "Sensitivities",
    "SimConfig",
    "SimTrace",
    "TaxPolicy",
    "TaxVector",
    "class_latencies",
    "delay",
    "optimal_assignment",
    "optimal_cost",
    "optimal_tax",
    "run",
    "sweep_load",
    "taxed_equilibrium",
    "total_cost",
    "verify_proposition1",
    "wardrop_no_tax",
]
