"""Scenario files: INI-style key-value sections describing one experiment.

A scenario carries the network, the two class profiles, the simulation
settings and, optionally, a [sweep] section. Unknown sections or keys are
rejected by name so a typo never silently falls back to a default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .analytics import NetworkPair
from .simulator import ClassProfile, SimConfig, TaxPolicy


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario file."""


@dataclass(frozen=True)
class SweepSpec:
    loads: tuple[float, ...]
    ratio: float
    replications: int

    def __post_init__(self):
        if not self.loads:
            raise ScenarioError("sweep needs at least one load")
        for x in self.loads:
            if not 0 < x < 1:
                raise ScenarioError(f"sweep loads must be in (0, 1), got {x}")
        if self.replications < 1:
            raise ScenarioError(f"replications must be >= 1, got {self.replications}")
        if not 0 < self.ratio < math.inf:
            raise ScenarioError(f"ratio must be finite and > 0, got {self.ratio}")


@dataclass(frozen=True)
class Scenario:
    sim: SimConfig
    sweep: SweepSpec | None


_SCHEMA = {
    "network": {"c1", "c2"},
    "class_a": {"arrival_rate", "mean_duration", "throughput", "alpha"},
    "class_b": {"arrival_rate", "mean_duration", "throughput", "alpha"},
    "sim": {
        "policy",
        "handovers",
        "horizon",
        "warmup",
        "seed",
        "handover_hysteresis",
        "max_handover_rounds",
    },
    "sweep": {"loads", "ratio", "replications"},
}

# Base experiment: two WiFi access points (802.11b / 802.11g), streaming
# audio vs video call traffic. The default arrival-rate ratio in [sweep]
# is the base scenario's own lambda_a / lambda_b = 2/3.
DEFAULT_SCENARIO = """\
# Two-network incentive-tax scenario.
[network]
c1 = 4.0
c2 = 11.0

[class_a]
arrival_rate = 3.0
mean_duration = 4.0
throughput = 0.064
alpha = 2.0

[class_b]
arrival_rate = 4.5
mean_duration = 2.5
throughput = 0.184
alpha = 1.0

[sim]
policy = none
handovers = true
horizon = 200.0
warmup = 40.0
seed = 1

[sweep]
loads = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9
ratio = 0.6666666666666666
replications = 30
"""


def _parse_float(section, key: str, name: str) -> float:
    try:
        return float(section[key])
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"missing or invalid '{key}' in section [{name}]") from exc


def _parse_profile(section, name: str) -> ClassProfile:
    keys = ("arrival_rate", "mean_duration", "throughput", "alpha")
    try:
        return ClassProfile(*(_parse_float(section, key, name) for key in keys))
    except ValueError as exc:
        raise ScenarioError(f"section [{name}]: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc

    for name in parser.sections():
        if name not in _SCHEMA:
            raise ScenarioError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _SCHEMA[name]:
                raise ScenarioError(f"unknown key '{key}' in section [{name}]")
    for name in ("network", "class_a", "class_b", "sim"):
        if name not in parser:
            raise ScenarioError(f"missing section [{name}]")

    try:
        net = NetworkPair(
            c1=_parse_float(parser["network"], "c1", "network"),
            c2=_parse_float(parser["network"], "c2", "network"),
        )
    except ValueError as exc:
        raise ScenarioError(f"section [network]: {exc}") from exc

    class_a = _parse_profile(parser["class_a"], "class_a")
    class_b = _parse_profile(parser["class_b"], "class_b")

    sim_sec = parser["sim"]
    policy_name = sim_sec.get("policy", "none").strip().lower()
    try:
        policy = TaxPolicy(policy_name)
    except ValueError as exc:
        raise ScenarioError(
            f"policy must be one of none/approx/optimal, got '{policy_name}'"
        ) from exc
    try:
        handovers = sim_sec.getboolean("handovers")
    except ValueError as exc:
        raise ScenarioError("'handovers' must be a boolean") from exc
    if handovers is None:
        raise ScenarioError("missing 'handovers' in section [sim]")

    # Only the keys the file sets are passed; SimConfig holds the defaults.
    optional = {}
    rounds_raw = sim_sec.get("max_handover_rounds", "").strip()
    if rounds_raw:
        try:
            optional["max_handover_rounds"] = int(rounds_raw)
        except ValueError as exc:
            raise ScenarioError("'max_handover_rounds' must be an integer") from exc

    try:
        horizon = _parse_float(sim_sec, "horizon", "sim")
        for key in ("warmup", "handover_hysteresis"):
            if key in sim_sec:
                optional[key] = _parse_float(sim_sec, key, "sim")
        if "seed" in sim_sec:
            optional["seed"] = int(sim_sec["seed"])
        sim = SimConfig(
            net=net,
            class_a=class_a,
            class_b=class_b,
            handovers=handovers,
            policy=policy,
            horizon=horizon,
            **optional,
        )
    except ValueError as exc:
        raise ScenarioError(f"section [sim]: {exc}") from exc

    sweep = None
    if "sweep" in parser:
        sec = parser["sweep"]
        try:
            loads = tuple(float(x) for x in sec.get("loads", "").split(",") if x.strip())
        except ValueError as exc:
            raise ScenarioError("'loads' must be comma-separated numbers") from exc
        try:
            replications = int(sec.get("replications", "1"))
        except ValueError as exc:
            raise ScenarioError("'replications' must be an integer") from exc
        sweep = SweepSpec(
            loads=loads,
            ratio=_parse_float(sec, "ratio", "sweep"),
            replications=replications,
        )
    return Scenario(sim=sim, sweep=sweep)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario(fh.read())
