"""Golden trace hashes: seeded traces must stay byte for byte the same.

Each case runs one short trajectory at normalized load about 0.7 on the
base networks (c = (4, 11)), where the tax is active almost all the time
and handovers move sessions after most events. The SHA-256 of the trace
CSV and the count of relaxations that hit the round cap are pinned. A
refactor of the simulator that changes any admission, handover or tax
decision, or any written digit, changes a hash.

The capped cases (``max_handover_rounds`` 1, 2 and 3) pin the path where
relaxation stops at the round cap: the warning counts only relaxations
that end with some session still wanting to switch.

The boundary cases run the default scenario at normalized load 0.9 under
NONE, where networks fill to capacity and ``SystemState.fits``' check of
the stored load decides admissions and handovers (a test below checks
that it still does).
"""

import dataclasses
import hashlib

import pytest

from nettax import simulator
from nettax.analytics import NetworkPair
from nettax.scenario import DEFAULT_SCENARIO, parse_scenario
from nettax.simulator import (
    ClassProfile,
    SimConfig,
    SystemState,
    TaxPolicy,
    replication_config,
    run,
    write_trace_csv,
)

# (policy, handovers, seed, max_handover_rounds) -> (sha256, relaxation_warnings)
GOLDEN = {
    ("none", True, 1, None): ("f9cc615c53a150f73b5945997bd56be7f7bb6d8f7cb7a1291a476bab87bf8ccb", 0),
    ("none", True, 2, None): ("adee55348dd6120a92ffc46829195f2ea67e085fbe9be825246c204d2b85b255", 0),
    ("none", False, 1, None): ("0646ec8b0257f49d1c80b1553fc4df210c37e740584b1e017a02b138db3b6d60", 0),
    ("none", False, 2, None): ("700955a77361e84ffbbf44965446c9cd3b14e496e1372301f03463214ae3a8b3", 0),
    ("approx", True, 1, None): ("279d2d365663300fca4c5ca15059a0ae43b7ee47a26c3a6566d55ee8a7e8d175", 0),
    ("approx", True, 2, None): ("bee6a9b1f385901f5e662cafdd79806a210dd832837ab87dbe6b4004634069d4", 0),
    ("approx", False, 1, None): ("7a6eb71410dee9b05bf92d798b3fb84fcad41ffda06cf44e53d7d13f12f439e2", 0),
    ("approx", False, 2, None): ("69068d965c525e48e6a42db7692af9a29ff15fc2b17856fd6a4f499b87c7841e", 0),
    ("optimal", True, 1, None): ("6c412d67e1e7b83d4d33b7c5ab2842c520647bc7f5137e46e31be38127ade4fd", 0),
    ("optimal", True, 2, None): ("e92b3f74c7d005a405055d04041729397f10789109d03e38fd40e29fb8b4e8f1", 0),
    ("optimal", False, 1, None): ("9f2861dec92f5bcc88275b8cb09418b7cf0c637431aeeded3faef13bf5ddb9e8", 0),
    ("optimal", False, 2, None): ("acfa0c447d48789c3e405d777460b07781433ad6024b57ffb69778e4249a417f", 0),
    ("none", True, 1, 1): ("0ad9bec7a2bc2a833a86a2de62cf9d4cd1bf14d47bab48c8e5d44dd094834dec", 1),
    ("none", True, 2, 1): ("f3edd47c4d6e59a60869ea9c5e473aa2235eea48951e209de6c74a0d6284fb58", 3),
    ("approx", True, 1, 1): ("0fb6a26993fad7269c5b6781b9a9bbd1d9e16c43f7fccff9016f272c09687377", 1),
    ("approx", True, 2, 1): ("bee6a9b1f385901f5e662cafdd79806a210dd832837ab87dbe6b4004634069d4", 0),
    ("optimal", True, 1, 1): ("6c412d67e1e7b83d4d33b7c5ab2842c520647bc7f5137e46e31be38127ade4fd", 0),
    ("optimal", True, 2, 1): ("e92b3f74c7d005a405055d04041729397f10789109d03e38fd40e29fb8b4e8f1", 0),
    ("none", True, 1, 2): ("f9cc615c53a150f73b5945997bd56be7f7bb6d8f7cb7a1291a476bab87bf8ccb", 0),
    ("none", True, 1, 3): ("f9cc615c53a150f73b5945997bd56be7f7bb6d8f7cb7a1291a476bab87bf8ccb", 0),
}

# (handovers, max_handover_rounds) -> (sha256, relaxation_warnings), for
# replication 1 of the default scenario at load 0.9 under NONE.
BOUNDARY_GOLDEN = {
    (True, None): ("9637316484532b930c97a9832c7d6659d53e7767c51f49d823d68cea490a9a3a", 0),
    (False, None): ("b2098cbb8f77265a19d9e92e3e4190f6bfec18e68080d5d40b45074c6c2fafba", 0),
    (True, 1): ("aa61695c9e5c6e8744f30d91cf1aa9ee5a7ed93820427440f7a51edaa4898b6c", 6),
    (True, 2): ("9637316484532b930c97a9832c7d6659d53e7767c51f49d823d68cea490a9a3a", 0),
    (True, 3): ("9637316484532b930c97a9832c7d6659d53e7767c51f49d823d68cea490a9a3a", 0),
}


def golden_config(policy: str, handovers: bool, seed: int, rounds) -> SimConfig:
    return SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
        handovers=handovers,
        policy=TaxPolicy(policy),
        horizon=30.0,
        warmup=6.0,
        seed=seed,
        max_handover_rounds=rounds,
    )


def case_id(case) -> str:
    policy, handovers, seed, rounds = case
    return f"{policy}-{'handovers' if handovers else 'no-handovers'}-seed{seed}-cap{rounds}"


def boundary_config(handovers: bool, rounds) -> SimConfig:
    scn = parse_scenario(DEFAULT_SCENARIO)
    base = dataclasses.replace(scn.sim, max_handover_rounds=rounds)
    return replication_config(base, 0.9, scn.sweep.ratio, TaxPolicy.NONE, handovers, 1)


def pinned(cfg: SimConfig, tmp_path) -> tuple[str, int]:
    trace = run(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), trace.summary.relaxation_warnings


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=case_id)
def test_trace_hash_unchanged(case, tmp_path):
    assert pinned(golden_config(*case), tmp_path) == GOLDEN[case]


@pytest.mark.parametrize(
    "case", sorted(BOUNDARY_GOLDEN, key=repr),
    ids=lambda case: f"{'handovers' if case[0] else 'no-handovers'}-cap{case[1]}",
)
def test_boundary_trace_hash_unchanged(case, tmp_path):
    assert pinned(boundary_config(*case), tmp_path) == BOUNDARY_GOLDEN[case]


@pytest.mark.parametrize("handovers", [True, False])
def test_boundary_cases_reach_the_capacity_clause(handovers, monkeypatch):
    # Count the calls of ``fits`` that the stored-load clause decides: the
    # session's own load still fits, the recomputed network load does not.
    decided = []

    class Counted(SystemState):
        def fits(self, g):
            ok = super().fits(g)
            cfg = self.cfg
            eps = cfg.class_b.throughput if g & 1 else cfg.class_a.throughput
            cap = cfg.net.c2 if g & 2 else cfg.net.c1
            decided.append(not ok and self.loads[g >> 1] + eps < cap)
            return ok

    monkeypatch.setattr(simulator, "SystemState", Counted)
    run(boundary_config(handovers, None))
    assert sum(decided) > 0
