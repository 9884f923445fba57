"""Streamed traces and sample-free sweeps against ``run()``.

``nettax simulate`` hands each sample to a sink that writes its CSV row at
once, and ``sweep_load`` runs the event loop with no sink at all. Both
must give the results of ``run()``, which keeps every sample: the same
trace bytes, the same summary values and an event count equal to the
number of rows. The streamed command must also keep its memory flat as
the horizon grows, while ``run()`` does not.
"""

import dataclasses
import hashlib
import re
import tracemalloc

import pytest

from nettax import cli
from nettax.scenario import parse_scenario
from nettax.simulator import _run_cell_replication, run, write_trace_csv
from test_golden import GOLDEN, case_id, golden_config

# Every policy, handovers on and off, and the round cap of 1.
STREAMED_CASES = [
    ("none", True, 1, 1),
    ("approx", False, 2, None),
    ("approx", True, 1, 1),
    ("optimal", True, 2, None),
    ("optimal", False, 1, None),
]


def scenario_text(cfg) -> str:
    sections = {
        "network": {"c1": cfg.net.c1, "c2": cfg.net.c2},
        "class_a": dataclasses.asdict(cfg.class_a),
        "class_b": dataclasses.asdict(cfg.class_b),
        "sim": {
            "policy": cfg.policy.value,
            "handovers": str(cfg.handovers).lower(),
            "horizon": cfg.horizon,
            "warmup": cfg.warmup,
            "seed": cfg.seed,
            "handover_hysteresis": cfg.handover_hysteresis,
        },
    }
    if cfg.max_handover_rounds is not None:
        sections["sim"]["max_handover_rounds"] = cfg.max_handover_rounds
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    assert parse_scenario(text).sim == cfg
    return text


def simulate_cli(cfg, tmp_path, capsys):
    scn = tmp_path / "scn.ini"
    scn.write_text(scenario_text(cfg))
    out = tmp_path / "streamed.csv"
    assert cli.main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
    return out, capsys.readouterr().out


@pytest.mark.parametrize("case", STREAMED_CASES, ids=case_id)
def test_streamed_csv_equals_written_trace(case, tmp_path, capsys):
    cfg = golden_config(*case)
    streamed, stdout = simulate_cli(cfg, tmp_path, capsys)
    trace = run(cfg)
    kept = tmp_path / "kept.csv"
    write_trace_csv(trace, kept)
    assert streamed.read_bytes() == kept.read_bytes()
    digest, warnings = GOLDEN[case]
    assert hashlib.sha256(streamed.read_bytes()).hexdigest() == digest
    assert trace.summary.relaxation_warnings == warnings

    events = int(re.search(r"\((\d+) events\)", stdout).group(1))
    rows = streamed.read_text().count("\n") - 1
    assert events == trace.summary.events == len(trace.samples) == rows


@pytest.mark.parametrize("case", STREAMED_CASES, ids=case_id)
def test_cell_replication_equals_run(case):
    cfg = golden_config(*case)
    trace = run(cfg)
    assert _run_cell_replication(cfg) == (
        trace.summary.avg_poa,
        trace.blocking.measured_arrivals,
        trace.blocking.measured_blocked,
    )


def test_streamed_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    # 3,049 events at horizon 56 and 12,415 at 224. tracemalloc makes
    # every object creation slow, so the cheapest case is used.
    short = dataclasses.replace(golden_config("none", False, 1, None), horizon=56.0)
    long = dataclasses.replace(short, horizon=224.0)

    def peak(fn, cfg):
        tracemalloc.start()
        try:
            result = fn(cfg)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def streamed(cfg):
        size, (_, stdout) = peak(lambda c: simulate_cli(c, tmp_path, capsys), cfg)
        assert int(re.search(r"\((\d+) events\)", stdout).group(1)) >= 3000
        return size

    def kept(cfg):
        size, trace = peak(run, cfg)
        assert len(trace.samples) >= 3000
        return size

    assert streamed(long) < 1.5 * streamed(short)
    assert kept(long) >= 2 * kept(short)
