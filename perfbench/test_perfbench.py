"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Toy-size passes of every workload print every metric with its unit,
pass their checks and repeat their fingerprints; a tampered event log or
a fingerprint that does not repeat counts as a failed operation; inputs
depend on the seed alone; and without a program to measure the
benchmark fails without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types

import pytest

import child
import run
from layertrace import Tracer
from workloads import WORKLOADS, write_inputs

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(name):
    """The workload at desk size, so that a pass takes about a second."""
    w = WORKLOADS[name]
    small = {"name": f"toy-{name}", "grid": 5, "rate_per_hour": 60.0,
             "horizon_s": 900.0, "fleets": tuple(2 for _ in w.fleets),
             "batch": 2}
    if w.game is not None:
        small["game"] = dict(w.game, turn_limit=3)
    return dataclasses.replace(w, **small)


@pytest.fixture(scope="module")
def pm():
    return child.import_program()


def test_benchmark_file_lists_the_metrics_the_harness_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == [
        m for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        m for m in run.PER_LAYER]
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_pass_checks_out(name, trace):
    result = run.run_workload(toy(name), seed=3, seconds=0.1, trace=trace)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        n: u for n, u, _ in wanted}
    assert result["info"]["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["info"]["repeats_checked"] >= 1
    assert result["attempted"] >= 2


def test_layer_shares_come_from_the_traced_calls():
    result = run.run_workload(toy("game"), seed=3, seconds=0.1, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["game.cells"] >= m["game.distinct_cells"] > 0
    assert m["operators.offer_calls"] == 2 * m["broker.dispatch_calls"]
    assert 0.0 < m["operators.offer_s"] < m["trace.wall_s"]


def test_tampered_event_log_is_a_failed_operation(pm, tmp_path, monkeypatch):
    cfg_path = write_inputs(toy("city"), 5, 0, tmp_path)
    runner = child.Runner(pm, "simulate")
    assert runner.run(runner.build(cfg_path))["sims_failed"] == 0

    played = pm.simcore.run

    def tampered(config):
        result = played(config)
        decision = next(e for e in result.events
                        if e["kind"] == "decision" and e["operator"] is not None)
        decision["wait_s"] += 1.0
        return result
    monkeypatch.setattr(pm.simcore, "run", tampered)
    rec = dict(runner.run(runner.build(cfg_path)), config=str(cfg_path))
    assert rec["sims_failed"] == 1
    assert rec["problems"] == ["replayed KPI rows differ from the emitted rows"]
    summary = run.summarize(toy("city"), [{"setup_s": 0.1, "peak_rss_mb": 1.0,
                                           "records": [rec]}], [], trace=False)
    assert summary["failed"] == 1 and not summary["correct"]


def test_reopt_that_raises_cost_is_flagged(pm, tmp_path):
    w = dataclasses.replace(toy("scarce"), reposition_interval_s=300.0)
    cfg = child.Runner(pm, "simulate").build(write_inputs(w, 5, 0, tmp_path))
    result = pm.simcore.run(cfg)
    assert child.check_simulation(pm, result) == []
    reopt = next(e for e in result.events if e["kind"] == "reopt")
    reopt["optimized_cost"] = reopt["incumbent_cost"] + 1.0
    assert len(child.check_simulation(pm, result)) == 1


def test_fingerprint_that_does_not_repeat_is_a_failure():
    rec = {"config": "in0/x.yaml", "wall_s": 1.0, "sims": 1, "sims_failed": 0,
           "requests": 10, "served_frac": 1.0, "problems": []}
    procs = [{"setup_s": 0.1, "peak_rss_mb": 1.0,
              "records": [dict(rec, fingerprint=fp)]} for fp in ("a", "b")]
    summary = run.summarize(toy("city"), procs, [], trace=False)
    assert summary["failed"] == 1 and not summary["correct"]


def test_a_new_process_is_expected_to_take_its_set_up_and_one_input_set():
    assert run.expected_s([], trace=False) == 0.0
    procs = [{"setup_s": s, "peak_rss_mb": 1.0,
              "records": [{"config": "c", "set_s": t} for t in sets]}
             for s, sets in ((0.3, (1.0, 2.0)), (0.5, (4.0,)))]
    assert run.expected_s(procs, trace=False) == pytest.approx(0.4 + 2.0)
    assert run.expected_s(procs, trace=True) == pytest.approx(3 * 2.4)


def test_inputs_depend_on_the_seed_alone(tmp_path):
    w = WORKLOADS["pool"]
    a = write_inputs(w, 11, 0, tmp_path / "a").parent
    b = write_inputs(w, 11, 0, tmp_path / "b").parent
    c = write_inputs(w, 12, 0, tmp_path / "c").parent
    for f in ("pool.yaml", "pool_trips.csv"):
        assert (a / f).read_bytes() == (b / f).read_bytes()
    assert (a / "pool_trips.csv").read_bytes() != (c / "pool_trips.csv").read_bytes()
    rows = [line.split(",") for line in (a / "pool_trips.csv").read_text().split()[1:]]
    times = [int(t) for _, t, _, _ in rows]
    assert times == sorted(times) and all(o != d for _, _, o, d in rows)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1000)) == (99.0, 989)
    assert run.tail(range(100)) == (90.0, 89)
    assert run.tail(range(50))[0] == 50.0


def test_missing_targets_read_zero_and_patches_come_off(pm):
    tracer = Tracer()
    tracer._patch(types.SimpleNamespace(), "linprog", lambda f: f)
    assert tracer._undo == [] and tracer.leaves["lp"] == [0, 0.0, 0]
    original = pm.assign.linprog
    tracer.install(pm)
    assert pm.assign.linprog is not original
    tracer.uninstall()
    assert pm.assign.linprog is original


def test_without_a_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
