"""KPI math, the replay audit path, and deterministic emission."""

from __future__ import annotations

import pytest

from poolmarket.demand import RawTrip
from poolmarket.report import (
    COLUMNS,
    HISTORY_COLUMNS,
    compute_kpis,
    compute_rsd,
    emit,
    replay_kpis,
    write_rows,
)
from poolmarket.simcore import OperatorConfig, SimulationConfig, run

from conftest import make_grid_network, make_line_network


def pooled_pair_result():
    # vehicle already parked at the shared origin: zero empty mileage
    net = make_line_network(10)
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=1800.0,
        operators=[OperatorConfig(1, start_nodes=[2])],
        trips=[RawTrip(1, 0.0, 2, 6), RawTrip(2, 0.0, 2, 6)],
        reposition_enabled=False)
    return run(cfg)


def test_rsd_pooled_identical_pair_is_half():
    res = pooled_pair_result()
    assert res.n_served == 2
    st = res.operator_stats[0]
    assert st["served_direct_distance_m"] == 4000.0
    assert st["fleet_distance_m"] == 2000.0
    assert compute_rsd(res, 0) == 0.5
    assert compute_rsd(res) == 0.5


def test_rsd_direct_single_customer_is_zero():
    net = make_line_network(10)
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=1800.0,
        operators=[OperatorConfig(1, start_nodes=[2])],
        trips=[RawTrip(1, 0.0, 2, 6)], reposition_enabled=False)
    res = run(cfg)
    assert compute_rsd(res, 0) == 0.0


def test_rsd_no_service_flagged_zero():
    net = make_line_network(10)
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=600.0,
        operators=[OperatorConfig(1)], trips=[], reposition_enabled=False)
    res = run(cfg)
    assert compute_rsd(res, 0) == 0.0
    report = compute_kpis(res)
    assert any("rsd-degenerate" in f for f in report.flags)
    row, = (r for r in report.rows if r["operator"] == 0)
    assert row["served_frac"] == 0.0
    assert row["profit_eur"] < 0.0  # fixed fleet cost still accrues


def two_op_result(seed=13):
    net = make_grid_network(4, 5)
    return run(SimulationConfig(
        network=net, scenario="user_decision", horizon_s=1800.0,
        operators=[OperatorConfig(2), OperatorConfig(2)],
        demand_rate_per_hour=60.0, master_seed=seed,
        reposition_enabled=False))


def test_aggregate_rsd_built_from_sums():
    res = two_op_result()
    s = sum(st["served_direct_distance_m"] for st in res.operator_stats)
    f = sum(st["fleet_distance_m"] for st in res.operator_stats)
    assert compute_rsd(res) == (s - f) / s


def test_kpi_rows_structure_and_bounds():
    res = two_op_result()
    report = compute_kpis(res)
    assert [r["operator"] for r in report.rows] == [0, 1, "all"]
    for row in report.rows:
        assert tuple(row.keys()) == tuple(c for c in COLUMNS)
        assert 0.0 <= row["served_frac"] <= 1.0
        assert row["rsd"] <= 1.0
        assert row["mean_rel_detour"] <= 0.4 + 1e-9
        assert row["mean_rel_detour"] >= -1e-9
    first, second, total = report.rows
    assert total["served_frac"] == pytest.approx(
        first["served_frac"] + second["served_frac"])
    assert res.n_served == total["served_frac"] * res.n_requests


def test_replay_reproduces_kpis_exactly():
    res = two_op_result(seed=29)
    direct = compute_kpis(res)
    replay = replay_kpis(res.events, res.scenario, res.fleet_sizes,
                         res.horizon_s, res.econ)
    assert replay.rows == direct.rows
    assert replay.flags == direct.flags


def test_replay_counts_expired_in_aggregate_refusals():
    net = make_line_network(10)
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=130.0,
        operators=[OperatorConfig(1, start_nodes=[0])],
        trips=[RawTrip(1, 10.0, 1, 4), RawTrip(2, 125.0, 2, 5)],
        reposition_enabled=False)
    res = run(cfg)
    report = compute_kpis(res)
    replay = replay_kpis(res.events, res.scenario, res.fleet_sizes,
                         res.horizon_s, res.econ)
    assert report.rows[-1]["operator"] == "all"
    assert report.rows[-1]["n_no_offer"] == 1
    assert replay.rows == report.rows


def test_emission_is_byte_stable(tmp_path):
    res = two_op_result()
    report = compute_kpis(res)
    history = [{"turn": 0, "operator": 0, "fleet_size": 2, "obj_index": 0,
                "c_dis_eur_per_km": 0.25, "c_vot_eur_per_h": 16.2,
                "profit_eur": -1.25, "eff_profit_eur": -2.17,
                "n_requests": 30, "service_rate": 0.9, "n_no_offer": 2}]
    prov = {"master_seed": res.master_seed, "fingerprint": res.fingerprint}
    a = tmp_path / "a"
    b = tmp_path / "b"

    def write(out):
        return (emit(report, out, provenance=prov)
                + write_rows(out, "history", HISTORY_COLUMNS, history, prov))
    paths_a, paths_b = write(a), write(b)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()
    hist_lines = (a / "history.csv").read_text().splitlines()
    rows = [l for l in hist_lines if not l.startswith("#")][1:]
    assert len(rows) == len(history)
    kpi_lines = (a / "kpis.csv").read_text().splitlines()
    assert any(l.startswith("# fingerprint=") for l in kpi_lines)
    header = next(l for l in kpi_lines if not l.startswith("#"))
    assert header == ",".join(COLUMNS)
