"""Engine behavior: motion, step ordering, bookkeeping, determinism."""

from __future__ import annotations

import pytest

from poolmarket.demand import RawTrip
from poolmarket.network import TravelTimeProfile
from poolmarket.simcore import (
    OperatorConfig,
    SimulationConfig,
    SimulationError,
    run,
)

from conftest import make_grid_network, make_line_network


def line_cfg(**kw):
    net = kw.pop("net", None) or make_line_network(10)
    base = dict(network=net, scenario="single", horizon_s=1800.0,
                operators=[OperatorConfig(1, start_nodes=[0])],
                reposition_enabled=False)
    base.update(kw)
    return SimulationConfig(**base)


def events_of(result, kind):
    return [e for e in result.events if e["kind"] == kind]


def test_single_request_served_end_to_end():
    cfg = line_cfg(trips=[RawTrip(1, 0.0, 3, 6)])
    res = run(cfg)
    out = res.outcomes[1]
    assert out["operator"] == 0 and not out["expired"]
    # dispatched at the 60 s step: reach origin at 210, ride 150 s
    board = events_of(res, "board")
    alight = events_of(res, "alight")
    assert len(board) == 1 and len(alight) == 1
    assert board[0]["time"] == pytest.approx(210.0, abs=1e-6)
    assert alight[0]["time"] == pytest.approx(360.0, abs=1e-6)
    assert board[0]["node"] == 3 and alight[0]["node"] == 6
    st = res.operator_stats[0]
    assert st["n_served"] == 1 and st["n_completed"] == 1
    assert st["served_direct_distance_m"] == 1500.0
    assert st["fleet_distance_m"] == 3000.0
    assert res.outcomes[1]["wait_s"] == pytest.approx(210.0)


@pytest.mark.parametrize("profile", [
    None,
    # rides cross the boundaries; booked pickups and rides must still hold
    TravelTimeProfile((1.0, 1.3, 0.9, 1.2), interval_s=150.0),
], ids=["constant", "stepped"])
def test_realized_times_respect_promises(profile):
    net = make_grid_network(4, 5, profile=profile)
    cfg = SimulationConfig(
        network=net, scenario="user_decision", horizon_s=1800.0,
        operators=[OperatorConfig(2), OperatorConfig(2)],
        demand_rate_per_hour=40.0, master_seed=11, reposition_enabled=False)
    res = run(cfg)
    assert res.n_served >= 3
    boards = {e["request"]: e for e in events_of(res, "board")}
    for e in events_of(res, "alight"):
        rid = e["request"]
        out = res.outcomes[rid]
        direct = out["direct_time_s"]
        picked = boards[rid]["time"]
        assert picked - out["t_req"] <= 360.0 + 1e-6
        assert e["time"] - picked <= 1.4 * direct + 1e-6


def test_independent_split_asks_one_operator():
    net = make_grid_network(4, 5)
    cfg = SimulationConfig(
        network=net, scenario="independent", horizon_s=1200.0,
        operators=[OperatorConfig(2), OperatorConfig(2)],
        demand_rate_per_hour=30.0, master_seed=3, reposition_enabled=False)
    res = run(cfg)
    seen = set()
    for out in res.outcomes.values():
        if out["expired"]:
            continue
        assert len(out["ops_asked"]) == 1
        seen.add(out["ops_asked"][0])
        if out["operator"] is not None:
            assert out["operator"] == out["ops_asked"][0]
    assert seen == {0, 1}


def test_identical_runs_identical_fingerprints():
    def go():
        return run(SimulationConfig(
            network=make_grid_network(4, 5), scenario="user_decision",
            horizon_s=1800.0, operators=[OperatorConfig(2), OperatorConfig(2)],
            demand_rate_per_hour=50.0, master_seed=21,
            reposition_enabled=False))
    a, b = go(), go()
    assert a.fingerprint == b.fingerprint
    assert a.events == b.events
    assert a.outcomes == b.outcomes


def test_reoptimization_never_worse_inside_run():
    net = make_grid_network(4, 5)
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=2700.0,
        operators=[OperatorConfig(3)], demand_rate_per_hour=60.0,
        master_seed=7, reposition_enabled=False)
    res = run(cfg)
    reopts = events_of(res, "reopt")
    assert reopts, "no re-optimization happened"
    for e in reopts:
        assert e["optimized_cost"] <= e["incumbent_cost"]


def test_boundary_runs_rebalance_before_requests_before_reopt():
    zones = {i: (0 if i < 5 else 1) for i in range(10)}
    net = make_line_network(10, zones=zones)
    # outflow from zone 1 creates a forecast shortfall there
    trips = [RawTrip(100 + k, 900.0 + 30.0 * k, 7, 2) for k in range(6)]
    trips.append(RawTrip(1, 900.0, 6, 8))
    cfg = SimulationConfig(
        network=net, scenario="single", horizon_s=1800.0,
        operators=[OperatorConfig(2, start_nodes=[0, 1])],
        trips=trips, reposition_enabled=True)
    res = run(cfg)
    at_boundary = [e for e in res.events if e["time"] == 900.0
                   and e["kind"] in ("reposition", "request", "reopt")]
    kinds = [e["kind"] for e in at_boundary]
    assert "reposition" in kinds
    assert kinds.index("reposition") < kinds.index("request")
    assert kinds.index("request") < kinds.index("reopt")
    moved = events_of(res, "reposition")
    assert all(m["to_zone"] == 1 for m in moved)


def test_late_requests_expire_unprocessed():
    cfg = line_cfg(horizon_s=130.0, trips=[RawTrip(1, 125.0, 2, 5)])
    res = run(cfg)
    out = res.outcomes[1]
    assert out["expired"] and out["operator"] is None
    assert events_of(res, "expired")
    assert res.operator_stats[0]["n_no_offer"] == 0


def test_ride_across_slowdown_alights_as_booked():
    profile = TravelTimeProfile((1.0, 2.0), interval_s=900.0)
    net = make_line_network(10, profile=profile)
    # picked up before the change, dropped off after it
    cfg = line_cfg(net=net, horizon_s=2700.0,
                   trips=[RawTrip(1, 780.0, 1, 5)])
    res = run(cfg)
    out = res.outcomes[1]
    assert out["operator"] == 0
    alight = events_of(res, "alight")[0]
    # booked at 780 s: 50 s to the origin, then 70 s of base travel before
    # 900 s and the remaining 130 s at factor 2
    assert alight["time"] == out["arrival_s"] == 1160.0
    assert res.operator_stats[0]["n_completed"] == 1


def test_config_validation():
    net = make_line_network(5)
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="auction",
                             trips=[], operators=[OperatorConfig(1)]))
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="single", trips=[],
                             operators=[OperatorConfig(1), OperatorConfig(1)]))
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="user_decision", trips=[],
                             operators=[OperatorConfig(1)]))
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="single",
                             operators=[OperatorConfig(0)], trips=[]))
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="single",
                             operators=[OperatorConfig(1)]))
    with pytest.raises(SimulationError):
        run(SimulationConfig(network=net, scenario="single", trips=[],
                             operators=[OperatorConfig(2, start_nodes=[1])]))


def test_disabled_phases_leave_no_trace():
    cfg = line_cfg(trips=[RawTrip(1, 0.0, 2, 6)], reoptimize_enabled=False,
                   reposition_enabled=False)
    res = run(cfg)
    assert events_of(res, "reopt") == []
    assert events_of(res, "reposition") == []
    assert res.outcomes[1]["operator"] == 0
