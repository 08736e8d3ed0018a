"""Determinism contract: fixed seeds give fixed fingerprints.

Each run is small, with re-optimization and rebalancing on, so booking,
motion along returned paths, reopt and repositioning all feed the
fingerprint.  A change that alters a fingerprint on purpose updates the
constant here and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from poolmarket.game import GameConfig, OperatorParams, calibrate, run_game
from poolmarket.network import TravelTimeProfile
from poolmarket.simcore import OperatorConfig, SimulationConfig, run

from conftest import make_grid_network

GOLDEN = {
    "single": "3940a81417a372ad304bf4bda5465b9ad6d4eee90cb412092a9251efba6ad54d",
    "user_decision": "af0584d0943420fbf5a317b6696efa483c8a513ada535f6ee2cc416d0f15143f",
    "broker_decision": "11c8b449792e262838c655040728288ccb1ae2aa4fcda6f28579a2f811bd795b",
    "independent": "eeab18b8d3d89432591fc1e3e8013181489f3b2fa6f8b11638a8061db71c46a8",
}
# runs under a travel-time factor change at 600 s, mid-route for some
# rides, so planned and driven legs are integrated across it
PROFILED = {"user_decision", "independent"}


def golden_config(scenario):
    profile = (TravelTimeProfile((1.0, 1.3), 600.0)
               if scenario in PROFILED else None)
    fleets = [4] if scenario == "single" else [2, 2]
    return SimulationConfig(
        network=make_grid_network(5, 6, zone_split=True, profile=profile),
        scenario=scenario, horizon_s=1800.0, reposition_interval_s=300.0,
        operators=[OperatorConfig(n) for n in fleets],
        demand_rate_per_hour=60.0, master_seed=2024,
        reoptimize_enabled=True, reposition_enabled=True)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_fingerprint_is_pinned(scenario):
    result = run(golden_config(scenario))
    kinds = {e["kind"] for e in result.events}
    assert {"board", "alight", "reopt", "reposition"} <= kinds
    assert result.n_served > 0
    assert result.fingerprint == GOLDEN[scenario]


# sha256 of a game's history, status, turn and final parameters, and of a
# calibration's records; cells repeat across the game's turns, so reusing
# a cell's numbers instead of simulating it again must leave these alone
GAME_GOLDEN = "df9bde998f863fe023894d9b13fab010c80286c057eeea4ac88f3b911ee99ed5"
CALIBRATION_GOLDEN = "044d6b76a6eb88759b9019aa12f5a9620b038886ac45fd6d8e152ae2b21c5d56"


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_game_config():
    base = SimulationConfig(
        network=make_grid_network(4, 5), scenario="user_decision",
        horizon_s=1800.0, operators=[OperatorConfig(1), OperatorConfig(1)],
        demand_rate_per_hour=40.0, master_seed=1, reposition_enabled=False)
    return GameConfig(base=base,
                      initial_params=(OperatorParams(2), OperatorParams(2)),
                      fleet_step=1, fleet_count=3,
                      objective_options=((0.25, 16.2), (0.25, 8.1)),
                      turn_limit=6)


def test_game_outputs_are_pinned():
    state = run_game(golden_game_config())
    assert (state.status, state.turn, state.level) == ("equilibrium", 6, 3)
    assert _sha256({"history": state.history, "status": state.status,
                    "turn": state.turn,
                    "final": repr(state.final_params)}) == GAME_GOLDEN


def test_calibration_records_are_pinned():
    base = SimulationConfig(
        network=make_grid_network(4, 5), scenario="independent",
        horizon_s=1800.0, operators=[OperatorConfig(1), OperatorConfig(1)],
        demand_rate_per_hour=50.0, master_seed=9, reposition_enabled=False)
    out = calibrate(base, [1, 2, 3, 4], 0.6)
    assert _sha256(out["records"]) == CALIBRATION_GOLDEN
