"""Determinism contract: fixed seeds give fixed fingerprints.

Each run is small, with re-optimization and rebalancing on, so booking,
motion along returned paths, reopt and repositioning all feed the
fingerprint.  A change that alters a fingerprint on purpose updates the
constant here and says why.
"""

from __future__ import annotations

import pytest

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
