"""Benchmark workloads, written out as the files a user would write.

Each workload is a YAML config plus a trips CSV, both generated from the
benchmark seed alone; the program under test receives only these files.
Trips are Poisson arrivals with uniform distinct origin/destination
nodes and whole-second request times, drawn by this module's own
generator so that a change to the program cannot change its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "simulate" or "game"
    grid: int                   # grid side; nodes are grid * grid
    scenario: str
    fleets: tuple               # vehicles per operator
    rate_per_hour: float
    horizon_s: float
    constraints: dict = field(default_factory=dict)
    reposition_interval_s: float | None = None
    profile: dict | None = None    # network.profile: factors, interval_s
    game: dict | None = None
    batch: int = 1              # input sets per process


# Why each workload exists is recorded in BENCHMARK.json; in short:
# city is bound by insertion offers, pool by bundle enumeration, scarce
# gives the ILP its largest share, and game is the only workload that
# reruns whole simulations, some of them repeats.  Sizes keep one timed
# call short, so that a 30 s run takes a median over many input sets;
# perfbench/BASELINE.md says how they were chosen.
WORKLOADS = {
    "city": Workload(
        "city", "simulate", grid=20, scenario="user_decision",
        fleets=(40, 40), rate_per_hour=1500.0, horizon_s=1800.0,
        profile={"factors": [1.0, 1.3, 1.0, 1.2], "interval_s": 450.0}),
    "pool": Workload(
        "pool", "simulate", grid=10, scenario="single", fleets=(8,),
        rate_per_hour=500.0, horizon_s=960.0,
        constraints={"capacity": 4, "max_wait_s": 480.0,
                     "max_detour_rel": 0.5},
        reposition_interval_s=120.0, batch=8),
    "scarce": Workload(
        "scarce", "simulate", grid=10, scenario="single", fleets=(20,),
        rate_per_hour=1200.0, horizon_s=360.0,
        constraints={"capacity": 2, "max_wait_s": 240.0,
                     "max_detour_rel": 0.5},
        reposition_interval_s=60.0, batch=16),
    "game": Workload(
        "game", "game", grid=8, scenario="user_decision", fleets=(6, 6),
        rate_per_hour=200.0, horizon_s=1200.0,
        game={"fleet_step": 2, "fleet_count": 3,
              "objective_options": [[0.25, 16.2], [0.25, 8.1]],
              "turn_limit": 4, "jobs": 1}, batch=4),
}

SPACING_M = 400.0
SPEED_MPS = 10.0


def grid_network(side: int, profile=None) -> dict:
    """The `network:` mapping of a side x side grid with quadrant zones.

    Same layout as the test suite's grid builder: 400 m bidirectional
    edges at 10 m/s, zones split at the middle row and column.
    """
    nodes = {}
    zones = {}
    edges = []
    tt = SPACING_M / SPEED_MPS
    for r in range(side):
        for c in range(side):
            nid = r * side + c
            nodes[nid] = [c * SPACING_M, r * SPACING_M]
            zones[nid] = (0 if c < side // 2 else 1) + (0 if r < side // 2 else 2)
            if c + 1 < side:
                edges += [[nid, nid + 1, SPACING_M, tt], [nid + 1, nid, SPACING_M, tt]]
            if r + 1 < side:
                edges += [[nid, nid + side, SPACING_M, tt],
                          [nid + side, nid, SPACING_M, tt]]
    spec = {"nodes": nodes, "edges": edges, "zones": zones}
    if profile is not None:
        spec["profile"] = dict(profile)
    return spec


def poisson_trips(n_nodes: int, rate_per_hour: float, horizon_s: float,
                  rng: random.Random) -> list:
    """Rows (id, t_s, origin, destination) of a Poisson request stream."""
    rows = []
    t = 0.0
    rate_per_s = rate_per_hour / 3600.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= horizon_s:
            return rows
        o = rng.randrange(n_nodes)
        d = rng.randrange(n_nodes - 1)
        if d >= o:
            d += 1
        rows.append((len(rows), int(t), o, d))


def write_inputs(w: Workload, seed: int, k: int, out_dir: Path) -> Path:
    """Write input set k of the benchmark seed into out_dir; return the config.

    The files are `<name>.yaml` and `<name>_trips.csv`.  The trips and the
    config's `master_seed` are drawn from one generator seeded by the
    benchmark seed and k, so input sets of one seed share no randomness.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{seed}/{k}")
    trips = poisson_trips(w.grid * w.grid, w.rate_per_hour, w.horizon_s, rng)
    trips_path = out_dir / f"{w.name}_trips.csv"
    lines = ["id,request_time_s,origin_node,destination_node"]
    lines += [f"{i},{t},{o},{d}" for i, t, o, d in trips]
    trips_path.write_text("\n".join(lines) + "\n")
    doc = {
        "network": grid_network(w.grid, w.profile),
        "scenario": w.scenario,
        "horizon_s": w.horizon_s,
        "master_seed": rng.randrange(2**31),
        "operators": [{"fleet_size": n} for n in w.fleets],
        "demand": {"trips_file": trips_path.name},
    }
    if w.constraints:
        doc["constraints"] = dict(w.constraints)
    if w.reposition_interval_s is not None:
        doc["reposition_interval_s"] = w.reposition_interval_s
    if w.game is not None:
        doc["game"] = dict(w.game)
    cfg_path = out_dir / f"{w.name}.yaml"
    cfg_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return cfg_path
