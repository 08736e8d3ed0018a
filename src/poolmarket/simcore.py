"""Discrete-time market simulation: demand, dispatch, motion, accounting.

The clock advances in fixed steps.  Between two step times vehicles move
along their planned legs (edge by edge, splitting travel-time factor
boundaries exactly); at each step time the engine then runs, in order:
rebalancing of idle vehicles at period boundaries, dispatch of every
request whose time has come, and fleet-wide re-optimization at period
boundaries.  Requests are answered immediately: quoted, booked or
refused at their step.  Plans and motion keep one clock: both take
their travel times from ``TravelTimeProfile.elapsed_for_base``, so a
vehicle reaches each stop at the time its plan set, up to rounding, and
keeps every promise it was booked with.  Offers and re-optimization time
every plan again from the vehicle's state, and a plan that breaks a rule
by then raises ConsistencyError.

Everything that happens is appended to an event list; the fingerprint
over that list is the determinism contract used by the tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, fields, replace

from .assign import reoptimize
from .broker import SCENARIOS, dispatch_request
from .demand import (DemandError, Request, build_forecast, generate_trips,
                     ingest_requests, require_positive, split_demand)
from .economics import EconParams
from .network import Network
from .operators import (
    ConsistencyError,
    Constraints,
    ObjectiveParams,
    Operator,
    default_assignment_reward,
)
from .seeds import derive_seed

_KIND_RANK = {"alight": 0, "board": 1}


class SimulationError(RuntimeError):
    """Configuration rejected before the run started.

    ``keypath`` names the offending setting the way config files spell
    it, for example ``operators[0].fleet_size``.
    """

    def __init__(self, keypath: str, problem: str):
        super().__init__(f"{keypath}: {problem}")
        self.keypath = keypath
        self.problem = problem


@dataclass
class OperatorConfig:
    fleet_size: int
    c_dis_eur_per_km: float = 0.25
    c_vot_eur_per_h: float = 16.2
    assignment_reward_eur: float | None = None
    start_nodes: list[int] | None = None    # pins vehicle starts; else seeded


@dataclass
class SimulationConfig:
    network: Network
    scenario: str = "single"
    horizon_s: float = 3600.0
    step_s: float = 60.0
    reposition_interval_s: float = 900.0
    operators: list = field(default_factory=lambda: [OperatorConfig(5)])
    constraints: Constraints = field(default_factory=Constraints)
    econ: EconParams = field(default_factory=EconParams)
    trips: list | None = None
    demand_rate_per_hour: float | None = None
    subsample_rate: float = 1.0
    master_seed: int = 0
    reoptimize_enabled: bool = True
    reposition_enabled: bool = True


@dataclass
class SimulationResult:
    scenario: str
    horizon_s: float
    step_s: float
    master_seed: int
    fleet_sizes: list
    econ: EconParams
    requests: dict
    outcomes: dict
    events: list
    operator_stats: list
    fingerprint: str

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_served(self) -> int:
        return sum(1 for o in self.outcomes.values() if o["operator"] is not None)


def require_nonnegative(keypath: str, value: float):
    """Costs, weights and tolerances must be >= 0 and finite."""
    if not 0.0 <= value < math.inf:
        raise SimulationError(keypath, f"must be >= 0 and finite, got {value}")


def _validate(config: SimulationConfig):
    """The range and consistency rules of a run; raises SimulationError."""
    if config.scenario not in SCENARIOS:
        raise SimulationError("scenario",
                              f"unknown scenario {config.scenario!r}")
    # an infinite horizon would never end the run's step loop
    positive = [("horizon_s", config.horizon_s), ("step_s", config.step_s),
                ("reposition_interval_s", config.reposition_interval_s)]
    if config.demand_rate_per_hour is not None:
        positive.append(("demand.rate_per_hour", config.demand_rate_per_hour))
    for keypath, value in positive:
        try:
            require_positive(keypath, value)
        except DemandError as exc:
            raise SimulationError(keypath, str(exc).removeprefix(f"{keypath}: ")) from None
    if config.constraints.capacity < 1:
        raise SimulationError("constraints.capacity", "must be >= 1")
    for key in ("max_wait_s", "max_detour_rel", "dwell_s"):
        require_nonnegative(f"constraints.{key}", getattr(config.constraints, key))
    for f in fields(config.econ):
        require_nonnegative(f"econ.{f.name}", getattr(config.econ, f.name))
    if not config.operators:
        raise SimulationError("operators", "at least one operator required")
    if config.scenario == "single" and len(config.operators) != 1:
        raise SimulationError("operators",
                              "single scenario takes exactly one operator")
    if config.scenario != "single" and len(config.operators) < 2:
        raise SimulationError(
            "operators",
            f"{config.scenario} scenario needs at least two operators")
    for i, oc in enumerate(config.operators):
        where = f"operators[{i}]"
        if oc.fleet_size < 1:
            raise SimulationError(f"{where}.fleet_size", "must be >= 1")
        for key in ("c_dis_eur_per_km", "c_vot_eur_per_h", "assignment_reward_eur"):
            if getattr(oc, key) is not None:
                require_nonnegative(f"{where}.{key}", getattr(oc, key))
        if oc.start_nodes is None:
            continue
        if len(oc.start_nodes) != oc.fleet_size:
            raise SimulationError(f"{where}.start_nodes",
                                  f"must list {oc.fleet_size} nodes")
        for j, node in enumerate(oc.start_nodes):
            if node not in config.network.coords:
                raise SimulationError(f"{where}.start_nodes[{j}]",
                                      f"unknown start node {node}")
    if config.trips is None and config.demand_rate_per_hour is None:
        raise SimulationError("demand",
                              "provide trips, trips_file or rate_per_hour")
    if not (0.0 < config.subsample_rate <= 1.0):
        raise SimulationError("subsample_rate", "must be in (0, 1]")


class _Engine:
    def __init__(self, config: SimulationConfig):
        self.config = config
        self.network = config.network
        self.constraints = config.constraints
        self.events: list = []
        self.outcomes: dict = {}
        self.served_by_op: dict = {}
        self.stats: dict = {}

    def log(self, kind, time, **payload):
        rec = {"kind": kind, "time": time}
        rec.update(payload)
        self.events.append(rec)

    # -- build -----------------------------------------------------------

    def build(self):
        cfg = self.config
        seed = cfg.master_seed
        trips = cfg.trips
        if trips is None:
            trips = generate_trips(sorted(self.network.node_ids),
                                   cfg.demand_rate_per_hour, cfg.horizon_s,
                                   derive_seed(seed, "demand-gen"))
        self.trips = trips
        self.requests = ingest_requests(
            trips, self.network, subsample_rate=cfg.subsample_rate,
            seed=derive_seed(seed, "subsample"), horizon_s=cfg.horizon_s)
        self.by_id = {r.request_id: r for r in self.requests}
        self.split = None
        if cfg.scenario == "independent":
            self.split = split_demand(self.requests, len(cfg.operators),
                                      derive_seed(seed, "split"))
        forecast = None
        if cfg.reposition_enabled:
            forecast = build_forecast(trips, self.network,
                                      interval_s=cfg.reposition_interval_s,
                                      penetration=cfg.subsample_rate,
                                      num_operators=len(cfg.operators))
        self.operators = []
        for i, oc in enumerate(cfg.operators):
            objective = ObjectiveParams.from_rates(
                oc.c_dis_eur_per_km, oc.c_vot_eur_per_h, oc.assignment_reward_eur)
            if objective.assignment_reward is None:
                objective = replace(
                    objective, assignment_reward=default_assignment_reward(
                        self.network, objective.dist_weight,
                        objective.time_weight, cfg.horizon_s,
                        cfg.constraints.capacity))
            op = Operator(i, self.network, oc.fleet_size, cfg.constraints,
                          objective, cfg.econ.fare_eur_per_m,
                          start_seed=derive_seed(cfg.master_seed, "veh-start", str(i)),
                          forecast=forecast, event_sink=self.log)
            if oc.start_nodes is not None:
                for veh, node in zip(op.vehicles, oc.start_nodes):
                    veh.node = node
            self.operators.append(op)
            self.served_by_op[i] = []
            self.stats[i] = {
                "operator": i, "fleet_size": oc.fleet_size, "n_served": 0,
                "n_completed": 0, "n_no_offer": 0,
                "served_direct_distance_m": 0.0, "fleet_distance_m": 0.0,
                "sum_planned_wait_s": 0.0, "sum_planned_detour_rel": 0.0,
            }
        self.tie_rng = random.Random(derive_seed(cfg.master_seed, "tie"))

    # -- motion ----------------------------------------------------------

    def _enter_edge(self, veh, nxt):
        length, tt = self.network.edge_data[(veh.node, nxt)]
        veh.edge = (veh.node, nxt)
        veh.node = nxt
        veh.edge_remaining_tt_base = tt
        veh.edge_remaining_m = length

    def _execute_stop(self, op, veh, stop, t, out):
        for rid in sorted(stop.alight):
            veh.onboard.discard(rid)
            op.completed_ids.add(rid)
            out.append({"kind": "alight", "time": t, "operator": op.op_id,
                        "vehicle": veh.vehicle_id, "request": rid,
                        "node": stop.node})
        for rid in sorted(stop.board):
            veh.onboard.add(rid)
            op.pickup_times[rid] = t
            op.scheduled_ids.discard(rid)
            out.append({"kind": "board", "time": t, "operator": op.op_id,
                        "vehicle": veh.vehicle_id, "request": rid,
                        "node": stop.node})
        veh.stops.pop(0)
        veh.leg = None
        if self.constraints.dwell_s > 0 and (stop.board or stop.alight):
            veh.busy_until = t + self.constraints.dwell_s

    def _advance_vehicle(self, op, veh, t_from, t_to, out):
        net = self.network
        cur = t_from
        for _ in range(1000000):
            if cur >= t_to:
                return
            if veh.busy_until > cur:
                cur = min(veh.busy_until, t_to)
                continue
            if veh.edge is not None:
                rm_tt = veh.edge_remaining_tt_base
                finish = cur + net.profile.elapsed_for_base(cur, rm_tt)
                if finish <= t_to:
                    # the stored remainder closes the edge exactly, so an
                    # edge never gains or loses meters to rounding
                    veh.odometer_m += veh.edge_remaining_m
                    veh.edge = None
                    veh.edge_remaining_m = 0.0
                    veh.edge_remaining_tt_base = 0.0
                    cur = finish
                    continue
                covered = net.profile.base_for_elapsed(cur, t_to - cur)
                if covered > rm_tt:
                    covered = rm_tt
                moved = veh.edge_remaining_m * (covered / rm_tt) if rm_tt > 0 else 0.0
                veh.odometer_m += moved
                veh.edge_remaining_m -= moved
                veh.edge_remaining_tt_base = rm_tt - covered
                return
            if veh.stops:
                stop = veh.stops[0]
                if stop.node == veh.node:
                    self._execute_stop(op, veh, stop, cur, out)
                    continue
                if veh.leg is None:
                    veh.leg = list(net.shortest_path(veh.node, stop.node, cur).nodes[1:])
                self._enter_edge(veh, veh.leg.pop(0))
                continue
            if veh.reposition_target is not None:
                if veh.reposition_target == veh.node:
                    veh.reposition_target = None
                    veh.leg = None
                    continue
                if veh.leg is None:
                    veh.leg = list(net.shortest_path(
                        veh.node, veh.reposition_target, cur).nodes[1:])
                self._enter_edge(veh, veh.leg.pop(0))
                continue
            return
        raise ConsistencyError(f"vehicle {veh.vehicle_id} stuck in motion loop")

    def _advance_window(self, t_from, t_to):
        if t_to <= t_from:
            return
        out: list = []
        for op in self.operators:
            for veh in op.vehicles:
                self._advance_vehicle(op, veh, t_from, t_to, out)
        out.sort(key=lambda e: (e["time"], e["operator"], e["vehicle"],
                                _KIND_RANK[e["kind"]], e["request"]))
        self.events.extend(out)

    # -- per-step work ---------------------------------------------------

    def _dispatch(self, request: Request, now: float):
        self.log("request", now, request=request.request_id,
                 t_req=request.t_req_s, origin=request.origin,
                 destination=request.destination,
                 direct_distance_m=request.direct_distance_m,
                 direct_time_s=request.direct_time_s)
        outcome = dispatch_request(request, self.config.scenario,
                                   self.operators, self.split, now,
                                   self.tie_rng, event_sink=self.log)
        outcome["t_req"] = request.t_req_s
        outcome["direct_distance_m"] = request.direct_distance_m
        outcome["direct_time_s"] = request.direct_time_s
        outcome["expired"] = False
        self.outcomes[request.request_id] = outcome
        op_id = outcome["operator"]
        if op_id is not None:
            st = self.stats[op_id]
            st["n_served"] += 1
            st["served_direct_distance_m"] += request.direct_distance_m
            st["sum_planned_wait_s"] += outcome["wait_s"]
            ride = outcome["arrival_s"] - request.t_req_s - outcome["wait_s"]
            st["sum_planned_detour_rel"] += ride / request.direct_time_s - 1.0
            self.served_by_op[op_id].append(request.request_id)

    def run(self) -> SimulationResult:
        cfg = self.config
        self.build()
        interval = cfg.reposition_interval_s
        steps = []
        k = 1
        while k * cfg.step_s <= cfg.horizon_s + 1e-9:
            steps.append(k * cfg.step_s)
            k += 1
        pending = 0
        prev = 0.0
        for t in steps:
            self._advance_window(prev, t)
            boundary = abs(t / interval - round(t / interval)) < 1e-9
            if boundary and cfg.reposition_enabled:
                for op in self.operators:
                    op.reposition(t)
            while pending < len(self.requests) and self.requests[pending].t_req_s <= t:
                self._dispatch(self.requests[pending], t)
                pending += 1
            if boundary and cfg.reoptimize_enabled:
                for op in self.operators:
                    summary = reoptimize(op, t)
                    self.log("reopt", t, operator=op.op_id,
                             fleet_distance_m=op.fleet_distance_m(), **summary)
            prev = t
        if prev < cfg.horizon_s:
            self._advance_window(prev, cfg.horizon_s)
        while pending < len(self.requests):
            r = self.requests[pending]
            self.outcomes[r.request_id] = {
                "request_id": r.request_id, "ops_asked": [], "n_offers": 0,
                "operator": None, "vehicle": None, "wait_s": None,
                "arrival_s": None, "fare_eur": None, "extra_distance_m": None,
                "t_req": r.t_req_s, "direct_distance_m": r.direct_distance_m,
                "direct_time_s": r.direct_time_s, "expired": True,
            }
            self.log("expired", cfg.horizon_s, request=r.request_id,
                     t_req=r.t_req_s)
            pending += 1

        for op in self.operators:
            st = self.stats[op.op_id]
            st["n_no_offer"] = op.n_no_offer
            st["n_completed"] = len(op.completed_ids)
            st["fleet_distance_m"] = op.fleet_distance_m()
            self.log("final", cfg.horizon_s, operator=op.op_id,
                     fleet_distance_m=st["fleet_distance_m"],
                     n_no_offer=st["n_no_offer"],
                     n_served=st["n_served"],
                     served_direct_distance_m=st["served_direct_distance_m"],
                     n_completed=st["n_completed"])
        self._audit()
        fingerprint = hashlib.sha256(json.dumps(
            {"events": self.events,
             "outcomes": [self.outcomes[k] for k in sorted(self.outcomes)]},
            sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        return SimulationResult(
            scenario=cfg.scenario, horizon_s=cfg.horizon_s, step_s=cfg.step_s,
            master_seed=cfg.master_seed,
            fleet_sizes=[oc.fleet_size for oc in cfg.operators],
            econ=cfg.econ,
            requests=self.by_id, outcomes=self.outcomes, events=self.events,
            operator_stats=[self.stats[i] for i in sorted(self.stats)],
            fingerprint=fingerprint)

    def _audit(self):
        if len(self.outcomes) != len(self.requests):
            raise ConsistencyError("request conservation broken: "
                                   f"{len(self.outcomes)} outcomes for "
                                   f"{len(self.requests)} requests")
        for op in self.operators:
            booked = set(self.served_by_op[op.op_id])
            open_ids = set(op.scheduled_ids) | op.onboard_ids() | op.completed_ids
            if booked != open_ids:
                raise ConsistencyError(
                    f"operator {op.op_id} lost track of requests: "
                    f"booked {sorted(booked)} vs held {sorted(open_ids)}")


def run(config: SimulationConfig) -> SimulationResult:
    """Run one simulation to the horizon and return the full record."""
    _validate(config)
    return _Engine(config).run()
