"""Operator model: fleet state, schedules, offers, booking, rebalancing.

A schedule is an ordered stop list for one vehicle; each stop boards
and/or alights customers.  Feasibility means: alight after board,
concurrent occupancy within capacity, every pickup within the maximum
wait after its request time, and every customer's in-vehicle time within
(1 + max_detour_rel) times the direct travel time.

The objective of a schedule is
    cost = dist_weight * driven_m + time_weight * sum_i(arrival_i - t_req_i)
           - assignment_reward * bundle_size
with a reward large enough that serving an extra customer always
dominates any distance or delay term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .demand import Request
from .network import Network


class BookingError(RuntimeError):
    """Offer no longer matches operator state (stale) or is unknown."""


class ConsistencyError(RuntimeError):
    """Internal invariant broken; aborting is safer than continuing."""


@dataclass(frozen=True)
class Constraints:
    capacity: int = 4
    max_wait_s: float = 360.0
    max_detour_rel: float = 0.4
    dwell_s: float = 0.0


@dataclass(frozen=True)
class ObjectiveParams:
    """Weights in EUR per meter / EUR per second, reward in EUR per customer."""
    dist_weight: float
    time_weight: float
    assignment_reward: float

    @classmethod
    def from_rates(cls, c_dis_eur_per_km: float, c_vot_eur_per_h: float,
                   assignment_reward_eur: float) -> "ObjectiveParams":
        return cls(c_dis_eur_per_km / 1000.0, c_vot_eur_per_h / 3600.0,
                   assignment_reward_eur)


def default_assignment_reward(network: Network, objective_dist_weight: float,
                              objective_time_weight: float, horizon_s: float,
                              capacity: int) -> float:
    """Reward scale that makes serving strictly dominate driving and delay.

    Ten times the largest cost any single customer can contribute:
    distance bounded by the network diameter times capacity, delay by the
    horizon times capacity.  Floored at 1 EUR so the degenerate all-zero
    objective still prefers serving.
    """
    d_max = network.diameter_distance_m() * capacity
    t_max = horizon_s * capacity
    return max(10.0 * (objective_dist_weight * d_max + objective_time_weight * t_max), 1.0)


@dataclass(frozen=True)
class StopSpec:
    """Untimed stop: node plus request ids boarding/alighting there."""
    node: int
    board: tuple[int, ...] = ()
    alight: tuple[int, ...] = ()


@dataclass(frozen=True)
class Stop:
    node: int
    board: tuple[int, ...]
    alight: tuple[int, ...]
    arrival_s: float


@dataclass
class Schedule:
    """Timed stop list for one vehicle with per-request planned times."""
    vehicle_id: int
    stops: list[Stop]
    bundle: frozenset[int]
    distance_m: float
    arrival_by_request: dict[int, float]
    pickup_by_request: dict[int, float]


@dataclass(frozen=True)
class Violation:
    kind: str  # precedence | capacity | wait | detour
    request_id: int | None
    stop_index: int
    detail: str


@dataclass
class Vehicle:
    """Fleet vehicle; either at a node or partway along one edge."""
    vehicle_id: int
    node: int                       # node the vehicle is at, or will next reach
    edge: tuple[int, int] | None = None
    edge_remaining_tt_base: float = 0.0
    edge_remaining_m: float = 0.0
    stops: list[Stop] = field(default_factory=list)
    onboard: set[int] = field(default_factory=set)
    reposition_target: int | None = None
    leg: list[int] | None = None    # nodes still to traverse toward next stop
    odometer_m: float = 0.0
    busy_until: float = 0.0         # dwell hold

    def is_idle(self) -> bool:
        return not self.stops

    def bundle(self) -> frozenset[int]:
        ids = set(self.onboard)
        for s in self.stops:
            ids.update(s.board)
            ids.update(s.alight)
        return frozenset(ids)


def resume_point(vehicle: Vehicle, network: Network, now: float) -> tuple[int, float]:
    """Node and absolute time from which new legs can start.

    A vehicle partway along an edge first finishes that edge (no mid-edge
    turns), so planning resumes at the edge head.
    """
    t = max(now, vehicle.busy_until)
    if vehicle.edge is not None:
        t = t + network.profile.elapsed_for_base(t, vehicle.edge_remaining_tt_base)
    return vehicle.node, t


# -- schedule timing and feasibility ------------------------------------


def plan_stop_sequence(network: Network, vehicle: Vehicle, specs, now: float,
                       requests, pickup_times, constraints: Constraints,
                       enforce: bool = True):
    """Time a stop sequence from the vehicle's resume point.

    This is the one place where the service rules are checked.  Returns
    (schedule, None) when feasible, else (None, first_violation).  With
    enforce=False the schedule is always returned (used when re-timing
    after a travel-time change; promises are checked at booking time
    only).

    :param specs: stops with node, board and alight, such as StopSpec or
        a vehicle's own Stop list; arrival times are ignored
    :param requests: mapping request id -> Request
    :param pickup_times: actual pickup times for customers already onboard
    """
    node, t = resume_point(vehicle, network, now)
    onboard = set(vehicle.onboard)
    count = len(onboard)
    dist = 0.0
    stops: list[Stop] = []
    arrival_by: dict[int, float] = {}
    pickup_by: dict[int, float] = {}
    bundle = set(onboard)
    violation = None

    def violated(kind, rid, idx, detail):
        nonlocal violation
        if violation is None:
            violation = Violation(kind, rid, idx, detail)

    for idx, spec in enumerate(specs):
        if spec.node != node:
            leg_tt = network.travel_time(node, spec.node, t)
            dist += network.distance(node, spec.node)
            t = t + leg_tt
            node = spec.node
        for rid in spec.alight:
            if rid not in onboard:
                violated("precedence", rid, idx, "alight before board")
                if enforce:
                    return None, violation
            else:
                onboard.discard(rid)
                count -= 1
            arrival_by[rid] = t
            req = requests[rid]
            picked = pickup_times.get(rid, pickup_by.get(rid))
            if picked is None:
                violated("precedence", rid, idx, "no pickup time")
                if enforce:
                    return None, violation
            else:
                limit = (1.0 + constraints.max_detour_rel) * req.direct_time_s
                if t - picked > limit:
                    violated("detour", rid, idx,
                             f"in-vehicle {t - picked:.1f}s > {limit:.1f}s")
                    if enforce:
                        return None, violation
        for rid in spec.board:
            if rid in onboard:
                violated("precedence", rid, idx, "boarded twice")
                if enforce:
                    return None, violation
            req = requests[rid]
            if t > req.t_req_s + constraints.max_wait_s:
                violated("wait", rid, idx,
                         f"pickup {t:.1f}s > {req.t_req_s + constraints.max_wait_s:.1f}s")
                if enforce:
                    return None, violation
            onboard.add(rid)
            bundle.add(rid)
            count += 1
            pickup_by[rid] = t
            if count > constraints.capacity:
                violated("capacity", rid, idx, f"{count} onboard > {constraints.capacity}")
                if enforce:
                    return None, violation
        stops.append(Stop(spec.node, tuple(spec.board), tuple(spec.alight), t))
        if spec.board or spec.alight:
            t += constraints.dwell_s
    if onboard and enforce:
        rid = min(onboard)
        return None, Violation("precedence", rid, len(specs), "customer never alights")
    schedule = Schedule(vehicle.vehicle_id, stops, frozenset(bundle), dist,
                        arrival_by, pickup_by)
    return schedule, violation


def confirm_schedule(network: Network, vehicle: Vehicle, schedule: Schedule,
                     now: float, requests, pickup_times, constraints: Constraints,
                     chooser: str):
    """Raise ConsistencyError unless re-timing reproduces the schedule.

    The stops are planned again from the vehicle's current state.  The
    schedule stands only if that plan is feasible and has the same
    nodes, riders and arrival times.
    """
    again, bad = plan_stop_sequence(network, vehicle, schedule.stops, now,
                                    requests, pickup_times, constraints)
    if bad is None and again.stops != schedule.stops:
        bad = "re-timed stops differ from the plan"
    if bad is not None:
        raise ConsistencyError(f"{chooser} an infeasible schedule: {bad}")


def schedule_cost(schedule: Schedule | None, objective: ObjectiveParams,
                  requests) -> float:
    """Eq-style cost of one schedule; empty schedules cost 0.

    The delay sum runs over the bundle in ascending request id so equal
    schedules always produce the identical float.

    :param requests: mapping request id -> Request, covering the bundle
    """
    if schedule is None or not schedule.stops:
        return 0.0
    delay = 0.0
    for rid in sorted(schedule.bundle):
        delay += schedule.arrival_by_request[rid] - requests[rid].t_req_s
    return (objective.dist_weight * schedule.distance_m
            + objective.time_weight * delay
            - objective.assignment_reward * len(schedule.bundle))


# -- operator ------------------------------------------------------------


def _insertion_positions(n: int):
    for pick in range(n + 1):
        for drop in range(pick, n + 1):
            yield pick, drop


@dataclass(frozen=True)
class Offer:
    operator_id: int
    request_id: int
    vehicle_id: int
    wait_s: float
    arrival_s: float
    fare_eur: float
    extra_distance_m: float
    schedule: Schedule
    state_version: int


class Operator:
    """One ridepooling provider: fleet, booked requests, offer logic."""

    def __init__(self, op_id: int, network: Network, fleet_size: int,
                 constraints: Constraints, objective: ObjectiveParams,
                 fare_eur_per_m: float, start_seed: int = 0,
                 forecast=None, event_sink=None):
        self.op_id = op_id
        self.network = network
        self.constraints = constraints
        self.objective = objective
        self.fare_eur_per_m = fare_eur_per_m
        self.forecast = forecast
        self._log = event_sink if event_sink is not None else (lambda *a, **k: None)
        rng = random.Random(start_seed)
        nodes = list(network.node_ids)
        self.vehicles = [
            Vehicle(vehicle_id=i, node=nodes[rng.randrange(len(nodes))])
            for i in range(fleet_size)
        ]
        self.requests: dict[int, Request] = {}
        self.pickup_times: dict[int, float] = {}
        self.scheduled_ids: set[int] = set()   # booked, not yet picked up
        self.completed_ids: set[int] = set()
        self.n_no_offer = 0
        self.state_version = 0

    def fleet_distance_m(self) -> float:
        return sum(v.odometer_m for v in self.vehicles)

    def onboard_ids(self) -> set[int]:
        out = set()
        for v in self.vehicles:
            out |= v.onboard
        return out

    def active_ids(self) -> set[int]:
        return set(self.scheduled_ids) | self.onboard_ids()

    # -- offers ----------------------------------------------------------

    def insertion_offer(self, request: Request, now: float) -> Offer | None:
        """Best insertion of the request into any vehicle's schedule.

        Scans only vehicles that could reach the origin before the wait
        deadline, keeps existing stop order, and minimizes the marginal
        cost against the vehicle's current schedule.
        """
        if request.t_req_s > now + 1e-9:
            raise ConsistencyError(
                f"request {request.request_id} offered before its request time"
            )
        deadline = request.t_req_s + self.constraints.max_wait_s
        reqs = dict(self.requests)
        reqs[request.request_id] = request
        best = None  # (delta_cost, vehicle_id, schedule, base_dist)
        for veh in self.vehicles:
            node, t_ready = resume_point(veh, self.network, now)
            if t_ready + self.network.travel_time(node, request.origin, now) > deadline + 1e-9:
                continue
            base = veh.stops
            # incumbent cost for the marginal comparison; unenforced because
            # promises may be stale after a travel-time change
            base_sched, _ = plan_stop_sequence(
                self.network, veh, base, now, reqs, self.pickup_times,
                self.constraints, enforce=False)
            base_cost = schedule_cost(base_sched, self.objective, reqs)
            pick = StopSpec(request.origin, board=(request.request_id,))
            drop = StopSpec(request.destination, alight=(request.request_id,))
            for p_pos, d_pos in _insertion_positions(len(base)):
                cand = (base[:p_pos] + [pick] + base[p_pos:d_pos]
                        + [drop] + base[d_pos:])
                sched, violation = plan_stop_sequence(
                    self.network, veh, cand, now, reqs, self.pickup_times,
                    self.constraints)
                if violation is not None:
                    continue
                delta = schedule_cost(sched, self.objective, reqs) - base_cost
                if best is None or delta < best[0]:
                    best = (delta, veh.vehicle_id, sched, base_sched.distance_m if base_sched else 0.0)
        if best is None:
            return None
        _, vid, sched, base_dist = best
        pickup = sched.pickup_by_request[request.request_id]
        arrival = sched.arrival_by_request[request.request_id]
        return Offer(
            operator_id=self.op_id,
            request_id=request.request_id,
            vehicle_id=vid,
            wait_s=pickup - request.t_req_s,
            arrival_s=arrival,
            fare_eur=self.fare_eur_per_m * request.direct_distance_m,
            extra_distance_m=sched.distance_m - base_dist,
            schedule=sched,
            state_version=self.state_version,
        )

    def book(self, offer: Offer, request: Request, now: float):
        """Commit the offered schedule.  Raises BookingError on stale offers."""
        if offer.operator_id != self.op_id:
            raise BookingError(f"offer belongs to operator {offer.operator_id}")
        if offer.state_version != self.state_version:
            raise BookingError(
                f"stale offer for request {offer.request_id}: state moved on")
        veh = self.vehicles[offer.vehicle_id]
        self.requests[request.request_id] = request
        confirm_schedule(self.network, veh, offer.schedule, now, self.requests,
                         self.pickup_times, self.constraints,
                         f"operator {self.op_id} booked")
        self.scheduled_ids.add(request.request_id)
        self.apply_schedule(veh, offer.schedule)
        self.state_version += 1

    def apply_schedule(self, vehicle: Vehicle, schedule: Schedule | None):
        """Install a (re)planned stop list; interrupts any repositioning."""
        vehicle.stops = list(schedule.stops) if schedule is not None else []
        vehicle.leg = None
        if vehicle.stops:
            vehicle.reposition_target = None

    def retime_schedules(self, now: float):
        """Recompute planned times after a travel-time factor change.

        Existing bookings are kept even if a promise can no longer be
        met; times are estimates, not new commitments.
        """
        for veh in self.vehicles:
            if not veh.stops:
                continue
            sched, _ = plan_stop_sequence(
                self.network, veh, veh.stops, now, self.requests,
                self.pickup_times, self.constraints, enforce=False)
            veh.stops = list(sched.stops)
            veh.leg = None
        self.state_version += 1

    # -- rebalancing -----------------------------------------------------

    def reposition(self, now: float):
        """Send idle vehicles toward zones with expected net shortfall.

        Zone surplus is idle count minus expected net departures for the
        coming interval; flows solve a transportation problem on
        centroid-to-centroid travel times; concrete vehicles are chosen
        nearest first.  Ongoing repositioning drives are re-planned.
        """
        if self.forecast is None:
            return []
        import math as _math

        net = self.network
        for veh in self.vehicles:  # cancel old tasks, replan from scratch
            if veh.reposition_target is not None:
                veh.reposition_target = None
                veh.leg = None
        idle_by_zone: dict[int, list[Vehicle]] = {}
        for veh in self.vehicles:
            if veh.is_idle():
                idle_by_zone.setdefault(net.zones[veh.node], []).append(veh)
        surplus: dict[int, int] = {}
        for z in net.zone_ids:
            dep = self.forecast.expected_departures(z, now)
            arr = self.forecast.expected_arrivals(z, now)
            need = int(_math.ceil(max(0.0, dep - arr) - 1e-9))
            surplus[z] = len(idle_by_zone.get(z, [])) - need
        sources = [(z, s) for z, s in sorted(surplus.items()) if s > 0 and idle_by_zone.get(z)]
        sinks = [(z, -s) for z, s in sorted(surplus.items()) if s < 0]
        if not sources or not sinks:
            return []
        supply_total = sum(min(s, len(idle_by_zone[z])) for z, s in sources)
        demand_total = sum(d for _, d in sinks)
        if demand_total > supply_total:
            sinks = _scale_demands(sinks, supply_total)
            demand_total = sum(d for _, d in sinks)
            if demand_total == 0:
                return []
        supplies = [min(s, len(idle_by_zone[z])) for z, s in sources]
        costs = [
            [net.travel_time(net.zone_centroid(zs), net.zone_centroid(zd), now)
             for zd, _ in sinks]
            for zs, _ in sources
        ]
        flows = _solve_transportation(costs, supplies, [d for _, d in sinks])
        moves = []
        for i, (zs, _) in enumerate(sources):
            for j, (zd, _) in enumerate(sinks):
                k = flows[i][j]
                if k <= 0:
                    continue
                target = net.zone_centroid(zd)
                cands = [v for v in idle_by_zone[zs] if v.reposition_target is None]
                cands.sort(key=lambda v: (net.travel_time(v.node, target, now), v.vehicle_id))
                for veh in cands[:k]:
                    veh.reposition_target = target
                    veh.leg = None
                    moves.append((veh.vehicle_id, zs, zd, target))
                    self._log("reposition", now, operator=self.op_id,
                              vehicle=veh.vehicle_id, from_zone=zs, to_zone=zd,
                              target_node=target)
        if moves:
            self.state_version += 1
        return moves


def _scale_demands(sinks, total_supply: int):
    """Largest-remainder scaling of deficits to the available supply."""
    total_demand = sum(d for _, d in sinks)
    shares = [(z, d * total_supply / total_demand) for z, d in sinks]
    floored = [(z, int(s)) for z, s in shares]
    remainder = total_supply - sum(f for _, f in floored)
    by_frac = sorted(
        range(len(shares)),
        key=lambda i: (-(shares[i][1] - floored[i][1]), shares[i][0]),
    )
    out = dict(floored)
    for i in by_frac[:remainder]:
        out[shares[i][0]] += 1
    return [(z, out[z]) for z, _ in sinks if out[z] > 0]


def _solve_transportation(costs, supplies, demands):
    """Integer transportation flows via LP (vertex solutions are integral)."""
    from scipy.optimize import linprog

    n_s, n_d = len(supplies), len(demands)
    n = n_s * n_d
    c = [costs[i][j] for i in range(n_s) for j in range(n_d)]
    a_ub, b_ub = [], []
    for i in range(n_s):
        row = [0.0] * n
        for j in range(n_d):
            row[i * n_d + j] = 1.0
        a_ub.append(row)
        b_ub.append(float(supplies[i]))
    a_eq, b_eq = [], []
    for j in range(n_d):
        row = [0.0] * n
        for i in range(n_s):
            row[i * n_d + j] = 1.0
        a_eq.append(row)
        b_eq.append(float(demands[j]))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs-ds")
    if not res.success:
        raise ConsistencyError(f"transportation problem unsolved: {res.message}")
    flows = [[0] * n_d for _ in range(n_s)]
    for i in range(n_s):
        for j in range(n_d):
            x = res.x[i * n_d + j]
            k = round(x)
            if abs(x - k) > 1e-6:
                raise ConsistencyError("fractional transportation flow")
            flows[i][j] = int(k)
    return flows
