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

import math
import random
from dataclasses import dataclass, field

import numpy as np

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


# a FIFO early exit in insertion_offer needs a rule broken by more than this
_FIFO_MARGIN_S = 1e-6


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


class _Timing:
    """Timing state of a stop sequence after its first ``len(stops)`` stops.

    ``rules`` is (network, requests, pickup_times, constraints).  A state
    can be copied and extended again, so stops shared by many sequences
    are timed once.
    """

    __slots__ = ("rules", "node", "t", "dist", "onboard", "count", "stops",
                 "arrival_by", "pickup_by", "violation")

    def __init__(self, rules, node: int, t: float, onboard):
        self.rules, self.node, self.t, self.dist = rules, node, t, 0.0
        self.onboard = set(onboard)
        self.count = len(self.onboard)
        self.stops, self.arrival_by, self.pickup_by = [], {}, {}
        self.violation = None

    def copy(self) -> "_Timing":
        new = _Timing.__new__(_Timing)
        new.rules, new.node, new.t, new.dist = self.rules, self.node, self.t, self.dist
        new.onboard, new.count, new.stops = set(self.onboard), self.count, list(self.stops)
        new.arrival_by, new.pickup_by = dict(self.arrival_by), dict(self.pickup_by)
        new.violation = self.violation
        return new

    def broken(self, kind, rid, t, detail) -> bool:
        """Record the violation and the time ``t`` of the stop that broke
        it; always False, for ``extend`` to return."""
        self.violation = Violation(kind, rid, len(self.stops), detail)
        self.t = t
        return False

    def extend(self, specs) -> bool:
        """Time specs after the stops so far.

        Returns False at the first broken rule; the state is then spent,
        except that ``t`` holds the time of the stop that broke the rule.
        """
        network, requests, pickup_times, cons = self.rules
        node, t, dist, onboard, count = self.node, self.t, self.dist, self.onboard, self.count
        stops, arrival_by, pickup_by = self.stops, self.arrival_by, self.pickup_by
        for spec in specs:
            if spec.node != node:
                leg_tt, leg_m = network.leg(node, spec.node, t)
                dist += leg_m
                t = t + leg_tt
                node = spec.node
            for rid in spec.alight:
                if rid not in onboard:
                    return self.broken("precedence", rid, t, "alight before board")
                onboard.discard(rid)
                count -= 1
                arrival_by[rid] = t
                picked = pickup_times.get(rid, pickup_by.get(rid))
                if picked is None:
                    return self.broken("precedence", rid, t, "no pickup time")
                limit = (1.0 + cons.max_detour_rel) * requests[rid].direct_time_s
                if t - picked > limit:
                    return self.broken("detour", rid, t,
                                       f"in-vehicle {t - picked:.1f}s > {limit:.1f}s")
            for rid in spec.board:
                if rid in onboard:
                    return self.broken("precedence", rid, t, "boarded twice")
                latest = requests[rid].t_req_s + cons.max_wait_s
                if t > latest:
                    return self.broken("wait", rid, t, f"pickup {t:.1f}s > {latest:.1f}s")
                onboard.add(rid)
                count += 1
                pickup_by[rid] = t
                if count > cons.capacity:
                    return self.broken("capacity", rid, t,
                                       f"{count} onboard > {cons.capacity}")
            stops.append(Stop(spec.node, tuple(spec.board), tuple(spec.alight), t))
            if spec.board or spec.alight:
                t += cons.dwell_s
        self.node, self.t, self.dist, self.count = node, t, dist, count
        return True

    def schedule(self, vehicle: Vehicle):
        """(schedule, None), or (None, violation) if a rider stays aboard."""
        if self.onboard:
            return None, Violation("precedence", min(self.onboard), len(self.stops),
                                   "customer never alights")
        bundle = frozenset(vehicle.onboard).union(self.pickup_by)
        return Schedule(vehicle.vehicle_id, self.stops, bundle, self.dist,
                        self.arrival_by, self.pickup_by), None


def plan_stop_sequence(network: Network, vehicle: Vehicle, specs, now: float,
                       requests, pickup_times, constraints: Constraints):
    """Time a stop sequence from the vehicle's resume point.

    This is the one place where the service rules are checked.  Returns
    (schedule, None) when feasible, else (None, first_violation).  Legs
    are timed by ``Network.leg``, on the clock motion drives by, so
    a vehicle that follows a feasible plan keeps every promise in it, and
    timing that plan again later, from where motion has taken the
    vehicle, finds it feasible still.

    :param specs: stops with node, board and alight, such as StopSpec or
        a vehicle's own Stop list; arrival times are ignored
    :param requests: mapping request id -> Request
    :param pickup_times: actual pickup times for customers already onboard
    """
    node, t = resume_point(vehicle, network, now)
    state = _Timing((network, requests, pickup_times, constraints),
                    node, t, vehicle.onboard)
    if not state.extend(specs):
        return None, state.violation
    return state.schedule(vehicle)


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
        # vehicle id -> (state key, base plan entry); see _base_plan
        self._base_plans: dict = {}

    def fleet_distance_m(self) -> float:
        return sum(v.odometer_m for v in self.vehicles)

    def onboard_ids(self) -> set[int]:
        return set().union(*(v.onboard for v in self.vehicles))

    def active_ids(self) -> set[int]:
        return set(self.scheduled_ids) | self.onboard_ids()

    # -- offers ----------------------------------------------------------

    def insertion_offer(self, request: Request, now: float) -> Offer | None:
        """Best insertion of the request into any vehicle's schedule.

        Scans only vehicles that could reach the origin before the wait
        deadline, keeps existing stop order, and minimizes the marginal
        cost against the vehicle's current schedule; among equal costs
        the first candidate in scan order wins.

        Each vehicle's current plan, its cost and the timing state before
        each of its stops are reused from ``_base_plan``.  Travel times
        are FIFO, dwell is never negative and base times obey the
        triangle inequality, so a pickup that breaks the new rider's wait
        rule rejects every later pickup position, and a drop-off that
        breaks the rider's detour rule every later drop-off position.
        Those exits are taken only when the rule is broken by more than
        ``_FIFO_MARGIN_S``, so float rounding cannot drop a candidate,
        and every other candidate is timed in full.
        """
        if request.t_req_s > now + 1e-9:
            raise ConsistencyError(
                f"request {request.request_id} offered before its request time")
        rid = request.request_id
        cons = self.constraints
        deadline = request.t_req_s + cons.max_wait_s
        ride_limit = (1.0 + cons.max_detour_rel) * request.direct_time_s
        reqs = {**self.requests, rid: request}
        rules = (self.network, reqs, self.pickup_times, cons)
        pick = [StopSpec(request.origin, board=(rid,))]
        drop = [StopSpec(request.destination, alight=(rid,))]
        best = None  # (delta_cost, vehicle_id, schedule, base_dist)
        for veh in self.vehicles:
            node, t_ready = resume_point(veh, self.network, now)
            # FIFO: no insertion picks up earlier than driving straight there
            if t_ready + self.network.travel_time(node, request.origin, t_ready) > deadline + 1e-9:
                continue
            base = veh.stops
            base_sched, base_cost, heads = self._base_plan(veh, now, node, t_ready)
            # candidates keep the base order, so a prefix broken after the
            # pickup (mid) rejects every later drop-off position
            for p_pos, head in enumerate(heads):
                mid = head.copy()
                mid.rules = rules
                if not mid.extend(pick):
                    if mid.violation.kind == "wait" and mid.t - deadline > _FIFO_MARGIN_S:
                        break
                    continue
                picked = mid.pickup_by[rid]
                for d_pos in range(p_pos, len(base) + 1):
                    if d_pos > p_pos and not mid.extend(base[d_pos - 1:d_pos]):
                        break
                    cand = mid.copy()
                    if not cand.extend(drop + base[d_pos:]):
                        bad = cand.violation
                        if (bad.kind == "detour" and bad.request_id == rid
                                and cand.t - picked - ride_limit > _FIFO_MARGIN_S):
                            break
                        continue
                    sched, violation = cand.schedule(veh)
                    if violation is not None:
                        continue
                    delta = schedule_cost(sched, self.objective, reqs) - base_cost
                    if best is None or delta < best[0]:
                        best = (delta, veh.vehicle_id, sched, base_sched.distance_m)
        if best is None:
            return None
        _, vid, sched, base_dist = best
        return Offer(self.op_id, rid, vid,
                     wait_s=sched.pickup_by_request[rid] - request.t_req_s,
                     arrival_s=sched.arrival_by_request[rid],
                     fare_eur=self.fare_eur_per_m * request.direct_distance_m,
                     extra_distance_m=sched.distance_m - base_dist,
                     schedule=sched, state_version=self.state_version)

    def _base_plan(self, vehicle: Vehicle, now: float, node: int, t_ready: float):
        """(current plan, its cost, timing state before each stop and after
        the last), timed once per vehicle state.

        The entry is keyed on everything its timing reads that can change:
        the resume point and the vehicle's stops and riders aboard.  So it
        is reused across requests and steps while that state holds, and
        re-timed after motion, a booking, a reoptimization or any direct
        change to the vehicle, with no call to invalidate it.  What the key
        leaves out is fixed while it holds: a booked or aboard rider's
        request and pickup time, the constraints, the objective, and the
        network and its profile, which must not change during an
        Operator's lifetime.
        """
        key = (node, t_ready, tuple(vehicle.stops), frozenset(vehicle.onboard))
        hit = self._base_plans.get(vehicle.vehicle_id)
        if hit is not None and hit[0] == key:
            return hit[1]
        heads: list[_Timing] = []
        sched = self.current_plan(vehicle, now, heads)
        entry = (sched, schedule_cost(sched, self.objective, self.requests), heads)
        self._base_plans[vehicle.vehicle_id] = (key, entry)
        return entry

    def current_plan(self, vehicle: Vehicle, now: float, heads=None) -> Schedule:
        """The vehicle's stops timed from now.  Only feasible plans are
        installed and motion keeps to their times, so a broken rule means
        corrupt state: raise ConsistencyError.

        :param heads: if a list, receives the timing state before each
            stop and after the last one
        """
        node, t = resume_point(vehicle, self.network, now)
        state = _Timing((self.network, self.requests, self.pickup_times, self.constraints),
                        node, t, vehicle.onboard)
        for stop in vehicle.stops:
            if heads is not None:
                heads.append(state.copy())
            if not state.extend((stop,)):
                sched, bad = None, state.violation
                break
        else:
            if heads is not None:
                heads.append(state.copy())
            sched, bad = state.schedule(vehicle)
        if bad is not None:
            raise ConsistencyError(f"operator {self.op_id} vehicle {vehicle.vehicle_id}: "
                                   f"booked plan broken at {now}: {bad}")
        return sched

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
            need = int(math.ceil(max(0.0, dep - arr) - 1e-9))
            surplus[z] = len(idle_by_zone.get(z, [])) - need
        sources = [(z, s) for z, s in sorted(surplus.items()) if s > 0 and idle_by_zone.get(z)]
        sinks = [(z, -s) for z, s in sorted(surplus.items()) if s < 0]
        if not sources or not sinks:
            return []
        supplies = [min(s, len(idle_by_zone[z])) for z, s in sources]
        if sum(d for _, d in sinks) > sum(supplies):
            sinks = _scale_demands(sinks, sum(supplies))  # keeps positive deficits
            if not sinks:
                return []
        costs = [[net.travel_time(net.zone_centroid(zs), net.zone_centroid(zd), now)
                  for zd, _ in sinks] for zs, _ in sources]
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
    # row i of A_ub sums the flows out of source i, row j of A_eq those into sink j
    res = linprog(np.ravel(costs), A_ub=np.kron(np.eye(n_s), np.ones(n_d)),
                  b_ub=supplies, A_eq=np.kron(np.ones(n_s), np.eye(n_d)),
                  b_eq=demands, bounds=(0, None), method="highs-ds")
    if not res.success:
        raise ConsistencyError(f"transportation problem unsolved: {res.message}")
    x = res.x.reshape(n_s, n_d)
    flows = np.rint(x)
    if np.abs(x - flows).max() > 1e-6:
        raise ConsistencyError("fractional transportation flow")
    return flows.astype(int).tolist()
