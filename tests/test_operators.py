"""Operator model: feasibility, cost, insertion offers, booking, rebalancing."""

from __future__ import annotations

import dataclasses
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolmarket import operators
from poolmarket.demand import Request
from poolmarket.network import TravelTimeProfile
from poolmarket.operators import (
    BookingError,
    ConsistencyError,
    Constraints,
    ObjectiveParams,
    Operator,
    Schedule,
    Stop,
    StopSpec,
    Vehicle,
    default_assignment_reward,
    plan_stop_sequence,
    resume_point,
    schedule_cost,
)

from conftest import make_line_network, make_grid_network


def req(rid, t, o, d, net):
    path = net.shortest_path(o, d, t)
    return Request(rid, t, o, d, path.distance_m, path.travel_time_s)


def make_operator(net, fleet_nodes, objective=None, constraints=None,
                  fare_per_m=0.00043, forecast=None, sink=None):
    obj = objective or ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
    cons = constraints or Constraints()
    op = Operator(0, net, len(fleet_nodes), cons, obj, fare_per_m,
                  start_seed=0, forecast=forecast, event_sink=sink)
    for veh, node in zip(op.vehicles, fleet_nodes):
        veh.node = node
    return op


# -- cost ----------------------------------------------------------------


def test_schedule_cost_reference_value():
    # 1 km driven, 600 s total delay, reward 10000:
    # 0.25 + 2.70 - 10000 = -9997.05
    obj = ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
    sched = Schedule(
        vehicle_id=0,
        stops=[Stop(1, (7,), (), 0.0), Stop(2, (), (7,), 600.0)],
        bundle=frozenset({7}),
        distance_m=1000.0,
        arrival_by_request={7: 600.0},
        pickup_by_request={7: 0.0},
    )
    cost = schedule_cost(sched, obj, {7: Request(7, 0.0, 1, 2, 1000.0, 100.0)})
    assert cost == pytest.approx(-9997.05)


def test_empty_schedule_costs_zero():
    obj = ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
    sched = Schedule(0, [], frozenset(), 0.0, {}, {})
    reqs = {1: Request(1, 0.0, 1, 2, 1000.0, 100.0)}
    assert schedule_cost(sched, obj, reqs) == 0.0
    assert schedule_cost(None, obj, reqs) == 0.0


def test_cost_depends_on_times_not_stop_identity(line10):
    # same stops and times -> same cost regardless of how they were built
    obj = ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
    r = req(1, 0.0, 0, 4, line10)
    veh = Vehicle(0, 0)
    specs = [StopSpec(0, board=(1,)), StopSpec(4, alight=(1,))]
    s1, v1 = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, Constraints())
    s2, v2 = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, Constraints())
    assert v1 is None and v2 is None
    assert schedule_cost(s1, obj, {1: r}) == schedule_cost(s2, obj, {1: r})


# -- timing and feasibility ---------------------------------------------


def test_plan_times_along_line(line10):
    r = req(1, 0.0, 2, 5, line10)
    veh = Vehicle(0, 0)
    specs = [StopSpec(2, board=(1,)), StopSpec(5, alight=(1,))]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, Constraints())
    assert bad is None
    assert sched.stops[0].arrival_s == pytest.approx(100.0)  # 2 edges at 50 s
    assert sched.stops[1].arrival_s == pytest.approx(250.0)
    assert sched.distance_m == pytest.approx(2500.0)
    assert sched.pickup_by_request[1] == pytest.approx(100.0)
    assert sched.arrival_by_request[1] == pytest.approx(250.0)


def test_capacity_violation_flagged(line10):
    cons = Constraints(capacity=4)
    reqs = {i: req(i, 0.0, 0, 9, line10) for i in range(5)}
    veh = Vehicle(0, 0)
    specs = [StopSpec(0, board=tuple(range(5)))] + [StopSpec(9, alight=tuple(range(5)))]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, reqs, {}, cons)
    assert sched is None
    assert bad.kind == "capacity"


def test_wait_violation_flagged(line10):
    cons = Constraints(max_wait_s=360.0)
    r = req(1, 0.0, 9, 0, line10)  # vehicle at 0 needs 450 s to reach node 9
    veh = Vehicle(0, 0)
    specs = [StopSpec(9, board=(1,)), StopSpec(0, alight=(1,))]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, cons)
    assert sched is None
    assert bad.kind == "wait"
    assert bad.request_id == 1


def test_detour_violation_flagged(line10):
    # direct 1->2 is 50 s; detour via node 8 blows the 1.4x bound
    cons = Constraints(max_detour_rel=0.4)
    r = req(1, 0.0, 1, 2, line10)
    other = req(2, 0.0, 1, 8, line10)
    veh = Vehicle(0, 1)
    specs = [
        StopSpec(1, board=(1, 2)),
        StopSpec(8, alight=(2,)),
        StopSpec(2, alight=(1,)),
    ]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, {1: r, 2: other}, {}, cons)
    assert sched is None
    assert bad.kind == "detour"
    assert bad.request_id == 1


def test_precedence_violation_flagged(line10):
    r = req(1, 0.0, 2, 5, line10)
    veh = Vehicle(0, 0)
    specs = [StopSpec(5, alight=(1,)), StopSpec(2, board=(1,))]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, Constraints())
    assert sched is None
    assert bad.kind == "precedence"


def test_planned_stops_retime_to_themselves(line10):
    r1 = req(1, 0.0, 1, 6, line10)
    r2 = req(2, 60.0, 2, 7, line10)
    veh = Vehicle(0, 0)
    specs = [
        StopSpec(1, board=(1,)),
        StopSpec(2, board=(2,)),
        StopSpec(6, alight=(1,)),
        StopSpec(7, alight=(2,)),
    ]
    reqs = {1: r1, 2: r2}
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, reqs, {}, Constraints())
    assert bad is None
    again, bad = plan_stop_sequence(line10, veh, sched.stops, 0.0, reqs, {},
                                    Constraints())
    assert bad is None
    assert again.stops == sched.stops


def test_boarding_twice_is_a_precedence_violation(line10):
    r = req(1, 0.0, 2, 5, line10)
    veh = Vehicle(0, 0)
    specs = [StopSpec(2, board=(1,)), StopSpec(3, board=(1,)),
             StopSpec(5, alight=(1,))]
    sched, bad = plan_stop_sequence(line10, veh, specs, 0.0, {1: r}, {}, Constraints())
    assert sched is None
    assert (bad.kind, bad.request_id, bad.stop_index, bad.detail) == (
        "precedence", 1, 1, "boarded twice")


def test_rider_without_pickup_time_is_a_precedence_violation(line10):
    # on board, but no recorded pickup: the detour rule cannot be checked
    r = req(1, 0.0, 0, 2, line10)
    veh = Vehicle(0, 1, onboard={1})
    sched, bad = plan_stop_sequence(line10, veh, [StopSpec(2, alight=(1,))], 50.0,
                                    {1: r}, {}, Constraints())
    assert sched is None
    assert (bad.kind, bad.request_id, bad.stop_index, bad.detail) == (
        "precedence", 1, 0, "no pickup time")


def test_onboard_customer_detour_uses_actual_pickup(line10):
    # customer 1 already riding since t=0 with direct time 100 s; sending the
    # vehicle the long way round must trip the detour check
    r1 = req(1, 0.0, 0, 2, line10)
    veh = Vehicle(0, 1, onboard={1})
    specs = [StopSpec(5, alight=()), StopSpec(2, alight=(1,))]
    specs = [StopSpec(5, board=(), alight=()), StopSpec(2, alight=(1,))]
    sched, bad = plan_stop_sequence(
        line10, veh, [StopSpec(5), StopSpec(2, alight=(1,))], 50.0,
        {1: r1}, {1: 0.0}, Constraints())
    assert sched is None
    assert bad.kind == "detour"


def test_resume_point_mid_edge(line10):
    veh = Vehicle(0, 3, edge=(2, 3), edge_remaining_tt_base=20.0, edge_remaining_m=200.0)
    node, t = resume_point(veh, line10, 100.0)
    assert node == 3
    assert t == pytest.approx(120.0)


# -- insertion offers ----------------------------------------------------


def oracle_best_insertion(net, veh, request, reqs_all, pickups, cons, obj):
    """Plain enumeration of every insertion position with its own timing."""
    base = [(s.node, s.board, s.alight) for s in veh.stops]
    start_node, start_t = resume_point(veh, net, request.t_req_s)

    def time_seq(seq):
        node, t = start_node, start_t
        onboard = set(veh.onboard)
        dist = 0.0
        arr, pick = {}, {}
        for sn, board, alight in seq:
            if sn != node:
                t = t + net.travel_time(node, sn, t)
                dist += net.distance(node, sn)
                node = sn
            for rid in alight:
                if rid not in onboard:
                    return None
                onboard.discard(rid)
                arr[rid] = t
                p = pickups.get(rid, pick.get(rid))
                req_i = reqs_all[rid]
                if t - p > (1 + cons.max_detour_rel) * req_i.direct_time_s:
                    return None
            for rid in board:
                req_i = reqs_all[rid]
                if t > req_i.t_req_s + cons.max_wait_s:
                    return None
                onboard.add(rid)
                pick[rid] = t
                if len(onboard) > cons.capacity:
                    return None
        if onboard:
            return None
        delay = sum(arr[r] - reqs_all[r].t_req_s for r in sorted(arr))
        n = len(arr)
        cost = obj.dist_weight * dist + obj.time_weight * delay - obj.assignment_reward * n
        return cost, dist, arr, pick

    # cost of the incumbent (same evaluation, without the new request)
    base_eval = time_seq([(n, b, a) for n, b, a in base])
    base_cost, base_dist = (base_eval[0], base_eval[1]) if base_eval else (0.0, 0.0)
    if not base:
        base_cost, base_dist = 0.0, 0.0
    best = None
    pick_stop = (request.origin, (request.request_id,), ())
    drop_stop = (request.destination, (), (request.request_id,))
    for p in range(len(base) + 1):
        for d in range(p, len(base) + 1):
            seq = base[:p] + [pick_stop] + base[p:d] + [drop_stop] + base[d:]
            res = time_seq(seq)
            if res is None:
                continue
            cost, dist, arr, pick = res
            delta = cost - base_cost
            if best is None or delta < best[0]:
                best = (delta, dist - base_dist, pick[request.request_id],
                        arr[request.request_id])
    return best


def test_idle_vehicle_at_origin_zero_wait(line10):
    op = make_operator(line10, [3])
    r = req(1, 0.0, 3, 7, line10)
    offer = op.insertion_offer(r, 0.0)
    assert offer is not None
    assert offer.wait_s == pytest.approx(0.0)
    assert offer.extra_distance_m == pytest.approx(r.direct_distance_m)
    assert offer.arrival_s == pytest.approx(r.direct_time_s)
    assert offer.fare_eur == pytest.approx(0.00043 * r.direct_distance_m)


def test_no_offer_when_unreachable(line10):
    cons = Constraints(max_wait_s=100.0)  # node 9 is 450 s away
    op = make_operator(line10, [0], constraints=cons)
    r = req(1, 0.0, 9, 0, line10)
    assert op.insertion_offer(r, 0.0) is None


def test_no_offer_when_vehicle_full(line10):
    op = make_operator(line10, [0])
    riders = {i: req(i, 0.0, 0, 9, line10) for i in range(1, 5)}
    veh = op.vehicles[0]
    veh.onboard = {1, 2, 3, 4}
    veh.stops = [Stop(9, (), (1, 2, 3, 4), 450.0)]
    op.requests.update(riders)
    op.pickup_times.update({i: 0.0 for i in riders})
    # new rider overlapping the whole span cannot fit anywhere
    r = req(9, 0.0, 1, 8, line10)
    assert op.insertion_offer(r, 0.0) is None


def test_insertion_matches_oracle_random():
    net = make_grid_network(4, 5, spacing_m=400.0)
    obj = ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
    cons = Constraints()
    rng = random.Random(77)
    nodes = list(net.node_ids)
    checked = 0
    for trial in range(30):
        op = make_operator(net, [nodes[rng.randrange(len(nodes))]],
                           objective=obj, constraints=cons)
        veh = op.vehicles[0]
        # seed an existing booked rider half the time
        if trial % 2:
            o, d = rng.sample(nodes, 2)
            r0 = req(100, 0.0, o, d, net)
            offer0 = op.insertion_offer(r0, 0.0)
            if offer0 is not None:
                op.book(offer0, r0, 0.0)
        o, d = rng.sample(nodes, 2)
        r = req(200 + trial, 30.0, o, d, net)
        offer = op.insertion_offer(r, 30.0)
        expected = oracle_best_insertion(net, veh, r, {**op.requests, r.request_id: r},
                                         op.pickup_times, cons, obj)
        if offer is None:
            assert expected is None
            continue
        delta, extra_dist, pick_t, arr_t = expected
        assert offer.extra_distance_m == pytest.approx(extra_dist, abs=1e-9)
        assert offer.wait_s == pytest.approx(pick_t - r.t_req_s, abs=1e-9)
        assert offer.arrival_s == pytest.approx(arr_t, abs=1e-9)
        checked += 1
    assert checked >= 10


def reference_offer(op, request, now):
    """Best insertion with every (p_pos, d_pos) candidate timed alone.

    The plain scan: each candidate stop list is built in full and timed
    from the vehicle's resume point by plan_stop_sequence.  Returns
    (vehicle_id, schedule, base_distance_m) or None.
    """
    rid = request.request_id
    reqs = {**op.requests, rid: request}
    deadline = request.t_req_s + op.constraints.max_wait_s
    pick = StopSpec(request.origin, board=(rid,))
    drop = StopSpec(request.destination, alight=(rid,))
    best = None
    for veh in op.vehicles:
        node, t_ready = resume_point(veh, op.network, now)
        if t_ready + op.network.travel_time(node, request.origin, t_ready) > deadline + 1e-9:
            continue
        base = veh.stops
        base_sched, bad = plan_stop_sequence(op.network, veh, base, now, reqs,
                                             op.pickup_times, op.constraints)
        assert bad is None
        base_cost = schedule_cost(base_sched, op.objective, reqs)
        for p_pos in range(len(base) + 1):
            for d_pos in range(p_pos, len(base) + 1):
                cand = base[:p_pos] + [pick] + base[p_pos:d_pos] + [drop] + base[d_pos:]
                sched, bad = plan_stop_sequence(op.network, veh, cand, now, reqs,
                                                op.pickup_times, op.constraints)
                if bad is not None:
                    continue
                delta = schedule_cost(sched, op.objective, reqs) - base_cost
                if best is None or delta < best[0]:
                    best = (delta, veh.vehicle_id, sched, base_sched.distance_m)
    return None if best is None else best[1:]


def booked_world(seed, profile=None, cons=None):
    """Operator with 2-3 vehicles holding booked stops, riders onboard and
    one vehicle partway along an edge, under a time-varying profile.

    Everything is booked at the returned time, and no vehicle moves
    after that, so every booked plan still holds then.  Without a
    profile or constraints, the seed draws them.
    """
    rng = random.Random(seed)
    cols = 6
    profile = profile or TravelTimeProfile((1.0, 1.3, 0.9, 1.2, 1.1), interval_s=150.0)
    net = make_grid_network(cols, cols, spacing_m=400.0, profile=profile)
    drawn = Constraints(capacity=rng.choice((2, 4)), max_wait_s=600.0,
                        max_detour_rel=1.0, dwell_s=rng.choice((10.0, 30.0)))
    cons = cons or drawn
    nodes = list(net.node_ids)
    op = make_operator(net, rng.sample(nodes, rng.choice((2, 3))), constraints=cons)
    now = 40.0 + 20.0 * rng.randrange(6)
    veh = op.vehicles[rng.randrange(len(op.vehicles))]
    prev = veh.node + 1 if veh.node % cols < cols - 1 else veh.node - 1
    veh.edge, veh.edge_remaining_tt_base, veh.edge_remaining_m = (prev, veh.node), 25.0, 250.0
    for rid in range(rng.randint(4, 9)):
        r = req(rid, now, *rng.sample(nodes, 2), net)
        offer = op.insertion_offer(r, now)
        if offer is not None:
            op.book(offer, r, now)
    # riders of a first pickup stop are aboard, and the vehicle dwells
    # there until the plan leaves it
    for veh in op.vehicles:
        first = veh.stops[0] if veh.stops else None
        if first is not None and first.board and not first.alight and rng.random() < 0.7:
            veh.node, veh.stops, veh.edge = first.node, veh.stops[1:], None
            veh.busy_until = first.arrival_s + cons.dwell_s
            veh.onboard |= set(first.board)
            for rid in first.board:
                op.pickup_times[rid] = first.arrival_s
                op.scheduled_ids.discard(rid)
    return op, rng, nodes, now


def test_insertion_offer_equals_timing_each_candidate_alone():
    offers = long_bases = 0
    for seed in range(40):
        op, rng, nodes, now = booked_world(seed)
        long_bases += any(len(v.stops) >= 4 and v.onboard for v in op.vehicles)
        for k in range(6):
            r = req(100 + k, now, *rng.sample(nodes, 2), op.network)
            offer = op.insertion_offer(r, now)
            expected = reference_offer(op, r, now)
            if expected is None:
                assert offer is None
                continue
            vid, sched, base_dist = expected
            assert offer.vehicle_id == vid
            assert offer.schedule == sched  # stops with their arrival_s floats
            assert offer.wait_s == sched.pickup_by_request[r.request_id] - now
            assert offer.arrival_s == sched.arrival_by_request[r.request_id]
            assert offer.extra_distance_m == sched.distance_m - base_dist
            offers += 1
    assert offers >= 100
    assert long_bases >= 10


def scanned_offer(op, request, now):
    """The offer, and how many pickups and drop-offs of the request the
    scan timed."""
    scanned = {"pick": 0, "drop": 0}
    extend = operators._Timing.extend

    def counting(state, specs):
        first = specs[0] if specs else None
        if first is not None and request.request_id in first.board:
            scanned["pick"] += 1
        if first is not None and request.request_id in first.alight:
            scanned["drop"] += 1
        return extend(state, specs)

    with mock.patch.object(operators._Timing, "extend", counting):
        return op.insertion_offer(request, now), scanned


STEEP_PROFILES = ((3.0, 0.4, 2.0), (0.4, 3.0, 1.0), (2.5, 0.5, 2.5, 0.5))


def test_insertion_offer_equals_reference_under_steep_profiles():
    """Offers equal the plain scan where speed jumps steeply, and both
    FIFO early exits fire: switched off, the scan times more pickups
    (the wait exit) and more drop-offs (the detour exit)."""
    fired = {"wait": 0, "detour": 0}

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), factors=st.sampled_from(STEEP_PROFILES),
           interval_s=st.sampled_from((60.0, 150.0)), dwell_s=st.sampled_from((0.0, 30.0)),
           capacity=st.sampled_from((2, 4)), detour=st.sampled_from((0.3, 1.0)))
    def check(seed, factors, interval_s, dwell_s, capacity, detour):
        cons = Constraints(capacity=capacity, max_wait_s=300.0,
                           max_detour_rel=detour, dwell_s=dwell_s)
        op, rng, nodes, now = booked_world(seed, TravelTimeProfile(factors, interval_s), cons)
        for k in range(4):
            r = req(100 + k, now, *rng.sample(nodes, 2), op.network)
            offer, scanned = scanned_offer(op, r, now)
            with mock.patch.object(operators, "_FIFO_MARGIN_S", math.inf):
                unpruned, scanned_all = scanned_offer(op, r, now)
            assert offer == unpruned
            fired["wait"] += scanned["pick"] < scanned_all["pick"]
            fired["detour"] += scanned["drop"] < scanned_all["drop"]
            expected = reference_offer(op, r, now)
            if expected is None:
                assert offer is None
                continue
            vid, sched, base_dist = expected
            assert (offer.vehicle_id, offer.schedule) == (vid, sched)
            assert offer.extra_distance_m == sched.distance_m - base_dist

    check()
    assert fired["wait"] >= 10 and fired["detour"] >= 10


def test_offers_time_each_vehicle_state_once():
    net = make_grid_network(5, 5, spacing_m=400.0)
    op = make_operator(net, [0, 12, 24])
    nodes = list(net.node_ids)
    rng = random.Random(5)
    for rid in range(4):
        r = req(rid, 0.0, *rng.sample(nodes, 2), net)
        op.book(op.insertion_offer(r, 0.0), r, 0.0)
    timed = []
    plan = Operator.current_plan

    def counting(self, vehicle, now, heads=None):
        timed.append(vehicle.vehicle_id)
        return plan(self, vehicle, now, heads)

    asks = [req(10 + k, 30.0, *rng.sample(nodes, 2), net) for k in range(5)]
    with mock.patch.object(Operator, "current_plan", counting):
        offers = [op.insertion_offer(r, 30.0) for r in asks]
        assert sorted(timed) == [0, 1, 2]
        timed.clear()
        assert [op.insertion_offer(r, 30.0) for r in asks] == offers
        assert timed == []
        # a booking changes one vehicle; only that one is timed again
        op.book(offers[0], asks[0], 30.0)
        for r in asks[1:]:
            op.insertion_offer(r, 30.0)
        assert timed == [offers[0].vehicle_id]
        # so does a plan installed by hand, or a vehicle moved by hand
        timed.clear()
        bare = next(v for v in op.vehicles if v.stops)
        op.apply_schedule(bare, None)
        op.insertion_offer(asks[1], 30.0)
        bare.node = 6 if bare.node != 6 else 7
        op.insertion_offer(asks[1], 30.0)
        assert timed == [bare.vehicle_id, bare.vehicle_id]
        # a later step moves every resume point; each vehicle once more
        timed.clear()
        for r in asks[1:]:
            op.insertion_offer(r, 60.0)
        assert sorted(timed) == [0, 1, 2]


def test_prefilter_times_the_approach_from_when_it_starts():
    # 50 s edges at factor 2 before 100 s, at 1 after.  Leaving node 0 at
    # 90 s, the vehicle reaches 5 at 345 s; timing the whole approach at
    # the factor in effect at 90 s would give 590 s, past the 450 s
    # deadline, and drop the only feasible insertion
    net = make_line_network(10, profile=TravelTimeProfile((2.0, 1.0), interval_s=100.0))
    op = make_operator(net, [0])
    r1 = req(1, 90.0, 1, 9, net)
    op.book(op.insertion_offer(r1, 90.0), r1, 90.0)
    r2 = req(2, 90.0, 5, 8, net)
    offer = op.insertion_offer(r2, 90.0)
    assert offer is not None and offer.wait_s == 255.0
    vid, sched, _ = reference_offer(op, r2, 90.0)
    assert (offer.vehicle_id, offer.schedule) == (vid, sched)
    assert [(s.node, s.board, s.alight) for s in sched.stops] == [
        (1, (1,), ()), (5, (2,), ()), (8, (), (2,)), (9, (), (1,))]


def test_booking_applies_offered_schedule(line10):
    op = make_operator(line10, [0])
    r = req(1, 0.0, 2, 6, line10)
    offer = op.insertion_offer(r, 0.0)
    before = op.vehicles[0].odometer_m
    op.book(offer, r, 0.0)
    veh = op.vehicles[0]
    assert [s.node for s in veh.stops] == [2, 6]
    assert 1 in op.scheduled_ids
    assert veh.bundle() == frozenset({1})
    assert before == veh.odometer_m  # booking alone moves nothing


def test_booking_rejects_offer_whose_times_were_moved(line10):
    # one second later is still inside the wait window, but the stops no
    # longer match what the operator would plan now
    op = make_operator(line10, [0])
    r = req(1, 0.0, 2, 6, line10)
    offer = op.insertion_offer(r, 0.0)
    first, *rest = offer.schedule.stops
    assert first.arrival_s + 1.0 <= r.t_req_s + op.constraints.max_wait_s
    moved = dataclasses.replace(first, arrival_s=first.arrival_s + 1.0)
    doctored = dataclasses.replace(offer, schedule=dataclasses.replace(
        offer.schedule, stops=[moved, *rest]))
    with pytest.raises(ConsistencyError):
        op.book(doctored, r, 0.0)
    assert op.vehicles[0].stops == []
    assert 1 not in op.scheduled_ids


def test_stale_offer_rejected(line10):
    op = make_operator(line10, [0, 9])
    r1 = req(1, 0.0, 2, 6, line10)
    r2 = req(2, 0.0, 3, 7, line10)
    offer1 = op.insertion_offer(r1, 0.0)
    offer2 = op.insertion_offer(r2, 0.0)
    op.book(offer1, r1, 0.0)
    with pytest.raises(BookingError):
        op.book(offer2, r2, 0.0)


def test_second_rider_pooled_marginal_cost(line10):
    # two same-direction riders share one vehicle; marginal distance of the
    # second equals only the extra legs
    op = make_operator(line10, [0])
    r1 = req(1, 0.0, 1, 5, line10)
    o1 = op.insertion_offer(r1, 0.0)
    op.book(o1, r1, 0.0)
    r2 = req(2, 0.0, 2, 6, line10)
    o2 = op.insertion_offer(r2, 0.0)
    assert o2 is not None
    assert o2.vehicle_id == 0
    # schedule 1 -> 2 -> 5 -> 6: one extra edge at the end vs 1 -> 5
    assert o2.extra_distance_m == pytest.approx(500.0)


# -- rebalancing ---------------------------------------------------------


def oracle_min_transport_cost(costs, supplies, demands):
    """Exhaustive integer flows for tiny transportation problems."""
    n_s, n_d = len(supplies), len(demands)
    cells = [(i, j) for i in range(n_s) for j in range(n_d)]
    best = None
    max_flow = max(supplies) if supplies else 0

    def rec(idx, flows):
        nonlocal best
        if idx == len(cells):
            for j in range(n_d):
                if sum(flows[i][j] for i in range(n_s)) != demands[j]:
                    return
            cost = sum(flows[i][j] * costs[i][j] for i in range(n_s) for j in range(n_d))
            if best is None or cost < best:
                best = cost
            return
        i, j = cells[idx]
        for f in range(0, max_flow + 1):
            flows[i][j] = f
            if sum(flows[i][k] for k in range(n_d)) <= supplies[i]:
                rec(idx + 1, flows)
        flows[i][j] = 0

    rec(0, [[0] * n_d for _ in range(n_s)])
    return best


class StubForecast:
    def __init__(self, dep, arr):
        self.dep, self.arr = dep, arr

    def expected_departures(self, zone, t):
        return self.dep.get(zone, 0.0)

    def expected_arrivals(self, zone, t):
        return self.arr.get(zone, 0.0)


def three_zone_net():
    zones = {i: i // 5 for i in range(15)}
    return make_line_network(15, zones=zones)


def test_reposition_flows_match_transport_oracle():
    net = three_zone_net()
    events = []

    def sink(kind, time, **payload):
        events.append((kind, time, payload))

    fc = StubForecast(dep={1: 1.0, 2: 1.0}, arr={})
    op = make_operator(net, [1, 3], forecast=fc, sink=sink)
    moves = op.reposition(0.0)
    assert len(moves) == 2
    targets = sorted(m[3] for m in moves)
    assert targets == [net.zone_centroid(1), net.zone_centroid(2)]
    # minimal total centroid travel time, against exhaustive enumeration
    c0, c1, c2 = (net.zone_centroid(z) for z in (0, 1, 2))
    costs = [[net.travel_time(c0, c1, 0.0), net.travel_time(c0, c2, 0.0)]]
    expected = oracle_min_transport_cost(costs, [2], [1, 1])
    produced = sum(
        net.travel_time(c0, {1: c1, 2: c2}[m[2]], 0.0) for m in moves
    )
    assert produced == pytest.approx(expected)
    assert len(events) == 2
    assert all(e[0] == "reposition" for e in events)


def test_reposition_nearest_vehicle_first():
    net = three_zone_net()
    fc = StubForecast(dep={2: 1.0}, arr={})
    op = make_operator(net, [0, 4], forecast=fc)  # both in zone 0; node 4 closer to zone 2
    moves = op.reposition(0.0)
    assert len(moves) == 1
    assert moves[0][0] == 1  # vehicle index 1 sits at node 4
    assert op.vehicles[1].reposition_target == net.zone_centroid(2)
    assert op.vehicles[0].reposition_target is None


def test_reposition_balanced_zones_noop():
    net = three_zone_net()
    fc = StubForecast(dep={}, arr={})
    op = make_operator(net, [1, 6, 11], forecast=fc)
    assert op.reposition(0.0) == []


def test_reposition_deficit_beyond_supply_scaled():
    net = three_zone_net()
    # zone 1 wants 3, zone 2 wants 1, but only 2 idle vehicles exist in zone 0
    fc = StubForecast(dep={1: 3.0, 2: 1.0}, arr={})
    op = make_operator(net, [0, 1], forecast=fc)
    moves = op.reposition(0.0)
    assert len(moves) == 2
    to_zones = sorted(m[2] for m in moves)
    assert to_zones == [1, 1]  # largest remainder favors the bigger deficit


def test_booking_interrupts_repositioning():
    net = three_zone_net()
    fc = StubForecast(dep={2: 1.0}, arr={})
    op = make_operator(net, [0], forecast=fc)
    op.reposition(0.0)
    assert op.vehicles[0].reposition_target is not None
    r = req(1, 0.0, 0, 4, net)
    offer = op.insertion_offer(r, 0.0)
    op.book(offer, r, 0.0)
    assert op.vehicles[0].reposition_target is None


# -- reward scale --------------------------------------------------------


def test_default_assignment_reward_formula(line10):
    obj = ObjectiveParams.from_rates(0.25, 16.2, 0.0)
    reward = default_assignment_reward(line10, obj.dist_weight, obj.time_weight,
                                       3600.0, 4)
    expected = 10.0 * (obj.dist_weight * 4500.0 * 4 + obj.time_weight * 3600.0 * 4)
    assert reward == pytest.approx(expected)
    assert default_assignment_reward(line10, 0.0, 0.0, 3600.0, 4) == 1.0
