"""Enumeration and exact assignment against a brute-force reference."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from poolmarket.assign import (
    _TIE_TOL,
    InfeasibleAssignmentError,
    V2RB,
    build_problem,
    enumerate_v2rbs,
    oracle_assignment,
    oracle_enumerate,
    reoptimize,
    solve_ilp,
)
from poolmarket.demand import Request
from poolmarket.network import TravelTimeProfile
from poolmarket.operators import (
    ConsistencyError,
    Constraints,
    ObjectiveParams,
    Operator,
    StopSpec,
    Vehicle,
    plan_stop_sequence,
)

from conftest import make_grid_network, make_line_network, make_random_network


OBJ = ObjectiveParams.from_rates(0.25, 16.2, 10000.0)
CONS = Constraints()


def req(rid, t, o, d, net):
    path = net.shortest_path(o, d, t)
    return Request(rid, t, o, d, path.distance_m, path.travel_time_s)


def make_operator(net, fleet_nodes):
    op = Operator(0, net, len(fleet_nodes), CONS, OBJ, 0.00043, start_seed=0)
    for veh, node in zip(op.vehicles, fleet_nodes):
        veh.node = node
    return op


def random_instance(seed):
    """Small world with idle vehicles and open requests, nothing booked."""
    rng = random.Random(seed)
    net = make_random_network(rng.randrange(10 ** 6), n_nodes=8, extra_edges=6)
    nodes = sorted(net.node_ids)
    vehicles = [Vehicle(i, nodes[rng.randrange(len(nodes))])
                for i in range(rng.randint(1, 3))]
    requests = {}
    now = 0.0
    for rid in range(1, rng.randint(2, 4) + 1):
        t = rng.uniform(0.0, 240.0)
        o, d = rng.sample(nodes, 2)
        requests[rid] = req(rid, t, o, d, net)
        now = max(now, t)
    return net, vehicles, requests, now


def production_table(net, vehicles, requests, now, **kw):
    opts = enumerate_v2rbs(net, vehicles, requests, sorted(requests), CONS, OBJ,
                           now, {}, **kw)
    return {z.key(): z.cost for z in opts}, opts


# -- pairs of requests -----------------------------------------------------


def pair_keys(net, vehicle_nodes, ra, rb):
    vehicles = [Vehicle(i, node) for i, node in enumerate(vehicle_nodes)]
    table, _ = production_table(net, vehicles, {1: ra, 2: rb}, 0.0)
    return set(table)


def test_same_direction_pair_is_a_bundle(line10):
    keys = pair_keys(line10, [0], req(1, 0.0, 0, 5, line10),
                     req(2, 0.0, 1, 6, line10))
    assert (0, (1, 2)) in keys


def test_opposite_ends_pair_is_no_bundle(line10):
    # 450 s just to cross the line; one of the two pickups always misses
    # its 360 s window whichever end the vehicle starts from
    keys = pair_keys(line10, [0, 4, 9], req(1, 0.0, 0, 9, line10),
                     req(2, 0.0, 9, 0, line10))
    assert {(0, (1,)), (2, (2,))} <= keys
    assert not any(bundle == (1, 2) for _, bundle in keys)


def test_pair_bundle_bridges_request_gap(line10):
    # the second customer appears 500 s after the first, at the node where
    # the first ride ends; one vehicle serves both back to back
    keys = pair_keys(line10, [0], req(1, 0.0, 0, 2, line10),
                     req(2, 500.0, 2, 4, line10))
    assert (0, (1, 2)) in keys


# -- enumeration vs brute force -----------------------------------------


def test_enumeration_and_assignment_match_bruteforce():
    pooled = 0
    for seed in range(25):
        net, vehicles, requests, now = random_instance(seed)
        table, opts = production_table(net, vehicles, requests, now)
        ref = oracle_enumerate(net, vehicles, sorted(requests), requests, {},
                               CONS, OBJ, now)
        assert set(table) == set(ref), f"seed {seed}: option sets differ"
        for key in ref:
            assert table[key] == ref[key], f"seed {seed}: cost differs at {key}"
        pooled += sum(1 for (_, bundle) in table if len(bundle) > 1)

        vids = [v.vehicle_id for v in vehicles]
        problem = build_problem(opts, (), sorted(requests), vids)
        got = solve_ilp(problem)
        want = oracle_assignment(ref, vids, (), sorted(requests))
        assert want is not None
        assert got.objective == want[0], f"seed {seed}: assignment value differs"
    assert pooled > 0, "instances never exercised shared rides"


def test_enumeration_with_onboard_matches_bruteforce():
    for seed in (3, 11, 19):
        rng = random.Random(seed)
        net = make_random_network(rng.randrange(10 ** 6), n_nodes=8, extra_edges=6)
        nodes = sorted(net.node_ids)
        rider = req(9, 0.0, nodes[0], nodes[4], net)
        veh = Vehicle(0, nodes[1], onboard={9})
        pickups = {9: 30.0}
        requests = {9: rider}
        now = 60.0
        for rid in (1, 2):
            o, d = rng.sample(nodes, 2)
            requests[rid] = req(rid, now, o, d, net)
        opts = enumerate_v2rbs(net, [veh], requests, [1, 2], CONS, OBJ, now, pickups)
        table = {z.key(): z.cost for z in opts}
        ref = oracle_enumerate(net, [veh], [1, 2], requests, pickups, CONS, OBJ, now)
        assert set(table) == set(ref)
        for key in ref:
            assert table[key] == ref[key]
        for z in opts:
            assert 9 in z.bundle


def test_enumerated_bundles_closed_under_removal():
    for seed in (2, 8, 14):
        net, vehicles, requests, now = random_instance(seed)
        table, _ = production_table(net, vehicles, requests, now)
        for vid, bundle in table:
            if len(bundle) < 2:
                continue
            for rid in bundle:
                rest = tuple(sorted(set(bundle) - {rid}))
                assert (vid, rest) in table


# -- exact solver --------------------------------------------------------


def opt(vid, bundle, cost):
    return V2RB(vid, frozenset(bundle), cost, None)


def test_solver_respects_vehicle_exclusivity():
    options = [
        opt(0, {1}, -10.0), opt(0, {2}, -10.0), opt(0, {1, 2}, -15.0),
        opt(1, {1}, -9.0), opt(1, {2}, -9.0),
    ]
    problem = build_problem(options, (1, 2), (), (0, 1))
    sol = solve_ilp(problem)
    assert sol.objective == -19.0
    keys = sorted(z.key() for z in sol.chosen)
    # two optimal partitions tie at -19; either is fine, but the pick
    # must not wobble between calls
    assert keys in ([(0, (1,)), (1, (2,))], [(0, (2,)), (1, (1,))])
    assert sorted(z.key() for z in solve_ilp(problem).chosen) == keys


def test_solver_closes_fractional_gap():
    # the half-integral relaxation of three overlapping pairs scores
    # -15; the best whole assignment is a pair plus a single at -14
    options = [
        opt(0, {1, 2}, -10.0), opt(1, {2, 3}, -10.0), opt(2, {1, 3}, -10.0),
        opt(0, {1}, -4.0), opt(0, {2}, -4.0), opt(1, {2}, -4.0),
        opt(1, {3}, -4.0), opt(2, {1}, -4.0), opt(2, {3}, -4.0),
    ]
    problem = build_problem(options, (1, 2, 3), (), (0, 1, 2))
    sol = solve_ilp(problem)
    ref = oracle_assignment({z.key(): z.cost for z in options}, (0, 1, 2), (1, 2, 3))
    assert sol.objective == -14.0
    assert sol.objective == ref[0]
    covered = sorted(rid for z in sol.chosen for rid in z.bundle)
    assert covered == [1, 2, 3]


def tie_table(seed):
    """Options of k requests costing k * c - 10 k, c from a set whose sums tie.

    Sums such as 0.1 + 0.2 and 0.3 are equal in exact arithmetic but one
    ulp apart in floats, so many selections tie or nearly tie.  The
    requests of a random disjoint incumbent are required, the rest
    optional.
    """
    rng = random.Random(seed)
    rids = list(range(1, rng.randint(4, 6) + 1))
    vids = list(range(rng.randint(2, 4)))
    table = {}
    for v in vids:
        for k in (1, 2, 3):
            for b in rng.sample(list(combinations(rids, k)), 3):
                table[(v, b)] = k * rng.choice((0.1, 0.2, 0.3, 0.4, 0.6, 0.7)) - 10 * k
    incumbent, used = [], set()
    for key in rng.sample(sorted(table), len(table)):
        if key[0] not in {v for v, _ in incumbent} and not used & set(key[1]):
            incumbent.append(key)
            used |= set(key[1])
    return table, vids, rids, sorted(incumbent)


def test_solver_on_float_ties_stays_near_oracle_and_below_incumbent():
    for seed in range(60):
        table, vids, rids, incumbent = tie_table(seed)
        required = sorted({rid for _, b in incumbent for rid in b})
        optional = [rid for rid in rids if rid not in required]
        options = [opt(v, b, cost) for (v, b), cost in table.items()]
        problem = build_problem(options, required, optional, vids)
        sol = solve_ilp(problem, initial_keys=incumbent)
        ref = oracle_assignment(table, vids, required, optional)
        assert abs(sol.objective - ref[0]) <= _TIE_TOL, seed
        start = 0.0
        for key in incumbent:
            start += table[key]
        assert sol.objective <= start, seed
        again = solve_ilp(problem, initial_keys=incumbent)
        assert [z.key() for z in again.chosen] == [z.key() for z in sol.chosen]


def test_uncovered_request_is_reported():
    options = [opt(0, {1}, -5.0)]
    with pytest.raises(InfeasibleAssignmentError) as err:
        build_problem(options, (1, 5), (), (0,))
    assert "5" in str(err.value)


def test_jointly_uncoverable_raises():
    # each request is coverable alone but one vehicle cannot take both
    options = [opt(0, {1}, -5.0), opt(0, {2}, -5.0)]
    problem = build_problem(options, (1, 2), (), (0,))
    with pytest.raises(InfeasibleAssignmentError):
        solve_ilp(problem)


def test_optional_requests_may_stay_unserved(line10):
    veh = Vehicle(0, 0)
    far = req(1, 0.0, 9, 5, line10)     # 450 s away, 360 s window
    opts = enumerate_v2rbs(line10, [veh], {1: far}, [1], CONS, OBJ, 0.0, {})
    assert opts == []
    problem = build_problem(opts, (), (1,), (0,))
    sol = solve_ilp(problem)
    assert sol.objective == 0.0 and sol.chosen == []


# -- re-optimization ----------------------------------------------------


def test_reoptimize_untangles_crossed_assignment(line10):
    op = make_operator(line10, [0, 9])
    ra = req(1, 0.0, 2, 4, line10)
    rb = req(2, 0.0, 7, 5, line10)
    op.requests = {1: ra, 2: rb}
    op.scheduled_ids = {1, 2}
    v0, v1 = op.vehicles
    s0, bad0 = plan_stop_sequence(line10, v0, [StopSpec(7, board=(2,)),
                                               StopSpec(5, alight=(2,))],
                                  0.0, op.requests, {}, CONS)
    s1, bad1 = plan_stop_sequence(line10, v1, [StopSpec(2, board=(1,)),
                                               StopSpec(4, alight=(1,))],
                                  0.0, op.requests, {}, CONS)
    assert bad0 is None and bad1 is None
    op.apply_schedule(v0, s0)
    op.apply_schedule(v1, s1)

    summary = reoptimize(op, 0.0)
    assert summary["optimized_cost"] < summary["incumbent_cost"]
    assert summary["optimized_cost"] == pytest.approx(-19997.2)
    assert summary["n_changed"] == 2
    assert v0.bundle() == frozenset({1})
    assert v1.bundle() == frozenset({2})


def test_reoptimize_never_worse_than_booked_plan():
    net = make_grid_network(4, 5)
    op = make_operator(net, [0, 12, 19])
    rng = random.Random(5)
    t = 0.0
    booked = []
    for rid in range(1, 7):
        o, d = rng.sample(range(20), 2)
        r = req(rid, t, o, d, net)
        offer = op.insertion_offer(r, t)
        if offer is not None:
            op.book(offer, r, t)
            booked.append(rid)
        t += 60.0
    assert len(booked) >= 4
    summary = reoptimize(op, t)
    assert summary["optimized_cost"] <= summary["incumbent_cost"]
    held = set()
    for veh in op.vehicles:
        assert not (held & veh.bundle())
        held |= veh.bundle()
    assert held == set(booked)


def test_plan_broken_behind_the_clock_is_a_consistency_error(line10):
    op = make_operator(line10, [0])
    r = req(1, 0.0, 6, 9, line10)
    offer = op.insertion_offer(r, 0.0)
    assert offer is not None and offer.wait_s == pytest.approx(300.0)
    op.book(offer, r, 0.0)

    # swapping the profile after booking moves the pickup to 600 s, past
    # the 360 s promise; no run does this, so both paths refuse the plan
    line10.profile = TravelTimeProfile((2.0,))
    with pytest.raises(ConsistencyError, match="vehicle 0.*wait"):
        reoptimize(op, 60.0)
    with pytest.raises(ConsistencyError, match="vehicle 0.*wait"):
        op.insertion_offer(req(2, 60.0, 1, 3, line10), 60.0)


# -- determinism -------------------------------------------------------


def test_identical_inputs_identical_outputs():
    net, vehicles, requests, now = random_instance(77)
    runs = []
    for flip in (False, True):
        vs = list(reversed(vehicles)) if flip else vehicles
        table, opts = production_table(net, vs, requests, now)
        problem = build_problem(opts, (), sorted(requests),
                                [v.vehicle_id for v in vs])
        sol = solve_ilp(problem)
        runs.append((sorted(table.items()),
                     [z.key() for z in sol.chosen], sol.objective))
    assert runs[0] == runs[1]
