"""Network loading, shortest paths, tie-breaking and scaling."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolmarket.network import (
    Network,
    NetworkLoadError,
    NoPathError,
    TravelTimeProfile,
)

from conftest import (
    enumerate_min_travel_time,
    make_line_network,
    make_random_network,
    make_tie_grid,
)


def test_line_network_distance_and_scaling():
    # 10-node line, 500 m edges: distance 0->9 is 9 edges
    net = make_line_network(10, profile=TravelTimeProfile((1.0, 2.0), 900.0))
    res = net.shortest_path(0, 9, 0.0)
    assert res.distance_m == pytest.approx(9 * 500.0)
    assert res.travel_time_s == pytest.approx(9 * 50.0)
    assert res.nodes == tuple(range(10))
    # second interval doubles travel time, distance unchanged
    res2 = net.shortest_path(0, 9, 900.0)
    assert res2.travel_time_s == pytest.approx(2 * 9 * 50.0)
    assert res2.distance_m == res.distance_m
    assert res2.nodes == res.nodes


def test_loader_rejects_unknown_node():
    nodes = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    edges = [(0, 1, 100.0, 10.0), (1, 0, 100.0, 10.0), (0, 99, 100.0, 10.0)]
    with pytest.raises(NetworkLoadError, match=r"edge \(0,99\) references unknown node"):
        Network(nodes, edges)


def test_loader_rejects_nonpositive_edge():
    nodes = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    for length_m, tt_s in [(100.0, 0.0), (0.0, 10.0), (-5.0, 10.0),
                           (100.0, math.inf), (math.inf, 10.0), (math.nan, 10.0)]:
        edges = [(0, 1, length_m, tt_s), (1, 0, 100.0, 10.0)]
        with pytest.raises(NetworkLoadError,
                           match=r"edge \(0,1\) must have positive, finite length"):
            Network(nodes, edges)


@pytest.mark.parametrize("edges, message", [
    # nothing leads from nodes 0 and 1 to nodes 2 or 3
    ([(0, 1, 100.0, 10.0), (1, 0, 100.0, 10.0), (3, 1, 100.0, 10.0),
      (2, 0, 100.0, 10.0)],
     "node 2 not reachable from node 0"),
    # nodes 2 and 3 cannot reach back
    ([(0, 1, 100.0, 10.0), (1, 0, 100.0, 10.0), (1, 3, 100.0, 10.0),
      (1, 2, 100.0, 10.0)],
     "node 2 not reachable to node 0"),
    # sparse ids: position 1 is id 40, the smallest id nothing leads to
    ([(7, 900, 100.0, 10.0), (900, 7, 100.0, 10.0), (40, 7, 100.0, 10.0),
      (300, 900, 100.0, 10.0)],
     "node 40 not reachable from node 7"),
], ids=["from", "to", "sparse-ids"])
def test_disconnected_network_rejected(edges, message):
    nodes = {n: (float(n), 0.0) for edge in edges for n in edge[:2]}
    with pytest.raises(NetworkLoadError, match=message):
        Network(nodes, edges)


def test_paths_optimal_against_enumeration():
    # brute-force oracle over all simple paths on small random graphs
    checked = 0
    for seed in range(6):
        net = make_random_network(seed, n_nodes=7, extra_edges=8)
        rng = random.Random(1000 + seed)
        for _ in range(20):
            o = rng.randrange(7)
            d = rng.randrange(7)
            if o == d:
                continue
            best, nodes, dist = enumerate_min_travel_time(net, o, d)
            res = net.shortest_path(o, d, 0.0)
            assert res.travel_time_s == pytest.approx(best, abs=1e-9)
            assert res.nodes == nodes
            assert res.distance_m == dist
            checked += 1
    assert checked > 80


@st.composite
def tie_heavy_networks(draw):
    """A ring plus chords; times are few multiples of 0.1 s, so paths tie.

    Node ids are either 0..n-1 around the ring or sparse ids in another
    order, so that ascending id is not ascending ring position.
    """
    n = draw(st.integers(3, 6))
    ids = draw(st.one_of(
        st.just(list(range(n))),
        st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True)))
    times = st.integers(1, 3).map(lambda k: k * 0.1)
    lengths = st.integers(1, 5).map(lambda k: k * 100.0)
    edges = {(i, (i + 1) % n): (draw(lengths), draw(times)) for i in range(n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    for u, v in chords:
        if u != v:
            edges.setdefault((u, v), (draw(lengths), draw(times)))
    nodes = {ids[i]: (float(i), 0.0) for i in range(n)}
    return Network(nodes, [(ids[u], ids[v], ln, tt)
                           for (u, v), (ln, tt) in edges.items()])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(net=tie_heavy_networks())
def test_every_pair_takes_the_smallest_time_minimal_path(net):
    for o in net.node_ids:
        for d in net.node_ids:
            if o == d:
                continue
            best, nodes, dist = enumerate_min_travel_time(net, o, d)
            res = net.shortest_path(o, d, 0.0)
            assert res.nodes == nodes
            assert res.distance_m == dist == net.distance(o, d)
            assert net.base_travel_time(o, d) == pytest.approx(best, abs=1e-9)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(net=tie_heavy_networks(), start=st.floats(0.0, 2.0))
def test_leg_is_travel_time_and_distance(net, start):
    # 0.15 s intervals against 0.1-0.3 s edges: most legs cross boundaries
    net.profile = TravelTimeProfile((3.0, 0.4, 2.0, 1.1), 0.15)
    for o in net.node_ids:
        for d in net.node_ids:
            leg = net.leg(o, d, start)
            assert repr(leg) == repr((net.travel_time(o, d, start), net.distance(o, d)))
            assert all(type(x) is float for x in leg)


def test_leg_on_tie_grids_and_unknown_nodes(line10):
    for seed in range(4):
        net = make_tie_grid(seed)
        # 0.5 s intervals against 0.1-0.4 s edges
        net.profile = TravelTimeProfile((3.0, 0.4, 2.0), 0.5)
        for o in net.node_ids:
            for d in net.node_ids:
                for t in (0.0, 0.3, 0.7, 2.0):
                    assert repr(net.leg(o, d, t)) == repr(
                        (net.travel_time(o, d, t), net.distance(o, d)))
    with pytest.raises(NoPathError, match="unknown node 77"):
        line10.leg(0, 77, 0.0)
    with pytest.raises(NoPathError, match="unknown node 88"):
        line10.leg(88, 3, 0.0)


def test_tie_break_smallest_next_node():
    # two equal-time routes 0->1->3 and 0->2->3; must take node 1
    nodes = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (1.0, -1.0), 3: (2.0, 0.0)}
    edges = [
        (0, 1, 100.0, 10.0), (1, 3, 100.0, 10.0),
        (0, 2, 100.0, 10.0), (2, 3, 100.0, 10.0),
        (3, 2, 100.0, 10.0), (2, 0, 100.0, 10.0),
        (3, 1, 100.0, 10.0), (1, 0, 100.0, 10.0),
    ]
    net = Network(nodes, edges)
    assert net.shortest_path(0, 3, 0.0).nodes == (0, 1, 3)


def test_od_cache_reflects_profile_change():
    net = make_line_network(5, profile=TravelTimeProfile((1.0,), 900.0))
    before = [net.travel_time(0, d, 0.0) for d in range(5)]
    net.profile = TravelTimeProfile((1.5,), 900.0)
    assert [net.travel_time(0, d, 0.0) for d in range(5)] == [1.5 * t for t in before]
    assert net.shortest_path(0, 4, 0.0).travel_time_s == 1.5 * before[4]


def test_repeat_queries_identical():
    net = make_random_network(9, n_nodes=8, extra_edges=9)
    first = [net.shortest_path(0, d, 450.0) for d in range(8)]
    second = [net.shortest_path(0, d, 450.0) for d in range(8)]
    assert first == second


def test_unknown_node_query_raises(line10):
    with pytest.raises(NoPathError, match="unknown node 77"):
        line10.shortest_path(0, 77, 0.0)
    with pytest.raises(NoPathError, match="unknown node 88"):
        line10.travel_time(88, 77, 0.0)


def test_profile_clamping_and_boundaries():
    prof = TravelTimeProfile((1.0, 2.0, 0.5), 900.0)
    assert prof.factor_at(-5.0) == 1.0
    assert prof.factor_at(0.0) == 1.0
    assert prof.factor_at(899.9) == 1.0
    assert prof.factor_at(900.0) == 2.0
    assert prof.factor_at(1800.0) == 0.5
    assert prof.factor_at(1e9) == 0.5  # beyond horizon: last factor
    assert prof.next_boundary_after(0.0) == 900.0
    assert prof.next_boundary_after(900.0) == 1800.0
    assert prof.next_boundary_after(1800.0) == math.inf


def test_elapsed_for_base_splits_intervals():
    prof = TravelTimeProfile((1.0, 2.0), 900.0)
    # 100 base seconds starting 30 s before the boundary: 30 wall seconds
    # consume 30 base, the remaining 70 base take 140 wall seconds
    assert prof.elapsed_for_base(870.0, 100.0) == pytest.approx(30.0 + 140.0)
    assert prof.elapsed_for_base(0.0, 100.0) == pytest.approx(100.0)
    assert prof.elapsed_for_base(900.0, 100.0) == pytest.approx(200.0)


@st.composite
def profiles_and_trips(draw):
    """A stepped profile, a start time up to two intervals past its last
    factor, and an amount of base travel."""
    factors = draw(st.lists(st.sampled_from((0.5, 0.9, 1.0, 1.2, 1.3, 2.0, 3.5)),
                            min_size=1, max_size=5))
    width = draw(st.sampled_from((7.0, 100.0, 150.0, 450.0, 900.0)))
    prof = TravelTimeProfile(factors, width)
    start = draw(st.floats(0.0, width * (len(factors) + 2)))
    base = draw(st.floats(0.0, 5.0 * width))
    return prof, start, base


def integrated_arrival(prof, start, base):
    """Exact arrival from start after base seconds of base travel."""
    t, rem = Fraction(start), Fraction(base)
    i = int(t // Fraction(prof.interval_s))
    while True:
        f = Fraction(prof.factors[min(i, len(prof.factors) - 1)])
        end = (i + 1) * Fraction(prof.interval_s)
        if i >= len(prof.factors) - 1 or t + rem * f <= end:
            return t + rem * f
        rem -= (end - t) / f
        t, i = end, i + 1


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(trip=profiles_and_trips(), later=st.floats(0.0, 1000.0))
def test_elapsed_for_base_is_fifo(trip, later):
    # leaving later never means arriving earlier; rounding may cost ulps
    prof, start, base = trip
    arrive = start + prof.elapsed_for_base(start, base)
    assert close(arrive, float(integrated_arrival(prof, start, base)))
    start2 = start + later
    arrive2 = start2 + prof.elapsed_for_base(start2, base)
    assert arrive2 >= arrive or close(arrive2, arrive)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(trip=profiles_and_trips())
def test_elapsed_for_base_within_one_interval_is_one_product(trip):
    prof, start, base = trip
    i = int(start // prof.interval_s)
    if i >= len(prof.factors) - 1:
        # at or beyond the last factor it holds for good
        assert prof.elapsed_for_base(start, base) == base * prof.factors[-1]
    elif start + base * prof.factors[i] <= (i + 1) * prof.interval_s:
        assert prof.elapsed_for_base(start, base) == base * prof.factors[i]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(trip=profiles_and_trips(), k=st.integers(0, 6))
def test_elapsed_for_base_from_a_boundary_uses_the_new_factor(trip, k):
    prof, _, base = trip
    start = k * prof.interval_s
    f = prof.factors[min(k, len(prof.factors) - 1)]
    assert prof.elapsed_for_base(start, 1e-3) == 1e-3 * f
    assert close(start + prof.elapsed_for_base(start, base),
                 float(integrated_arrival(prof, start, base)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(trip=profiles_and_trips(), share=st.floats(0.0, 1.0))
def test_elapsed_for_base_splits_anywhere(trip, share):
    prof, start, base = trip
    first = base * share
    mid = start + prof.elapsed_for_base(start, first)
    end = mid + prof.elapsed_for_base(mid, base - first)
    assert close(end, start + prof.elapsed_for_base(start, base))


def test_zone_centroids_deterministic():
    zones = {i: (0 if i < 5 else 1) for i in range(10)}
    net = make_line_network(10, zones=zones)
    assert net.zone_centroid(0) == 2
    assert net.zone_centroid(1) == 7
    assert net.zone_ids == (0, 1)


def test_diameter_distance_line():
    net = make_line_network(10, spacing_m=500.0)
    assert net.diameter_distance_m() == pytest.approx(9 * 500.0)


def test_diameter_is_the_longest_returned_path():
    # tied paths of unequal length: the diameter must be measured on the
    # paths that queries return, not on Dijkstra's relaxation order
    for seed in range(10):
        net = make_tie_grid(seed)
        longest = max(net.distance(o, d) for o in net.node_ids for d in net.node_ids)
        assert net.diameter_distance_m() == longest


def test_queries_return_python_numbers():
    # numpy scalars would print as np.float64(...) in reports and events
    net = make_tie_grid(3)
    o, d = net.node_ids[0], net.node_ids[-1]
    res = net.shortest_path(o, d, 0.0)
    for value in (net.travel_time(o, d, 0.0), net.base_travel_time(o, d),
                  net.distance(o, d), net.diameter_distance_m(),
                  res.travel_time_s, res.distance_m):
        assert type(value) is float
    assert all(type(n) is int for n in res.nodes)
