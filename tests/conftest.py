"""Shared builders for toy networks and demand used across the test suite."""

from __future__ import annotations

import random

import pytest

from poolmarket.network import Network, TravelTimeProfile


def make_line_network(n=10, spacing_m=500.0, speed_mps=10.0, profile=None, zones=None):
    """Nodes 0..n-1 on a line, bidirectional edges of equal length."""
    nodes = {i: (float(i) * spacing_m, 0.0) for i in range(n)}
    tt = spacing_m / speed_mps
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, spacing_m, tt))
        edges.append((i + 1, i, spacing_m, tt))
    return Network(nodes, edges, zones=zones, profile=profile)


def grid_layout(rows=4, cols=5, spacing_m=400.0, speed_mps=10.0, zone_split=None):
    """Nodes, edges and zones of a rectangular grid with bidirectional edges.

    Zones, when asked for, are the four quadrants; otherwise None.
    """
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[r * cols + c] = (c * spacing_m, r * spacing_m)
    tt = spacing_m / speed_mps
    edges = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            if c + 1 < cols:
                edges.append((nid, nid + 1, spacing_m, tt))
                edges.append((nid + 1, nid, spacing_m, tt))
            if r + 1 < rows:
                edges.append((nid, nid + cols, spacing_m, tt))
                edges.append((nid + cols, nid, spacing_m, tt))
    zones = None
    if zone_split:
        zones = {}
        for r in range(rows):
            for c in range(cols):
                zones[r * cols + c] = (0 if c < cols // 2 else 1) + (0 if r < rows // 2 else 2)
    return nodes, edges, zones


def make_grid_network(rows=4, cols=5, spacing_m=400.0, speed_mps=10.0, profile=None,
                      zone_split=None):
    """Rectangular grid, bidirectional edges; optional quadrant zones."""
    nodes, edges, zones = grid_layout(rows, cols, spacing_m, speed_mps, zone_split)
    return Network(nodes, edges, profile=profile, zones=zones)


def make_random_network(seed, n_nodes=8, extra_edges=6, profile=None):
    """Strongly connected random graph: a ring plus random chords."""
    rng = random.Random(seed)
    nodes = {i: (rng.uniform(0, 2000), rng.uniform(0, 2000)) for i in range(n_nodes)}
    edges = {}
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        edges[(i, j)] = (rng.uniform(200, 800), rng.uniform(30, 120))
    added = 0
    while added < extra_edges:
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u == v or (u, v) in edges:
            continue
        edges[(u, v)] = (rng.uniform(200, 800), rng.uniform(20, 100))
        added += 1
    edge_list = [(u, v, ln, tt) for (u, v), (ln, tt) in sorted(edges.items())]
    return Network(nodes, edge_list, profile=profile)


def make_tie_grid(seed, side=6):
    """Grid whose edges draw from few lengths and times, so many paths tie.

    Times are multiples of 0.1 s, whose float sums depend on the order
    they are added in; lengths differ, so tied paths differ in distance.
    """
    rng = random.Random(seed)
    nodes = {r * side + c: (c * 400.0, r * 400.0) for r in range(side) for c in range(side)}
    edges = []
    for r in range(side):
        for c in range(side):
            nid = r * side + c
            for nb in ([nid + 1] if c + 1 < side else []) + ([nid + side] if r + 1 < side else []):
                for u, v in ((nid, nb), (nb, nid)):
                    edges.append((u, v, rng.randint(1, 9) * 100.0, rng.randint(1, 4) * 0.1))
    return Network(nodes, edges)


def enumerate_min_travel_time(network, origin, dest):
    """Oracle over all simple paths (tiny graphs only).

    Returns the minimum base travel time, the lexicographically smallest
    node tuple among the paths within 1e-7 (relative) of that minimum,
    and that path's distance summed from the origin.
    """
    paths = []

    def walk(u, t, dist, seen):
        if u == dest:
            paths.append((t, tuple(seen), dist))
            return
        for (a, v), (ln, tt) in network.edge_data.items():
            if a == u and v not in seen:
                seen.append(v)
                walk(v, t + tt, dist + ln, seen)
                seen.pop()

    walk(origin, 0.0, 0.0, [origin])
    best = min(t for t, _, _ in paths)
    tol = 1e-7 * max(1.0, best)
    nodes, dist = min((nodes, dist) for t, nodes, dist in paths if t - best <= tol)
    return best, nodes, dist


@pytest.fixture
def line10():
    return make_line_network(10)
