"""Road network with piecewise-constant travel-time scaling.

Edge base travel times are multiplied by a global scale factor that is
constant within each profile interval.  Because the scaling is uniform
across all edges, the time-minimal path between two nodes is the same in
every interval; only its travel time changes.  Paths are therefore
computed once on base times and scaled per query: one shortest-path
tree per origin gives the base time, the distance and the path to
every node.

The graph is one CSR matrix of base times whose rows and columns are
the nodes in ascending id order.  Determinism: Dijkstra's times do not
depend on the order it scans nodes in, and among equal-time paths the
returned node sequence is the lexicographically smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, depth_first_order, dijkstra


class NetworkLoadError(ValueError):
    """Network structure or travel-time profile violates the required format."""


class NoPathError(ValueError):
    """No route exists between the two queried nodes."""


@dataclass(frozen=True)
class PathResult:
    travel_time_s: float
    distance_m: float
    nodes: tuple[int, ...]


class TravelTimeProfile:
    """Global multiplicative scaling of base edge travel times per interval."""

    def __init__(self, factors=(1.0,), interval_s: float = 900.0):
        factors = tuple(float(f) for f in factors)
        if not factors:
            raise NetworkLoadError("travel time profile needs at least one factor")
        for i, f in enumerate(factors):
            if not (f > 0.0) or not math.isfinite(f):
                raise NetworkLoadError(f"profile factor {i} must be positive, got {f}")
        if not (interval_s > 0.0):
            raise NetworkLoadError("profile interval_s must be positive")
        self.factors = factors
        self.interval_s = float(interval_s)

    def factor_at(self, t: float) -> float:
        """Scale factor active at absolute time t (clamped at both ends)."""
        if t < 0:
            return self.factors[0]
        idx = int(t // self.interval_s)
        if idx >= len(self.factors):
            idx = len(self.factors) - 1
        return self.factors[idx]

    def next_boundary_after(self, t: float) -> float:
        """First time > t at which the factor may change; inf when none left."""
        idx = int(t // self.interval_s) if t >= 0 else -1
        if idx >= len(self.factors) - 1:
            return math.inf
        return (idx + 1) * self.interval_s

    def elapsed_for_base(self, start: float, base_tt: float) -> float:
        """Wall-clock seconds needed to consume base_tt of base travel from start."""
        t = float(start)
        rem = float(base_tt)
        while rem > 0.0:
            f = self.factor_at(t)
            need = rem * f
            nb = self.next_boundary_after(t)
            if t + need <= nb:
                return t + need - start
            rem -= (nb - t) / f
            t = nb
        return t - start

    def base_for_elapsed(self, start: float, elapsed: float) -> float:
        """Base travel consumed by elapsed wall-clock seconds from start."""
        t = float(start)
        rem = float(elapsed)
        base = 0.0
        while rem > 0.0:
            f = self.factor_at(t)
            nb = self.next_boundary_after(t)
            span = nb - t
            if rem <= span:
                return base + rem / f
            base += span / f
            rem -= span
            t = nb
        return base


class Network:
    """Directed road graph with zones and a travel-time profile.

    Structure is immutable after construction.  Each origin's
    shortest-path tree is built on its first query and cached; it holds
    base times only, so assigning a new ``profile`` takes effect at once.
    """

    def __init__(self, nodes, edges, zones=None, profile: TravelTimeProfile | None = None):
        self.coords = {int(n): (float(x), float(y)) for n, (x, y) in dict(nodes).items()}
        if not self.coords:
            raise NetworkLoadError("network has no nodes")
        self.node_ids = tuple(sorted(self.coords))
        self.edge_data: dict[tuple[int, int], tuple[float, float]] = {}
        for u, v, length_m, tt_s in edges:
            u, v = int(u), int(v)
            length_m, tt_s = float(length_m), float(tt_s)
            if u not in self.coords or v not in self.coords:
                raise NetworkLoadError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise NetworkLoadError(f"edge ({u},{v}) is a self loop")
            if not (0.0 < length_m < math.inf and 0.0 < tt_s < math.inf):
                raise NetworkLoadError(
                    f"edge ({u},{v}) must have positive, finite length and travel time"
                )
            if (u, v) in self.edge_data:
                raise NetworkLoadError(f"duplicate edge ({u},{v})")
            self.edge_data[(u, v)] = (length_m, tt_s)
        self._pos = {n: i for i, n in enumerate(self.node_ids)}
        ends = np.array([(self._pos[u], self._pos[v]) for u, v in self.edge_data],
                        dtype=int).reshape(-1, 2)
        # converting from (row, col) pairs sorts each row's columns, so
        # depth_first_order visits children in ascending id
        self._times = sparse.csr_matrix(
            ([tt for _, tt in self.edge_data.values()], (ends[:, 0], ends[:, 1])),
            shape=(len(self.node_ids),) * 2)
        if zones is None:
            self.zones = {n: 0 for n in self.node_ids}
        else:
            self.zones = {int(n): int(z) for n, z in dict(zones).items()}
            missing = [n for n in self.node_ids if n not in self.zones]
            if missing:
                raise NetworkLoadError(f"zone mapping missing node {missing[0]}")
            unknown = [n for n in self.zones if n not in self.coords]
            if unknown:
                raise NetworkLoadError(f"zone mapping references unknown node {unknown[0]}")
        self.profile = profile if profile is not None else TravelTimeProfile()
        self._check_strongly_connected()
        self._centroids = self._compute_zone_centroids()
        # origin -> rows of its shortest-path tree, filled lazily
        self._trees: dict[int, dict[int, tuple[float, float, int | None]]] = {}
        self._diameter_m: float | None = None

    # -- validation ------------------------------------------------------

    def _check_strongly_connected(self):
        """Every node is reachable from and to the first one; else name the
        smallest node that is not."""
        start = self.node_ids[0]
        for graph, direction in ((self._times, "from"), (self._times.T, "to")):
            reached = np.zeros(len(self.node_ids), dtype=bool)
            reached[breadth_first_order(graph, 0, return_predecessors=False)] = True
            if not reached.all():
                bad = self.node_ids[int(np.argmin(reached))]
                raise NetworkLoadError(
                    f"node {bad} not reachable {direction} node {start}: "
                    "demand subgraph must be strongly connected"
                )

    def _compute_zone_centroids(self) -> dict[int, int]:
        by_zone: dict[int, list[int]] = {}
        for n in self.node_ids:
            by_zone.setdefault(self.zones[n], []).append(n)
        centroids = {}
        for z, members in sorted(by_zone.items()):
            mx = sum(self.coords[n][0] for n in members) / len(members)
            my = sum(self.coords[n][1] for n in members) / len(members)
            best = min(
                members,
                key=lambda n: ((self.coords[n][0] - mx) ** 2 + (self.coords[n][1] - my) ** 2, n),
            )
            centroids[z] = best
        return centroids

    @property
    def zone_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._centroids))

    def zone_centroid(self, zone: int) -> int:
        return self._centroids[zone]

    # -- shortest paths --------------------------------------------------

    def _build_tree(self, origin: int) -> dict:
        """Build and cache origin's rows ``node -> (base_tt_s, distance_m, parent)``.

        Dijkstra on base times gives every node's time.  A depth-first
        preorder walk of the tight edges (those that keep a path
        time-minimal), children in ascending id, then reaches each node
        along the lexicographically smallest time-minimal path, because
        every prefix of such a path is itself one.  Distances are summed
        from the origin along that path.
        """
        i = self._pos.get(origin)
        if i is None:
            raise NoPathError(f"unknown node {origin}")
        g = self._times
        t = dijkstra(g, indices=i)
        t_v = t[g.indices]
        # the relative tolerance absorbs rounding in Dijkstra's sums
        tight = (np.abs(np.repeat(t, np.diff(g.indptr)) + g.data - t_v)
                 <= 1e-7 * np.maximum(1.0, t_v))
        # the tight edges alone; each row keeps its columns' ascending order
        starts = np.concatenate(([0], np.cumsum(tight)))[g.indptr]
        order, parents = depth_first_order(
            sparse.csr_matrix((g.data[tight], g.indices[tight], starts),
                              shape=g.shape), i)
        ids, times, parents = self.node_ids, t.tolist(), parents.tolist()
        tree: dict[int, tuple[float, float, int | None]] = {origin: (0.0, 0.0, None)}
        for v in order[1:].tolist():
            u, node = ids[parents[v]], ids[v]
            tree[node] = (times[v], tree[u][1] + self.edge_data[(u, node)][0], u)
        self._trees[origin] = tree
        return tree

    def _row(self, origin: int, dest: int) -> tuple[float, float, int | None]:
        # a tree always holds its origin, so a cached one is never empty
        row = (self._trees.get(origin) or self._build_tree(origin)).get(dest)
        if row is None:
            raise NoPathError(f"unknown node {dest}")
        return row

    def shortest_path(self, origin: int, dest: int, query_time_s: float = 0.0) -> PathResult:
        """Time-minimal path under the scale factor active at query_time_s."""
        tt, dist_m, parent = self._row(origin, dest)
        tree = self._trees[origin]
        nodes = [dest]
        while parent is not None:
            nodes.append(parent)
            parent = tree[parent][2]
        nodes.reverse()
        return PathResult(tt * self.profile.factor_at(query_time_s), dist_m, tuple(nodes))

    def travel_time(self, origin: int, dest: int, query_time_s: float = 0.0) -> float:
        return self._row(origin, dest)[0] * self.profile.factor_at(query_time_s)

    def base_travel_time(self, origin: int, dest: int) -> float:
        """Unscaled travel time; with min_factor it lower-bounds any query."""
        return self._row(origin, dest)[0]

    def min_factor(self) -> float:
        return min(self.profile.factors)

    def distance(self, origin: int, dest: int) -> float:
        return self._row(origin, dest)[1]

    def diameter_distance_m(self) -> float:
        """Largest distance of any returned path between node pairs."""
        if self._diameter_m is None:
            self._diameter_m = max(
                row[1] for o in self.node_ids
                for row in (self._trees.get(o) or self._build_tree(o)).values())
        return self._diameter_m
