"""Road network with piecewise-constant travel-time scaling.

Edge base travel times are multiplied by a global scale factor that is
constant within each profile interval.  A trip consumes base time at the
speed of the interval it is in, so its travel time is integrated across
boundaries, and leaving later never means arriving earlier.  Since
arrival grows with base time and the scaling is uniform across all
edges, the time-minimal path between two nodes is the same at every
departure time; only its travel time changes.  Paths are therefore
computed once on base times and integrated per query: a network builds
one shortest-path tree per origin, which gives the base time, the
distance and the path to every node; memory grows as the node count
squared.

Determinism: Dijkstra's times do not depend on the order it scans
nodes in, and among equal-time paths the returned node sequence is the
lexicographically smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import depth_first_order, dijkstra


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
        self._last = len(factors) - 1

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
        """Wall-clock seconds needed to consume base_tt of base travel from start.

        This is the one place where a factor scales a base time.  The
        factor is a speed that changes at each interval boundary, so
        leaving later never means arriving earlier (Ichoua, Gendreau &
        Potvin 2003).  A leg that ends in its first interval costs
        exactly base_tt times that interval's factor.
        """
        factors, width, last = self.factors, self.interval_s, self._last
        i = int(start // width) if start > 0 else 0
        if i >= last:
            return base_tt * factors[last]
        need = base_tt * factors[i]
        if start + need <= (i + 1) * width:
            return need
        t, rem = start, base_tt
        while i < last and t + rem * factors[i] > (i + 1) * width:
            end = (i + 1) * width
            rem -= (end - t) / factors[i]
            t, i = end, i + 1
        return t + rem * factors[i] - start

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


def _smallest_paths(times, src, dst, lengths, tt_s):
    """Parent and distance of every node from every origin, as n x n arrays.

    A depth-first preorder walk of the tight edges from an origin (those
    that keep a path time-minimal), children in ascending id, reaches each
    node along the lexicographically smallest time-minimal path, because
    every prefix of such a path is itself one.  One walk covers every
    origin: it runs on n disjoint copies of the graph, copy i holding
    origin i's tight edges, entered from one extra node.  Each node has one
    in-edge in the walk's trees, so Dijkstra on their lengths sums each
    distance from its parent's, as a walk from the origin would.
    """
    n = len(times)
    # tight[i, e]: edge e keeps a path from origin i time-minimal; the
    # relative tolerance absorbs rounding in Dijkstra's sums
    tight = np.array([np.abs(t[src] + tt_s - t[dst]) <= 1e-7 * np.maximum(1.0, t[dst])
                      for t in times])
    # node v of copy i is i * n + v; node n * n leads to every origin
    origin, e = np.nonzero(tight)
    rows, cols = origin * n + src[e], origin * n + dst[e]
    roots = np.arange(n) * (n + 1)
    parents = depth_first_order(sparse.csr_matrix(
        (np.append(tt_s[e], np.ones(n)),
         (np.append(rows, np.full(n, n * n)), np.append(cols, roots))),
        shape=(n * n + 1,) * 2), n * n)[1][:-1]
    in_tree = parents[cols] == rows
    trees = sparse.csr_matrix((lengths[e[in_tree]], (rows[in_tree], cols[in_tree])),
                              shape=(n * n,) * 2)
    dist = dijkstra(trees, indices=roots, min_only=True)
    # a parent's position within its copy; an origin's entry is never read
    return parents.reshape(n, n) % n, dist.reshape(n, n)


class Network:
    """Directed road graph with zones and a travel-time profile.

    Structure is immutable after construction, which builds every
    origin's shortest-path row, so memory grows as n².  Rows hold base
    times only, so assigning a new ``profile`` takes effect at once.
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
        self._pos = {n: i for i, n in enumerate(self.node_ids)}
        self._build_rows()
        self._centroids = self._compute_zone_centroids()

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

    def _build_rows(self):
        """Fill ``_tt``, ``_dist`` and ``_parent``: per origin position, lists
        indexed by node position."""
        n = len(self.node_ids)
        # edges sorted by (tail, head) position, the order of CSR entries
        edges = sorted((self._pos[u], self._pos[v], *e) for (u, v), e in self.edge_data.items())
        src, dst, lengths, tt_s = np.array(edges).reshape(-1, 4).T
        src, dst = src.astype(int), dst.astype(int)
        # one CSR matrix of base times, rows and columns in ascending id
        times = dijkstra(sparse.csr_matrix((tt_s, (src, dst)), shape=(n, n)))
        self._check_strongly_connected(times)
        parents, dist = _smallest_paths(times, src, dst, lengths, tt_s)
        self._tt, self._dist, self._parent = times.tolist(), dist.tolist(), parents.tolist()

    def _check_strongly_connected(self, times):
        """Every node is reachable from and to the first one; else name the
        smallest node that is not."""
        start = self.node_ids[0]
        for reach, direction in ((times[0], "from"), (times[:, 0], "to")):
            if not np.isfinite(reach).all():
                bad = self.node_ids[int(np.argmin(np.isfinite(reach)))]
                raise NetworkLoadError(
                    f"node {bad} not reachable {direction} node {start}: "
                    "demand subgraph must be strongly connected"
                )

    def _at(self, origin: int, dest: int) -> tuple[int, int]:
        try:
            return self._pos[origin], self._pos[dest]
        except KeyError as e:
            raise NoPathError(f"unknown node {e.args[0]}") from None

    def shortest_path(self, origin: int, dest: int, query_time_s: float = 0.0) -> PathResult:
        """Time-minimal path, its distance, and its travel time leaving at
        query_time_s, integrated across factor boundaries."""
        i, j = self._at(origin, dest)
        ids, parents, k = self.node_ids, self._parent[i], j
        nodes = [ids[j]]
        while k != i:
            k = parents[k]
            nodes.append(ids[k])
        nodes.reverse()
        return PathResult(self.profile.elapsed_for_base(query_time_s, self._tt[i][j]),
                          self._dist[i][j], tuple(nodes))

    def travel_time(self, origin: int, dest: int, query_time_s: float = 0.0) -> float:
        """Seconds to drive the time-minimal path leaving at query_time_s."""
        i, j = self._at(origin, dest)
        return self.profile.elapsed_for_base(query_time_s, self._tt[i][j])

    def base_travel_time(self, origin: int, dest: int) -> float:
        """Unscaled travel time; with min_factor it lower-bounds any query."""
        i, j = self._at(origin, dest)
        return self._tt[i][j]

    def min_factor(self) -> float:
        return min(self.profile.factors)

    def distance(self, origin: int, dest: int) -> float:
        i, j = self._at(origin, dest)
        return self._dist[i][j]

    def diameter_distance_m(self) -> float:
        """Largest distance of any returned path between node pairs."""
        return max(map(max, self._dist))
