"""Road network with piecewise-constant travel-time scaling.

Edge base travel times are multiplied by a global scale factor that is
constant within each profile interval.  Because the scaling is uniform
across all edges, the time-minimal path between two nodes is the same in
every interval; only its travel time changes.  Paths are therefore
computed once on base times and scaled per query: one shortest-path
tree per origin gives the base time, the distance and the path to
every node.

Determinism: adjacency lists are sorted by node id, Dijkstra pops are
ordered by (time, node), and among equal-time paths the returned node
sequence is the lexicographically smallest one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path


class NetworkLoadError(ValueError):
    """Input file or network structure violates the required format."""


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


def _parse_rows(path, n_cols: int, expected: str, optional_last: bool = False,
                error=NetworkLoadError):
    """Read a delimiter-separated table, yielding (row_no, cells) of floats.

    Delimiter is sniffed from {comma, semicolon, tab, space}; a single
    header row is skipped when its cells do not parse as numbers.  Bad
    input raises ``error`` naming the file and row; ``expected``
    describes the columns in that message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise error(f"{path}: cannot read file ({exc})") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise error(f"{path}: file is empty")
    first = lines[0]
    delim = max(",;\t", key=first.count)
    if first.count(delim) == 0:
        delim = None  # whitespace split
    rows = []
    for row_no, line in enumerate(lines, start=1):
        cells = [c.strip() for c in (line.split(delim) if delim else line.split())]
        cells = [c for c in cells if c != ""]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            if row_no == 1:
                continue  # header
            raise error(
                f"{path}: row {row_no}: non-numeric cell in {line!r}"
            ) from None
        lo = n_cols - 1 if optional_last else n_cols
        if not (lo <= len(values) <= n_cols):
            raise error(
                f"{path}: row {row_no}: expected {expected}, got {len(values)} cells"
            )
        rows.append((row_no, values))
    if not rows:
        raise error(f"{path}: no data rows")
    return rows


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
        adj: dict[int, list] = {n: [] for n in self.node_ids}
        radj: dict[int, list] = {n: [] for n in self.node_ids}
        self.edge_data: dict[tuple[int, int], tuple[float, float]] = {}
        for u, v, length_m, tt_s in edges:
            u, v = int(u), int(v)
            length_m, tt_s = float(length_m), float(tt_s)
            if u not in self.coords or v not in self.coords:
                raise NetworkLoadError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise NetworkLoadError(f"edge ({u},{v}) is a self loop")
            if not (length_m > 0.0) or not (tt_s > 0.0):
                raise NetworkLoadError(
                    f"edge ({u},{v}) must have positive length and travel time"
                )
            if (u, v) in self.edge_data:
                raise NetworkLoadError(f"duplicate edge ({u},{v})")
            self.edge_data[(u, v)] = (length_m, tt_s)
            adj[u].append((v, tt_s, length_m))
            radj[v].append((u, tt_s, length_m))
        self._adj = {n: tuple(sorted(lst)) for n, lst in adj.items()}
        self._radj = {n: tuple(sorted(lst)) for n, lst in radj.items()}
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
        start = self.node_ids[0]
        for adj, direction in ((self._adj, "from"), (self._radj, "to")):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v, _, _ in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != len(self.node_ids):
                bad = min(set(self.node_ids) - seen)
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

        Dijkstra on base times gives every node's time.  A preorder walk of
        the tight edges (those that keep a path time-minimal), children in
        ascending id, then takes each node on its first visit.  That visit
        follows the lexicographically smallest time-minimal path, because
        every prefix of such a path is itself one.  Distances are summed
        from the origin along that path.
        """
        if origin not in self.coords:
            raise NoPathError(f"unknown node {origin}")
        tt_to: dict[int, float] = {origin: 0.0}
        done = set()
        heap = [(0.0, origin)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, tt, _ in self._adj[u]:
                nd = d + tt
                if v not in tt_to or nd < tt_to[v]:
                    tt_to[v] = nd
                    heapq.heappush(heap, (nd, v))
        tree: dict[int, tuple[float, float, int | None]] = {}
        stack = [(origin, None, 0.0)]
        while stack:
            u, parent, dist_m = stack.pop()
            if u in tree:
                continue
            tree[u] = (tt_to[u], dist_m, parent)
            t_u = tt_to[u]
            # pushed in reverse so the smallest id pops first; the relative
            # tolerance absorbs rounding in Dijkstra's sums of edge times
            for v, tt, ln in reversed(self._adj[u]):
                t_v = tt_to[v]
                if v not in tree and abs(t_u + tt - t_v) <= 1e-7 * max(1.0, t_v):
                    stack.append((v, u, dist_m + ln))
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


def load_network(nodes_path, edges_path, zones_path=None, profile_path=None) -> Network:
    """Load and validate a network from delimiter-separated text files."""
    node_rows = _parse_rows(nodes_path, 3, "columns node_id,x,y")
    nodes = {}
    for row_no, (nid, x, y) in node_rows:
        nid = int(nid)
        if nid in nodes:
            raise NetworkLoadError(f"{nodes_path}: row {row_no}: duplicate node id {nid}")
        nodes[nid] = (x, y)
    edge_rows = _parse_rows(edges_path, 4, "columns from_node,to_node,length_m,travel_time_s")
    edges = []
    for row_no, (u, v, ln, tt) in edge_rows:
        u, v = int(u), int(v)
        if u not in nodes or v not in nodes:
            raise NetworkLoadError(f"{edges_path}: row {row_no}: unknown node in edge ({u},{v})")
        if ln <= 0 or tt <= 0:
            raise NetworkLoadError(
                f"{edges_path}: row {row_no}: length and travel time must be positive"
            )
        edges.append((u, v, ln, tt))
    zones = None
    if zones_path is not None:
        zone_rows = _parse_rows(zones_path, 2, "columns node_id,zone_id")
        zones = {}
        for row_no, (nid, z) in zone_rows:
            nid = int(nid)
            if nid not in nodes:
                raise NetworkLoadError(f"{zones_path}: row {row_no}: unknown node {nid}")
            zones[nid] = int(z)
    profile = None
    if profile_path is not None:
        prof_rows = _parse_rows(profile_path, 2, "columns interval_start_s,scale_factor")
        starts = [r[1][0] for r in prof_rows]
        factors = [r[1][1] for r in prof_rows]
        if starts[0] != 0.0:
            raise NetworkLoadError(f"{profile_path}: first interval must start at 0")
        if len(starts) > 1:
            interval = starts[1] - starts[0]
            if interval <= 0:
                raise NetworkLoadError(f"{profile_path}: interval starts must increase")
            for i in range(1, len(starts)):
                if abs(starts[i] - i * interval) > 1e-9:
                    raise NetworkLoadError(
                        f"{profile_path}: row {prof_rows[i][0]}: intervals must be contiguous "
                        f"and uniform (expected start {i * interval})"
                    )
        else:
            interval = 900.0
        profile = TravelTimeProfile(factors, interval)
    return Network(nodes, edges, zones=zones, profile=profile)
