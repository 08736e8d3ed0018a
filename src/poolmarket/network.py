"""Road network with piecewise-constant travel-time scaling.

Edge base travel times are multiplied by a global scale factor that is
constant within each profile interval.  Because the scaling is uniform
across all edges, the time-minimal path between two nodes is the same in
every interval; only its travel time changes.  Paths are therefore
computed once on base times and scaled per query.

Determinism: adjacency lists are sorted by node id, Dijkstra pops are
ordered by (time, node), and among equal-time paths the returned node
sequence always takes the smallest next node id.
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

    Structure is immutable after construction; shortest-path caches fill
    lazily and only speed up identical queries.
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
        # lazy caches
        self._fwd: dict[int, tuple[dict, dict]] = {}
        self._bwd: dict[int, dict] = {}
        self._paths: dict[tuple[int, int], PathResult] = {}
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

    def set_profile(self, profile: TravelTimeProfile):
        """Swap the scaling profile; only safe between simulation steps."""
        self.profile = profile

    # -- shortest paths --------------------------------------------------

    def _forward(self, origin: int):
        cached = self._fwd.get(origin)
        if cached is not None:
            return cached
        if origin not in self.coords:
            raise NoPathError(f"unknown node {origin}")
        dist: dict[int, float] = {origin: 0.0}
        dist_m: dict[int, float] = {origin: 0.0}
        done = set()
        heap = [(0.0, origin)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            du_m = dist_m[u]
            for v, tt, ln in self._adj[u]:
                nd = d + tt
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    dist_m[v] = du_m + ln
                    heapq.heappush(heap, (nd, v))
        self._fwd[origin] = (dist, dist_m)
        return dist, dist_m

    def _backward(self, dest: int):
        cached = self._bwd.get(dest)
        if cached is not None:
            return cached
        if dest not in self.coords:
            raise NoPathError(f"unknown node {dest}")
        dist: dict[int, float] = {dest: 0.0}
        done = set()
        heap = [(0.0, dest)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, tt, ln in self._radj[u]:
                nd = d + tt
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self._bwd[dest] = dist
        return dist

    def _base_path(self, origin: int, dest: int) -> PathResult:
        key = (origin, dest)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        fwd_tt, _ = self._forward(origin)
        if dest not in fwd_tt:
            raise NoPathError(f"no route from {origin} to {dest}")
        if origin == dest:
            res = PathResult(0.0, 0.0, (origin,))
            self._paths[key] = res
            return res
        bwd = self._backward(dest)
        total = fwd_tt[dest]
        tol = 1e-7 * max(1.0, total)
        # walk forward, always taking the smallest next node that stays on
        # a time-minimal path
        nodes = [origin]
        acc = 0.0
        dist_m = 0.0
        u = origin
        while u != dest:
            chosen = None
            for v, tt, ln in self._adj[u]:
                rest = bwd.get(v)
                if rest is None:
                    continue
                if abs(acc + tt + rest - total) <= tol:
                    chosen = (v, tt, ln)
                    break
            if chosen is None:  # float corner: fall back to loosest match
                best_err = math.inf
                for v, tt, ln in self._adj[u]:
                    rest = bwd.get(v)
                    if rest is None:
                        continue
                    err = abs(acc + tt + rest - total)
                    if err < best_err:
                        best_err = err
                        chosen = (v, tt, ln)
                if chosen is None:
                    raise NoPathError(f"no route from {origin} to {dest}")
            v, tt, ln = chosen
            nodes.append(v)
            acc += tt
            dist_m += ln
            u = v
        res = PathResult(total, dist_m, tuple(nodes))
        self._paths[key] = res
        return res

    def shortest_path(self, origin: int, dest: int, query_time_s: float = 0.0) -> PathResult:
        """Time-minimal path under the scale factor active at query_time_s."""
        base = self._base_path(origin, dest)
        f = self.profile.factor_at(query_time_s)
        return PathResult(base.travel_time_s * f, base.distance_m, base.nodes)

    def travel_time(self, origin: int, dest: int, query_time_s: float = 0.0) -> float:
        fwd_tt, _ = self._forward(origin)
        if dest not in fwd_tt:
            raise NoPathError(f"no route from {origin} to {dest}")
        return fwd_tt[dest] * self.profile.factor_at(query_time_s)

    def base_travel_time(self, origin: int, dest: int) -> float:
        """Unscaled travel time; with min_factor it lower-bounds any query."""
        fwd_tt, _ = self._forward(origin)
        if dest not in fwd_tt:
            raise NoPathError(f"no route from {origin} to {dest}")
        return fwd_tt[dest]

    def min_factor(self) -> float:
        return min(self.profile.factors)

    def distance(self, origin: int, dest: int) -> float:
        return self._base_path(origin, dest).distance_m

    def precompute_od_table(self, node_subset=None):
        """Fill the lookup caches for every OD pair in node_subset.

        Later queries inside the subset return exactly what an uncached
        query would (same code path, cached inputs).
        """
        nodes = sorted(set(node_subset)) if node_subset is not None else list(self.node_ids)
        for n in nodes:
            if n not in self.coords:
                raise NoPathError(f"unknown node {n}")
        for o in nodes:
            self._forward(o)
        for d in nodes:
            self._backward(d)
        for o in nodes:
            for d in nodes:
                self._base_path(o, d)

    def diameter_distance_m(self) -> float:
        """Largest distance of any time-minimal path between node pairs."""
        if self._diameter_m is None:
            worst = 0.0
            for o in self.node_ids:
                _, dist_m = self._forward(o)
                worst = max(worst, max(dist_m.values()))
            self._diameter_m = worst
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
