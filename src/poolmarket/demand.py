"""Trip demand: ingestion, filtering, subsampling, splitting, forecasts.

Trip files carry one request per row: id, request_time_s, origin_node,
destination_node and an optional recorded_duration_s.  The recorded
duration exists only to filter defective records by implied speed; the
simulation itself always uses network travel times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .network import Network


class DemandError(ValueError):
    """Trip input violates the expected format or references unknown nodes."""


@dataclass(frozen=True)
class RawTrip:
    trip_id: int
    t_req_s: float
    origin: int
    destination: int
    recorded_duration_s: float | None = None


@dataclass(frozen=True)
class Request:
    request_id: int
    t_req_s: float
    origin: int
    destination: int
    direct_distance_m: float
    direct_time_s: float


SPEED_MIN_MPS = 1.0
SPEED_MAX_MPS = 30.0


def request_time_problem(t_req_s: float) -> str | None:
    """What is wrong with a trip's request time, or None when it is usable."""
    if not 0.0 <= t_req_s < math.inf:
        return f"request time must be finite and >= 0, got {t_req_s!r}"
    return None


def whole_number(value) -> int:
    """An int, or a float without a fractional part, as an int.

    Counts, ids and node ids pass through here, so a fractional one is
    refused with ValueError rather than truncated; a bool is refused too.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"not a whole number: {value!r}")


def read_trip_rows(path) -> list[RawTrip]:
    """Parse a trip file; raises DemandError naming the offending row.

    The delimiter is sniffed from {comma, semicolon, tab, space}; a single
    header row is skipped when its cells do not parse as numbers.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DemandError(f"{path}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise DemandError(f"{path}: not UTF-8 text ({exc})") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DemandError(f"{path}: file is empty")
    delim = max(",;\t", key=lines[0].count)
    if lines[0].count(delim) == 0:
        delim = None  # whitespace split
    trips = []
    seen_ids = set()
    for row_no, line in enumerate(lines, start=1):
        try:
            values = [float(c) for c in line.split(delim) if c.strip()]
        except ValueError:
            if row_no == 1:
                continue  # header
            raise DemandError(
                f"{path}: row {row_no}: non-numeric cell in {line!r}") from None
        if len(values) not in (4, 5):
            raise DemandError(
                f"{path}: row {row_no}: expected id,request_time_s,origin_node,"
                f"destination_node[,recorded_duration_s], got {len(values)} cells")
        try:
            tid, origin, dest = (whole_number(values[k]) for k in (0, 2, 3))
        except ValueError:
            raise DemandError(f"{path}: row {row_no}: id and nodes must be finite "
                              f"numbers without a fraction, got {line!r}") from None
        problem = request_time_problem(values[1])
        if problem:
            raise DemandError(f"{path}: row {row_no}: {problem}")
        if tid in seen_ids:
            raise DemandError(f"{path}: row {row_no}: duplicate trip id {tid}")
        seen_ids.add(tid)
        dur = values[4] if len(values) == 5 else None
        trips.append(RawTrip(tid, values[1], origin, dest, dur))
    if not trips:
        raise DemandError(f"{path}: no data rows")
    return trips


def write_trip_rows(trips, path):
    """Inverse of read_trip_rows; comma separated, header included."""
    lines = ["trip_id,request_time_s,origin_node,destination_node,"
             "recorded_duration_s"]
    for t in trips:
        dur = "" if t.recorded_duration_s is None else repr(t.recorded_duration_s)
        lines.append(f"{t.trip_id},{t.t_req_s!r},{t.origin},{t.destination},{dur}")
    Path(path).write_text("\n".join(lines) + "\n")


def ingest_requests(trips, network: Network, subsample_rate: float = 1.0,
                    seed: int = 0, horizon_s: float | None = None) -> list[Request]:
    """Turn raw trips into simulation requests.

    Applies, in order: node/zero-length validation, the implied-speed
    filter (only when a recorded duration is present), an optional
    horizon filter, then one independent uniform draw per surviving row
    (kept iff draw < subsample_rate).  Output is sorted by (time, id).
    Direct distance and time come from a shortest-path query at the
    request time; the time is that of the direct ride leaving then.

    :param trips: an iterable of RawTrip
    """
    if not (0.0 <= subsample_rate <= 1.0):
        raise DemandError(f"subsample_rate must be in [0,1], got {subsample_rate}")
    rng = random.Random(seed)
    out = []
    for trip in trips:
        if trip.origin not in network.coords:
            raise DemandError(f"trip {trip.trip_id}: unknown origin node {trip.origin}")
        if trip.destination not in network.coords:
            raise DemandError(f"trip {trip.trip_id}: unknown destination node {trip.destination}")
        if trip.origin == trip.destination:
            continue  # zero-length record, defective
        problem = request_time_problem(trip.t_req_s)
        if problem:
            raise DemandError(f"trip {trip.trip_id}: {problem}")
        path = network.shortest_path(trip.origin, trip.destination, trip.t_req_s)
        if trip.recorded_duration_s is not None:
            dur = trip.recorded_duration_s
            # a nonpositive or NaN duration is defective: call it infinite speed
            speed = path.distance_m / dur if dur > 0 else math.inf
            if speed < SPEED_MIN_MPS or speed > SPEED_MAX_MPS:
                continue
        if horizon_s is not None and not (0.0 <= trip.t_req_s < horizon_s):
            continue
        if rng.random() >= subsample_rate:
            continue
        out.append(
            Request(
                request_id=trip.trip_id,
                t_req_s=trip.t_req_s,
                origin=trip.origin,
                destination=trip.destination,
                direct_distance_m=path.distance_m,
                direct_time_s=path.travel_time_s,
            )
        )
    out.sort(key=lambda r: (r.t_req_s, r.request_id))
    return out


def require_positive(name: str, value: float) -> None:
    """A generation rate or horizon must be finite and positive.

    Otherwise the arrival loop of ``generate_trips`` fails, yields
    nothing or never ends (an infinite or NaN rate, an infinite horizon).
    """
    if not 0.0 < value < math.inf:
        raise DemandError(f"{name}: must be positive and finite, got {value}")


def generate_trips(node_ids, rate_per_hour: float, horizon_s: float,
                   seed: int) -> list[RawTrip]:
    """Synthetic Poisson demand: exponential gaps, uniform distinct OD pairs.

    Times are floored to whole seconds.  No recorded duration, so the
    speed filter does not apply downstream.
    """
    require_positive("rate_per_hour", rate_per_hour)
    require_positive("horizon_s", horizon_s)
    nodes = sorted(int(n) for n in node_ids)
    if len(nodes) < 2:
        raise DemandError("need at least two nodes to generate trips")
    rng = random.Random(seed)
    rate_per_s = rate_per_hour / 3600.0
    trips = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= horizon_s:
            break
        o = nodes[rng.randrange(len(nodes))]
        d = nodes[rng.randrange(len(nodes))]
        while d == o:
            d = nodes[rng.randrange(len(nodes))]
        trips.append(RawTrip(len(trips), float(int(t)), o, d, None))
    return trips


def split_demand(requests, num_operators: int, seed: int) -> dict[int, int]:
    """Assign each request to one operator uniformly at random (seeded).

    Used by the independent-market mode where customers know only one
    provider.  Requests must be pre-sorted; draws happen in that order.
    """
    if num_operators < 1:
        raise DemandError("num_operators must be >= 1")
    rng = random.Random(seed)
    return {r.request_id: rng.randrange(num_operators) for r in requests}


class Forecast:
    """Per-zone expected departures/arrivals per interval for rebalancing.

    Counts come from the full (pre-subsample) trip data, scaled by the
    market penetration and split evenly across operators.
    """

    def __init__(self, departures, arrivals, interval_s: float, scale: float):
        self._dep = departures
        self._arr = arrivals
        self.interval_s = interval_s
        self.scale = scale

    def _idx(self, t: float) -> int:
        return int(t // self.interval_s)

    def expected_departures(self, zone: int, t: float) -> float:
        return self._dep.get((zone, self._idx(t)), 0.0) * self.scale

    def expected_arrivals(self, zone: int, t: float) -> float:
        return self._arr.get((zone, self._idx(t)), 0.0) * self.scale


def build_forecast(trips, network: Network, interval_s: float = 900.0,
                   penetration: float = 1.0, num_operators: int = 1) -> Forecast:
    """Count trips per (zone, interval); arrivals use request time + direct time.

    :param trips: the full trip list (before subsampling)
    """
    dep: dict[tuple[int, int], float] = {}
    arr: dict[tuple[int, int], float] = {}
    for t in trips:
        if t.origin == t.destination:
            continue
        if t.origin not in network.coords or t.destination not in network.coords:
            continue
        zo = network.zones[t.origin]
        zd = network.zones[t.destination]
        dep_key = (zo, int(t.t_req_s // interval_s))
        dep[dep_key] = dep.get(dep_key, 0.0) + 1.0
        t_arrive = t.t_req_s + network.travel_time(t.origin, t.destination, t.t_req_s)
        arr_key = (zd, int(t_arrive // interval_s))
        arr[arr_key] = arr.get(arr_key, 0.0) + 1.0
    scale = penetration / float(num_operators)
    return Forecast(dep, arr, interval_s, scale)
