"""Demand ingestion, filtering, subsampling, splitting and forecasts."""

from __future__ import annotations

import math
import random

import pytest

from poolmarket.demand import (
    DemandError,
    RawTrip,
    build_forecast,
    generate_trips,
    ingest_requests,
    read_trip_rows,
    split_demand,
    write_trip_rows,
)

from conftest import make_line_network


def test_speed_filter_drops_out_of_band_rows(line10):
    # direct distance 0->9 is 4500 m; craft durations around the 1 and 30 m/s band
    trips = [
        RawTrip(0, 0.0, 0, 9, 4500.0),    # 1.0 m/s: boundary, kept
        RawTrip(1, 0.0, 0, 9, 5000.0),    # 0.9 m/s: dropped
        RawTrip(2, 0.0, 0, 9, 150.0),     # 30 m/s: boundary, kept
        RawTrip(3, 0.0, 0, 9, 100.0),     # 45 m/s: dropped
        RawTrip(4, 0.0, 0, 9, 450.0),     # 10 m/s: kept
        RawTrip(5, 0.0, 0, 9, 0.0),       # defective duration: dropped
        RawTrip(6, 0.0, 0, 9, math.nan),  # defective duration: dropped
    ]
    reqs = ingest_requests(trips, line10, subsample_rate=1.0, seed=1)
    assert [r.request_id for r in reqs] == [0, 2, 4]


def test_rows_without_duration_skip_filter(line10):
    trips = [RawTrip(0, 0.0, 0, 9, None), RawTrip(1, 5.0, 9, 0, None)]
    reqs = ingest_requests(trips, line10, subsample_rate=1.0, seed=1)
    assert len(reqs) == 2
    assert reqs[0].direct_distance_m == pytest.approx(4500.0)
    assert reqs[0].direct_time_s == pytest.approx(450.0)


def test_direct_values_match_shortest_path(line10):
    trips = [RawTrip(7, 120.0, 2, 8, None)]
    (req,) = ingest_requests(trips, line10, subsample_rate=1.0, seed=0)
    path = line10.shortest_path(2, 8, 120.0)
    assert req.direct_distance_m == path.distance_m
    assert req.direct_time_s == path.travel_time_s


def test_subsample_within_binomial_bounds(line10):
    n = 10000
    trips = [RawTrip(i, float(i % 600), 0, 9, None) for i in range(n)]
    reqs = ingest_requests(trips, line10, subsample_rate=0.1, seed=42)
    mean = n * 0.1
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert mean - 3 * sigma <= len(reqs) <= mean + 3 * sigma
    # deterministic given the seed
    again = ingest_requests(trips, line10, subsample_rate=0.1, seed=42)
    assert [r.request_id for r in reqs] == [r.request_id for r in again]


def test_zero_length_trips_dropped(line10):
    trips = [RawTrip(0, 0.0, 4, 4, None), RawTrip(1, 0.0, 1, 2, None)]
    reqs = ingest_requests(trips, line10, subsample_rate=1.0, seed=0)
    assert [r.request_id for r in reqs] == [1]


def test_unknown_node_raises(line10):
    with pytest.raises(DemandError) as err:
        ingest_requests([RawTrip(3, 0.0, 0, 55, None)], line10)
    assert "55" in str(err.value)


def test_trip_file_round_trip(tmp_path, line10):
    trips = generate_trips(range(10), rate_per_hour=120.0, horizon_s=1800.0, seed=5)
    p = tmp_path / "requests.csv"
    write_trip_rows(trips, p)
    back = read_trip_rows(p)
    assert back == trips
    reqs = ingest_requests(back, line10, subsample_rate=1.0, seed=0)
    assert len(reqs) == len(trips)


def test_malformed_row_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,request_time_s,origin_node,destination_node\n1,0,0,9\n2,xx,0,9\n")
    with pytest.raises(DemandError) as err:
        read_trip_rows(p)
    assert "row 3" in str(err.value)


def test_generate_trips_poisson_statistics():
    rate = 360.0  # per hour -> lambda = 0.1/s
    horizon = 7200.0
    counts = []
    for seed in range(10):
        trips = generate_trips(range(20), rate, horizon, seed)
        counts.append(len(trips))
        for t in trips:
            assert 0 <= t.t_req_s < horizon
            assert t.origin != t.destination
    mean = rate / 3600.0 * horizon  # 720
    sigma = math.sqrt(mean)
    avg = sum(counts) / len(counts)
    assert abs(avg - mean) < 3 * sigma / math.sqrt(len(counts))
    # reproducible
    assert generate_trips(range(20), rate, horizon, 3) == generate_trips(range(20), rate, horizon, 3)


def test_split_demand_roughly_even(line10):
    trips = [RawTrip(i, float(i), 0, 9, None) for i in range(10000)]
    reqs = ingest_requests(trips, line10, subsample_rate=1.0, seed=0)
    split = split_demand(reqs, 2, seed=9)
    n0 = sum(1 for op in split.values() if op == 0)
    # binomial(10000, 0.5) within 3 sigma
    sigma = math.sqrt(10000 * 0.25)
    assert abs(n0 - 5000) <= 3 * sigma
    assert split == split_demand(reqs, 2, seed=9)
    assert set(split.values()) == {0, 1}


def test_forecast_counts_and_scaling():
    zones = {i: (0 if i < 5 else 1) for i in range(10)}
    net = make_line_network(10, zones=zones)
    # two departures from zone 0 in interval 0; one in interval 1
    # travel 0->9 takes 450 s so both interval-0 trips arrive in zone 1, interval 0
    trips = [
        RawTrip(0, 10.0, 0, 9, None),
        RawTrip(1, 20.0, 1, 9, None),
        RawTrip(2, 910.0, 0, 6, None),
    ]
    fc = build_forecast(trips, net, interval_s=900.0, penetration=0.5, num_operators=2)
    assert fc.expected_departures(0, 0.0) == pytest.approx(2 * 0.25)
    assert fc.expected_departures(0, 900.0) == pytest.approx(1 * 0.25)
    assert fc.expected_arrivals(1, 0.0) == pytest.approx(2 * 0.25)
    assert fc.expected_departures(1, 0.0) == 0.0
    assert fc.expected_arrivals(0, 0.0) == 0.0


def test_requests_sorted_by_time_then_id(line10):
    trips = [
        RawTrip(5, 100.0, 0, 3, None),
        RawTrip(2, 100.0, 1, 4, None),
        RawTrip(9, 50.0, 2, 5, None),
    ]
    reqs = ingest_requests(trips, line10)
    assert [r.request_id for r in reqs] == [9, 2, 5]


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_ingest_rejects_unusable_request_times(line10, t):
    with pytest.raises(DemandError, match="trip 4: request time must be finite"):
        ingest_requests([RawTrip(4, t, 0, 9, None)], line10)
