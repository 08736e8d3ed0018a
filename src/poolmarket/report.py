"""KPI tables from finished runs, and their recomputation from event logs.

The same row builder serves both paths: `compute_kpis` reads the result
record, `replay_kpis` rebuilds the per-operator tallies from the event
stream in log order.  Tallies are accumulated with the identical float
operations in the identical order, so the two tables match exactly and
the event log doubles as an audit trail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .economics import EconParams, compute_effective_profit, compute_profit

COLUMNS = ("scenario", "phase", "operator", "served_frac", "profit_eur",
           "eff_profit_eur", "rsd", "mean_wait_s", "mean_rel_detour",
           "fleet_km", "n_no_offer")

HISTORY_COLUMNS = ("turn", "operator", "fleet_size", "obj_index",
                   "c_dis_eur_per_km", "c_vot_eur_per_h", "profit_eur",
                   "eff_profit_eur", "n_requests", "service_rate",
                   "n_no_offer")


@dataclass
class KPIReport:
    scenario: str
    phase: str
    rows: list
    flags: list = field(default_factory=list)


def _rsd(served_direct_m: float, fleet_m: float):
    """(saved distance) / (sold distance); 0 when nothing was sold."""
    if served_direct_m <= 0.0:
        return 0.0, True
    return (served_direct_m - fleet_m) / served_direct_m, False


def compute_rsd(result, operator_id=None) -> float:
    """Pooling efficiency for one operator, or fleet-wide when id is None."""
    stats = result.operator_stats
    if operator_id is None:
        served = sum(s["served_direct_distance_m"] for s in stats)
        driven = sum(s["fleet_distance_m"] for s in stats)
    else:
        st = stats[operator_id]
        served = st["served_direct_distance_m"]
        driven = st["fleet_distance_m"]
    return _rsd(served, driven)[0]


# operator tallies that add up to the fleet-wide row's
_SUMMED = ("fleet_size", "n_served", "served_direct_distance_m",
           "fleet_distance_m", "sum_planned_wait_s", "sum_planned_detour_rel")


def _build_rows(scenario: str, phase: str, stats, n_requests: int,
                aggregate_n_no: int, horizon_s: float,
                econ: EconParams):
    fleet = {key: sum(st[key] for st in stats) for key in _SUMMED}
    # the aggregate counts requests nobody offered to serve
    fleet.update(operator="all", n_no_offer=aggregate_n_no)
    rows = []
    flags = []
    for st in [*stats, fleet]:
        bd = compute_profit(st["served_direct_distance_m"],
                            st["fleet_distance_m"], st["fleet_size"],
                            horizon_s, econ)
        p_eff = compute_effective_profit(bd.profit_eur, st["n_no_offer"],
                                         econ)
        rsd, degenerate = _rsd(st["served_direct_distance_m"],
                               st["fleet_distance_m"])
        if degenerate:
            flags.append(f"rsd-degenerate:operator={st['operator']}")
        n = st["n_served"]
        rows.append({
            "scenario": scenario, "phase": phase,
            "operator": st["operator"],
            "served_frac": (n / n_requests) if n_requests else 0.0,
            "profit_eur": bd.profit_eur,
            "eff_profit_eur": p_eff,
            "rsd": rsd,
            "mean_wait_s": (st["sum_planned_wait_s"] / n) if n else 0.0,
            "mean_rel_detour": (st["sum_planned_detour_rel"] / n) if n else 0.0,
            "fleet_km": st["fleet_distance_m"] / 1000.0,
            "n_no_offer": st["n_no_offer"],
        })
    return rows, flags


def compute_kpis(result, phase: str = "sim") -> KPIReport:
    """One row per operator plus a fleet-wide row.

    Waits and detours are the booking-time promises; served fractions are
    against all requests of the run, so operator rows sum to the total.
    """
    agg_no = sum(1 for o in result.outcomes.values()
                 if o["operator"] is None)
    rows, flags = _build_rows(result.scenario, phase, result.operator_stats,
                              len(result.outcomes), agg_no,
                              result.horizon_s, result.econ)
    return KPIReport(result.scenario, phase, rows, flags)


def replay_kpis(events, scenario: str, fleet_sizes, horizon_s: float,
                econ: EconParams, phase: str = "sim") -> KPIReport:
    """Rebuild the KPI table from an event log alone.

    Context the log does not carry (fleet sizes, horizon, economics) comes
    in as arguments; everything else is re-tallied in log order.
    """
    stats = [{
        "operator": i, "fleet_size": n, "n_served": 0, "n_no_offer": 0,
        "served_direct_distance_m": 0.0, "fleet_distance_m": 0.0,
        "sum_planned_wait_s": 0.0, "sum_planned_detour_rel": 0.0,
    } for i, n in enumerate(fleet_sizes)]
    requests = {}
    n_requests = 0
    agg_no = 0
    for ev in events:
        kind = ev["kind"]
        if kind == "request":
            n_requests += 1
            requests[ev["request"]] = ev
        elif kind == "decision":
            op_id = ev["operator"]
            if op_id is None:
                agg_no += 1
                continue
            req = requests[ev["request"]]
            st = stats[op_id]
            st["n_served"] += 1
            st["served_direct_distance_m"] += req["direct_distance_m"]
            st["sum_planned_wait_s"] += ev["wait_s"]
            ride = ev["arrival_s"] - req["t_req"] - ev["wait_s"]
            st["sum_planned_detour_rel"] += ride / req["direct_time_s"] - 1.0
        elif kind == "expired":
            n_requests += 1
            agg_no += 1
        elif kind == "final":
            st = stats[ev["operator"]]
            st["fleet_distance_m"] = ev["fleet_distance_m"]
            st["n_no_offer"] = ev["n_no_offer"]
    rows, flags = _build_rows(scenario, phase, stats, n_requests, agg_no,
                              horizon_s, econ)
    return KPIReport(scenario, phase, rows, flags)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(out_dir, stem: str, columns, rows, provenance) -> list:
    """Write one table as ``<stem>.csv`` and ``<stem>.jsonl``; return both paths.

    Each file starts with the provenance: ``# key=value`` lines in the
    table, a ``{"meta": ...}`` record in the JSON lines.  Same rows in,
    byte-identical files out; floats keep full round-trip precision.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table, records = out / f"{stem}.csv", out / f"{stem}.jsonl"
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(",".join(columns))
    lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
    table.write_text("\n".join(lines) + "\n")
    lines = [json.dumps({"meta": provenance}, sort_keys=True)]
    lines += [json.dumps(row, sort_keys=True) for row in rows]
    records.write_text("\n".join(lines) + "\n")
    return [table, records]


def emit(report: KPIReport, out_dir, provenance=None) -> list:
    """Write the KPI table as ``kpis.csv`` and ``kpis.jsonl``.

    The report's scenario, phase and flags join the provenance.
    """
    prov = dict(provenance or {})
    prov.setdefault("scenario", report.scenario)
    prov.setdefault("phase", report.phase)
    if report.flags:
        prov["flags"] = ";".join(report.flags)
    return write_rows(out_dir, "kpis", COLUMNS, report.rows, prov)


def read_events(path) -> list:
    """Load an event log written as one JSON record per line."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(json.loads(line))
    return out
