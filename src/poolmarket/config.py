"""Config files to runnable objects, with errors that name the bad key.

YAML throughout (JSON parses too).  Messages carry the key path and,
when the key can be found in the source text, its line number, so a
failing config is fixable without reading this module.
"""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from .demand import read_trip_rows, RawTrip
from .economics import EconParams
from .game import GameConfig, OperatorParams
from .network import Network, TravelTimeProfile
from .operators import Constraints
from .simcore import (OperatorConfig, SimulationConfig, SimulationError,
                      _validate)

_TOP_KEYS = {
    "network", "network_file", "scenario", "horizon_s", "step_s",
    "reposition_interval_s", "master_seed", "subsample_rate", "demand",
    "operators", "constraints", "econ", "reoptimize_enabled",
    "reposition_enabled", "per_vehicle_cap", "game", "calibration",
}


class ConfigError(Exception):
    pass


class _Source:
    """Remembers the raw text so errors can point at a line."""

    def __init__(self, path, text: str):
        self.path = str(path)
        self.text = text

    def fail(self, keypath: str, problem: str):
        line = self.line_of(keypath)
        where = self.path if line is None else f"{self.path}:{line}"
        raise ConfigError(f"{where}: {keypath}: {problem}")

    def line_of(self, keypath: str):
        """1-based line of the deepest node keypath reaches; None at the root.

        A key the document lacks is skipped, so a network file without the
        `network:` wrapper still resolves `network.edges[3]`.
        """
        node = yaml.compose(self.text, Loader=yaml.SafeLoader)
        line = None
        for key, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", keypath):
            if key and isinstance(node, yaml.MappingNode):
                hits = [(k, v) for k, v in node.value if k.value == key]
                if not hits:
                    continue
                key_node, node = hits[-1]      # the last duplicate wins
                line = key_node.start_mark.line + 1
            elif (index and isinstance(node, yaml.SequenceNode)
                  and int(index) < len(node.value)):
                node = node.value[int(index)]
                line = node.start_mark.line + 1
            else:
                break
        return line


def load_file(path) -> tuple[dict, _Source]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    src = _Source(path, text)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return doc, src


def _reject_unknown(mapping, allowed, where, src):
    for key in mapping:
        if key not in allowed:
            src.fail(f"{where}.{key}" if where else str(key),
                     "unknown key")


def _cast(value, kind, keypath, src):
    try:
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        src.fail(keypath, f"expected {kind.__name__}, got {value!r}")


def _opt(mapping, key, kind, default, where, src):
    if key not in mapping or mapping[key] is None:
        return default
    return _cast(mapping[key], kind, f"{where}.{key}" if where else key, src)


def _cast_list(values, kind, keypath, src):
    if not isinstance(values, list):
        src.fail(keypath, f"expected a list, got {values!r}")
    return [_cast(v, kind, f"{keypath}[{i}]", src) for i, v in enumerate(values)]


def _section(doc, key, src) -> dict:
    spec = doc.get(key) or {}
    if not isinstance(spec, dict):
        src.fail(key, "expected a mapping")
    return spec


def _need(mapping, key, where, src):
    if key not in mapping:
        src.fail(f"{where}.{key}" if where else key, "missing required key")
    return mapping[key]


def build_network(doc: dict, src: _Source, base_dir: Path) -> Network:
    spec = doc.get("network")
    if spec is None and "network_file" in doc:
        sub, sub_src = load_file(base_dir / doc["network_file"])
        spec, src = sub.get("network", sub), sub_src
    if not isinstance(spec, dict):
        src.fail("network", "missing or not a mapping")
    _reject_unknown(spec, {"nodes", "edges", "zones", "profile"},
                    "network", src)
    raw_nodes = _need(spec, "nodes", "network", src)
    if isinstance(raw_nodes, bool):
        src.fail("network.nodes", "expected count, mapping or list")
    if isinstance(raw_nodes, int):
        # count shorthand: ids 0..n-1 laid out on a line
        nodes = {i: (float(i), 0.0) for i in range(raw_nodes)}
    elif isinstance(raw_nodes, dict):
        nodes = {_cast(k, int, "network.nodes", src):
                 tuple(_cast_list(v, float, f"network.nodes.{k}", src))
                 for k, v in raw_nodes.items()}
    elif isinstance(raw_nodes, list):
        nodes = {}
        for i, row in enumerate(raw_nodes):
            where = f"network.nodes[{i}]"
            if not isinstance(row, list) or len(row) != 3:
                src.fail(where, "expected [id, x, y]")
            nodes[_cast(row[0], int, where, src)] = tuple(
                _cast_list(row[1:], float, where, src))
    else:
        src.fail("network.nodes", "expected count, mapping or list")
    edges = _need(spec, "edges", "network", src)
    if not isinstance(edges, list):
        src.fail("network.edges", "expected a list of [u, v, meters, seconds]")
    for i, row in enumerate(edges):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            src.fail(f"network.edges[{i}]",
                     "expected [u, v, meters, seconds]")
    zones = spec.get("zones")
    if zones is not None:
        if not isinstance(zones, dict):
            src.fail("network.zones", "expected a mapping of node to zone")
        zones = {_cast(k, int, "network.zones", src):
                 _cast(v, int, f"network.zones.{k}", src)
                 for k, v in zones.items()}
    profile = None
    if spec.get("profile") is not None:
        p = spec["profile"]
        if not isinstance(p, dict):
            src.fail("network.profile", "expected a mapping")
        _reject_unknown(p, {"factors", "interval_s"}, "network.profile", src)
        profile = TravelTimeProfile(
            tuple(_cast_list(p.get("factors", [1.0]), float,
                             "network.profile.factors", src)),
            interval_s=_opt(p, "interval_s", float, 900.0,
                            "network.profile", src))
    try:
        return Network(nodes, [tuple(e) for e in edges], zones=zones,
                       profile=profile)
    except Exception as exc:
        src.fail("network", str(exc))


def _build_constraints(doc, src) -> Constraints:
    spec = _section(doc, "constraints", src)
    _reject_unknown(spec, {"capacity", "max_wait_s", "max_detour_rel",
                           "dwell_s"}, "constraints", src)
    return Constraints(
        capacity=_opt(spec, "capacity", int, 4, "constraints", src),
        max_wait_s=_opt(spec, "max_wait_s", float, 360.0, "constraints", src),
        max_detour_rel=_opt(spec, "max_detour_rel", float, 0.4,
                            "constraints", src),
        dwell_s=_opt(spec, "dwell_s", float, 0.0, "constraints", src))


def _build_econ(doc, src) -> EconParams:
    spec = _section(doc, "econ", src)
    _reject_unknown(spec, {"fare_eur_per_km", "vehicle_cost_eur_per_day",
                           "distance_cost_eur_per_km",
                           "no_service_penalty_eur"}, "econ", src)
    return EconParams(
        fare_eur_per_km=_opt(spec, "fare_eur_per_km", float, 0.43,
                             "econ", src),
        vehicle_cost_eur_per_day=_opt(spec, "vehicle_cost_eur_per_day",
                                      float, 25.0, "econ", src),
        distance_cost_eur_per_km=_opt(spec, "distance_cost_eur_per_km",
                                      float, 0.25, "econ", src),
        no_service_penalty_eur=_opt(spec, "no_service_penalty_eur", float,
                                    0.46, "econ", src))


def _build_operator(spec, i, src) -> OperatorConfig:
    where = f"operators[{i}]"
    if not isinstance(spec, dict):
        src.fail(where, "expected a mapping")
    _reject_unknown(spec, {"fleet_size", "c_dis_eur_per_km",
                           "c_vot_eur_per_h", "assignment_reward_eur",
                           "start_nodes"}, where, src)
    fleet = _need(spec, "fleet_size", where, src)
    starts = spec.get("start_nodes")
    return OperatorConfig(
        fleet_size=_cast(fleet, int, f"{where}.fleet_size", src),
        c_dis_eur_per_km=_opt(spec, "c_dis_eur_per_km", float, 0.25,
                              where, src),
        c_vot_eur_per_h=_opt(spec, "c_vot_eur_per_h", float, 16.2,
                             where, src),
        assignment_reward_eur=_opt(spec, "assignment_reward_eur", float,
                                   None, where, src),
        start_nodes=None if starts is None else _cast_list(
            starts, int, f"{where}.start_nodes", src))


def _build_demand(doc, src, base_dir):
    spec = _section(doc, "demand", src)
    _reject_unknown(spec, {"rate_per_hour", "trips_file", "trips"},
                    "demand", src)
    given = [k for k in ("rate_per_hour", "trips_file", "trips") if k in spec]
    if len(given) > 1:
        src.fail("demand", f"choose one of {given}")
    if "trips" in spec:
        if not isinstance(spec["trips"], list):
            src.fail("demand.trips", "expected a list of trips")
        trips = []
        for i, row in enumerate(spec["trips"]):
            where = f"demand.trips[{i}]"
            if not isinstance(row, (list, tuple)) or len(row) not in (4, 5):
                src.fail(where, "expected [id, t_req_s, origin, destination]")
            tid, t, o, d, *dur = [_cast(v, kind, where, src) for v, kind
                                  in zip(row, (int, float, int, int, float))]
            trips.append(RawTrip(tid, t, o, d, dur[0] if dur else None))
        return trips, None
    if "trips_file" in spec:
        return read_trip_rows(base_dir / spec["trips_file"]), None
    if "rate_per_hour" in spec:
        return None, _opt(spec, "rate_per_hour", float, None, "demand", src)
    return None, None


def build_simulation(doc: dict, src: _Source, base_dir) -> SimulationConfig:
    base_dir = Path(base_dir)
    _reject_unknown(doc, _TOP_KEYS, "", src)
    network = build_network(doc, src, base_dir)
    ops_spec = _need(doc, "operators", "", src)
    if not isinstance(ops_spec, list) or not ops_spec:
        src.fail("operators", "expected a non-empty list")
    operators = [_build_operator(s, i, src) for i, s in enumerate(ops_spec)]
    trips, rate = _build_demand(doc, src, base_dir)
    cfg = SimulationConfig(
        network=network,
        scenario=_opt(doc, "scenario", str, "single", "", src),
        horizon_s=_opt(doc, "horizon_s", float, 3600.0, "", src),
        step_s=_opt(doc, "step_s", float, 60.0, "", src),
        reposition_interval_s=_opt(doc, "reposition_interval_s", float,
                                   900.0, "", src),
        operators=operators,
        constraints=_build_constraints(doc, src),
        econ=_build_econ(doc, src),
        trips=trips,
        demand_rate_per_hour=rate,
        subsample_rate=_opt(doc, "subsample_rate", float, 1.0, "", src),
        master_seed=_opt(doc, "master_seed", int, 0, "", src),
        reoptimize_enabled=_opt(doc, "reoptimize_enabled", bool, True,
                                "", src),
        reposition_enabled=_opt(doc, "reposition_enabled", bool, True,
                                "", src),
        per_vehicle_cap=_opt(doc, "per_vehicle_cap", int, None, "", src))
    try:
        _validate(cfg)
    except SimulationError as exc:
        src.fail(exc.keypath, exc.problem)
    return cfg


def build_game(doc: dict, src: _Source, base_dir) -> GameConfig:
    base = build_simulation(doc, src, base_dir)
    spec = doc.get("game")
    if not isinstance(spec, dict):
        src.fail("game", "missing or not a mapping")
    _reject_unknown(spec, {"initial_params", "fleet_step", "fleet_count",
                           "objective_options", "min_fleet_step",
                           "min_c_vot_gap_eur_per_h", "turn_limit", "jobs"},
                    "game", src)
    raw = spec.get("initial_params")
    if raw is None:
        params = tuple(OperatorParams(oc.fleet_size, oc.c_dis_eur_per_km,
                                      oc.c_vot_eur_per_h)
                       for oc in base.operators)
    else:
        if not isinstance(raw, list):
            src.fail("game.initial_params", "expected a list of mappings")
        params = []
        for i, p in enumerate(raw):
            where = f"game.initial_params[{i}]"
            if not isinstance(p, dict) or "fleet_size" not in p:
                src.fail(where, "expected a mapping with fleet_size")
            params.append(OperatorParams(
                _cast(p["fleet_size"], int, f"{where}.fleet_size", src),
                _opt(p, "c_dis_eur_per_km", float, 0.25, where, src),
                _opt(p, "c_vot_eur_per_h", float, 16.2, where, src)))
        params = tuple(params)
    opts = spec.get("objective_options")
    if opts is None:
        options = tuple(sorted({p.objective() for p in params},
                               key=lambda o: (-o[1], o[0])))
    else:
        if not isinstance(opts, list):
            src.fail("game.objective_options", "expected a list of pairs")
        options = []
        for i, pair in enumerate(opts):
            where = f"game.objective_options[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                src.fail(where, "expected [c_dis_eur_per_km, c_vot_eur_per_h]")
            options.append(tuple(_cast_list(pair, float, where, src)))
        options = tuple(options)
    return GameConfig(
        base=base, initial_params=params,
        fleet_step=_opt(spec, "fleet_step", int, 2, "game", src),
        fleet_count=_opt(spec, "fleet_count", int, 3, "game", src),
        objective_options=options,
        min_fleet_step=_opt(spec, "min_fleet_step", int, 1, "game", src),
        min_c_vot_gap_eur_per_h=_opt(spec, "min_c_vot_gap_eur_per_h", float,
                                     1.0, "game", src),
        turn_limit=_opt(spec, "turn_limit", int, 10, "game", src),
        jobs=_opt(spec, "jobs", int, 1, "game", src))


def build_calibration(doc: dict, src: _Source, base_dir) -> dict:
    base = build_simulation(doc, src, base_dir)
    spec = doc.get("calibration")
    if not isinstance(spec, dict):
        src.fail("calibration", "missing or not a mapping")
    _reject_unknown(spec, {"fleet_sizes", "target_service_rate",
                           "p_no_step_eur", "p_no_max_eur"},
                    "calibration", src)
    sizes = _need(spec, "fleet_sizes", "calibration", src)
    if isinstance(sizes, dict):
        _reject_unknown(sizes, {"start", "stop", "step"},
                        "calibration.fleet_sizes", src)
        where = "calibration.fleet_sizes"
        stop = _cast(_need(sizes, "stop", where, src), int, f"{where}.stop", src)
        step = _opt(sizes, "step", int, 1, where, src)
        if step < 1:
            src.fail(f"{where}.step", "must be at least 1")
        sizes = list(range(_opt(sizes, "start", int, 1, where, src), stop + 1,
                           step))
    elif not isinstance(sizes, list):
        src.fail("calibration.fleet_sizes",
                 "expected a list or {start, stop, step}")
    return {
        "base": base,
        "fleet_sizes": _cast_list(sizes, int, "calibration.fleet_sizes", src),
        "target_service_rate": _opt(spec, "target_service_rate", float,
                                    0.9, "calibration", src),
        "p_no_step_eur": _opt(spec, "p_no_step_eur", float, 0.01,
                              "calibration", src),
        "p_no_max_eur": _opt(spec, "p_no_max_eur", float, 5.0,
                             "calibration", src),
    }
