"""Config files to runnable objects, with errors that name the bad key.

YAML throughout (JSON parses too).  Messages carry the key path and,
when the key can be found in the source text, its line number, so a
failing config is fixable without reading this module.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import types
import typing
from pathlib import Path

import yaml

from .demand import read_trip_rows, RawTrip, request_time_problem, whole_number
from .economics import EconParams
from .game import (CalibrationError, GameConfig, OperatorParams,
                   _validate_calibration, _validate_game)
from .network import Network, NetworkLoadError, TravelTimeProfile
from .operators import Constraints
from .simcore import (OperatorConfig, SimulationConfig, SimulationError,
                      _validate)

# libyaml's parser when PyYAML has it: several times faster on network
# files; the constructor and resolver stay PyYAML's SafeLoader ones
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# a calibration runs one full simulation per swept fleet size
_MAX_SWEPT_SIZES = 10_000

# top-level keys that have builders of their own
_SECTIONS = {"network", "network_file", "demand", "operators", "constraints",
             "econ", "game", "calibration"}


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

    @functools.cached_property
    def _root(self):
        return yaml.compose(self.text, Loader=_LOADER)

    def line_of(self, keypath: str):
        """1-based line of the deepest node keypath reaches; None at the root.

        A key the document lacks is skipped, so a network file without the
        `network:` wrapper still resolves `network.edges[3]`.
        """
        node = self._root
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
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    src = _Source(path, text)
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = path if mark is None else f"{path}:{mark.line + 1}"
        problem = " ".join((getattr(exc, "problem", None) or str(exc)).split())
        raise ConfigError(f"{where}: not valid YAML: {problem}") from None
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
        if kind is int:
            return whole_number(value)
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


def _settings(cls, spec, where, src, sections=(), derived=()) -> dict:
    """Keyword arguments for dataclass `cls` from the YAML mapping `spec`.

    The keys, types and defaults are the dataclass's own: a key that is
    absent or null keeps its field's default.  The caller builds the keys
    named in `sections` and the fields named in `derived` itself.
    """
    if not isinstance(spec, dict):
        src.fail(where, "expected a mapping")
    fields = [f for f in dataclasses.fields(cls)
              if f.name not in sections and f.name not in derived]
    _reject_unknown(spec, {f.name for f in fields} | set(sections), where, src)
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields:
        keypath = f"{where}.{f.name}" if where else f.name
        if spec.get(f.name) is None:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                src.fail(keypath, "missing required key")
            continue
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):       # X | None
            kind, = (k for k in typing.get_args(kind) if k is not type(None))
        if typing.get_origin(kind) is list:
            out[f.name] = _cast_list(spec[f.name], typing.get_args(kind)[0],
                                     keypath, src)
        else:
            out[f.name] = _cast(spec[f.name], kind, keypath, src)
    return out


def _check(src, rule, *args, **kwargs):
    """Apply a run, game or calibration rule; a broken one names its line."""
    try:
        rule(*args, **kwargs)
    except (SimulationError, CalibrationError) as exc:
        src.fail(exc.keypath, exc.problem)


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
        src.fail("network.nodes", "expected count or mapping")
    if isinstance(raw_nodes, int):
        # count shorthand: ids 0..n-1 laid out on a line
        nodes = {i: (float(i), 0.0) for i in range(raw_nodes)}
    elif isinstance(raw_nodes, dict):
        nodes = {_cast(k, int, "network.nodes", src):
                 tuple(_cast_list(v, float, f"network.nodes.{k}", src))
                 for k, v in raw_nodes.items()}
    else:
        src.fail("network.nodes", "expected count or mapping")
    edges = _need(spec, "edges", "network", src)
    if not isinstance(edges, list):
        src.fail("network.edges", "expected a list of [u, v, meters, seconds]")
    rows = []
    for i, row in enumerate(edges):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            src.fail(f"network.edges[{i}]",
                     "expected [u, v, meters, seconds]")
        rows.append((*_cast_list(list(row[:2]), int, f"network.edges[{i}]", src),
                     *row[2:]))
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
        try:
            profile = TravelTimeProfile(
                tuple(_cast_list(p.get("factors", [1.0]), float,
                                 "network.profile.factors", src)),
                interval_s=_opt(p, "interval_s", float, 900.0,
                                "network.profile", src))
        except NetworkLoadError as exc:
            src.fail("network.profile", str(exc))
    try:
        return Network(nodes, rows, zones=zones, profile=profile)
    except Exception as exc:
        src.fail("network", str(exc))


def _build_demand(doc, src, base_dir):
    spec = doc.get("demand") or {}
    if not isinstance(spec, dict):
        src.fail("demand", "expected a mapping")
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
            problem = request_time_problem(t)
            if problem:
                src.fail(where, problem)
            trips.append(RawTrip(tid, t, o, d, dur[0] if dur else None))
        return trips, None
    if "trips_file" in spec:
        return read_trip_rows(base_dir / spec["trips_file"]), None
    if "rate_per_hour" in spec:
        return None, _opt(spec, "rate_per_hour", float, None, "demand", src)
    return None, None


def build_simulation(doc: dict, src: _Source, base_dir) -> SimulationConfig:
    base_dir = Path(base_dir)
    settings = _settings(SimulationConfig, doc, "", src, sections=_SECTIONS,
                         derived={"trips", "demand_rate_per_hour"})
    network = build_network(doc, src, base_dir)
    ops_spec = _need(doc, "operators", "", src)
    if not isinstance(ops_spec, list) or not ops_spec:
        src.fail("operators", "expected a non-empty list")
    operators = [OperatorConfig(**_settings(OperatorConfig, spec,
                                            f"operators[{i}]", src))
                 for i, spec in enumerate(ops_spec)]
    trips, rate = _build_demand(doc, src, base_dir)
    cfg = SimulationConfig(
        network=network,
        operators=operators,
        constraints=Constraints(**_settings(
            Constraints, doc.get("constraints") or {}, "constraints", src)),
        econ=EconParams(**_settings(EconParams, doc.get("econ") or {},
                                    "econ", src)),
        trips=trips,
        demand_rate_per_hour=rate,
        **settings)
    _check(src, _validate, cfg)
    return cfg


def build_game(doc: dict, src: _Source, base_dir) -> GameConfig:
    base = build_simulation(doc, src, base_dir)
    spec = doc.get("game")
    if not isinstance(spec, dict):
        src.fail("game", "missing or not a mapping")
    settings = _settings(GameConfig, spec, "game", src, derived={"base"},
                         sections={"initial_params", "objective_options"})
    raw = spec.get("initial_params")
    if raw is None:
        params = tuple(OperatorParams(oc.fleet_size, oc.c_dis_eur_per_km,
                                      oc.c_vot_eur_per_h)
                       for oc in base.operators)
    else:
        if not isinstance(raw, list):
            src.fail("game.initial_params", "expected a list of mappings")
        params = tuple(OperatorParams(**_settings(
                           OperatorParams, p, f"game.initial_params[{i}]", src))
                       for i, p in enumerate(raw))
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
    game = GameConfig(base=base, initial_params=params,
                      objective_options=options, **settings)
    _check(src, _validate_game, game)
    return game


def build_calibration(doc: dict, src: _Source, base_dir) -> dict:
    base = build_simulation(doc, src, base_dir)
    spec = doc.get("calibration")
    if not isinstance(spec, dict):
        src.fail("calibration", "missing or not a mapping")
    defaults = {"target_service_rate": 0.9, "p_no_step_eur": 0.01}
    _reject_unknown(spec, {"fleet_sizes", *defaults}, "calibration", src)
    sizes = _need(spec, "fleet_sizes", "calibration", src)
    if isinstance(sizes, dict):
        _reject_unknown(sizes, {"start", "stop", "step"},
                        "calibration.fleet_sizes", src)
        where = "calibration.fleet_sizes"
        start = _opt(sizes, "start", int, 1, where, src)
        stop = _cast(_need(sizes, "stop", where, src), int, f"{where}.stop", src)
        step = _opt(sizes, "step", int, 1, where, src)
        if step < 1:
            src.fail(f"{where}.step", "must be at least 1")
        count = max(0, (stop - start) // step + 1)
        if count > _MAX_SWEPT_SIZES:
            src.fail(where, f"{count} sizes, more than {_MAX_SWEPT_SIZES}; "
                            "each one is a full simulation")
        sizes = list(range(start, stop + 1, step))
    elif not isinstance(sizes, list):
        src.fail("calibration.fleet_sizes",
                 "expected a list or {start, stop, step}")
    cal = {key: _opt(spec, key, float, default, "calibration", src)
           for key, default in defaults.items()}
    cal["fleet_sizes"] = _cast_list(sizes, int, "calibration.fleet_sizes", src)
    _check(src, _validate_calibration, **cal)
    return {"base": base, **cal}
