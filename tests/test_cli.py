"""End-to-end command behavior: exit codes, files, determinism."""

from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolmarket.cli import main
from poolmarket.config import _SECTIONS, ConfigError, build_simulation, load_file
from poolmarket.simcore import SimulationConfig


def line_config(extra: str = "", n: int = 6, demand: str | None = None) -> str:
    nodes = "\n".join(f"    {i}: [{i * 500.0}, 0.0]" for i in range(n))
    edges = []
    for i in range(n - 1):
        edges.append(f"    - [{i}, {i + 1}, 500.0, 50.0]")
        edges.append(f"    - [{i + 1}, {i}, 500.0, 50.0]")
    demand = demand or ("demand:\n"
                        "  trips:\n"
                        "    - [1, 0.0, 1, 4]\n"
                        "    - [2, 300.0, 2, 5]\n")
    return (
        "network:\n"
        f"  nodes:\n{nodes}\n"
        f"  edges:\n" + "\n".join(edges) + "\n"
        "scenario: single\n"
        "horizon_s: 1200\n"
        "master_seed: 3\n"
        "reposition_enabled: false\n"
        "operators:\n"
        "  - fleet_size: 1\n"
        "    start_nodes: [0]\n"
        + demand + extra)


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "toy.yaml"
    p.write_text(line_config())
    return p


def test_validate_accepts_toy(cfg_path, capsys):
    assert main(["validate", str(cfg_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_names_bad_key_and_line(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(line_config().replace("horizon_s: 1200", "horizzon_s: 1200"))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "horizzon_s" in err
    assert re.search(r":\d+: horizzon_s", err)


def test_readme_top_level_keys_are_the_ones_the_builder_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("\nTop level:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(\w+)`", paragraph))
    # the demand section builds these two fields
    from_demand = {"trips", "demand_rate_per_hour"}
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    assert documented == _SECTIONS | (fields - from_demand)


def _one_line_error(err, path, keypath):
    """Line number of a single `file:line: keypath: problem` message."""
    m = re.fullmatch(rf"error: {re.escape(str(path))}:(\d+): "
                     rf"{re.escape(keypath)}: [^\n]+\n", err)
    assert m, err
    return int(m.group(1))


@pytest.mark.parametrize("keypath, edit, needle", [
    ("operators[0].fleet_size",
     lambda t: t.replace("- fleet_size: 1", "- fleet_size: abc"), "abc"),
    ("operators[0].fleet_size",
     lambda t: t.replace("- fleet_size: 1", "- fleet_size: .inf"), ".inf"),
    # counts and ids are refused, not truncated, when they have a fraction
    ("operators[0].fleet_size",
     lambda t: t.replace("- fleet_size: 1", "- fleet_size: 1.9"), "1.9"),
    ("operators[0].fleet_size",
     lambda t: t.replace("- fleet_size: 1", "- fleet_size: true"), "true"),
    ("demand.trips[0]",
     lambda t: t.replace("- [1, 0.0, 1, 4]", "- [1.7, 0.0, 1.9, 4.2]"), "1.7"),
    ("network.edges[2][1]",
     lambda t: t.replace("- [1, 2, 500.0, 50.0]", "- [1, 2.5, 500.0, 50.0]"), "2.5"),
    ("operators[0].assignment_reward_eur",
     lambda t: t.replace("    start_nodes: [0]\n", "    start_nodes: [0]\n"
                         "    assignment_reward_eur: lots\n"), "lots"),
    ("operators[0].start_nodes[0]",
     lambda t: t.replace("start_nodes: [0]", "start_nodes: [depot]"), "depot"),
    ("master_seed", lambda t: t.replace("master_seed: 3", "master_seed: many"),
     "many"),
    ("demand.rate_per_hour",
     lambda t: t.split("demand:")[0] + "demand:\n  rate_per_hour: busy\n",
     "busy"),
    ("network.zones.0",
     lambda t: t.replace("  edges:\n", "  zones: {0: north}\n  edges:\n"),
     "north"),
    ("game.initial_params[1].fleet_size",
     lambda t: t + ("game:\n  initial_params:\n    - {fleet_size: 1}\n"
                    "    - {fleet_size: two}\n"), "two"),
    ("game.objective_options[0][1]",
     lambda t: t + "game:\n  objective_options:\n    - [0.25, fast]\n",
     "fast"),
])
def test_wrong_value_types_exit_two_naming_file_line_and_key(
        tmp_path, capsys, keypath, edit, needle):
    p = tmp_path / "bad.yaml"
    p.write_text(edit(line_config()))
    assert main(["validate", str(p)]) == 2
    no = _one_line_error(capsys.readouterr().err, p, keypath)
    assert needle in p.read_text().splitlines()[no - 1]


@pytest.mark.parametrize("keypath, edit, needle", [
    ("operators[0].fleet_size",
     lambda t: t.replace("- fleet_size: 1", "- fleet_size: -1"), "-1"),
    ("step_s", lambda t: t + "step_s: 0\n", "step_s: 0"),
    ("subsample_rate", lambda t: t + "subsample_rate: 1.5\n", "1.5"),
    ("operators[0].start_nodes",
     lambda t: t.replace("start_nodes: [0]", "start_nodes: [0, 1]"), "[0, 1]"),
    ("reposition_interval_s", lambda t: t + "reposition_interval_s: .inf\n",
     ".inf"),
    ("reposition_interval_s", lambda t: t + "reposition_interval_s: 0\n",
     "reposition_interval_s: 0"),
    ("reposition_interval_s", lambda t: t + "reposition_interval_s: -60\n",
     "-60"),
    ("constraints.capacity", lambda t: t + "constraints:\n  capacity: 0\n",
     "capacity: 0"),
    ("constraints.dwell_s", lambda t: t + "constraints:\n  dwell_s: -100\n",
     "-100"),
    ("constraints.max_wait_s",
     lambda t: t + "constraints:\n  max_wait_s: .inf\n", ".inf"),
    ("constraints.max_detour_rel",
     lambda t: t + "constraints:\n  max_detour_rel: -1\n", "-1"),
    ("operators[0].c_vot_eur_per_h",
     lambda t: t.replace("start_nodes: [0]\n",
                         "start_nodes: [0]\n    c_vot_eur_per_h: .nan\n"), ".nan"),
    ("operators[0].c_dis_eur_per_km",
     lambda t: t.replace("start_nodes: [0]\n",
                         "start_nodes: [0]\n    c_dis_eur_per_km: -100\n"), "-100"),
    ("operators[0].assignment_reward_eur",
     lambda t: t.replace("start_nodes: [0]\n",
                         "start_nodes: [0]\n    assignment_reward_eur: .inf\n"),
     ".inf"),
    ("econ.fare_eur_per_km", lambda t: t + "econ:\n  fare_eur_per_km: .nan\n",
     ".nan"),
    # the whole network is rejected, at its own line
    ("network", lambda t: t.replace("[0, 1, 500.0, 50.0]", "[0, 1, 500.0, .inf]"),
     "network:"),
    ("network", lambda t: t.replace("[0, 1, 500.0, 50.0]", "[0, 1, .inf, 50.0]"),
     "network:"),
])
def test_out_of_range_values_exit_two_in_validate_and_simulate(
        tmp_path, capsys, keypath, edit, needle):
    p = tmp_path / "bad.yaml"
    p.write_text(edit(line_config()))
    for argv in (["validate", str(p)],
                 ["simulate", str(p), "--out", str(tmp_path / "run")]):
        assert main(argv) == 2, argv
        no = _one_line_error(capsys.readouterr().err, p, keypath)
        assert needle in p.read_text().splitlines()[no - 1]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("keypath, line", [
    ("horizon_s", "horizon_s: .inf"),
    ("step_s", "step_s: .inf"),
    ("step_s", "step_s: .nan"),
])
def test_infinite_horizon_or_step_is_rejected_before_running(
        tmp_path, capsys, keypath, line):
    # never simulated here: a run with an infinite horizon would not end
    p = tmp_path / "bad.yaml"
    text = line_config()
    p.write_text(text.replace("horizon_s: 1200", line) if keypath == "horizon_s"
                 else text + line + "\n")
    assert main(["validate", str(p)]) == 2
    no = _one_line_error(capsys.readouterr().err, p, keypath)
    assert p.read_text().splitlines()[no - 1] == line
    doc, src = load_file(p)
    with pytest.raises(ConfigError, match=rf":{no}: {keypath}: must be positive"):
        build_simulation(doc, src, tmp_path)


@pytest.mark.parametrize("rate", ["-5", ".inf", ".nan"])
def test_bad_demand_rate_exits_two_naming_its_line(tmp_path, capsys, rate):
    p = tmp_path / "bad.yaml"
    p.write_text(line_config(demand=f"demand:\n  rate_per_hour: {rate}\n"))
    for argv in (["validate", str(p)],
                 ["simulate", str(p), "--out", str(tmp_path / "run")]):
        assert main(argv) == 2, argv
        no = _one_line_error(capsys.readouterr().err, p, "demand.rate_per_hour")
        assert p.read_text().splitlines()[no - 1] == f"  rate_per_hour: {rate}"
    assert not (tmp_path / "run").exists()


_BAD_GAME_OR_CALIBRATION = [
    ("game", "game.fleet_step", "game:\n  fleet_step: 0\n", "fleet_step"),
    ("game", "game.fleet_count", "game:\n  fleet_count: 0\n", "fleet_count"),
    ("game", "game.initial_params[0]",
     "game:\n  initial_params:\n    - {fleet_size: 1, c_vot_eur_per_h: 99}\n"
     "  objective_options:\n    - [0.25, 16.2]\n", "99"),
    ("game", "game.initial_params[0].colour",
     "game:\n  initial_params:\n    - {fleet_size: 1, colour: red}\n", "red"),
    ("game", "game.initial_params",
     "game:\n  turn_limit: 1\n  initial_params:\n    - {fleet_size: 1}\n"
     "    - {fleet_size: 1}\n", "initial_params"),
    ("game", "game.initial_params[0].fleet_size",
     "game:\n  initial_params:\n    - {fleet_size: 0}\n", "fleet_size: 0"),
    ("game", "game.objective_options[1][1]",
     "game:\n  objective_options:\n    - [0.25, 16.2]\n    - [0.25, .nan]\n",
     ".nan"),
    ("game", "game.objective_options[1][0]",
     "game:\n  objective_options:\n    - [0.25, 16.2]\n    - [-0.5, 16.2]\n",
     "-0.5"),
    ("game", "game.jobs", "game:\n  jobs: 0\n", "jobs: 0"),
    ("game", "game.jobs", "game:\n  jobs: -3\n", "jobs: -3"),
    ("calibrate", "calibration.target_service_rate",
     "calibration:\n  fleet_sizes: [1, 2]\n  target_service_rate: 1.5\n",
     "1.5"),
    ("calibrate", "calibration.fleet_sizes",
     "calibration:\n  fleet_sizes: [0, 1]\n", "[0, 1]"),
    ("calibrate", "calibration.p_no_step_eur",
     "calibration:\n  fleet_sizes: [1, 2]\n  p_no_step_eur: 0\n",
     "p_no_step_eur: 0"),
    ("calibrate", "calibration.p_no_step_eur",
     "calibration:\n  fleet_sizes: [1, 2]\n  p_no_step_eur: .nan\n", ".nan"),
    ("calibrate", "calibration.p_no_step_eur",
     "calibration:\n  fleet_sizes: [1, 2]\n  p_no_step_eur: -0.01\n",
     "-0.01"),
    ("calibrate", "calibration.fleet_sizes",
     "calibration:\n  fleet_sizes: {start: 1, stop: 1000000000}\n",
     "1000000000"),
]


@pytest.mark.parametrize("command, keypath, extra, needle",
                         _BAD_GAME_OR_CALIBRATION,
                         ids=[f"{c[1]}={c[3]}" for c in _BAD_GAME_OR_CALIBRATION])
def test_bad_game_and_calibration_settings_exit_two_before_running(
        tmp_path, capsys, command, keypath, extra, needle):
    p = tmp_path / "bad.yaml"
    p.write_text(line_config(extra=extra))
    for argv in (["validate", str(p)],
                 [command, str(p), "--out", str(tmp_path / "run")]):
        assert main(argv) == 2, argv
        no = _one_line_error(capsys.readouterr().err, p, keypath)
        assert needle in p.read_text().splitlines()[no - 1]
    assert not (tmp_path / "run").exists()


def _key_paths(node, path=()):
    """Access paths of every mapping value and list item below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


# every section, so that each builder and rule is fuzzed
_TOY = yaml.safe_load(line_config(extra=(
    "constraints: {capacity: 2, max_wait_s: 300, max_detour_rel: 0.5,"
    " dwell_s: 10}\n"
    "econ: {fare_eur_per_km: 0.5, vehicle_cost_eur_per_day: 20,"
    " distance_cost_eur_per_km: 0.2, no_service_penalty_eur: 0.4}\n"
    "game:\n"
    "  initial_params:\n"
    "    - {fleet_size: 1, c_dis_eur_per_km: 0.25, c_vot_eur_per_h: 16.2}\n"
    "  objective_options: [[0.25, 16.2], [0.25, 8.1]]\n"
    "  fleet_step: 1\n"
    "  fleet_count: 2\n"
    "  turn_limit: 2\n"
    "calibration:\n"
    "  fleet_sizes: [1, 2]\n"
    "  target_service_rate: 0.5\n"
    "  p_no_step_eur: 0.05\n")).replace(
        "  edges:\n", "  profile: {factors: [1.0, 1.3], interval_s: 600}\n"
                      "  edges:\n"))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
                     st.floats(), st.text(max_size=8))


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_key_paths(_TOY))),
       value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)))
def test_any_one_replaced_value_exits_zero_or_two(tmp_path, capsys, path,
                                                  value):
    doc = copy.deepcopy(_TOY)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    p = tmp_path / "fuzz.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = main(["validate", str(p)])
    assert code in (0, 2)
    if code == 2:
        assert re.fullmatch(rf"error: {re.escape(str(p))}(:\d+)?: "
                            r"[\w.\[\]]+: [^\n]+\n", capsys.readouterr().err)


def test_errors_in_list_items_point_at_their_own_line(tmp_path, capsys):
    p = tmp_path / "two.yaml"
    text = line_config().replace(
        "operators:\n  - fleet_size: 1\n    start_nodes: [0]\n",
        "operators:\n"
        "  - fleet_size: 1\n"
        "    c_vot_eur_per_h: 16.2\n"
        "  - c_vot_eur_per_h: fast\n"
        "    fleet_size: 1\n"
        "  - fleet_size: 1\n"
        "    c_dis_eur_per_km: [far]\n")
    lines = text.splitlines()
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    no = _one_line_error(capsys.readouterr().err, p, "operators[1].c_vot_eur_per_h")
    assert lines[no - 1] == "  - c_vot_eur_per_h: fast"
    p.write_text(text.replace("fast", "8.1"))
    assert main(["validate", str(p)]) == 2
    no = _one_line_error(capsys.readouterr().err, p, "operators[2].c_dis_eur_per_km")
    assert lines[no - 1] == "    c_dis_eur_per_km: [far]"


def test_missing_network_file_is_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text("network_file: nowhere.yaml\n"
                 "operators: [{fleet_size: 1}]\n"
                 "demand: {rate_per_hour: 10}\n")
    assert main(["validate", str(p)]) == 2


@pytest.mark.parametrize("content, problem", [
    (None, ": cannot read "),
    ("dir", ": cannot read "),
    (b"a: [1, 2\n", ":2: not valid YAML: "),
    (b"- 1\n- 2\n", ": top level must be a mapping"),
    (b"\xff\xfea: 1\n", ": not UTF-8 text "),
])
def test_unloadable_config_exits_two_with_one_line(tmp_path, capsys, content,
                                                   problem):
    p = tmp_path / "cfg.yaml"
    if content == "dir":
        p.mkdir()
    elif content is not None:
        p.write_bytes(content)
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(p) + problem)}[^\n]*\n", err), err


@pytest.mark.parametrize("t", ["-5.0", ".nan", ".inf", "-.inf"])
def test_bad_inline_request_time_exits_two_naming_its_row(tmp_path, capsys, t):
    p = tmp_path / "bad.yaml"
    p.write_text(line_config(demand="demand:\n  trips:\n    - [1, 0.0, 1, 4]\n"
                                    f"    - [2, {t}, 2, 5]\n"))
    for argv in (["validate", str(p)],
                 ["simulate", str(p), "--out", str(tmp_path / "run")]):
        assert main(argv) == 2, argv
        no = _one_line_error(capsys.readouterr().err, p, "demand.trips[1]")
        assert p.read_text().splitlines()[no - 1] == f"    - [2, {t}, 2, 5]"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("row, problem", [
    (b"2,nan,2,5", "row 3: request time must be finite and >= 0, got nan"),
    (b"2,inf,2,5", "row 3: request time must be finite and >= 0, got inf"),
    (b"2,-5,2,5", "row 3: request time must be finite and >= 0, got -5.0"),
    (b"nan,0,2,5", "row 3: id and nodes must be finite numbers"),
    (b"1.7,0.0,1.9,4.2", "row 3: id and nodes must be finite numbers without a fraction"),
    (b"2,0,2,\xff\xfe", "not UTF-8 text"),
])
def test_bad_trips_file_exits_two_naming_the_file(tmp_path, capsys, row,
                                                  problem):
    trips = tmp_path / "trips.csv"
    trips.write_bytes(b"id,t,o,d\n1,0,1,4\n" + row + b"\n")
    p = tmp_path / "cfg.yaml"
    p.write_text(line_config(demand="demand: {trips_file: trips.csv}\n"))
    for argv in (["validate", str(p)],
                 ["simulate", str(p), "--out", str(tmp_path / "run")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trips}: ") and problem in err, err
        assert err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


def test_whole_floats_count_as_ints(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(line_config(demand="demand: {trips_file: trips.csv}\n").replace(
        "- fleet_size: 1", "- fleet_size: 1.0"))
    (tmp_path / "trips.csv").write_text("id,t,o,d\n1.0,0.5,1.0,4\n")
    doc, src = load_file(p)
    cfg = build_simulation(doc, src, tmp_path)
    assert cfg.operators[0].fleet_size == 1
    (trip,) = cfg.trips
    assert (trip.trip_id, trip.t_req_s, trip.origin, trip.destination) == (1, 0.5, 1, 4)
    assert all(type(v) is int for v in (cfg.operators[0].fleet_size, trip.trip_id,
                                        trip.origin, trip.destination))


def test_simulate_writes_the_advertised_files(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
    for name in ("kpis.csv", "kpis.jsonl", "events.jsonl", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["fingerprint"]
    assert "kpis.csv" in manifest["files"]
    assert manifest["n_served"] == 2


def test_simulate_same_seed_identical_bytes(cfg_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(cfg_path), "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["simulate", str(cfg_path), "--seed", "7",
                 "--out", str(b)]) == 0
    for name in ("kpis.csv", "kpis.jsonl", "events.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_scenario_override_hits_runtime_validation(cfg_path, tmp_path,
                                                   capsys):
    # one operator cannot run a two-sided scenario: the run rules reject
    # the override before anything runs, as a bad argument (exit 2)
    code = main(["simulate", str(cfg_path), "--scenario", "user_decision",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--fleet-size", "0"], "--fleet-size"),
    (["simulate", "--scenario", "user_decision"], "--scenario"),
    (["gen-demand", "--rate", "60", "--horizon", "-100"], "--horizon"),
    (["gen-demand", "--rate", "0", "--horizon", "600"], "--rate"),
    (["gen-demand", "--rate", "inf", "--horizon", "600"], "--rate"),
    (["calibrate", "--target", "1.5"], "--target"),
    (["game", "--jobs", "0"], "--jobs"),
    (["game", "--jobs", "-3"], "--jobs"),
    (["calibrate", "--jobs", "0"], "--jobs"),
])
def test_bad_overrides_exit_two_naming_the_flag(tmp_path, capsys, argv, flag):
    p = tmp_path / "toy.yaml"
    p.write_text(line_config(extra="calibration:\n  fleet_sizes: [1, 2]\n"))
    out = tmp_path / "out"
    cmd, *flags = argv
    assert main([cmd, str(p), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {flag}: "), err
    assert "\n" not in err
    assert not out.exists()


def test_fleet_override_applies(cfg_path, tmp_path):
    def aggregate_profit(out):
        kpis = (out / "kpis.csv").read_text().splitlines()
        header = next(l for l in kpis if not l.startswith("#")).split(",")
        return float(kpis[-1].split(",")[header.index("profit_eur")])

    small, big = tmp_path / "small", tmp_path / "big"
    assert main(["simulate", str(cfg_path), "--out", str(small)]) == 0
    assert main(["simulate", str(cfg_path), "--fleet-size", "3",
                 "--out", str(big)]) == 0
    # same two easy requests either way; two extra vehicles of fixed cost
    assert aggregate_profit(big) < aggregate_profit(small) - 0.3


def test_game_command_single_round(tmp_path):
    p = tmp_path / "g.yaml"
    p.write_text(line_config(extra=(
        "game:\n"
        "  fleet_step: 1\n"
        "  fleet_count: 2\n"
        "  turn_limit: 3\n")))
    out = tmp_path / "game"
    assert main(["game", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "single_round"
    assert manifest["turns"] == 1
    assert manifest["final_params"]["fleet_size"] >= 1
    rows = [l for l in (out / "history.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) - 1 == 2  # one per grid cell


def test_game_turn_limit_zero_echoes_initials(tmp_path):
    p = tmp_path / "g0.yaml"
    p.write_text(line_config(extra=(
        "game:\n"
        "  turn_limit: 0\n"
        "  initial_params:\n"
        "    - {fleet_size: 1}\n"
        "    - {fleet_size: 1}\n")))
    out = tmp_path / "game0"
    assert main(["game", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warning"] is True
    assert manifest["final_params"] is None
    rows = [l for l in (out / "history.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 1  # header only


def test_calibrate_command_emits_triple_and_table(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(line_config(extra=(
        "calibration:\n"
        "  fleet_sizes: [1, 2]\n"
        "  target_service_rate: 0.5\n")))
    out = tmp_path / "cal"
    assert main(["calibrate", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fleet_size"] == 1
    assert manifest["fare_eur_per_km"] > 0
    rows = [l for l in (out / "calibration.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) - 1 == 2


def test_calibrate_unreachable_exits_one_with_table(tmp_path, capsys):
    p = tmp_path / "c2.yaml"
    p.write_text(line_config(
        demand="demand: {rate_per_hour: 300}\n",
        extra=("calibration:\n"
               "  fleet_sizes: [1]\n"
               "  target_service_rate: 0.999\n")))
    out = tmp_path / "cal2"
    assert main(["calibrate", str(p), "--out", str(out)]) == 1
    assert (out / "calibration.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "error" in manifest


def test_gen_demand_roundtrip(tmp_path):
    p = tmp_path / "net.yaml"
    p.write_text(line_config())
    out = tmp_path / "demand"
    assert main(["gen-demand", str(p), "--rate", "30", "--horizon", "1200",
                 "--seed", "7", "--out", str(out)]) == 0
    first = (out / "trips.csv").read_bytes()
    assert main(["gen-demand", str(p), "--rate", "30", "--horizon", "1200",
                 "--seed", "7", "--out", str(out)]) == 0
    assert (out / "trips.csv").read_bytes() == first

    cfg = tmp_path / "fromfile.yaml"
    cfg.write_text(line_config(demand="demand: {trips_file: demand/trips.csv}\n"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "run2")]) == 0


def test_replay_agrees_with_emitted(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    assert main(["replay", str(cfg_path), str(out / "events.jsonl"),
                 "--expect", str(out / "kpis.csv"),
                 "--out", str(rep)]) == 0
    manifest = json.loads((rep / "manifest.json").read_text())
    assert manifest["checked"] and manifest["match"]

    doctored = tmp_path / "doctored.csv"
    text = (out / "kpis.csv").read_text()
    doctored.write_text(text.replace("single", "tampered"))
    code = main(["replay", str(cfg_path), str(out / "events.jsonl"),
                 "--expect", str(doctored), "--out", str(tmp_path / "rep2")])
    assert code == 1


def test_out_dir_from_environment(cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("POOLMARKET_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(cfg_path)]) == 0
    assert (target / "kpis.csv").exists()
