"""Config parsing: the fast loader reads the same documents as PyYAML's own."""

from __future__ import annotations

import re

import pytest
import yaml

from poolmarket import config
from poolmarket.config import _Source, build_simulation, load_file

from conftest import grid_layout


def grid_config_text(side=20) -> str:
    """A runnable config on a side x side grid with quadrant zones."""
    nodes, edges, zones = grid_layout(side, side, zone_split=True)
    doc = {
        "network": {"nodes": {k: list(v) for k, v in nodes.items()},
                    "edges": [list(e) for e in edges],
                    "zones": zones,
                    "profile": {"factors": [1.0, 1.3, 0.9], "interval_s": 900.0}},
        "scenario": "user_decision",
        "horizon_s": 3600.0,
        "master_seed": 11,
        "operators": [{"fleet_size": 5}, {"fleet_size": 4, "c_vot_eur_per_h": 20.0}],
        "constraints": {"capacity": 3, "max_wait_s": 420.0},
        "demand": {"trips": [[i, 60.0 * i, i, side * side - 1 - i]
                             for i in range(20)]},
    }
    return yaml.safe_dump(doc, sort_keys=False)


def keypaths(value, prefix=""):
    """Every keypath of a parsed document, in the form errors name them."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield path
            yield from keypaths(item, path)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            path = f"{prefix}[{i}]"
            yield path
            yield from keypaths(item, path)


@pytest.fixture(scope="module")
def grid_text():
    return grid_config_text()


def test_grid_config_loads_as_pyyaml_loads_it(tmp_path, grid_text):
    p = tmp_path / "grid.yaml"
    p.write_text(grid_text)
    doc, src = load_file(p)
    assert repr(doc) == repr(yaml.safe_load(grid_text))
    cfg = build_simulation(doc, src, tmp_path)
    assert len(cfg.network.coords) == 400


EDGE_SCALARS = """\
inf: .inf
neg_inf: -.Inf
nan: .nan
null_tilde: ~
null_word: null
empty:
yes_word: yes
off_word: Off
hex: 0x1f
octal: 017
underscored: 1_000
sexagesimal: 1:30
float_exp: 6.8523015e+5
date: 2002-12-14
stamp: 2001-12-14t21:59:43.10-05:00
quoted: "0x1f"
base: &base {a: 1, b: [2, 3]}
merged:
  <<: *base
  b: 4
twice: 1
twice: 2
binary: !!binary aGVsbG8=
text: |
  kept
  lines
"""


def test_yaml_1_1_edge_scalars_load_as_pyyaml_loads_them(tmp_path):
    p = tmp_path / "edges.yaml"
    p.write_text(EDGE_SCALARS)
    doc, _ = load_file(p)
    assert repr(doc) == repr(yaml.safe_load(EDGE_SCALARS))
    assert doc["twice"] == 2 and doc["merged"] == {"a": 1, "b": 4}


def test_line_of_matches_the_pure_python_composer(tmp_path, grid_text,
                                                  monkeypatch):
    paths = list(keypaths(yaml.safe_load(grid_text)))
    assert len(paths) > 9000
    fast = _Source(tmp_path / "grid.yaml", grid_text)
    fast_lines = [fast.line_of(k) for k in paths]
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    slow = _Source(tmp_path / "grid.yaml", grid_text)
    assert fast_lines == [slow.line_of(k) for k in paths]
    lines = grid_text.splitlines()
    for key, no in zip(paths, fast_lines):
        last = re.split(r"[.\[]", key)[-1].rstrip("]")
        if not last.isdigit():
            assert lines[no - 1].lstrip(" -").startswith(f"{last}:"), key


def test_config_is_parsed_with_libyaml_when_pyyaml_has_it():
    # the pure-Python parser takes several times as long on a network file
    if yaml.__with_libyaml__:
        assert config._LOADER is yaml.CSafeLoader
    else:
        assert config._LOADER is yaml.SafeLoader
