"""Best-response rounds, refinement, alternation, and calibration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from poolmarket import game
from poolmarket.demand import RawTrip
from poolmarket.game import (
    CalibrationError,
    GameConfig,
    GameError,
    OperatorParams,
    calibrate,
    cells_adjacent,
    detect_alternation,
    play_turn,
    run_game,
    _cell_configs,
    _fleet_axis,
    _refusal_penalty,
)
from poolmarket.simcore import OperatorConfig, SimulationConfig

from conftest import make_grid_network, make_line_network


EASY_TRIPS = [RawTrip(1, 0.0, 1, 5), RawTrip(2, 600.0, 2, 7)]


def toy_base(scenario="user_decision", trips=EASY_TRIPS, **kw):
    net = kw.pop("net", None) or make_line_network(10)
    n_ops = 1 if scenario == "single" else 2
    base = dict(network=net, scenario=scenario, horizon_s=1800.0,
                operators=[OperatorConfig(1) for _ in range(n_ops)],
                trips=trips, reposition_enabled=False, master_seed=5)
    base.update(kw)
    return SimulationConfig(**base)


def test_cells_keep_the_base_assignment_reward():
    base = toy_base(operators=[OperatorConfig(1, assignment_reward_eur=100.0),
                               OperatorConfig(1)])
    cell = _cell_configs(base, [OperatorParams(3, 0.5, 8.1), OperatorParams(2),
                                OperatorParams(1)])
    assert [op.assignment_reward_eur for op in cell.operators] == [100.0, None, None]
    assert [op.fleet_size for op in cell.operators] == [3, 2, 1]
    assert cell.operators[0].c_dis_eur_per_km == 0.5
    assert cell.operators[0].c_vot_eur_per_h == 8.1


def test_fleet_axis_centering_and_clipping():
    assert _fleet_axis(2, 2, 3) == [1, 2, 4]
    assert _fleet_axis(5, 1, 1) == [5]
    assert _fleet_axis(1, 3, 3) == [1, 4]
    assert _fleet_axis(10, 5, 5) == [1, 5, 10, 15, 20]


def test_adjacency_one_axis_one_step():
    assert cells_adjacent((4, 0), (6, 0), 2)
    assert cells_adjacent((4, 0), (4, 1), 2)
    assert not cells_adjacent((4, 0), (6, 1), 2)
    assert not cells_adjacent((4, 0), (8, 0), 2)
    assert not cells_adjacent((4, 0), (4, 0), 2)


def test_alternation_detector_crafted_walks():
    walk = [(4, 0), (6, 0), (4, 0), (6, 0)]
    hit = detect_alternation(walk, 2)
    assert hit == (2, (6, 0))
    assert detect_alternation([(4, 0), (8, 0), (4, 0)], 2) is None
    assert detect_alternation([(4, 0), (6, 1), (4, 0)], 2) is None
    assert detect_alternation([(4, 0), (4, 1), (4, 0)], 2) == (2, (4, 1))
    assert detect_alternation([(4, 0), (6, 0), (8, 0)], 2) is None


def test_single_operator_game_is_one_round():
    cfg = GameConfig(base=toy_base("single"),
                     initial_params=(OperatorParams(2),),
                     fleet_step=1, fleet_count=3)
    state = run_game(cfg)
    assert state.status == "single_round"
    assert state.turn == 1
    assert {r["fleet_size"] for r in state.history} == {1, 2, 3}
    assert state.final_params == state.params[0]
    best = max(r["eff_profit_eur"] for r in state.history)
    mine = [r for r in state.history
            if r["fleet_size"] == state.final_params.fleet_size]
    assert mine[0]["eff_profit_eur"] == best


def test_cells_share_demand_within_turn():
    cfg = GameConfig(base=toy_base("user_decision",
                                   trips=None, demand_rate_per_hour=20.0),
                     initial_params=(OperatorParams(1), OperatorParams(1)),
                     fleet_step=1, fleet_count=2, turn_limit=1)
    state = run_game(cfg)
    firsts = [r for r in state.history if r["turn"] == 0]
    assert len(firsts) >= 2
    assert len({r["n_requests"] for r in firsts}) == 1


def test_symmetric_toy_reaches_equilibrium():
    cfg = GameConfig(base=toy_base(),
                     initial_params=(OperatorParams(1), OperatorParams(1)),
                     fleet_step=2, fleet_count=3)
    state = run_game(cfg)
    assert state.status == "equilibrium"
    assert state.turn <= 10
    assert state.params[0] == state.params[1] == state.final_params
    # refinement happened at least once before bottoming out
    assert state.level >= 1
    assert state.fleet_step == 1
    for turn in range(state.turn):
        cells = [r for r in state.history if r["turn"] == turn]
        if not cells:
            continue
        chosen = next(a for a in state.adopted if a["turn"] == turn)
        mine = [r for r in cells
                if r["fleet_size"] == chosen["fleet_size"]
                and r["obj_index"] == chosen["obj_index"]]
        top = max(r["eff_profit_eur"] for r in cells)
        assert mine[0]["eff_profit_eur"] == top


def test_second_turn_mirrors_first_for_identical_starts():
    cfg = GameConfig(base=toy_base(),
                     initial_params=(OperatorParams(2), OperatorParams(2)),
                     fleet_step=1, fleet_count=3, turn_limit=2)
    state = run_game(cfg)
    t0 = [a for a in state.adopted if a["turn"] == 0]
    t1 = [a for a in state.adopted if a["turn"] == 1]
    if t1:  # game may already have ended after one turn
        assert t0[0]["fleet_size"] == t1[0]["fleet_size"]
        assert t0[0]["obj_index"] == t1[0]["obj_index"]


def test_objective_axis_refines_toward_incumbent():
    opts = ((0.25, 16.2), (0.25, 8.1), (0.25, 0.0))
    cfg = GameConfig(base=toy_base(),
                     initial_params=(OperatorParams(1, 0.25, 8.1),
                                     OperatorParams(1, 0.25, 8.1)),
                     fleet_step=1, fleet_count=1,
                     objective_options=opts, turn_limit=10)
    state = run_game(cfg)
    assert state.level >= 1
    vots = [v for _, v in state.objective_options]
    assert state.final_params.c_vot_eur_per_h in vots
    assert all(d == 0.25 for d, _ in state.objective_options)
    gaps = [a - b for a, b in zip(vots, vots[1:])]
    assert gaps and max(gaps) <= 8.1 / 2


def test_turn_limit_reports_not_raises():
    cfg = GameConfig(base=toy_base(),
                     initial_params=(OperatorParams(3), OperatorParams(3)),
                     fleet_step=2, fleet_count=2, turn_limit=1)
    state = run_game(cfg)
    assert state.status in ("turn_limit", "equilibrium", "alternation")
    if state.status == "turn_limit":
        assert state.final_params is None
        assert state.history


def test_game_rejects_bad_configs():
    with pytest.raises(GameError):
        run_game(GameConfig(base=toy_base(), initial_params=()))
    with pytest.raises(GameError):
        run_game(GameConfig(base=toy_base(),
                            initial_params=(OperatorParams(1, 0.5, 99.0),
                                            OperatorParams(1))))
    with pytest.raises(GameError):
        run_game(GameConfig(base=toy_base(),
                            initial_params=(OperatorParams(1),
                                            OperatorParams(1)),
                            fleet_step=0))
    with pytest.raises(GameError, match="game.jobs"):
        run_game(GameConfig(base=toy_base(),
                            initial_params=(OperatorParams(1),
                                            OperatorParams(1)),
                            jobs=0))


def test_parallel_turns_match_serial():
    mk = lambda jobs: GameConfig(
        base=toy_base("user_decision", trips=None, demand_rate_per_hour=15.0),
        initial_params=(OperatorParams(1), OperatorParams(1)),
        fleet_step=1, fleet_count=3, turn_limit=4, jobs=jobs)
    a = run_game(mk(1))
    b = run_game(mk(2))
    assert a.history == b.history
    assert a.params == b.params
    assert a.status == b.status


def _count_cells(monkeypatch):
    """Operator parameters of every cell simulated through ``game.run``."""
    played, seen = game.run, []

    def counted(config):
        seen.append(tuple((op.fleet_size, op.c_dis_eur_per_km, op.c_vot_eur_per_h)
                          for op in config.operators))
        return played(config)
    monkeypatch.setattr(game, "run", counted)
    return seen


def test_a_game_simulates_each_distinct_cell_once(monkeypatch):
    seen = _count_cells(monkeypatch)
    state = run_game(GameConfig(
        base=toy_base("user_decision", trips=None, demand_rate_per_hour=15.0),
        initial_params=(OperatorParams(2), OperatorParams(2)),
        fleet_step=1, fleet_count=3, turn_limit=3))
    assert state.turn == 3
    # one history row per cell of every turn, repeats included
    assert [r["turn"] for r in state.history] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert len(seen) == len(set(seen)) < len(state.history)


def test_calibration_sweep_matches_across_job_counts():
    base = toy_base("independent", trips=None, demand_rate_per_hour=30.0)
    serial = calibrate(base, [1, 2, 3], 0.3)
    fanned = calibrate(base, [1, 2, 3], 0.3, jobs=2)
    assert serial == fanned


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its arguments and runs
    the tasks in this process, so no worker is ever started."""

    started: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers, self.tasks, self.shut = max_workers, [], False
        self.start_method = mp_context.get_start_method()
        _FakePool.started.append(self)
        initializer(*initargs)

    def map(self, fn, keys):
        keys = list(keys)
        self.tasks += keys
        return [fn(k) for k in keys]

    def shutdown(self):
        self.shut = True


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(game, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(game, "_worker_base", None)
    monkeypatch.setattr(game.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(_FakePool, "started", [])
    return _FakePool.started


def test_one_capped_pool_per_game_and_tasks_carry_only_params(fake_pool):
    state = run_game(GameConfig(
        base=toy_base("user_decision", trips=None, demand_rate_per_hour=15.0),
        initial_params=(OperatorParams(2), OperatorParams(2)),
        fleet_step=1, fleet_count=3, turn_limit=3, jobs=5000))
    assert state.turn == 3
    [pool] = fake_pool
    # the first turn's three cells are all new
    assert (pool.max_workers, pool.start_method) == (3, "spawn")
    assert pool.shut
    assert all(isinstance(k, tuple) and len(k) == 2
               and all(isinstance(p, OperatorParams) for p in k)
               for k in pool.tasks)
    assert len(pool.tasks) == len(set(pool.tasks))


def test_pool_is_capped_by_cpu_count_and_calibration_sends_sizes(fake_pool):
    base = toy_base("single")
    calibrate(base, list(range(1, 11)), 1.0, jobs=5000)
    [pool] = fake_pool
    assert pool.max_workers == 8
    assert pool.tasks == list(range(1, 11))
    assert pool.shut


def test_one_job_starts_no_pool(fake_pool):
    calibrate(toy_base("single"), [1, 2, 3], 1.0, jobs=1)
    assert fake_pool == []


def test_calibration_properties_on_sweep():
    net = make_grid_network(4, 5)
    base = SimulationConfig(
        network=net, scenario="independent", horizon_s=1800.0,
        operators=[OperatorConfig(1), OperatorConfig(1)],
        demand_rate_per_hour=50.0, master_seed=9, reposition_enabled=False)
    out = calibrate(base, [1, 2, 3, 4], 0.6)
    recs = {r["fleet_size"]: r for r in out["records"]}
    n_star = out["fleet_size"]
    assert recs[n_star]["service_rate"] >= 0.6
    for n in recs:
        if n < n_star:
            assert recs[n]["service_rate"] < 0.6
    at = recs[n_star]
    assert abs(at["profit_eur"]) < 1e-6 * at["revenue_eur"]
    best = max(out["records"], key=lambda r: r["eff_profit_eur"])
    assert best["fleet_size"] == n_star


def test_calibration_degenerate_all_served():
    base = toy_base("single")
    out = calibrate(base, [1, 2], 1.0)
    assert out["fleet_size"] == 1
    assert out["p_no_eur"] == 0.0
    assert all(r["n_no_offer"] == 0 for r in out["records"])


def test_calibration_unreachable_target():
    base = toy_base("single", trips=None, demand_rate_per_hour=200.0,
                    horizon_s=1200.0)
    with pytest.raises(CalibrationError):
        calibrate(base, [1], 0.999)


# (profit in cents, refusals) per swept size; many zero and equal profits
_RECORD_ROWS = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(-1000, 1000)),
              st.integers(0, 20)),
    min_size=1, max_size=6)


def grid_scan(records, target, step, steps):
    """The penalty search as a scan of the first `steps` multiples of step."""
    for k in range(steps):
        p = k * step
        best, best_v = None, None
        for rec in records:
            v = rec["profit_eur"] - rec["n_no_offer"] * p
            if best_v is None or v > best_v:
                best, best_v = rec, v
        if best is target:
            return p
    return None


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(rows=_RECORD_ROWS, pick=st.integers(0, 5),
       step=st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.25, 1.0]))
def test_refusal_penalty_equals_the_grid_scan(rows, pick, step):
    records = [{"fleet_size": n, "profit_eur": cents / 100, "n_no_offer": n_no}
               for n, (cents, n_no) in enumerate(rows, start=1)]
    target = records[pick % len(records)]
    # profits lie within 20 EUR of each other, so every crossing of two
    # profit lines lies below 20 EUR and the scan can stop there
    assert (_refusal_penalty(records, target, step)
            == grid_scan(records, target, step, int(20 / step) + 3))


def test_play_turn_roles_alternate():
    cfg = GameConfig(base=toy_base(),
                     initial_params=(OperatorParams(1), OperatorParams(2)),
                     fleet_step=1, fleet_count=1, turn_limit=3)
    state = run_game(cfg)
    actives = [a["operator"] for a in state.adopted]
    assert actives == [i % 2 for i in range(len(actives))]
