"""Turn-based parameter tuning between operators, plus market calibration.

Each turn one operator sweeps a grid of (fleet size, objective weights)
candidates while the others stand still; every cell is one full simulation
run under identical seeds, so cell comparisons are paired.  The active
operator adopts the cell with the highest effective profit.  Symmetric
rest points trigger grid refinement; oscillation between adjacent cells
ends the game with the post-first-jump parameter set for everyone.

A game or a calibration runs its cells through one ``_CellRunner``.  A
cell is deterministic in its parameters, so the runner simulates each
distinct parameter tuple once and hands repeats the numbers it kept.
With ``jobs > 1`` it starts one process pool for the whole game, sends
the base config to each worker once and each cell only its parameters.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .economics import compute_effective_profit, compute_profit
from .simcore import (OperatorConfig, SimulationConfig, SimulationError,
                      _validate, run)


class GameError(SimulationError):
    """A game setting rejected before the first turn."""


class CalibrationError(Exception):
    """A calibration that cannot finish; ``keypath`` names a broken setting."""

    def __init__(self, message: str, records=None, keypath=None):
        super().__init__(message if keypath is None else f"{keypath}: {message}")
        self.records = records or []
        self.keypath = keypath
        self.problem = message


@dataclass(frozen=True)
class OperatorParams:
    """The knobs an operator may turn between rounds."""

    fleet_size: int
    c_dis_eur_per_km: float = 0.25
    c_vot_eur_per_h: float = 16.2

    def objective(self) -> tuple[float, float]:
        return (self.c_dis_eur_per_km, self.c_vot_eur_per_h)


@dataclass
class GameConfig:
    base: SimulationConfig
    initial_params: tuple
    fleet_step: int = 2
    fleet_count: int = 3
    # ordered axis; adjacency and refinement work on list position
    objective_options: tuple = ((0.25, 16.2),)
    min_fleet_step: int = 1
    min_c_vot_gap_eur_per_h: float = 1.0
    turn_limit: int = 10
    jobs: int = 1


@dataclass
class GameState:
    params: list
    fleet_step: int
    objective_options: tuple
    turn: int = 0
    level: int = 0
    history: list = field(default_factory=list)
    adopted: list = field(default_factory=list)
    status: str = "running"
    final_params: OperatorParams | None = None


def _fleet_axis(center: int, step: int, count: int) -> list:
    lo = (count - 1) // 2
    vals = {max(1, center + step * (i - lo)) for i in range(count)}
    return sorted(vals)


def _simulate_cell(config: SimulationConfig):
    """Simulate one cell through ``run``; returns just the numbers the
    turn needs."""
    res = run(config)
    return res.n_requests, res.operator_stats


def _cell_configs(base: SimulationConfig, params_by_op) -> SimulationConfig:
    """Base config with operator i set to params_by_op[i]; it keeps the base
    operator's assignment reward when there is one."""
    ops = [OperatorConfig(p.fleet_size,
                          c_dis_eur_per_km=p.c_dis_eur_per_km,
                          c_vot_eur_per_h=p.c_vot_eur_per_h,
                          assignment_reward_eur=(base.operators[i].assignment_reward_eur
                                                 if i < len(base.operators) else None))
           for i, p in enumerate(params_by_op)]
    return dataclasses.replace(base, operators=ops)


def _sweep_config(base: SimulationConfig, fleet_size: int) -> SimulationConfig:
    """Base config with every operator running fleet_size vehicles."""
    ops = [dataclasses.replace(oc, fleet_size=fleet_size, start_nodes=None)
           for oc in base.operators]
    return dataclasses.replace(base, operators=ops)


# (base config, cell config maker) of a worker process, set once by its
# pool's initializer
_worker_base = None


def _start_worker(base: SimulationConfig, make) -> None:
    global _worker_base
    _worker_base = (base, make)


def _simulate_in_worker(key):
    base, make = _worker_base
    return _simulate_cell(make(base, key))


class _CellRunner:
    """Simulates the cells of one game or calibration, each distinct one once.

    A cell is ``make(base, key)`` for a hashable key: a game's tuple of
    every operator's ``OperatorParams``, or a calibration's fleet size.
    Only ``(n_requests, operator_stats)`` of a cell is kept.  In process,
    cells run through this module's ``run``; with ``jobs > 1`` a batch of
    two or more new cells goes to one process pool, started at the first
    such batch with at most ``min(jobs, os.cpu_count(), cells in the
    batch)`` workers and shut down when the runner's ``with`` block ends.
    Workers are spawned, not forked, and each gets the base config once,
    through the pool's initializer.
    """

    def __init__(self, base: SimulationConfig, make, jobs: int = 1):
        self.base, self.make, self.jobs = base, make, jobs
        self.done: dict = {}
        self.pool = None

    def __enter__(self) -> "_CellRunner":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def run(self, keys) -> list:
        """(n_requests, operator_stats) of each key's cell, in key order."""
        fresh = [k for k in dict.fromkeys(keys) if k not in self.done]
        workers = min(self.jobs, os.cpu_count() or 1, len(fresh))
        if workers > 1 and self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
                initializer=_start_worker, initargs=(self.base, self.make))
        if self.pool is not None and len(fresh) > 1:
            results = self.pool.map(_simulate_in_worker, fresh)
        else:
            results = (_simulate_cell(self.make(self.base, k)) for k in fresh)
        self.done.update(zip(fresh, results))
        return [self.done[k] for k in keys]


def play_turn(state: GameState, config: GameConfig,
              cells: _CellRunner | None = None) -> GameState:
    """One exhaustive-search round for the operator whose move it is.

    ``cells`` is the game's cell runner; without one, the turn simulates
    its cells on a runner of its own.
    """
    if cells is None:
        with _CellRunner(config.base, _cell_configs, config.jobs) as cells:
            return play_turn(state, config, cells)
    n_ops = len(state.params)
    active = state.turn % n_ops
    fleets = _fleet_axis(state.params[active].fleet_size,
                         state.fleet_step, config.fleet_count)
    grid = []
    for fleet in fleets:
        for oi, (c_dis, c_vot) in enumerate(state.objective_options):
            grid.append((fleet, oi, OperatorParams(fleet, c_dis, c_vot)))
    keys = []
    for _, _, cand in grid:
        trial = list(state.params)
        trial[active] = cand
        keys.append(tuple(trial))
    econ = config.base.econ
    horizon = config.base.horizon_s
    records = []
    for (fleet, oi, cand), (n_req, stats) in zip(grid, cells.run(keys)):
        st = stats[active]
        bd = compute_profit(st["served_direct_distance_m"],
                            st["fleet_distance_m"], fleet, horizon, econ)
        p_eff = compute_effective_profit(bd.profit_eur, st["n_no_offer"], econ)
        records.append({
            "turn": state.turn,
            "operator": active,
            "fleet_size": fleet,
            "obj_index": oi,
            "c_dis_eur_per_km": cand.c_dis_eur_per_km,
            "c_vot_eur_per_h": cand.c_vot_eur_per_h,
            "profit_eur": bd.profit_eur,
            "eff_profit_eur": p_eff,
            "n_requests": n_req,
            "service_rate": (st["n_served"] / n_req) if n_req else 0.0,
            "n_no_offer": st["n_no_offer"],
        })
    best = None
    best_key = None
    for rec in records:
        key = (-rec["eff_profit_eur"], rec["fleet_size"],
               rec["c_vot_eur_per_h"], rec["c_dis_eur_per_km"])
        if best is None or key < best_key:
            best, best_key = rec, key
    chosen = OperatorParams(best["fleet_size"], best["c_dis_eur_per_km"],
                            best["c_vot_eur_per_h"])
    changed = chosen != state.params[active]
    state.history.extend(records)
    state.adopted.append({
        "turn": state.turn, "operator": active, "level": state.level,
        "fleet_size": chosen.fleet_size, "obj_index": best["obj_index"],
        "params": chosen, "changed": changed,
    })
    state.params[active] = chosen
    state.turn += 1
    return state


def cells_adjacent(a, b, fleet_step: int) -> bool:
    """One step apart on exactly one axis; cells are (fleet, option index)."""
    df = abs(a[0] - b[0])
    do = abs(a[1] - b[1])
    if df == fleet_step and do == 0:
        return True
    return df == 0 and do == 1


def detect_alternation(cells, fleet_step: int):
    """First index i where the walk revisits cells[i-2] via an adjacent cell.

    Returns (i, cells[i-1]) with cells[i-1] the set held right after the
    first jump of the oscillation, or None when the walk never doubles back.
    """
    for i in range(2, len(cells)):
        if (cells[i] == cells[i - 2] and cells[i] != cells[i - 1]
                and cells_adjacent(cells[i], cells[i - 1], fleet_step)):
            return i, cells[i - 1]
    return None


def _refine_objectives(options, incumbent, min_gap: float):
    """Insert c_vot midpoints next to the incumbent, keeping its c_dis."""
    try:
        k = options.index(incumbent)
    except ValueError:
        return None
    c_dis, c_vot = incumbent
    fresh = []
    if k > 0 and abs(options[k - 1][1] - c_vot) / 2.0 >= min_gap:
        fresh.append((c_dis, (options[k - 1][1] + c_vot) / 2.0))
    if k + 1 < len(options) and abs(options[k + 1][1] - c_vot) / 2.0 >= min_gap:
        fresh.append((c_dis, (options[k + 1][1] + c_vot) / 2.0))
    if not fresh:
        return None
    merged = sorted(set(fresh) | {incumbent}, key=lambda p: (-p[1], p[0]))
    return tuple(merged)


def _try_refine(state: GameState, config: GameConfig) -> bool:
    did = False
    half = state.fleet_step // 2
    if half >= config.min_fleet_step and half < state.fleet_step:
        state.fleet_step = half
        did = True
    inc = state.params[0].objective()
    refined = _refine_objectives(list(state.objective_options), inc,
                                 config.min_c_vot_gap_eur_per_h)
    if refined is not None:
        state.objective_options = refined
        did = True
    if did:
        state.level += 1
    return did


def _validate_game(config: GameConfig):
    """The rules of a game's own settings; raises GameError."""
    if not config.initial_params:
        raise GameError("game.initial_params", "need at least one operator")
    for i, p in enumerate(config.initial_params):
        if p.objective() not in config.objective_options:
            raise GameError(f"game.initial_params[{i}]",
                            f"objective {p.objective()} is not among "
                            "objective_options")
    for key in ("fleet_step", "fleet_count", "jobs"):
        if getattr(config, key) < 1:
            raise GameError(f"game.{key}", "must be >= 1")
    # a cell runs unless several operators get no turn
    if len(config.initial_params) == 1 or config.turn_limit >= 1:
        try:
            _validate(_cell_configs(config.base, config.initial_params))
        except SimulationError as exc:
            if not exc.keypath.startswith("operators"):
                raise
            raise GameError("game.initial_params"
                            + exc.keypath.removeprefix("operators"),
                            exc.problem) from None
    for j, pair in enumerate(config.objective_options):
        for k, value in enumerate(pair):
            if not 0.0 <= value < math.inf:
                raise GameError(f"game.objective_options[{j}][{k}]",
                                f"must be >= 0 and finite, got {value}")


def run_game(config: GameConfig) -> GameState:
    """Alternate turns until equilibrium, alternation, or the turn cap."""
    _validate_game(config)
    params = list(config.initial_params)
    state = GameState(params=params, fleet_step=config.fleet_step,
                      objective_options=tuple(config.objective_options))
    with _CellRunner(config.base, _cell_configs, config.jobs) as cells:
        return _play(state, config, cells)


def _play(state: GameState, config: GameConfig, cells: _CellRunner) -> GameState:
    n_ops = len(state.params)
    if n_ops == 1:
        play_turn(state, config, cells)
        state.status = "single_round"
        state.final_params = state.params[0]
        return state

    while state.turn < config.turn_limit:
        prev = state.params[state.turn % n_ops]
        play_turn(state, config, cells)
        last = state.adopted[-1]
        if last["changed"]:
            own = [a for a in state.adopted
                   if a["operator"] == last["operator"]
                   and a["level"] == state.level]
            walk = [(a["fleet_size"], a["obj_index"]) for a in own]
            hit = detect_alternation(walk, state.fleet_step)
            if hit is not None:
                settled = own[hit[0] - 1]["params"]
                state.params = [settled for _ in range(n_ops)]
                state.status = "alternation"
                state.final_params = settled
                return state
            continue
        assert last["params"] == prev
        if all(p == state.params[0] for p in state.params):
            if not _try_refine(state, config):
                state.status = "equilibrium"
                state.final_params = state.params[0]
                return state
    state.status = "turn_limit"
    return state


def _validate_calibration(fleet_sizes, target_service_rate: float,
                          p_no_step_eur: float):
    """The rules of a calibration's settings; raises CalibrationError."""
    if not fleet_sizes or min(fleet_sizes) < 1:
        raise CalibrationError(
            f"need at least one size, all >= 1, got {fleet_sizes}",
            keypath="calibration.fleet_sizes")
    if not 0.0 < target_service_rate <= 1.0:
        raise CalibrationError(f"must be in (0, 1], got {target_service_rate}",
                               keypath="calibration.target_service_rate")
    if not 0.0 < p_no_step_eur < math.inf:
        raise CalibrationError(f"must be positive and finite, got {p_no_step_eur}",
                               keypath="calibration.p_no_step_eur")


def _refusal_penalty(records, target, step: float):
    """Smallest multiple of step at which effective profit first peaks at
    the target record, or None when no multiple does.

    Effective profit is linear in the penalty, so the target wins on an
    interval that starts at the highest crossing of its profit line with
    those of records that refuse more.  The steps around that crossing
    are checked exactly, which settles float rounding.
    """
    def peak_at(p_no):
        # max keeps the first of equal values, the smaller fleet
        return target is max(
            records, key=lambda r: r["profit_eur"] - r["n_no_offer"] * p_no)

    n_t, v_t = target["n_no_offer"], target["profit_eur"]
    lowest = max([0.0] + [(r["profit_eur"] - v_t) / (r["n_no_offer"] - n_t)
                          for r in records if r["n_no_offer"] > n_t])
    k = lowest / step
    if not math.isfinite(k):
        return None
    k = math.ceil(k)
    return next((j * step for j in range(max(0, k - 1), k + 2)
                 if peak_at(j * step)), None)


def calibrate(base: SimulationConfig, fleet_sizes, target_service_rate: float,
              p_no_step_eur: float = 0.01, jobs: int = 1) -> dict:
    """Pick the smallest adequate fleet, its break-even fare, and the
    smallest refusal penalty that makes effective profit peak there.

    Every operator in the base config runs the swept fleet size; revenue,
    cost, service and refusal counts are aggregated over operators.
    """
    sizes = sorted(set(int(n) for n in fleet_sizes))
    _validate_calibration(sizes, target_service_rate, p_no_step_eur)
    econ = base.econ
    with _CellRunner(base, _sweep_config, jobs) as cells:
        results = cells.run(sizes)
    records = []
    for n, (n_req, stats) in zip(sizes, results):
        served_m = sum(s["served_direct_distance_m"] for s in stats)
        driven_m = sum(s["fleet_distance_m"] for s in stats)
        n_no = sum(s["n_no_offer"] for s in stats)
        n_served = sum(s["n_served"] for s in stats)
        total_fleet = n * len(stats)
        cost = (total_fleet * econ.vehicle_cost_eur_per_day
                * base.horizon_s / 86400.0
                + driven_m / 1000.0 * econ.distance_cost_eur_per_km)
        records.append({
            "fleet_size": n,
            "n_requests": n_req,
            "n_served": n_served,
            "service_rate": (n_served / n_req) if n_req else 0.0,
            "served_direct_distance_m": served_m,
            "fleet_distance_m": driven_m,
            "n_no_offer": n_no,
            "cost_eur": cost,
        })
    target = None
    for rec in records:
        if rec["service_rate"] >= target_service_rate:
            target = rec
            break
    if target is None:
        raise CalibrationError(
            f"no swept fleet size reaches a service rate of "
            f"{target_service_rate:.2%}", records)
    served_km = target["served_direct_distance_m"] / 1000.0
    if served_km <= 0.0:
        raise CalibrationError("nothing served at the target fleet size",
                               records)
    fare = target["cost_eur"] / served_km
    for rec in records:
        rec["revenue_eur"] = fare * rec["served_direct_distance_m"] / 1000.0
        rec["profit_eur"] = rec["revenue_eur"] - rec["cost_eur"]
    n_star = target["fleet_size"]
    p_star = _refusal_penalty(records, target, p_no_step_eur)
    if p_star is None:
        raise CalibrationError(
            "no penalty on the grid puts the effective-profit peak at "
            f"{n_star} vehicles", records)
    for rec in records:
        rec["eff_profit_eur"] = rec["profit_eur"] - rec["n_no_offer"] * p_star
    return {
        "fleet_size": n_star,
        "fare_eur_per_km": fare,
        "p_no_eur": p_star,
        "target_service_rate": target_service_rate,
        "records": records,
    }
