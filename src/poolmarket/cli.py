"""Command-line front end: file-driven runs with reproducible outputs.

Every command writes a manifest.json tying its outputs to the config and
seeds that produced them.  Exit codes: 0 success, 1 runtime failure,
2 bad configuration or arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    build_calibration,
    build_game,
    build_network,
    build_simulation,
    load_file,
)
from .demand import DemandError, generate_trips, require_positive, write_trip_rows
from .game import CalibrationError, _validate_calibration, calibrate, run_game
from .assign import InfeasibleAssignmentError
from .network import NetworkLoadError, NoPathError
from .operators import ConsistencyError
from .report import (
    HISTORY_COLUMNS,
    compute_kpis,
    emit,
    read_events,
    replay_kpis,
    write_rows,
)
from .seeds import derive_seed
from .simcore import SimulationError, _validate, run

_CONFIG_STAGE = (ConfigError, NetworkLoadError, DemandError)
_RUN_STAGE = (SimulationError, CalibrationError, ConsistencyError,
              InfeasibleAssignmentError, NoPathError, OSError)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("POOLMARKET_OUT")
    return Path(env) if env else Path("out")


def _write_manifest(out: Path, command: str, args, seeds, files,
                    extra=None) -> Path:
    manifest = {
        "command": command,
        "config": getattr(args, "config", None),
        "seeds": seeds,
        "output_dir": str(out),
        "version": __version__,
        "files": sorted(f.name if isinstance(f, Path) else f for f in files),
    }
    if extra:
        manifest.update(extra)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _apply_overrides(cfg, args):
    """Apply simulate's overrides in turn, checking the run rules after each.

    The file's own settings passed those rules when it was built, so a
    rule that fails after an override is reported against its flag.
    """
    fleets = [dataclasses.replace(oc, fleet_size=args.fleet_size, start_nodes=None)
              for oc in cfg.operators]
    overrides = (("--seed", args.seed, {"master_seed": args.seed}),
                 ("--scenario", args.scenario, {"scenario": args.scenario}),
                 ("--fleet-size", args.fleet_size, {"operators": fleets}))
    for flag, value, change in overrides:
        if value is None:
            continue
        cfg = dataclasses.replace(cfg, **change)
        try:
            _validate(cfg)
        except SimulationError as exc:
            raise ConfigError(f"{flag}: {exc.problem}") from None
    return cfg


def _check_jobs(args) -> None:
    """``--jobs`` of game and calibrate must be an integer >= 1."""
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")


def _write_events(out: Path, events) -> Path:
    path = out / "events.jsonl"
    lines = [json.dumps(e, sort_keys=True) for e in events]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def cmd_simulate(args) -> int:
    doc, src = load_file(args.config)
    cfg = _apply_overrides(
        build_simulation(doc, src, Path(args.config).parent), args)
    result = run(cfg)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    ev_path = _write_events(out, result.events)
    report = compute_kpis(result, phase=args.phase)
    prov = {"master_seed": result.master_seed,
            "fingerprint": result.fingerprint}
    files = emit(report, out, provenance=prov)
    files.append(ev_path)
    files.append(_write_manifest(
        out, "simulate", args, {"master_seed": result.master_seed}, files,
        extra={"fingerprint": result.fingerprint,
               "n_requests": result.n_requests,
               "n_served": result.n_served,
               "scenario": result.scenario}))
    print(f"simulated {result.n_requests} requests, "
          f"{result.n_served} served; wrote {out}")
    return 0


def cmd_game(args) -> int:
    _check_jobs(args)
    doc, src = load_file(args.config)
    game_cfg = build_game(doc, src, Path(args.config).parent)
    if args.jobs is not None:
        game_cfg.jobs = args.jobs
    if args.seed is not None:
        game_cfg.base = dataclasses.replace(game_cfg.base,
                                            master_seed=args.seed)
    state = run_game(game_cfg)
    out = _out_dir(args)
    final = state.final_params
    prov = {"master_seed": game_cfg.base.master_seed, "status": state.status}
    files = write_rows(out, "history", HISTORY_COLUMNS, state.history, prov)
    extra = {
        "status": state.status,
        "turns": state.turn,
        "warning": state.status == "turn_limit",
        "final_params": None if final is None else {
            "fleet_size": final.fleet_size,
            "c_dis_eur_per_km": final.c_dis_eur_per_km,
            "c_vot_eur_per_h": final.c_vot_eur_per_h,
        },
    }
    files.append(_write_manifest(
        out, "game", args, {"master_seed": game_cfg.base.master_seed},
        files, extra=extra))
    print(f"game ended after {state.turn} turn(s): {state.status}")
    return 0


def _emit_sweep(out: Path, records, prov) -> list:
    cols = ("fleet_size", "n_requests", "n_served", "service_rate",
            "served_direct_distance_m", "fleet_distance_m", "n_no_offer",
            "cost_eur", "revenue_eur", "profit_eur", "eff_profit_eur")
    rows = [{c: r.get(c, "") for c in cols} for r in records]
    return write_rows(out, "calibration", cols, rows, prov)


def cmd_calibrate(args) -> int:
    _check_jobs(args)
    doc, src = load_file(args.config)
    cal = build_calibration(doc, src, Path(args.config).parent)
    if args.target is not None:
        try:
            _validate_calibration(cal["fleet_sizes"], args.target,
                                  cal["p_no_step_eur"])
        except CalibrationError as exc:
            raise ConfigError(f"--target: {exc.problem}") from None
        cal["target_service_rate"] = args.target
    target = cal["target_service_rate"]
    out = _out_dir(args)
    prov = {"master_seed": cal["base"].master_seed}
    try:
        res = calibrate(cal["base"], cal["fleet_sizes"], target,
                        p_no_step_eur=cal["p_no_step_eur"],
                        jobs=args.jobs or 1)
    except CalibrationError as exc:
        files = _emit_sweep(out, exc.records, prov)
        files.append(_write_manifest(
            out, "calibrate", args, prov, files,
            extra={"error": str(exc), "target_service_rate": target}))
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    files = _emit_sweep(out, res["records"], prov)
    triple = {"fleet_size": res["fleet_size"],
              "fare_eur_per_km": res["fare_eur_per_km"],
              "p_no_eur": res["p_no_eur"],
              "target_service_rate": target}
    files.append(_write_manifest(out, "calibrate", args, prov, files,
                                 extra=triple))
    print(f"calibrated: fleet {res['fleet_size']}, "
          f"fare {res['fare_eur_per_km']:.4f} EUR/km, "
          f"penalty {res['p_no_eur']:.2f} EUR")
    return 0


def cmd_gen_demand(args) -> int:
    require_positive("--rate", args.rate)
    require_positive("--horizon", args.horizon)
    doc, src = load_file(args.config)
    network = build_network(doc, src, Path(args.config).parent)
    seed = args.seed if args.seed is not None \
        else derive_seed(doc.get("master_seed", 0), "demand-gen")
    trips = generate_trips(sorted(network.node_ids), args.rate,
                           args.horizon, seed)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trips.csv"
    write_trip_rows(trips, path)
    _write_manifest(out, "gen-demand", args, {"seed": seed}, [path],
                    extra={"n_trips": len(trips), "rate_per_hour": args.rate,
                           "horizon_s": args.horizon})
    print(f"wrote {len(trips)} trips to {path}")
    return 0


def cmd_validate(args) -> int:
    doc, src = load_file(args.config)
    base_dir = Path(args.config).parent
    built = ["simulation"]
    build_simulation(doc, src, base_dir)
    if "game" in doc:
        build_game(doc, src, base_dir)
        built.append("game")
    if "calibration" in doc:
        build_calibration(doc, src, base_dir)
        built.append("calibration")
    print(f"{args.config}: ok ({', '.join(built)})")
    return 0


def cmd_replay(args) -> int:
    doc, src = load_file(args.config)
    cfg = build_simulation(doc, src, Path(args.config).parent)
    events = read_events(args.events)
    report = replay_kpis(events, cfg.scenario,
                         [oc.fleet_size for oc in cfg.operators],
                         cfg.horizon_s, cfg.econ, phase=args.phase)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    prov = {"master_seed": cfg.master_seed, "source_events": args.events}
    files = emit(report, out, provenance=prov)
    status = {"checked": False, "match": None}
    if args.expect:
        expected = Path(args.expect).read_text()
        actual = (out / "kpis.csv").read_text()

        def strip(text):  # provenance lines differ by design
            return [l for l in text.splitlines() if not l.startswith("#")]

        status = {"checked": True, "match": strip(expected) == strip(actual)}
    files.append(_write_manifest(out, "replay", args,
                                 {"master_seed": cfg.master_seed}, files,
                                 extra=status))
    if status["checked"] and not status["match"]:
        print("replayed KPIs do not match the expected table",
              file=sys.stderr)
        return 1
    print(f"replayed {len(events)} events; wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolmarket",
        description="Deterministic multi-operator ridepooling market "
                    "simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phase=False, jobs=False):
        p.add_argument("config", help="YAML config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: $POOLMARKET_OUT "
                            "or ./out)")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="simulations run in parallel processes")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        if phase:
            p.add_argument("--phase", default="sim",
                           help="phase label stamped on KPI rows")

    p = sub.add_parser("simulate", help="run one simulation and emit KPIs")
    common(p, phase=True)
    p.add_argument("--scenario", default=None,
                   choices=["single", "independent", "user_decision",
                            "broker_decision"])
    p.add_argument("--fleet-size", type=int, default=None,
                   help="override every operator's fleet size")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("game", help="run the turn-based parameter game")
    common(p, jobs=True)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("calibrate",
                       help="sweep fleet sizes, fit fare and penalty")
    common(p, jobs=True)
    p.add_argument("--target", type=float, default=None,
                   help="override the target service rate")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("gen-demand", help="write synthetic Poisson trips")
    common(p)
    p.add_argument("--rate", type=float, required=True,
                   help="trips per hour")
    p.add_argument("--horizon", type=float, required=True,
                   help="demand window in seconds")
    p.set_defaults(func=cmd_gen_demand)

    p = sub.add_parser("validate", help="check a config file and exit")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay",
                       help="recompute KPIs from an event log")
    common(p, phase=True)
    p.add_argument("events", help="events.jsonl from a simulate run")
    p.add_argument("--expect", default=None,
                   help="kpis.csv to compare against (exit 1 on mismatch)")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_STAGE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUN_STAGE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
