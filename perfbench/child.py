"""One benchmark process: set up, run a batch of input files, check them.

Usage (started by run.py, one process per batch):

    python3 child.py --kind simulate|game --t0 T --deadline D --out F
                     [--trace] [--spans S] CONFIG [CONFIG ...]

``--t0`` is the parent's monotonic clock just before it started this
process, so set-up time is process start to ready: interpreter start,
``import poolmarket``, then ``config.load_file`` and the build of the
first config (YAML parse, trips CSV, network).  Each config is then run
through the public API, timed, and checked.  A config is started only
if it is the first or if the last one, run again, would end before the
monotonic clock reaches ``--deadline``.
Every config builds its own ``Network``, so network caches start cold.
The results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import poolmarket from this checkout's ``src``, nowhere else."""
    if not (SRC / "poolmarket" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'poolmarket'} is missing")
    sys.path.insert(0, str(SRC))
    import poolmarket
    import poolmarket.config  # noqa: F401  (the package does not import it)
    if Path(poolmarket.__file__).resolve().parent != SRC / "poolmarket":
        raise SystemExit(f"imported poolmarket from {poolmarket.__file__}")
    return poolmarket


def check_simulation(pm, result) -> list:
    """Problems with one finished simulation; empty when it checks out."""
    problems = []
    replayed = pm.report.replay_kpis(result.events, result.scenario,
                                     result.fleet_sizes, result.horizon_s,
                                     result.econ)
    if replayed.rows != pm.report.compute_kpis(result).rows:
        problems.append("replayed KPI rows differ from the emitted rows")
    for ev in result.events:
        if ev["kind"] == "reopt" and ev["optimized_cost"] > ev["incumbent_cost"]:
            problems.append(f"reopt at {ev['time']} raised the plan cost")
    return problems


def game_fingerprint(state) -> str:
    text = json.dumps({"history": state.history, "status": state.status,
                       "turn": state.turn, "final": repr(state.final_params)},
                      sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Builds and runs configs of one kind; game cells are checked as played."""

    def __init__(self, pm, kind: str):
        self.pm = pm
        self.kind = kind
        self.cell_problems: list = []
        self.cells_checked = 0
        self.cells_failed = 0
        self.check_s = 0.0
        if kind == "game":
            # every cell is checked like a simulation, outside the timing
            played = pm.game.run

            def checked_run(config):
                result = played(config)
                t = time.perf_counter()
                problems = check_simulation(pm, result)
                self.cells_checked += 1
                self.cells_failed += bool(problems)
                self.cell_problems += problems
                self.check_s += time.perf_counter() - t
                return result
            pm.game.run = checked_run

    def build(self, path: Path):
        config = self.pm.config
        doc, src = config.load_file(path)
        if self.kind == "game":
            return config.build_game(doc, src, path.parent)
        return config.build_simulation(doc, src, path.parent)

    def run(self, cfg) -> dict:
        """Timed call plus checks; returns one record."""
        pm = self.pm
        self.cell_problems, self.check_s = [], 0.0
        self.cells_checked = self.cells_failed = 0
        t = time.perf_counter()
        if self.kind == "game":
            state = pm.game.run_game(cfg)
        else:
            result = pm.simcore.run(cfg)
        wall = time.perf_counter() - t - self.check_s
        if self.kind == "game":
            return {"wall_s": wall, "sims": len(state.history),
                    "requests": sum(r["n_requests"] for r in state.history),
                    "served_frac": sum(r["service_rate"] for r in state.history)
                    / max(1, len(state.history)),
                    "turns": state.turn,
                    "status": state.status,
                    "fingerprint": game_fingerprint(state),
                    "problems": self.cell_problems,
                    "sims_failed": self.cells_failed}
        problems = check_simulation(pm, result)
        return {"wall_s": wall, "sims": 1, "requests": result.n_requests,
                "served_frac": result.n_served / max(1, result.n_requests),
                "fingerprint": result.fingerprint,
                "problems": problems, "sims_failed": int(bool(problems))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", choices=("simulate", "game"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("configs", nargs="+", type=Path)
    args = ap.parse_args(argv)

    pm = import_program()
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install(pm)
    # after the tracer, so that checking a game cell stays out of its span
    runner = Runner(pm, args.kind)
    records = []
    setup_s = None
    set_s = 0.0
    for i, path in enumerate(args.configs):
        started = time.monotonic()
        if i and started + set_s >= args.deadline:
            break
        rec = {"config": str(path)}
        try:
            cfg = runner.build(path)
            if setup_s is None:
                setup_s = time.monotonic() - args.t0
            gc.collect()
            if tracer is not None:
                tracer.reset()
            rec.update(runner.run(cfg))
            del cfg
            if tracer is not None:
                rec["trace"] = tracer.summary()
                if args.spans is not None:
                    with args.spans.open("a") as fh:
                        for span in tracer.spans:
                            fh.write(json.dumps(span) + "\n")
        except Exception:
            sims = max(1, runner.cells_checked)
            rec.update(sims=sims, sims_failed=sims, error=traceback.format_exc())
        set_s = time.monotonic() - started
        rec["set_s"] = set_s
        records.append(rec)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    args.out.write_text(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "records": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
