"""poolmarket benchmark: end-to-end metrics, or a layer trace.

    python3 perfbench/run.py --workload city --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  The seed makes the inputs: input set k
of a seed is a YAML config plus a trips CSV (see workloads.py), written
under ``.perfbench/`` in the checkout.  The run is a closed loop of one
client: it starts one process at a time (child.py), each of which sets up
once and then runs a batch of input sets through the public API.  A new
process or input set is started only while it is expected, by the times
taken so far, to end within ``--seconds``, so that a run ends close to
that time.  Every simulation's output is checked, and the
first input set is run again in a second process, whose fingerprint (for
the game, its history) must repeat.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off: the median over timed calls of ``wall_s`` and
``requests_per_s``, the median over processes of ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` every batch runs twice, in an
untraced and then a traced process, and the metrics are the per-layer
ones: counts and times are means per timed call, percentiles pool all
samples of the run, and ``trace.overhead_s`` is the mean traced minus
the mean untraced ``wall_s`` of the same input sets.

``--workload all`` runs every workload in turn.  The last line of the
output is one JSON object: ``correct``, ``attempted`` and ``failed``
count simulations (each game cell is one), and ``metrics`` holds every
metric with its unit.  The process exits 2 when there is no program to
measure, and 1 when no timed call succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# a process still running this long after the run began is stopped, so
# the whole run ends well inside three minutes
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("requests_per_s", "req/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

PER_LAYER = (
    ("broker.dispatch_calls", "count", "lower"),
    ("broker.dispatch_p50_ms", "ms", "lower"),
    ("broker.dispatch_tail_ms", "ms", "lower"),
    ("broker.dispatch_tail_pct", "%", "higher"),
    ("broker.dispatch_n", "count", "higher"),
    ("operators.offer_calls", "count", "lower"),
    ("operators.offer_s", "s", "lower"),
    ("operators.offer_made_ratio", "ratio", "higher"),
    ("operators.plan_calls", "count", "lower"),
    ("operators.plan_s", "s", "lower"),
    ("operators.plan_feasible_ratio", "ratio", "higher"),
    ("operators.check_calls", "count", "lower"),
    ("operators.book_calls", "count", "higher"),
    ("operators.reposition_s", "s", "lower"),
    ("operators.retime_s", "s", "lower"),
    ("network.tt_calls", "count", "lower"),
    ("network.dist_calls", "count", "lower"),
    ("network.path_calls", "count", "lower"),
    ("network.base_tt_calls", "count", "lower"),
    ("network.query_s", "s", "lower"),
    ("assign.enum_s", "s", "lower"),
    ("assign.options", "count", "lower"),
    ("assign.pair_calls", "count", "lower"),
    ("assign.pair_ok_ratio", "ratio", "higher"),
    ("assign.reopt_calls", "count", "lower"),
    ("assign.reopt_s", "s", "lower"),
    ("assign.reopt_max_ms", "ms", "lower"),
    ("assign.solve_s", "s", "lower"),
    ("assign.lp_solves", "count", "lower"),
    ("assign.lp_s", "s", "lower"),
    ("demand.ingest_s", "s", "lower"),
    ("demand.forecast_s", "s", "lower"),
    ("simcore.self_s", "s", "lower"),
    ("game.cells", "count", "lower"),
    ("game.distinct_cells", "count", "lower"),
    ("game.repeat_share", "ratio", "higher"),
    ("game.turns", "count", "lower"),
    ("game.cell_p50_ms", "ms", "lower"),
    ("game.cell_max_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def tail(samples):
    """(percentile, value): the highest of 50/90/99/99.9 with >= 10 samples beyond."""
    xs = sorted(samples)
    n = len(xs)
    rank = {p: math.ceil(p * n / 100.0) for p in (50.0, 90.0, 99.0, 99.9)}
    pct = max([p for p, r in rank.items() if n - r >= 10], default=50.0)
    if not xs:
        return pct, 0.0
    return pct, xs[max(0, rank[pct] - 1)]


class Batches:
    """Input sets of one seed, written on first use, handed out in batches."""

    def __init__(self, workload, seed: int, work: Path):
        self.w, self.seed, self.work = workload, seed, work
        self.next_k = 0

    def config(self, k: int) -> Path:
        path = self.work / f"in{k}" / f"{self.w.name}.yaml"
        if not path.exists():
            write_inputs(self.w, self.seed, k, path.parent)
        return path

    def take(self, n: int, repeat_first=False) -> list:
        ks = [0] if repeat_first else []
        while len(ks) < n:
            ks.append(self.next_k)
            self.next_k += 1
        return [self.config(k) for k in ks]


def run_process(w, configs, deadline, work: Path, n: int, hard_stop: float,
                trace=False) -> dict:
    """One child process over ``configs``; returns its JSON report."""
    out = work / f"proc{n}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--kind", w.kind,
           "--deadline", repr(deadline), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(work / "spans.jsonl")]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)] + [str(c) for c in configs]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, hard_stop - t0))
        error = proc.stderr if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = f"process stopped after {hard_stop - t0:.0f} s"
    if error is None and out.exists():
        return json.loads(out.read_text())
    return {"setup_s": None, "peak_rss_mb": None,
            "records": [{"config": str(configs[0]), "sims": 1, "sims_failed": 1,
                         "error": error or "no report"}]}


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object plus an info dict."""
    work = WORK / f"{w.name}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    batches = Batches(w, seed, work)
    start = time.monotonic()
    deadline, hard_stop = start + seconds, start + HARD_LIMIT_S
    plain, traced = [], []
    while len(plain) < (1 if trace else 2) or (
            time.monotonic() + expected_s(plain, trace) < deadline):
        if time.monotonic() >= hard_stop:
            break
        configs = batches.take(w.batch, repeat_first=not trace and len(plain) == 1)
        plain.append(run_process(w, configs, deadline, work,
                                 len(plain) + len(traced), hard_stop))
        if trace:
            # the traced twin runs what the untraced process ran, no more
            ran = [Path(r["config"]) for r in plain[-1]["records"]]
            traced.append(run_process(w, ran, math.inf, work,
                                      len(plain) + len(traced), hard_stop, trace=True))
    return summarize(w, plain, traced, trace)


def expected_s(plain, trace: bool) -> float:
    """Seconds a new process is expected to take: set-up and one input set.

    In a traced run each untraced process is followed by a traced one,
    which is counted at twice the time.
    """
    setups = [p["setup_s"] for p in plain if p["setup_s"] is not None]
    sets = [r["set_s"] for p in plain for r in p["records"] if "set_s" in r]
    if not setups or not sets:
        return 0.0
    return (statistics.median(setups) + statistics.median(sets)) * (3 if trace else 1)


def summarize(w, plain, traced, trace: bool) -> dict:
    records = [r for p in plain + traced for r in p["records"]]
    attempted = sum(r["sims"] for r in records)
    failed = sum(r["sims_failed"] for r in records)
    problems = [f"{r['config']}: {r.get('error') or '; '.join(r['problems'])}"
                for r in records if r.get("error") or r.get("problems")]
    # the same input set must give the same fingerprint in every process
    seen: dict = {}
    for r in records:
        if "fingerprint" not in r:
            continue
        first = seen.setdefault(r["config"], r["fingerprint"])
        if r["fingerprint"] != first:
            failed += r["sims"]
            problems.append(f"{r['config']}: fingerprint did not repeat")
    repeats = sum(1 for r in records if "fingerprint" in r) - len(seen)
    ok = [r for p in plain for r in p["records"] if "fingerprint" in r]
    info = {"ops": attempted, "ops_failed": failed, "repeats_checked": repeats,
            "problems": problems}
    if ok:
        info["fingerprint"] = ok[0]["fingerprint"]
        info["service_rate"] = ok[0]["served_frac"]
        if w.kind == "game":
            info.update(status=ok[0]["status"], turns=ok[0]["turns"])
    if trace:
        metrics = layer_metrics(plain, traced)
    elif ok:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "requests_per_s": statistics.median(r["requests"] / r["wall_s"] for r in ok),
            "setup_s": statistics.median(p["setup_s"] for p in plain
                                         if p["setup_s"] is not None),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain
                                             if p["peak_rss_mb"] is not None),
        }
    else:
        metrics = {}
    return {"correct": failed == 0 and repeats > 0 and bool(metrics),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            "info": info}


def layer_metrics(plain, traced) -> dict:
    untraced_wall = {r["config"]: r["wall_s"] for p in plain for r in p["records"]
                     if "wall_s" in r}
    recs = [r for p in traced for r in p["records"]
            if "trace" in r and r["config"] in untraced_wall]
    if not recs:
        return {}
    n = len(recs)

    def span(name, i=1):
        return sum(r["trace"]["spans"][name][i] for r in recs) / n

    def leaf(name, i=0):
        return sum(r["trace"]["leaves"][name][i] for r in recs) / n

    def ratio(good, total):
        return good / total if total else 0.0

    dispatch = [x for r in recs for x in r["trace"]["dispatch_ms"]]
    pct, tail_ms = tail(dispatch)
    cells = [c for r in recs for c in r["trace"]["cells"]]
    cell_ms = [ms for ms, _ in cells]
    distinct = sum(len({json.dumps(key) for _, key in r["trace"]["cells"]})
                   for r in recs) / n
    wall = sum(r["wall_s"] for r in recs) / n
    return {
        "broker.dispatch_calls": span("dispatch", 0),
        "broker.dispatch_p50_ms": statistics.median(dispatch) if dispatch else 0.0,
        "broker.dispatch_tail_ms": tail_ms,
        "broker.dispatch_tail_pct": pct,
        "broker.dispatch_n": len(dispatch),
        "operators.offer_calls": span("offer", 0),
        "operators.offer_s": span("offer"),
        "operators.offer_made_ratio": ratio(
            sum(r["trace"]["offers_made"] for r in recs),
            sum(r["trace"]["spans"]["offer"][0] for r in recs)),
        "operators.plan_calls": leaf("plan"),
        "operators.plan_s": leaf("plan", 1),
        "operators.plan_feasible_ratio": ratio(leaf("plan", 2), leaf("plan")),
        "operators.check_calls": leaf("check"),
        "operators.book_calls": leaf("book"),
        "operators.reposition_s": span("reposition"),
        "operators.retime_s": span("retime"),
        "network.tt_calls": leaf("net.tt"),
        "network.dist_calls": leaf("net.dist"),
        "network.path_calls": leaf("net.path"),
        "network.base_tt_calls": leaf("net.base_tt"),
        "network.query_s": sum(leaf(k, 1) for k in
                               ("net.tt", "net.dist", "net.path", "net.base_tt")),
        "assign.enum_s": span("enumerate"),
        "assign.options": sum(r["trace"]["options"] for r in recs) / n,
        "assign.pair_calls": leaf("pair"),
        "assign.pair_ok_ratio": ratio(leaf("pair", 2), leaf("pair")),
        "assign.reopt_calls": span("reopt", 0),
        "assign.reopt_s": span("reopt"),
        "assign.reopt_max_ms": max(r["trace"]["reopt_max_ms"] for r in recs),
        "assign.solve_s": span("solve"),
        "assign.lp_solves": leaf("lp"),
        "assign.lp_s": leaf("lp", 1),
        "demand.ingest_s": span("ingest"),
        "demand.forecast_s": span("forecast"),
        "simcore.self_s": sum(r["trace"]["run_self_s"] for r in recs) / n,
        "game.cells": len(cells) / n,
        "game.distinct_cells": distinct,
        "game.repeat_share": 1.0 - distinct * n / len(cells) if cells else 0.0,
        "game.turns": sum(r.get("turns", 0) for r in recs) / n,
        "game.cell_p50_ms": statistics.median(cell_ms) if cell_ms else 0.0,
        "game.cell_max_ms": max(cell_ms, default=0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - sum(untraced_wall[r["config"]] for r in recs) / n,
    }


def report(name: str, result: dict):
    """Human-readable lines for one workload."""
    info = result["info"]
    print(f"[{name}] ops {info['ops']}  ops_failed {info['ops_failed']}  "
          f"fingerprint repeats checked {info['repeats_checked']}")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} {m['value']:.6g} {m['unit']}")
    for key in ("fingerprint", "service_rate", "status", "turns"):
        if info.get(key) is not None:
            print(f"[{name}] info {key} {info[key]}")
    for line in info["problems"][:10]:
        print(f"[{name}] FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "poolmarket" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'poolmarket'} is missing",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace))
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
