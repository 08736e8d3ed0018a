"""Layer tracing from outside the program.

Wraps the public functions of poolmarket's modules so that one traced
simulation reports where its time and work went, without any change to
the program.  Coarse boundaries (run, dispatch, offer, reopt, enumerate,
solve, reposition, retime, ingest, forecast, game cell) are recorded as
spans that carry their simulation id and parent span and are kept in
memory.  Hot leaves (schedule timing, feasibility checks, pair tests,
network queries, LP solves) would give millions of spans, so they only
add to a call count, a time total and, where useful, a count of useful
outcomes.

Names bound by ``from ... import`` are patched where they are looked up
(for example ``simcore.reoptimize`` and ``assign.linprog``).  A target a
later version of the program no longer has is skipped, so its counters
read 0.
"""

from __future__ import annotations

import time

SPAN_NAMES = ("run", "cell", "dispatch", "offer", "reopt", "enumerate",
              "solve", "reposition", "retime", "ingest", "forecast")
LEAF_NAMES = ("plan", "check", "book", "pair", "lp", "net.tt", "net.dist",
              "net.path", "net.base_tt")

# span index, fields of one span record
SIM, NAME, START, END, PARENT, NOTE = range(6)


def _made(args, kwargs, result):
    return result is not None


def _count(args, kwargs, result):
    return len(result)


def _cell_key(args, kwargs, result):
    cfg = args[0] if args else kwargs["config"]
    return [[oc.fleet_size, oc.c_dis_eur_per_km, oc.c_vot_eur_per_h]
            for oc in cfg.operators]


class Tracer:
    """Spans and leaf counters of every simulation run while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.leaves = {name: [0, 0.0, 0] for name in LEAF_NAMES}
        self.sim = -1
        self._undo: list = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        for stat in self.leaves.values():
            stat[:] = [0, 0.0, 0]

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, note=None, new_sim=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if new_sim and not stack:
                self.sim += 1
            rec = [self.sim, name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result
        return wrapper

    def _leaf(self, name, fn, ok=None):
        stat, clock = self.leaves[name], time.perf_counter

        def wrapper(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            stat[1] += clock() - t
            stat[0] += 1
            if ok is not None and ok(result):
                stat[2] += 1
            return result
        return wrapper

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    # -- installation ----------------------------------------------------

    def install(self, pm):
        """Patch the modules of the imported package ``pm``."""
        simcore, operators, assign, game = pm.simcore, pm.operators, pm.assign, pm.game
        op_cls, net_cls = operators.Operator, pm.network.Network
        span, leaf, patch = self._span, self._leaf, self._patch

        patch(simcore, "run", lambda f: span("run", f, new_sim=True))
        patch(game, "run", lambda f: span(
            "cell", span("run", f), note=_cell_key, new_sim=True))
        patch(simcore, "dispatch_request", lambda f: span("dispatch", f))
        patch(op_cls, "insertion_offer", lambda f: span("offer", f, note=_made))
        patch(simcore, "reoptimize", lambda f: span("reopt", f))
        patch(assign, "enumerate_v2rbs", lambda f: span("enumerate", f, note=_count))
        patch(assign, "solve_ilp", lambda f: span("solve", f))
        patch(op_cls, "reposition", lambda f: span("reposition", f))
        patch(op_cls, "retime_schedules", lambda f: span("retime", f))
        patch(simcore, "ingest_requests", lambda f: span("ingest", f))
        patch(simcore, "build_forecast", lambda f: span("forecast", f))

        def feasible(result):
            return result[1] is None
        for mod in (operators, assign):
            patch(mod, "plan_stop_sequence", lambda f: leaf("plan", f, feasible))
            patch(mod, "check_feasibility", lambda f: leaf("check", f))
        patch(op_cls, "book", lambda f: leaf("book", f))
        patch(assign, "pair_shareable", lambda f: leaf("pair", f, bool))
        patch(assign, "linprog", lambda f: leaf("lp", f))
        patch(net_cls, "travel_time", lambda f: leaf("net.tt", f))
        patch(net_cls, "distance", lambda f: leaf("net.dist", f))
        patch(net_cls, "shortest_path", lambda f: leaf("net.path", f))
        patch(net_cls, "base_travel_time", lambda f: leaf("net.base_tt", f))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summary of one timed call ---------------------------------------

    def summary(self) -> dict:
        """Totals since the last reset; times in seconds.

        Self time of ``run`` is its duration minus that of its direct
        child spans, which run one after another, never overlapping.
        """
        spans = self.spans
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        child_s = [0.0] * len(spans)
        for rec in spans:
            d = rec[END] - rec[START]
            tot = totals[rec[NAME]]
            tot[0] += 1
            tot[1] += d
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += d
        run_self = sum(rec[END] - rec[START] - child_s[i]
                       for i, rec in enumerate(spans) if rec[NAME] == "run")
        by = {name: [rec for rec in spans if rec[NAME] == name]
              for name in ("dispatch", "offer", "reopt", "enumerate", "cell")}
        return {
            "spans": totals,
            "leaves": {k: list(v) for k, v in self.leaves.items()},
            "run_self_s": run_self,
            "dispatch_ms": [(r[END] - r[START]) * 1e3 for r in by["dispatch"]],
            "offers_made": sum(1 for r in by["offer"] if r[NOTE]),
            "options": sum(r[NOTE] for r in by["enumerate"]),
            "reopt_max_ms": max(((r[END] - r[START]) * 1e3 for r in by["reopt"]),
                                default=0.0),
            "cells": [[(r[END] - r[START]) * 1e3, r[NOTE]] for r in by["cell"]],
        }
