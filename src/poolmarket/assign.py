"""Bundle enumeration and exact assignment for fleet re-optimization.

The pipeline has three stages: guided enumeration of vehicle/bundle
options (a reachability filter, then level-by-level bundle growth where
every sub-bundle must already be feasible), exact minimization over the
resulting options with the HiGHS MIP solver (scipy.optimize.milp), and
application of the chosen schedules to the fleet.

Current schedules are always injected as a starting solution, so the
optimized total can never exceed the pre-optimization total.

A brute-force reference (the oracle_* functions) lives alongside for
tests; it shares only the network query layer with the production path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .network import Network
from .operators import (
    ConsistencyError,
    Constraints,
    ObjectiveParams,
    Schedule,
    StopSpec,
    Vehicle,
    confirm_schedule,
    plan_stop_sequence,
    resume_point,
    schedule_cost,
)

_INT_TOL = 1e-6
_TIE_TOL = 1e-9


class InfeasibleAssignmentError(RuntimeError):
    """No combination of bundles covers every booked request."""


@dataclass
class V2RB:
    """One assignable option: a vehicle together with a request bundle.

    The bundle always includes the customers already on the vehicle.
    """

    vehicle_id: int
    bundle: frozenset
    cost: float
    schedule: Schedule | None

    def key(self):
        return (self.vehicle_id, tuple(sorted(self.bundle)))


# -- reachability filter -------------------------------------------------


def _reachable(network: Network, vehicle: Vehicle, request, constraints: Constraints,
               now: float, min_fac: float) -> bool:
    # lower bound on the earliest possible pickup; never rejects a
    # vehicle that some schedule could actually send
    node, t_ready = resume_point(vehicle, network, now)
    earliest = t_ready + network.base_travel_time(node, request.origin) * min_fac
    return earliest <= request.t_req_s + constraints.max_wait_s + 1e-9


# -- best schedule for one bundle ----------------------------------------


def _best_bundle_order(network: Network, vehicle: Vehicle, add_ids, requests,
                       pickup_times, constraints: Constraints,
                       objective: ObjectiveParams, now: float):
    """Cheapest feasible stop order serving onboard plus ``add_ids``.

    Depth-first over pickup-before-dropoff orders with deadline,
    capacity and cost-bound pruning.  Legs are timed exactly like the
    production scheduler, so the returned schedule's cost is the one the
    rest of the system will see.  Returns (cost, schedule) or None.
    """
    node0, t0 = resume_point(vehicle, network, now)
    cap = constraints.capacity
    dwell = constraints.dwell_s
    dw = objective.dist_weight
    tw = objective.time_weight
    bundle = sorted(set(vehicle.onboard) | set(add_ids))
    reward_term = objective.assignment_reward * len(bundle)
    items = tuple(sorted(
        [(rid, 0) for rid in add_ids] + [(rid, 1) for rid in bundle]))
    board_deadline = {rid: requests[rid].t_req_s + constraints.max_wait_s
                      for rid in add_ids}
    ride_limit = {rid: (1.0 + constraints.max_detour_rel) * requests[rid].direct_time_s
                  for rid in bundle}
    origin = {rid: requests[rid].origin for rid in bundle}
    dest = {rid: requests[rid].destination for rid in bundle}

    best_cost = None
    best_order = None
    arr: dict = {}
    planned: dict = {}
    order: list = []

    def rec(node, t, dist, delay, count, onboard, remaining):
        nonlocal best_cost, best_order
        if not remaining:
            d2 = 0.0
            for rid in bundle:
                d2 += arr[rid] - requests[rid].t_req_s
            cost = dw * dist + tw * d2 - reward_term
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_order = list(order)
            return
        for rid, kind in remaining:
            if kind == 0 and t > board_deadline[rid]:
                return      # that pickup can never happen now
        for i, (rid, kind) in enumerate(remaining):
            if kind == 0:
                if count >= cap:
                    continue
                nxt = origin[rid]
            else:
                if rid not in onboard:
                    continue
                nxt = dest[rid]
            if nxt != node:
                leg_tt, leg_m = network.leg(node, nxt, t)
                t2, dist2 = t + leg_tt, dist + leg_m
            else:
                t2, dist2 = t, dist
            if kind == 0:
                if t2 > board_deadline[rid]:
                    continue
                delay2 = delay
            else:
                picked = pickup_times.get(rid, planned.get(rid))
                if picked is None or t2 - picked > ride_limit[rid]:
                    continue
                delay2 = delay + (t2 - requests[rid].t_req_s)
            bound = dw * dist2 + tw * delay2 - reward_term
            if best_cost is not None and bound >= best_cost + 1e-9:
                continue
            if kind == 0:
                onboard.add(rid)
                planned[rid] = t2
            else:
                onboard.discard(rid)
                arr[rid] = t2
            order.append((rid, kind))
            rec(nxt, t2 + dwell, dist2, delay2,
                count + (1 if kind == 0 else -1), onboard,
                remaining[:i] + remaining[i + 1:])
            order.pop()
            if kind == 0:
                onboard.discard(rid)
                del planned[rid]
            else:
                onboard.add(rid)
                del arr[rid]

    rec(node0, t0, 0.0, 0.0, len(vehicle.onboard), set(vehicle.onboard), items)
    if best_order is None:
        return None
    specs = []
    for rid, kind in best_order:
        if kind == 0:
            specs.append(StopSpec(origin[rid], board=(rid,)))
        else:
            specs.append(StopSpec(dest[rid], alight=(rid,)))
    sched, violation = plan_stop_sequence(
        network, vehicle, specs, now, requests, pickup_times, constraints)
    if violation is not None:
        raise ConsistencyError(
            f"bundle search produced an infeasible order: {violation}")
    return schedule_cost(sched, objective, requests), sched


# -- guided enumeration --------------------------------------------------


def enumerate_v2rbs(network: Network, vehicles, requests, candidate_ids,
                    constraints: Constraints, objective: ObjectiveParams,
                    now: float, pickup_times, incumbents=None) -> list:
    """All servable (vehicle, bundle) options with their best schedules.

    candidate_ids are the waiting requests open for reassignment; each
    vehicle's onboard customers are part of every one of its bundles.
    incumbents maps a vehicle id to its current plan, feasible and timed
    from now; it is one more option, so an assignment at least as good
    as the current one always exists.
    """
    min_fac = network.min_factor()
    out = []
    for veh in sorted(vehicles, key=lambda v: v.vehicle_id):
        base = frozenset(veh.onboard)
        cands = [rid for rid in sorted(set(candidate_ids) - base)
                 if _reachable(network, veh, requests[rid], constraints, now, min_fac)]
        found: dict = {}

        def note(add_set, cost, sched):
            key = frozenset(add_set)
            cur = found.get(key)
            if cur is None or cost < cur[0]:
                found[key] = (cost, sched)

        if base:
            got = _best_bundle_order(network, veh, (), requests, pickup_times,
                                     constraints, objective, now)
            if got is not None:
                note((), got[0], got[1])
        present_prev = {frozenset()}
        level = 1
        while present_prev and level <= len(cands):
            present_now = set()
            for add in sorted(present_prev, key=sorted):
                top = max(add) if add else None
                for rid in cands:
                    if top is not None and rid <= top:
                        continue
                    grown = add | {rid}
                    if grown in present_now:
                        continue
                    if level > 1 and any(
                            grown - {x} not in present_prev for x in grown):
                        continue
                    got = _best_bundle_order(network, veh, sorted(grown), requests,
                                             pickup_times, constraints, objective, now)
                    if got is not None:
                        present_now.add(grown)
                        note(grown, got[0], got[1])
            present_prev = present_now
            level += 1

        inc_sched = (incumbents or {}).get(veh.vehicle_id)
        if inc_sched is not None:
            # a searched order of the same cost wins the tie
            note(inc_sched.bundle - base,
                 schedule_cost(inc_sched, objective, requests), inc_sched)

        entries = []
        for add in sorted(found, key=sorted):
            if not add and not base:
                continue
            cost, sched = found[add]
            entries.append(V2RB(
                vehicle_id=veh.vehicle_id, bundle=base | add, cost=cost,
                schedule=sched))
        out.extend(sorted(entries, key=lambda z: z.key()))
    return out


# -- exact assignment ----------------------------------------------------


@dataclass
class AssignmentProblem:
    v2rbs: list
    assigned_ids: tuple
    optional_ids: tuple
    vehicle_ids: tuple


@dataclass
class AssignmentSolution:
    chosen: list
    objective: float
    by_vehicle: dict = field(default_factory=dict)


def build_problem(v2rbs, assigned_ids, optional_ids, vehicle_ids) -> AssignmentProblem:
    """Validate and canonicalize an assignment instance.

    Duplicate (vehicle, bundle) options keep the cheapest copy.  Raises
    InfeasibleAssignmentError when some required request appears in no
    option at all.
    """
    assigned = tuple(sorted(set(assigned_ids)))
    optional = tuple(sorted(set(optional_ids)))
    vids = tuple(sorted(set(vehicle_ids)))
    allowed = set(assigned) | set(optional)
    vid_set = set(vids)
    dedup: dict = {}
    for z in v2rbs:
        if z.vehicle_id not in vid_set:
            raise ValueError(f"option for unknown vehicle {z.vehicle_id}")
        stray = set(z.bundle) - allowed
        if stray:
            raise ValueError(f"option bundles unknown requests {sorted(stray)}")
        if not z.bundle:
            raise ValueError("empty bundle option")
        k = z.key()
        cur = dedup.get(k)
        if cur is None or z.cost < cur.cost:
            dedup[k] = z
    ordered = [dedup[k] for k in sorted(dedup)]
    covered = set()
    for z in ordered:
        covered |= z.bundle
    missing = [rid for rid in assigned if rid not in covered]
    if missing:
        raise InfeasibleAssignmentError(
            f"no option covers required requests {missing}")
    return AssignmentProblem(ordered, assigned, optional, vids)


def solve_ilp(problem: AssignmentProblem, initial_keys=None) -> AssignmentSolution:
    """Exact minimum-cost selection of options.

    Every required request is covered exactly once, optional requests at
    most once, and every vehicle carries at most one option.  HiGHS
    solves each model as an LP and again as a MIP, with a zero gap, only
    when the LP optimum is fractional.  Values are recomputed from the
    option costs in index order, never read off the solver, so equal
    selections give the identical float.  initial_keys seeds the
    incumbent: the result is never above it, and an equal total replaces
    it only with smaller keys.

    Selections that tie in exact arithmetic can round to floats one ulp
    apart, which the solver cannot tell apart.  So the current best is
    excluded by a no-good cut, the total is bounded by its float plus
    _TIE_TOL, and the model is solved again, at most 64 times, until
    nothing comes back or what does is not strictly smaller.  The result
    is optimal within HiGHS's tolerances (zero relative gap, default
    absolute gap 1e-6); among exact ties it is the smallest float the
    sweep reaches, which can sit an ulp above the smallest of all.
    """
    vs = problem.v2rbs
    n = len(vs)
    if n == 0:
        if problem.assigned_ids:
            raise InfeasibleAssignmentError(
                f"no options but requests {list(problem.assigned_ids)} need serving")
        return AssignmentSolution([], 0.0, {})
    costs = np.array([z.cost for z in vs])

    def canon_value(sel):
        total = 0.0
        for j in sel:
            total += vs[j].cost
        return total

    def keys(sel):
        return tuple(vs[j].key() for j in sel)

    # rows: required requests (== 1), then optional requests and vehicles (<= 1)
    names = list(dict.fromkeys(problem.assigned_ids + problem.optional_ids))
    names += [("vehicle", vid) for vid in problem.vehicle_ids]
    row = {name: i for i, name in enumerate(names)}
    rows, cols = zip(*[(row[name], j) for j, z in enumerate(vs)
                       for name in (*z.bundle, ("vehicle", z.vehicle_id))])
    lower = np.zeros(len(names))
    lower[:len(problem.assigned_ids)] = 1.0
    cover = LinearConstraint(sparse.csr_array(
        (np.ones(len(rows)), (rows, cols)), shape=(len(names), n)), lower, 1.0)

    def best_selection(constraints):
        """Indices of an optimal 0/1 selection, or None when none exists."""
        for integral in (0, 1):
            # presolve costs more than it saves on these small models
            res = milp(costs, integrality=np.full(n, integral),
                       bounds=Bounds(0.0, 1.0), constraints=constraints,
                       options={"mip_rel_gap": 0.0, "presolve": False})
            if res.status == 2:
                return None
            if not res.success:
                raise ConsistencyError(f"assignment solve failed: {res.message}")
            if np.all(np.abs(res.x - np.round(res.x)) <= _INT_TOL):
                break
        return np.flatnonzero(res.x > 0.5).tolist()

    best_val = best_sel = None
    if initial_keys:
        index = {z.key(): j for j, z in enumerate(vs)}
        try:
            best_sel = sorted(index[k] for k in initial_keys)
        except KeyError as exc:
            raise ConsistencyError(f"starting option missing: {exc}") from exc
        best_val = canon_value(best_sel)
    elif not problem.assigned_ids:
        best_val, best_sel = 0.0, []

    sel = best_selection([cover])
    if sel is not None:
        val = canon_value(sel)
        if best_sel is None or (val, keys(sel)) < (best_val, keys(best_sel)):
            best_val, best_sel = val, sel
    if best_sel is None:
        raise InfeasibleAssignmentError(
            "no feasible combination covers every required request")

    cuts, cut_ub = [], []
    for _ in range(64):
        cut = np.full(n, -1.0)
        cut[best_sel] = 1.0
        cuts.append(cut)
        cut_ub.append(len(best_sel) - 1.0)
        sel = best_selection([
            cover, LinearConstraint(np.array(cuts), -np.inf, cut_ub),
            LinearConstraint(costs, -np.inf, best_val + _TIE_TOL)])
        if sel is None:
            break
        val = canon_value(sel)
        if not val < best_val:
            break
        best_val, best_sel = val, sel
    chosen = [vs[j] for j in best_sel]
    return AssignmentSolution(chosen, best_val,
                              {z.vehicle_id: z for z in chosen})


# -- re-optimization entry point -----------------------------------------


def reoptimize(operator, now: float) -> dict:
    """Globally reassign the operator's open requests across its fleet.

    Enumerates options, solves the assignment exactly, applies the
    chosen schedules, and returns a small summary.  The current plan is
    injected as the starting solution, so optimized_cost never exceeds
    incumbent_cost.
    """
    net = operator.network
    vehicles = sorted(operator.vehicles, key=lambda v: v.vehicle_id)
    assigned = sorted(operator.active_ids())
    candidates = sorted(operator.scheduled_ids)

    incumbents = {}
    incumbent_keys = []
    incumbent_total = 0.0
    for veh in vehicles:
        if not veh.stops:
            continue
        sched = operator.current_plan(veh, now)
        incumbents[veh.vehicle_id] = sched
        incumbent_total += schedule_cost(sched, operator.objective,
                                         operator.requests)
        incumbent_keys.append((veh.vehicle_id, tuple(sorted(sched.bundle))))

    options = enumerate_v2rbs(
        net, vehicles, operator.requests, candidates, operator.constraints,
        operator.objective, now, operator.pickup_times,
        incumbents=incumbents)
    problem = build_problem(options, assigned_ids=assigned, optional_ids=(),
                            vehicle_ids=[v.vehicle_id for v in vehicles])
    solution = solve_ilp(problem, initial_keys=incumbent_keys or None)

    n_changed = 0
    for veh in vehicles:
        pick = solution.by_vehicle.get(veh.vehicle_id)
        if pick is None:
            if veh.onboard:
                raise ConsistencyError(
                    f"vehicle {veh.vehicle_id} with riders left unassigned")
            if veh.stops:
                operator.apply_schedule(veh, None)
                n_changed += 1
            continue
        confirm_schedule(net, veh, pick.schedule, now, operator.requests,
                         operator.pickup_times, operator.constraints,
                         "reoptimization chose")
        before = [(s.node, s.board, s.alight) for s in veh.stops]
        after = [(s.node, s.board, s.alight) for s in pick.schedule.stops]
        if before != after:
            n_changed += 1
        operator.apply_schedule(veh, pick.schedule)
    operator.state_version += 1
    return {
        "incumbent_cost": incumbent_total,
        "optimized_cost": solution.objective,
        "n_options": len(options),
        "n_changed": n_changed,
    }


# -- brute-force reference (tests only) ----------------------------------


def oracle_best_cost(network, vehicle, add_ids, requests, pickup_times,
                     constraints, objective, now):
    """Exhaustive minimum schedule cost for one vehicle and bundle.

    Plain recursive generation of every pickup-before-dropoff order; the
    only shortcut is abandoning orders whose remaining pickups are
    already past their wait deadline, which no completion could fix.
    """
    t0 = max(now, vehicle.busy_until)
    if vehicle.edge is not None:
        t0 = t0 + network.profile.elapsed_for_base(t0, vehicle.edge_remaining_tt_base)
    node0 = vehicle.node
    everyone = sorted(set(vehicle.onboard) | set(add_ids))
    slots = []
    for rid in sorted(add_ids):
        slots.append(("pick", rid))
    for rid in everyone:
        slots.append(("drop", rid))
    best = [None]
    times: dict = {}

    def walk(node, t, dist, riding, remaining):
        if not remaining:
            waiting_total = 0.0
            for rid in everyone:
                waiting_total += times[("arr", rid)] - requests[rid].t_req_s
            value = (objective.dist_weight * dist
                     + objective.time_weight * waiting_total
                     - objective.assignment_reward * len(everyone))
            if best[0] is None or value < best[0]:
                best[0] = value
            return
        for what, rid in remaining:
            if what == "pick":
                latest = requests[rid].t_req_s + constraints.max_wait_s
                if t > latest:
                    return
        for pos in range(len(remaining)):
            what, rid = remaining[pos]
            if what == "pick":
                target = requests[rid].origin
            else:
                if rid not in riding:
                    continue
                target = requests[rid].destination
            if target != node:
                t_here = t + network.travel_time(node, target, t)
                d_here = dist + network.distance(node, target)
            else:
                t_here, d_here = t, dist
            if what == "pick":
                if t_here > requests[rid].t_req_s + constraints.max_wait_s:
                    continue
                if len(riding) >= constraints.capacity:
                    continue
                riding.add(rid)
                times[("pick", rid)] = t_here
            else:
                started = pickup_times.get(rid, times.get(("pick", rid)))
                allowed = (1.0 + constraints.max_detour_rel) * requests[rid].direct_time_s
                if started is None or t_here - started > allowed:
                    continue
                riding.discard(rid)
                times[("arr", rid)] = t_here
            walk(target, t_here + constraints.dwell_s, d_here, riding,
                 remaining[:pos] + remaining[pos + 1:])
            if what == "pick":
                riding.discard(rid)
                del times[("pick", rid)]
            else:
                riding.add(rid)
                del times[("arr", rid)]

    walk(node0, t0, 0.0, set(vehicle.onboard), tuple(slots))
    return best[0]


def oracle_enumerate(network, vehicles, candidate_ids, requests, pickup_times,
                     constraints, objective, now):
    """Every servable (vehicle, bundle) with its exhaustive best cost."""
    table = {}
    cands = sorted(candidate_ids)
    for veh in sorted(vehicles, key=lambda v: v.vehicle_id):
        base = frozenset(veh.onboard)
        usable = [rid for rid in cands if rid not in base]
        for k in range(len(usable) + 1):
            for combo in combinations(usable, k):
                if not base and not combo:
                    continue
                value = oracle_best_cost(network, veh, combo, requests,
                                         pickup_times, constraints, objective, now)
                if value is not None:
                    key = (veh.vehicle_id, tuple(sorted(base | set(combo))))
                    table[key] = value
    return table


def oracle_assignment(table, vehicle_ids, assigned_ids, optional_ids=()):
    """Exhaustive best disjoint bundle choice; (value, keys) or None."""
    vids = sorted(set(vehicle_ids))
    per = {v: [] for v in vids}
    for (v, b) in sorted(table):
        per[v].append(b)
    must = frozenset(assigned_ids)
    allowed = must | frozenset(optional_ids)
    best = [None, None]

    def go(i, used, total, picked):
        if i == len(vids):
            if must <= used:
                if (best[0] is None or total < best[0]
                        or (total == best[0] and picked < best[1])):
                    best[0] = total
                    best[1] = list(picked)
            return
        go(i + 1, used, total, picked)
        v = vids[i]
        for b in per[v]:
            sb = frozenset(b)
            if (sb & used) or not sb <= allowed:
                continue
            picked.append((v, b))
            go(i + 1, used | sb, total + table[(v, b)], picked)
            picked.pop()

    go(0, frozenset(), 0.0, [])
    if best[0] is None:
        return None
    return best[0], best[1]
