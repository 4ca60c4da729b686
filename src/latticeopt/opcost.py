"""Opportunity cost matrices for two-stage stochastic integer programs.

A cell (i, j) evaluates first-stage decision x_i under scenario j: the
recourse problem min{c_j . y : W y = h_j - T x_i, y >= 0} is solved by
augmentation over a Groebner basis (kernel method), over the Graver basis
of W (graver method), or by brute force (oracle method). The expensive
algebra is computed once per matrix and, for Groebner bases, once per
distinct scenario cost. Cells without a closed-form start find one by
Phase-I over a single test set of the extended system [W | I | -I], which
serves every right-hand side; counters make that reuse observable.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import oracle
from .augment import artificial_system, augment, phase_one_feasible
from .graver import graver_basis
from .groebner import buchberger, test_set
from .lattice import CostOrder, IntMatrix, IntVector, as_vector
from .toric import toric_generating_set

CELL_OK = "ok"
CELL_INFEASIBLE = "infeasible"

METHOD_KERNEL = "kernel"
METHOD_GRAVER = "graver"
METHOD_ORACLE = "oracle"


@dataclass(frozen=True)
class Scenario:
    """One realization: weight, recourse cost, right-hand side.

    `technology` optionally overrides the instance-level T for this scenario
    (the recourse matrix W never varies, only the right-hand side does).
    """

    probability: Fraction
    cost: IntVector
    rhs: IntVector
    technology: Optional[IntMatrix] = None


@dataclass(frozen=True)
class SipInstance:
    """gamma.x + E[min c.y : Wy = h - Tx] over integer points.

    `feasible_recourse`, when present, is a module-level function
    (x, h) -> y giving a feasible recourse point, bypassing Phase-I; it must
    be picklable for multi-process builds and is dropped by JSON round-trips.
    """

    gamma: IntVector
    technology: IntMatrix
    recourse: IntMatrix
    scenarios: tuple
    first_stage_constraints: Optional[tuple] = None
    first_stage_bounds: Optional[tuple] = None
    feasible_recourse: Optional[Callable] = None

    def __post_init__(self):
        if self.technology.nrows != self.recourse.nrows:
            raise ValueError("technology and recourse row counts differ")
        if self.technology.ncols != len(self.gamma):
            raise ValueError("technology columns must match first-stage dim")
        if not self.scenarios:
            raise ValueError("at least one scenario required")
        if sum(s.probability for s in self.scenarios) != 1:
            raise ValueError("scenario probabilities must sum to 1")
        for s in self.scenarios:
            if len(s.cost) != self.recourse.ncols:
                raise ValueError("scenario cost length mismatch")
            if len(s.rhs) != self.recourse.nrows:
                raise ValueError("scenario rhs length mismatch")
            if any(e < 0 for e in s.cost.entries):
                raise ValueError("scenario costs must be non-negative")
            if s.technology is not None and (
                    s.technology.nrows != self.technology.nrows
                    or s.technology.ncols != self.technology.ncols):
                raise ValueError("scenario technology shape mismatch")
        if self.first_stage_constraints is not None:
            A, b = self.first_stage_constraints
            if A.ncols != len(self.gamma) or A.nrows != len(b):
                raise ValueError("first-stage constraint shape mismatch")
        if self.first_stage_bounds is not None:
            if len(self.first_stage_bounds) != len(self.gamma):
                raise ValueError("first-stage bounds length mismatch")
            if any(u < 0 for u in self.first_stage_bounds):
                raise ValueError("first-stage bounds must be non-negative")

    @property
    def first_stage_dim(self) -> int:
        return len(self.gamma)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True)
class DecisionList:
    decisions: tuple

    def __post_init__(self):
        for x in self.decisions:
            if any(e < 0 for e in x.entries):
                raise ValueError("decisions must be non-negative")

    def check(self, instance: SipInstance):
        for x in self.decisions:
            if len(x) != instance.first_stage_dim:
                raise ValueError("decision dimension mismatch")
            if instance.first_stage_constraints is not None:
                A, b = instance.first_stage_constraints
                if A.mat_vec(x) != as_vector(b):
                    raise ValueError("decision violates first-stage constraints")

    def __iter__(self):
        return iter(self.decisions)

    def __len__(self) -> int:
        return len(self.decisions)


class BuildCounters:
    """Observable reuse: algebra runs on W, plus per-cell work tallies.

    toric/buchberger/graver count recourse-matrix computations only, and the
    *_elements fields give the sizes of the bases the build used (Groebner
    sizes summed over distinct costs). Phase-I work is tracked separately:
    phase_one_bases is 1 when the build completed the test set of
    [W | I | -I], 0 when a closed-form start made it unnecessary, and
    phase_one_calls counts the cells handed that set.
    """

    __slots__ = ("toric_runs", "buchberger_runs", "graver_runs",
                 "augment_calls", "oracle_solves", "phase_one_calls",
                 "phase_one_bases", "toric_elements", "groebner_elements",
                 "graver_elements")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class OppCostMatrix:
    """N x N grid of alpha_ij = gamma.x_i + Q(x_i, scenario_j)."""

    __slots__ = ("values", "status", "decisions", "method", "q_only",
                 "counters", "timings_us")

    def __init__(self, values, status, decisions, method, q_only,
                 counters, timings_us):
        self.values = tuple(tuple(row) for row in values)
        self.status = tuple(tuple(row) for row in status)
        self.decisions = decisions
        self.method = method
        self.q_only = q_only
        self.counters = counters
        self.timings_us = dict(timings_us)
        for vrow, srow in zip(self.values, self.status):
            for v, s in zip(vrow, srow):
                assert (v is None) == (s == CELL_INFEASIBLE)

    @property
    def size(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OppCostMatrix)
                and self.values == other.values
                and self.status == other.status)

    def __repr__(self) -> str:
        return "OppCostMatrix(%dx%d, method=%s)" % (
            self.size, self.size, self.method)

    def to_csv(self) -> str:
        header = ["decision"] + ["s%d" % j for j in range(self.size)]
        lines = [",".join(header)]
        for i, row in enumerate(self.values):
            cells = ["" if v is None else str(v) for v in row]
            lines.append(",".join([str(i)] + cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method,
            "q_only": self.q_only,
            "values": [list(row) for row in self.values],
            "status": [list(row) for row in self.status],
            "decisions": [list(x.entries) for x in self.decisions],
            "timings_us": self.timings_us,
            "counters": self.counters.as_dict(),
        }, indent=2)


def rhs(instance: SipInstance, x: IntVector, j: int) -> IntVector:
    """Right-hand side h_j - T x of decision x's recourse under scenario j."""
    sc = instance.scenarios[j]
    T = sc.technology if sc.technology is not None else instance.technology
    return sc.rhs - T.mat_vec(x)


def _one_scenario_system(instance: SipInstance, j: int):
    """Stacked (matrix, cost, rhs) of the deterministic one-scenario IP."""
    sc = instance.scenarios[j]
    T = sc.technology if sc.technology is not None else instance.technology
    nx = instance.first_stage_dim
    ny = instance.recourse.ncols
    rows = []
    rhs_entries = []
    if instance.first_stage_constraints is not None:
        A, b = instance.first_stage_constraints
        for row in A.rows:
            rows.append(tuple(row) + (0,) * ny)
        rhs_entries.extend(as_vector(b).entries)
    for trow, wrow in zip(T.rows, instance.recourse.rows):
        rows.append(tuple(trow) + tuple(wrow))
    rhs_entries.extend(sc.rhs.entries)
    cost = IntVector(instance.gamma.entries + sc.cost.entries)
    return IntMatrix(rows), cost, IntVector(rhs_entries)


def _stacked_start(instance: SipInstance, j: int, M: IntMatrix,
                   b: IntVector, phase_one_sets: dict) -> Optional[IntVector]:
    """Feasible point of the stacked system: closed form if usable, else Phase-I.

    Phase-I test sets are kept in `phase_one_sets`, one per stacked matrix.
    """
    nx = instance.first_stage_dim
    if instance.feasible_recourse is not None:
        zero_ok = True
        if instance.first_stage_constraints is not None:
            A, fb = instance.first_stage_constraints
            zero_ok = not any(as_vector(fb).entries)
        if zero_ok:
            x0 = IntVector((0,) * nx)
            y0 = instance.feasible_recourse(x0, instance.scenarios[j].rhs)
            if y0 is not None:
                cand = IntVector(x0.entries + as_vector(y0).entries)
                if M.mat_vec(cand) == b and all(e >= 0 for e in cand.entries):
                    return cand
    if M.rows not in phase_one_sets:
        phase_one_sets[M.rows] = test_set(*artificial_system(M))
    return phase_one_feasible(M, b, moves=phase_one_sets[M.rows])


def _derived_uniform_bound(instance: SipInstance, b: IntVector) -> int:
    if instance.first_stage_bounds is None:
        raise ValueError(
            "oracle mode needs first-stage bounds or an explicit bound")
    fs = max(instance.first_stage_bounds) if instance.first_stage_bounds else 0
    return max(1, fs + max(abs(e) for e in b.entries))


def single_scenario_decisions(instance: SipInstance,
                              method: str = METHOD_KERNEL,
                              oracle_bound=None) -> DecisionList:
    """One optimal first-stage decision per scenario, deterministic ties.

    Each scenario's stacked IP min gamma.x + c_j.y is solved to the unique
    refinement optimum; x_j is its first-stage part. The stacked test set is
    computed once per distinct (matrix, cost) for the kernel method and once
    per distinct matrix for the graver method, then shared by every scenario
    with that system; so is the Phase-I test set, once per distinct matrix,
    when a scenario has no closed-form start.
    """
    nx = instance.first_stage_dim
    out = []
    test_sets = {}
    phase_one_sets = {}
    for j in range(instance.num_scenarios):
        M, cost, b = _one_scenario_system(instance, j)
        if method == METHOD_ORACLE:
            bound = oracle_bound
            if bound is None:
                bound = _derived_uniform_bound(instance, b)
            res = oracle.solve_bruteforce(oracle.IpProblem(M, b, cost, bound))
            if res.status != oracle.OPTIMAL:
                raise ValueError("scenario %d: stacked system infeasible" % j)
            x = res.solution.entries[:nx]
        elif method in (METHOD_KERNEL, METHOD_GRAVER):
            start = _stacked_start(instance, j, M, b, phase_one_sets)
            if start is None:
                raise ValueError("scenario %d: stacked system infeasible" % j)
            if method == METHOD_KERNEL:
                key = (M.rows, cost.entries)
                if key not in test_sets:
                    test_sets[key] = buchberger(
                        toric_generating_set(M).generators, CostOrder(cost),
                        matrix=M)
            else:
                key = M.rows
                if key not in test_sets:
                    test_sets[key] = graver_basis(M)
            res = augment(start, cost, test_sets[key], M, b)
            x = res.solution.entries[:nx]
        else:
            raise ValueError("unknown method %r" % method)
        out.append(IntVector(x))
    return DecisionList(tuple(out))


def _zero_timings() -> dict:
    return {"toric_us": 0, "groebner_us": 0, "graver_us": 0,
            "phase_one_us": 0, "augment_us": 0, "oracle_us": 0}


def _cell_worker(payload):
    """One row of cells; self-contained so process pools can run it."""
    (W, gamma, x, cells, q_only, hook, p1_moves) = payload
    row_vals = []
    row_status = []
    gx = gamma.dot(x)
    for (b, cost, moves) in cells:
        start = None
        if hook is not None:
            y0 = hook(x, b[1])
            if y0 is not None:
                y0 = as_vector(y0)
                if W.mat_vec(y0) != b[0] or any(e < 0 for e in y0.entries):
                    raise ValueError("feasible_recourse returned an invalid point")
                start = y0
        if start is None:
            start = phase_one_feasible(W, b[0], moves=p1_moves)
        if start is None:
            row_vals.append(None)
            row_status.append(CELL_INFEASIBLE)
            continue
        res = augment(start, cost, moves, W, b[0])
        q = res.value
        row_vals.append(q if q_only else gx + q)
        row_status.append(CELL_OK)
    return row_vals, row_status


def _build_algebraic(instance, decisions, method, q_only, threads):
    decisions.check(instance)
    W = instance.recourse
    counters = BuildCounters()
    timings = _zero_timings()

    moves_by_scenario = []
    if method == METHOD_KERNEL:
        t0 = time.perf_counter_ns()
        gens = toric_generating_set(W)
        timings["toric_us"] += (time.perf_counter_ns() - t0) // 1000
        counters.toric_runs += 1
        counters.toric_elements = len(gens.generators)
        by_cost = {}
        for sc in instance.scenarios:
            key = sc.cost.entries
            if key not in by_cost:
                t0 = time.perf_counter_ns()
                by_cost[key] = buchberger(gens.generators, CostOrder(sc.cost),
                                          matrix=W)
                timings["groebner_us"] += (time.perf_counter_ns() - t0) // 1000
                counters.buchberger_runs += 1
                counters.groebner_elements += len(by_cost[key])
            moves_by_scenario.append(by_cost[key])
    else:
        t0 = time.perf_counter_ns()
        gamma_w = graver_basis(W)
        timings["graver_us"] += (time.perf_counter_ns() - t0) // 1000
        counters.graver_runs += 1
        counters.graver_elements = len(gamma_w)
        moves_by_scenario = [gamma_w] * instance.num_scenarios

    p1_moves = None
    if instance.feasible_recourse is None:
        t0 = time.perf_counter_ns()
        p1_moves = test_set(*artificial_system(W))
        timings["phase_one_us"] += (time.perf_counter_ns() - t0) // 1000
        counters.phase_one_bases = 1
        counters.phase_one_calls = len(decisions) * instance.num_scenarios

    payloads = []
    for x in decisions:
        cells = [((rhs(instance, x, j), sc.rhs), sc.cost, moves_by_scenario[j])
                 for j, sc in enumerate(instance.scenarios)]
        payloads.append((W, instance.gamma, x, cells, q_only,
                         instance.feasible_recourse, p1_moves))

    t0 = time.perf_counter_ns()
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_cell_worker, payloads))
    else:
        results = [_cell_worker(p) for p in payloads]
    timings["augment_us"] += (time.perf_counter_ns() - t0) // 1000
    counters.augment_calls += sum(
        1 for vals, _ in results for v in vals if v is not None)

    values = [vals for vals, _ in results]
    status = [stat for _, stat in results]
    return OppCostMatrix(values, status, decisions, method, q_only,
                         counters, timings)


def opcost_kernel(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False, threads: int = 1) -> OppCostMatrix:
    """Toric generators once, one Groebner basis per distinct scenario cost."""
    return _build_algebraic(instance, decisions, METHOD_KERNEL, q_only, threads)


def opcost_graver(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False, threads: int = 1) -> OppCostMatrix:
    """One Graver basis of W serves every scenario."""
    return _build_algebraic(instance, decisions, METHOD_GRAVER, q_only, threads)


def opcost_oracle(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False, threads: int = 1,
                  var_bound=None) -> OppCostMatrix:
    """Brute-force ground truth; var_bound overrides the derived box."""
    decisions.check(instance)
    W = instance.recourse
    counters = BuildCounters()
    timings = _zero_timings()
    values = []
    status = []
    t0 = time.perf_counter_ns()
    for x in decisions:
        gx = instance.gamma.dot(x)
        row_vals = []
        row_status = []
        for j, sc in enumerate(instance.scenarios):
            b = rhs(instance, x, j)
            bound = var_bound
            if bound is None:
                bound = _derived_uniform_bound(instance, b)
            res = oracle.solve_bruteforce(oracle.IpProblem(W, b, sc.cost, bound))
            counters.oracle_solves += 1
            if res.status != oracle.OPTIMAL:
                row_vals.append(None)
                row_status.append(CELL_INFEASIBLE)
            else:
                row_vals.append(res.value if q_only else gx + res.value)
                row_status.append(CELL_OK)
        values.append(row_vals)
        status.append(row_status)
    timings["oracle_us"] += (time.perf_counter_ns() - t0) // 1000
    return OppCostMatrix(values, status, decisions, METHOD_ORACLE, q_only,
                         counters, timings)
