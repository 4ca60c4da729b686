"""Opportunity cost matrices for two-stage stochastic integer programs.

A cell (i, j) evaluates first-stage decision x_i under scenario j: the
recourse problem min{c_j . y : W y = h_j - T x_i, y >= 0}. T and W belong
to the instance; only costs and right-hand sides vary by scenario.
Both kinds of integer program go through a per-method solver, one for the
stacked matrix M = [[A, 0], [T, W]] and one for W: augmentation with
full-multiple steps over a Groebner basis (kernel method), over the Graver
basis (graver method), or brute force in a box (oracle method), which asks
no hook. A solver computes its matrix's algebra at most once and, for
Groebner bases, once per distinct cost, so a graver pipeline completes one
Graver basis, W's; it prepares a walk's moves once per cost. M's toric set
seeds only M's first Groebner basis: any reduced basis generates M's
lattice ideal (Sturmfels, "Groebner Bases and Convex Polytopes", Ch. 1-2),
so each later cost's completion starts from the previous cost's basis, the
simple form of the Groebner walk. A walk starts at the point its caller
hands the solver, which `augment` tests (a build hands each cell the
instance's hook point for it), or else at a Phase-I point found over the
matrix's narrow artificial system: one artificial column per (row, sign)
that a right-hand side the solver will see uses, gathered, and the
extension's test set completed, when Phase-I is first needed, under the
cost of the first solve that needs it. On the kernel path its walk then
ends at that cost's optimum and needs no basis of the matrix for it; a
graver cell still walks the Graver basis from the Phase-I point, since a
Graver basis is a universal test set (Graver, Math. Programming 9, 1975),
so every graver cell keeps its Graver certificate. A Phase-I point depends
only on its right-hand side, so each distinct one is walked once, feasible
or not.

The decisions phase solves every scenario's one-scenario program over M;
each decision is that program's unique refined optimum, so kernel and
graver both take it from the kernel solver and only the oracle searches a
box. A walk over M's Groebner basis for (gamma, c_j) ends at that optimum
from any feasible start, so the kernel decisions start from one first-stage
point x-hat, the lexicographically largest of the first-stage box on
A x = b, with y_j the hook's point at x-hat or else from W's Phase-I set,
whose columns are the signs h_j - T x takes over the first-stage box; only
a scenario without recourse at x-hat, or an instance without first-stage
bounds, completes M's own Phase-I set. W's set rides on the decision list,
and a kernel or graver build that finds it covers its cells' signs, as it
does for any decisions in the box, uses it instead of completing its own,
so a pipeline completes one Phase-I set of W.

A matrix row depends only on its decision, so each distinct decision is
solved once, and its T x and gamma.x computed once, as its row is written;
a cell's value depends only on its (cost, b), so a build solves each
distinct pair once and keeps only its value. Counters make that reuse
observable. Every build runs in one process. Each phase books its time
where it runs and the rest of the build books only what no phase inside it
booked, so a build's timings are disjoint and add up to its timed wall
clock.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from . import oracle
from .augment import (ArtificialSystem, AugmentResult, PreparedMoves,
                      artificial_system, augment, phase_one_feasible,
                      prepare_moves, serves)
from .graver import graver_basis
from .groebner import buchberger
from .lattice import CostOrder, IntMatrix, IntVector, as_entries, as_vector
from .toric import toric_generating_set

CELL_OK = "ok"
CELL_INFEASIBLE = "infeasible"

METHOD_KERNEL = "kernel"
METHOD_GRAVER = "graver"
METHOD_ORACLE = "oracle"
METHODS = (METHOD_KERNEL, METHOD_GRAVER, METHOD_ORACLE)


@dataclass(frozen=True)
class Scenario:
    """One realization: weight, recourse cost, right-hand side.

    The technology matrix T and the recourse matrix W belong to the
    instance; only the cost and the right-hand side vary by scenario.
    """

    probability: Fraction
    cost: IntVector
    rhs: IntVector


@dataclass(frozen=True)
class SipInstance:
    """gamma.x + E[min c.y : Wy = h - Tx] over integer points.

    `feasible_recourse`, when present, is a callable (x, h) -> y giving a
    feasible recourse point in place of Phase-I. The walk that starts there
    tests it, the oracle never asks for it, and JSON round-trips drop it.
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
        if any(s.probability < 0 for s in self.scenarios):
            raise ValueError("scenario probabilities must be non-negative")
        if sum(s.probability for s in self.scenarios) != 1:
            raise ValueError("scenario probabilities must sum to 1")
        for s in self.scenarios:
            if len(s.cost) != self.recourse.ncols:
                raise ValueError("scenario cost length mismatch")
            if len(s.rhs) != self.recourse.nrows:
                raise ValueError("scenario rhs length mismatch")
            if any(e < 0 for e in s.cost.entries):
                raise ValueError("scenario costs must be non-negative")
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
    """First-stage decisions, one matrix row each.

    `single_scenario_decisions` also leaves the W Phase-I set its
    decisions used in `phase_one_set`, for a kernel or graver build to
    take over, and its solvers' timings and counters in `phase_report`,
    keyed "M" (the stacked matrix) and "W". A list made by hand has
    neither, so a build handed one completes its own set. Neither takes
    part in equality or repr.
    """

    decisions: tuple
    phase_one_set: Optional[ArtificialSystem] = field(
        default=None, compare=False, repr=False)
    phase_report: Optional[dict] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        for x in self.decisions:
            if any(e < 0 for e in x.entries):
                raise ValueError("decisions must be non-negative")

    def check(self, instance: SipInstance):
        for x in dict.fromkeys(self.decisions):
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
    phase_one_bases is 1 when the build completed the test set of W's
    Phase-I extension (one artificial column per (row, sign) the cells'
    right-hand sides use), 0 when closed-form starts made it unnecessary or
    the build took over the set its decision list carries (a kernel or
    graver build of `single_scenario_decisions`' list, when that set covers
    its cells' signs; the set's time and rounds are then in the list's
    `phase_report`), and phase_one_calls counts the cells handed that set;
    kernel cells of the cost it was completed under make no augment_calls,
    and every feasible graver cell makes one. The per-cell
    tallies cover the distinct (cost, b) cells of the rows of distinct
    decisions only: repeated decisions copy their row, and memo_hits counts
    the cells of those rows that repeat an earlier cell's (cost, b) and
    take its value unsolved. walk_steps sums the steps of the optimisation
    walks and of each distinct right-hand side's Phase-I walk, counted
    once however many cells share it. toric_rounds counts the saturation
    rounds of the toric sets counted in toric_runs and of the seed of a
    Phase-I set counted in phase_one_bases (0 for a seed written down), and
    toric_round_elements sums each set's largest round: the largest
    reduced basis one of its rounds completed. pairs_queued,
    pair_reductions and zero_reductions sum the completion work of the
    Groebner bases counted in buchberger_runs and of the completions of the
    Phase-I set counted in phase_one_bases (`groebner.GroebnerBasis`);
    saturation rounds are not in them.
    """

    __slots__ = ("toric_runs", "buchberger_runs", "graver_runs",
                 "augment_calls", "oracle_solves", "phase_one_calls",
                 "phase_one_bases", "toric_elements", "toric_rounds",
                 "toric_round_elements", "groebner_elements",
                 "graver_elements", "walk_steps", "memo_hits",
                 "pairs_queued", "pair_reductions", "zero_reductions")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class OppCostMatrix:
    """K x N grid of alpha_ij = gamma.x_i + Q(x_i, scenario_j).

    K is the number of decisions and N the number of scenarios; the
    single-scenario decisions make K = N.
    """

    __slots__ = ("values", "decisions", "method", "q_only", "counters",
                 "timings_us", "num_scenarios")

    def __init__(self, values, decisions, method, q_only, counters,
                 timings_us, num_scenarios):
        self.values = tuple(tuple(row) for row in values)
        self.decisions = decisions
        self.method = method
        self.q_only = q_only
        self.counters = counters
        self.timings_us = dict(timings_us)
        self.num_scenarios = num_scenarios

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def status(self) -> tuple:
        """CELL_INFEASIBLE where a cell has no value, CELL_OK elsewhere."""
        return tuple(tuple(CELL_INFEASIBLE if v is None else CELL_OK
                           for v in row) for row in self.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OppCostMatrix)
                and self.values == other.values)

    def __repr__(self) -> str:
        return "OppCostMatrix(%dx%d, method=%s)" % (
            self.size, self.num_scenarios, self.method)

    def to_csv(self) -> str:
        header = ["decision"] + ["s%d" % j for j in range(self.num_scenarios)]
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
            "decisions_phase": self.decisions.phase_report,
            "timings_us": self.timings_us,
            "counters": self.counters.as_dict(),
        }, indent=2)


def rhs(instance: SipInstance, x: IntVector, j: int) -> IntVector:
    """Right-hand side h_j - T x of decision x's recourse under scenario j."""
    return instance.scenarios[j].rhs - instance.technology.mat_vec(x)


def _stacked_system(instance: SipInstance):
    """The one-scenario IPs' matrix [[A, 0], [T, W]] and the b of A x = b.

    Scenario j's program has cost (gamma, c_j) and right-hand side (b, h_j);
    without first-stage constraints the matrix is [T | W] and b is empty.
    """
    ny = instance.recourse.ncols
    rows, head = [], ()
    if instance.first_stage_constraints is not None:
        A, b = instance.first_stage_constraints
        rows = [tuple(row) + (0,) * ny for row in A.rows]
        head = as_vector(b).entries
    rows += [tuple(trow) + tuple(wrow) for trow, wrow in
             zip(instance.technology.rows, instance.recourse.rows)]
    return IntMatrix(rows), head


def _sign_range(instance: SipInstance, t_low, t_high) -> tuple:
    """Two vectors that use every (row, sign) h_j - T x uses while each
    row i of T x lies in [t_low_i, t_high_i]: row i's largest h_ji less
    t_low_i, and its least h_ji less t_high_i."""
    hs = list(zip(*(sc.rhs.entries for sc in instance.scenarios)))
    return (tuple(max(h) - t for h, t in zip(hs, t_low)),
            tuple(min(h) - t for h, t in zip(hs, t_high)))


def _box_sign_range(instance: SipInstance) -> tuple:
    """`_sign_range` over the first-stage box 0 <= x <= u: row i of T x
    lies between the sum of the negative T_ik u_k and that of the positive
    ones. Phase-I columns for these two vectors serve h_j - T x for every x
    in the box."""
    tu = [tuple(map(mul, row, instance.first_stage_bounds))
          for row in instance.technology.rows]
    return _sign_range(instance, [sum(min(t, 0) for t in row) for row in tu],
                       [sum(max(t, 0) for t in row) for row in tu])


def _first_stage_start(instance: SipInstance) -> Optional[IntVector]:
    """x-hat: the lexicographically largest point of the first-stage box
    on A x = b, the box's upper corner when there is no A; None without
    first-stage bounds or when the box holds no such point."""
    bounds = instance.first_stage_bounds
    if bounds is None:
        return None
    if instance.first_stage_constraints is None:
        return IntVector(bounds)
    A, b = instance.first_stage_constraints
    return oracle.lex_max_point(A, as_vector(b), bounds)


def _hook_point(instance: SipInstance, method: str, x: IntVector, j: int):
    """The instance's hook point for decision x under scenario j, or None
    where the instance has no hook, the hook declines, or the method is the
    oracle, which asks none."""
    hook = instance.feasible_recourse
    if hook is None or method == METHOD_ORACLE:
        return None
    return hook(x, instance.scenarios[j].rhs)


class _Solver:
    """One method's solves of min cost.z : M z = b, z >= 0 for one matrix M.

    A solver caches M's algebra: its toric generators, its Graver basis and
    its Phase-I set at most once, Groebner bases and the walks' prepared
    moves once per cost, each built, timed and counted on first use, a
    saturation's rounds and a completion's work included. The toric
    generators seed the first Groebner basis only; each later one is
    completed from the last. `rhss` gives every right-hand side the solver
    will see, and the Phase-I extension has one artificial column per (row,
    sign) they use, unless a set was put in `_built` beforehand; a set the
    solver builds itself is completed under the cost of the first
    `phase_one` call, on either method. A Phase-I point is walked once per
    distinct right-hand side. The caller hands `solve` each walk's start, or
    none for a Phase-I start; the oracle builds nothing and ignores the
    start.
    """

    def __init__(self, instance: SipInstance, method: str, M: IntMatrix,
                 rhss: Callable):
        if method not in METHODS:
            raise ValueError("unknown method %r" % method)
        self.instance = instance
        self.method = method
        self.M = M
        self.rhss = rhss
        self.counters = BuildCounters()
        self.timings_us = {"toric_us": 0, "groebner_us": 0, "graver_us": 0,
                           "phase_one_us": 0, "phase_one_walk_us": 0,
                           "augment_us": 0, "oracle_us": 0}
        self._built = {}
        self._moves = {}  # prepared moves by cost entries: one lookup a walk
        self._last_basis = None  # M's latest Groebner basis, held in _built

    def _once(self, key, build, runs=None, elements=None):
        """The object under key, built on first use; key[0] is its timing."""
        if key not in self._built:
            t0 = time.perf_counter_ns()
            obj = self._built[key] = build()
            self.timings_us[key[0]] += (time.perf_counter_ns() - t0) // 1000
            c = self.counters
            if runs is not None:
                setattr(c, runs, getattr(c, runs) + 1)
            if elements is not None:
                setattr(c, elements, getattr(c, elements) + len(obj))
        return self._built[key]

    def moves(self, cost: IntVector) -> PreparedMoves:
        """The walk's prepared moves for cost, kernel and graver methods."""
        M = self.M
        if self.method == METHOD_GRAVER:
            timing = "graver_us"
            basis = self._once((timing,), lambda: graver_basis(M),
                               "graver_runs", "graver_elements")
        else:
            timing = "groebner_us"
            seed = self._last_basis
            if seed is None:
                seed = self._once(("toric_us",), lambda: self._counted(
                    toric_generating_set(M)), "toric_runs",
                    "toric_elements").generators
            basis = self._last_basis = self._once(
                (timing, cost.entries), lambda: self._worked(
                    buchberger(seed, CostOrder(cost), matrix=M)),
                "buchberger_runs", "groebner_elements")
        moves = self._moves[cost.entries] = self._once(
            (timing, "moves", cost.entries), lambda: prepare_moves(basis, cost))
        return moves

    def _counted(self, built):
        """built, a toric set or a Phase-I set, its saturation rounds added
        to the counters."""
        c = self.counters
        c.toric_rounds += built.rounds
        c.toric_round_elements += built.largest_round
        return built

    def _worked(self, built):
        """built, a Groebner basis or a Phase-I set, its completion work
        added to the counters."""
        c = self.counters
        c.pairs_queued += built.pairs_queued
        c.pair_reductions += built.pair_reductions
        c.zero_reductions += built.zero_reductions
        return built

    def phase_one(self, b: IntVector, cost: IntVector):
        """(z, optimal): the Phase-I point for b, None where b is
        infeasible, kernel and graver methods. A set the solver builds
        itself has the first call's cost. `optimal` is True when z is None
        or, on the kernel path only, the set's cost is cost, so that z is
        cost's optimum; a graver cell walks its Graver basis from z.
        """
        M, c = self.M, self.counters
        c.phase_one_calls += 1
        system = self._once(("phase_one_us",), lambda: self._worked(
            self._counted(artificial_system(M, self.rhss(), cost))),
            "phase_one_bases")
        steps = []
        z = self._once(("phase_one_walk_us", b.entries),
                       lambda: phase_one_feasible(system, b, steps))
        c.walk_steps += sum(steps)
        return z, z is None or (self.method == METHOD_KERNEL and (
            system.moves.cost.entries[:M.ncols] == cost.entries))

    def solve(self, b: IntVector, cost: IntVector, z=None):
        """The refined optimum of min cost.z : M z = b, z >= 0, or None.

        The result carries the optimum as `.solution` and its cost as
        `.value`. Kernel and graver walk over `self.moves(cost)` from z,
        which `augment` tests, or from `phase_one(b, cost)` when z is None.
        The oracle ignores z and searches the box 0 <= z <= max(1,
        max(first-stage bounds) + max|b|); a miss there is an infeasible
        cell, and an instance without first-stage bounds raises ValueError.
        """
        M, c = self.M, self.counters
        if self.method == METHOD_ORACLE:
            fs = self.instance.first_stage_bounds
            if fs is None:
                raise ValueError("oracle mode needs first-stage bounds")
            c.oracle_solves += 1
            res = oracle.solve_bruteforce(oracle.IpProblem(M, b, cost, max(
                1, max(fs, default=0) + max(map(abs, b.entries)))))
            return res if res.status == oracle.OPTIMAL else None
        if z is None:
            z, optimal = self.phase_one(b, cost)
            if z is None:
                return None
            if optimal:
                return AugmentResult(z, cost.dot(z), 0)
        c.augment_calls += 1
        res = augment(z, self._moves.get(cost.entries) or self.moves(cost), b)
        c.walk_steps += res.steps
        return res

    def report(self) -> dict:
        return {"timings_us": dict(self.timings_us),
                "counters": self.counters.as_dict()}


def single_scenario_decisions(instance: SipInstance,
                              method: str = METHOD_KERNEL) -> DecisionList:
    """One optimal first-stage decision per scenario, deterministic ties.

    Each scenario's stacked IP min gamma.x + c_j.y over M = [[A, 0], [T,
    W]] is solved to the unique refinement optimum; x_j is its first-stage
    part. The kernel and graver methods both solve with the kernel solver
    and give the same decisions; the oracle searches a box. Kernel walks
    start at (x-hat, y_j): x-hat is the lexicographically largest point of
    the first-stage box on A x = b, and y_j is the hook's point at x-hat,
    or else the Phase-I point of W y = h_j - T x-hat over W's narrow
    Phase-I set, completed once under the first scenario's recourse cost
    c_0, with a column for each (row, sign) that h_j - T x takes for some
    x in the first-stage box. Where there are no first-stage bounds, or
    scenario j has no recourse at x-hat, the walk starts at a Phase-I
    point of M, whose set is completed once, under the first such
    scenario's cost. Every walk runs over M's Groebner basis for (gamma,
    c_j), completed once per distinct cost, the first from M's toric
    generators and each later one from the basis before it. The list
    carries W's Phase-I set, if it was built, as `phase_one_set`, and both
    solvers' timings and counters as `phase_report`.
    """
    M, head = _stacked_system(instance)
    # graver decisions come from the kernel solver, and an unknown method
    # reaches _Solver, which rejects it
    method = METHOD_KERNEL if method == METHOD_GRAVER else method
    x_hat = None if method == METHOD_ORACLE else _first_stage_start(instance)
    w = None
    if x_hat is not None:
        t_hat = instance.technology.mat_vec(x_hat)
        w = _Solver(instance, method, instance.recourse,
                    lambda: _box_sign_range(instance))
    solver = _Solver(instance, method, M,
                     lambda: (head + sc.rhs.entries
                              for sc in instance.scenarios))
    out = []
    for j, sc in enumerate(instance.scenarios):
        cost = IntVector(instance.gamma.entries + sc.cost.entries)
        b = IntVector(head + sc.rhs.entries)
        z = None
        if x_hat is not None:
            y = _hook_point(instance, method, x_hat, j)
            if y is None:
                y, _ = w.phase_one(sc.rhs - t_hat, instance.scenarios[0].cost)
            if y is not None:
                z = x_hat.entries + as_entries(y)
        res = solver.solve(b, cost, z)
        if res is None:
            raise ValueError("scenario %d: stacked system infeasible" % j)
        out.append(IntVector(res.solution.entries[:instance.first_stage_dim]))
    if w is None:
        return DecisionList(tuple(out), None, {"M": solver.report()})
    return DecisionList(tuple(out), w._built.get(("phase_one_us",)),
                        {"M": solver.report(), "W": w.report()})


def _build(instance, decisions, method, q_only):
    t0 = time.perf_counter_ns()
    decisions.check(instance)
    W, scenarios = instance.recourse, instance.scenarios
    # a row depends only on its decision: solve each distinct one once
    tx = {x: instance.technology.mat_vec(x) for x in dict.fromkeys(decisions)}
    # the two vectors use the (row, sign)s that all the cells use
    ts = list(zip(*(t.entries for t in tx.values())))
    extremes = _sign_range(instance, map(min, ts), map(max, ts))
    solver = _Solver(instance, method, W, lambda: extremes)
    timings = solver.timings_us
    # a walking build takes over the decisions' W Phase-I set where it
    # serves every cell, and only reads it; the check is Phase-I time
    system = decisions.phase_one_set
    if method != METHOD_ORACLE and system is not None:
        t1 = time.perf_counter_ns()
        if serves(system, W, extremes):
            solver._built[("phase_one_us",)] = system
        timings["phase_one_us"] += (time.perf_counter_ns() - t1) // 1000
    # a cell's value depends only on its (cost, b): solve each one once
    rows, memo = {}, {}
    for x, t in tx.items():
        gx = 0 if q_only else instance.gamma.dot(x)
        row = rows[x] = []
        for j, sc in enumerate(scenarios):
            b = sc.rhs - t
            key = (sc.cost.entries, b.entries)
            if key in memo:
                solver.counters.memo_hits += 1
            else:
                res = solver.solve(b, sc.cost,
                                   _hook_point(instance, method, x, j))
                memo[key] = None if res is None else res.value
            q = memo[key]
            row.append(None if q is None else gx + q)
    # the build's time less what the phases booked themselves
    timings["oracle_us" if method == METHOD_ORACLE else "augment_us"] += (
        (time.perf_counter_ns() - t0) // 1000 - sum(timings.values()))
    return OppCostMatrix([rows[x] for x in decisions], decisions, method,
                         q_only, solver.counters, timings,
                         instance.num_scenarios)


def opcost_kernel(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False, threads: int = 1) -> OppCostMatrix:
    """Toric generators once, one Groebner basis per distinct scenario cost.

    `threads` is accepted and has no effect: the build runs in one process.
    """
    return _build(instance, decisions, METHOD_KERNEL, q_only)


def opcost_graver(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False, threads: int = 1) -> OppCostMatrix:
    """One Graver basis of W serves every scenario.

    `threads` is accepted and has no effect: the build runs in one process.
    """
    return _build(instance, decisions, METHOD_GRAVER, q_only)


def opcost_oracle(instance: SipInstance, decisions: DecisionList,
                  q_only: bool = False) -> OppCostMatrix:
    """Brute-force ground truth in each cell's derived box, where a miss is
    an infeasible cell; an instance without first-stage bounds raises
    ValueError."""
    return _build(instance, decisions, METHOD_ORACLE, q_only)
