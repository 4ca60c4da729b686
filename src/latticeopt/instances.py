"""Instance generators and a JSON interchange format.

gen_hs builds a family of two-stage aircraft-allocation style instances
with a fixed 4x8 recourse matrix; gen_snd builds stochastic network design
instances on a small digraph, with first-stage binaries encoded as bounded
integers, and gen_snd_family the named network design families past the
default triangle. All are deterministic per seed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import IntMatrix, IntVector, as_vector
from .opcost import Scenario, SipInstance

_JSON_SAFE = 2 ** 53
_DECIMAL = re.compile(r"-?[0-9]+")

HS_GAMMA = (35, 40)
HS_COST = (16, 19, 47, 54, 0, 0, 0, 0)
HS_RECOURSE = (
    (1, 0, 1, 0, -1, 0, 0, 0),
    (0, 1, 0, 1, 0, -1, 0, 0),
    (2, 1, 0, 0, 0, 0, 1, 0),
    (1, 2, 0, 0, 0, 0, 0, 1),
)
HS_TECHNOLOGY = ((1, 0), (0, 1), (0, 0), (0, 0))

HS_BOX = ((300, 12000), (300, 12000), (200, 12000), (200, 12000))
HS_BOX_SCALED = ((3, 12), (3, 12), (2, 12), (2, 12))


@dataclass(frozen=True)
class HsConfig:
    scenario_count: int
    seed: int
    box: Optional[tuple] = None
    scaled: bool = False

    def __post_init__(self):
        if self.scenario_count < 1:
            raise ValueError("scenario_count must be positive")
        for lo, hi in self.resolved_box():
            if lo < 0 or hi < lo:
                raise ValueError("demand box must satisfy 0 <= lo <= hi")

    def resolved_box(self) -> tuple:
        if self.box is not None:
            return tuple((int(lo), int(hi)) for lo, hi in self.box)
        return HS_BOX_SCALED if self.scaled else HS_BOX


def hs_feasible(x, xi) -> IntVector:
    """Closed-form feasible recourse point for the fixed 4x8 system.

    Covers any shortfall with third-party capacity (y3, y4) and absorbs
    surplus or carryover demand through the slack block (u1..u4).
    """
    x = as_vector(x)
    xi = as_vector(xi)
    if len(x) != 2 or len(xi) != 4:
        raise ValueError("expected a 2-dim decision and a 4-dim demand")
    if xi.entries[2] < 0 or xi.entries[3] < 0:
        raise ValueError("demands xi3 and xi4 must be non-negative")
    x1, x2 = x.entries
    d1, d2, d3, d4 = xi.entries
    y3 = max(d1 - x1, 0)
    y4 = max(d2 - x2, 0)
    u1 = max(x1 - d1, 0)
    u2 = max(x2 - d2, 0)
    return IntVector((0, 0, y3, y4, u1, u2, d3, d4))


def gen_hs(config: HsConfig) -> SipInstance:
    """Sampled demand scenarios over the fixed recourse structure."""
    rng = random.Random(config.seed)
    box = config.resolved_box()
    n = config.scenario_count
    cost = IntVector(HS_COST)
    scenarios = []
    for _ in range(n):
        xi = tuple(rng.randint(lo, hi) for lo, hi in box)
        scenarios.append(Scenario(Fraction(1, n), cost, IntVector(xi)))
    return SipInstance(
        gamma=IntVector(HS_GAMMA),
        technology=IntMatrix(HS_TECHNOLOGY),
        recourse=IntMatrix(HS_RECOURSE),
        scenarios=tuple(scenarios),
        first_stage_bounds=(box[0][1], box[1][1]),
        feasible_recourse=hs_feasible,
    )


@dataclass(frozen=True)
class SndConfig:
    """Network design over a digraph; defaults give a directed triangle."""

    scenario_count: int
    seed: int
    vertices: int = 3
    arcs: tuple = ((0, 1), (1, 2), (2, 0))
    commodities: int = 1
    fixed_costs: tuple = (3, 4, 5)
    flow_costs: Optional[tuple] = None
    capacities: tuple = (2, 2, 2)
    max_demand: int = 1

    def __post_init__(self):
        if self.scenario_count < 1:
            raise ValueError("scenario_count must be positive")
        if self.vertices < 2 or self.commodities < 1:
            raise ValueError("need at least two vertices and one commodity")
        for tail, head in self.arcs:
            if not (0 <= tail < self.vertices and 0 <= head < self.vertices):
                raise ValueError("arc endpoint out of range")
            if tail == head:
                raise ValueError("self-loops are not allowed")
        if len(self.fixed_costs) != len(self.arcs):
            raise ValueError("one fixed cost per arc required")
        if len(self.capacities) != len(self.arcs):
            raise ValueError("one capacity per arc required")
        if any(u < 1 for u in self.capacities):
            raise ValueError("capacities must be positive")
        if self.max_demand < 0:
            raise ValueError("max_demand must be non-negative")
        fc = self.resolved_flow_costs()
        if len(fc) != self.commodities or any(
                len(row) != len(self.arcs) for row in fc):
            raise ValueError("flow costs must be commodities x arcs")
        if any(q < 0 for row in fc for q in row):
            raise ValueError("flow costs must be non-negative")

    def resolved_flow_costs(self) -> tuple:
        if self.flow_costs is not None:
            return tuple(tuple(row) for row in self.flow_costs)
        return tuple((1,) * len(self.arcs) for _ in range(self.commodities))


def gen_snd(config: SndConfig) -> SipInstance:
    """Equality-form network design: open arcs, route flows, slack capacity.

    First stage holds one open/closed variable and one bound slack per arc
    (x_a + s_a = 1); the recourse stage holds one flow variable per
    (commodity, arc) plus one capacity slack per arc per scenario.
    """
    rng = random.Random(config.seed)
    narcs = len(config.arcs)
    ncom = config.commodities
    nx = 2 * narcs
    ny = narcs * (ncom + 1)
    flow_costs = config.resolved_flow_costs()

    fs_rows = []
    for a in range(narcs):
        row = [0] * nx
        row[a] = 1
        row[narcs + a] = 1
        fs_rows.append(tuple(row))
    first_stage = (IntMatrix(fs_rows), IntVector((1,) * narcs))

    w_rows = []
    t_rows = []
    for c in range(ncom):
        for v in range(config.vertices):
            row = [0] * ny
            for a, (tail, head) in enumerate(config.arcs):
                if tail == v:
                    row[c * narcs + a] += 1
                if head == v:
                    row[c * narcs + a] -= 1
            w_rows.append(tuple(row))
            t_rows.append((0,) * nx)
    for a in range(narcs):
        row = [0] * ny
        for c in range(ncom):
            row[c * narcs + a] = 1
        row[ncom * narcs + a] = 1
        w_rows.append(tuple(row))
        trow = [0] * nx
        trow[a] = -config.capacities[a]
        t_rows.append(tuple(trow))

    cost = IntVector(tuple(flow_costs[c][a] for c in range(ncom)
                           for a in range(narcs)) + (0,) * narcs)

    n = config.scenario_count
    scenarios = []
    for _ in range(n):
        h = []
        for _ in range(ncom):
            # one balanced demand per commodity: amount from src to dst
            d = [0] * config.vertices
            src, dst = rng.sample(range(config.vertices), 2)
            d[src] = rng.randint(0, config.max_demand)
            d[dst] = -d[src]
            h.extend(d)
        h.extend([0] * narcs)
        scenarios.append(Scenario(Fraction(1, n), cost, IntVector(h)))

    gamma = IntVector(tuple(config.fixed_costs) + (0,) * narcs)
    return SipInstance(
        gamma=gamma,
        technology=IntMatrix(t_rows),
        recourse=IntMatrix(w_rows),
        scenarios=tuple(scenarios),
        first_stage_constraints=first_stage,
        first_stage_bounds=(1,) * nx,
    )


_FOUR_NODE = dict(vertices=4,
                  arcs=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)),
                  fixed_costs=(3, 4, 5, 3, 6, 6), capacities=(2,) * 6)

# The network design families past the triangle: the SndConfig fields of
# each network (every family draws demands up to 2) and, for two of them,
# the range of the per-scenario flow costs.
SND_FAMILIES = {
    "snd-4node": (_FOUR_NODE, None),
    "snd-2commodity": (dict(commodities=2, capacities=(4, 4, 4)), None),
    "snd-5node": (dict(vertices=5, arcs=((0, 1), (1, 2), (2, 3), (3, 4),
                                         (4, 0), (0, 2), (1, 3)),
                       fixed_costs=(3, 4, 5, 3, 6, 6, 4),
                       capacities=(2,) * 7), None),
    "snd-4node-costs-1-9": (_FOUR_NODE, (1, 9)),
    "snd-4node-costs-4-6": (_FOUR_NODE, (4, 6)),
}


def gen_snd_family(name: str, scenario_count: int,
                   seed: int = 1) -> SipInstance:
    """The instance of the SND_FAMILIES entry `name`.

    A family with a cost range gives each scenario, in scenario order, its
    own flow costs drawn from random.Random(5).randint(*range), the same
    draws at every seed; slack columns cost 0. An unknown name raises
    KeyError.
    """
    network, costs = SND_FAMILIES[name]
    inst = gen_snd(SndConfig(scenario_count, seed, max_demand=2, **network))
    if costs is None:
        return inst
    rng, flows = random.Random(5), inst.recourse.ncols - len(network["arcs"])
    return dataclasses.replace(inst, scenarios=tuple(
        dataclasses.replace(sc, cost=IntVector(
            tuple(rng.randint(*costs) for _ in range(flows))
            + (0,) * len(network["arcs"])))
        for sc in inst.scenarios))


def wide_stairstep_matrix() -> IntMatrix:
    """The dense 7x17 stress matrix: seven arithmetic-progression rows
    beside an identity block."""
    rows = [(1,) * 10] + [tuple(i + j for j in range(10)) for i in range(1, 7)]
    return IntMatrix(tuple(
        row + tuple(1 if k == r else 0 for k in range(7))
        for r, row in enumerate(rows)))


def _enc(x: int):
    return x if -_JSON_SAFE <= x <= _JSON_SAFE else str(x)


def _enc_vec(v: IntVector) -> list:
    return [_enc(e) for e in v.entries]


def _enc_mat(m: IntMatrix) -> list:
    return [[_enc(e) for e in row] for row in m.rows]


def _dec(v) -> int:
    """A JSON integer, or a decimal string; anything else is bad input."""
    if type(v) is int or (isinstance(v, str) and _DECIMAL.fullmatch(v)):
        return int(v)
    raise ValueError("expected an integer, got %r" % (v,))


def _dec_as(data, kind):
    """data when it is a `kind` (list or dict); anything else is bad input."""
    if not isinstance(data, kind):
        raise ValueError("expected a %s, got %s"
                         % (kind.__name__, type(data).__name__))
    return data


def _dec_vec(data) -> IntVector:
    return IntVector(tuple(_dec(e) for e in _dec_as(data, list)))


def _dec_mat(data) -> IntMatrix:
    return IntMatrix(tuple(_dec_vec(row).entries
                           for row in _dec_as(data, list)))


def _dec_scenario(data) -> Scenario:
    s = _dec_as(data, dict)
    den = _dec(s["p_den"])
    if den <= 0:
        raise ValueError("p_den must be positive")
    return Scenario(Fraction(_dec(s["p_num"]), den), _dec_vec(s["cost"]),
                    _dec_vec(s["rhs"]))


def instance_to_json(instance: SipInstance) -> str:
    """Bit-exact interchange form; integers beyond 2^53 become strings.

    The feasible-recourse hook is not representable and is dropped.
    """
    doc = {
        "gamma": _enc_vec(instance.gamma),
        "technology": _enc_mat(instance.technology),
        "recourse": _enc_mat(instance.recourse),
        "first_stage_bounds": (
            None if instance.first_stage_bounds is None
            else [_enc(u) for u in instance.first_stage_bounds]),
        "scenarios": [
            {
                "p_num": _enc(s.probability.numerator),
                "p_den": _enc(s.probability.denominator),
                "cost": _enc_vec(s.cost),
                "rhs": _enc_vec(s.rhs),
            }
            for s in instance.scenarios
        ],
    }
    if instance.first_stage_constraints is not None:
        A, b = instance.first_stage_constraints
        doc["first_stage_constraints"] = {
            "A": _enc_mat(A), "b": _enc_vec(as_vector(b))}
    return json.dumps(doc, indent=2)


def instance_from_json(text: str) -> SipInstance:
    """Inverse of instance_to_json; a wrong JSON type raises ValueError."""
    doc = _dec_as(json.loads(text), dict)
    scenarios = tuple(map(_dec_scenario, _dec_as(doc["scenarios"], list)))
    constraints = None
    if doc.get("first_stage_constraints") is not None:
        block = _dec_as(doc["first_stage_constraints"], dict)
        constraints = (_dec_mat(block["A"]), _dec_vec(block["b"]))
    bounds = doc.get("first_stage_bounds")
    return SipInstance(
        gamma=_dec_vec(doc["gamma"]),
        technology=_dec_mat(doc["technology"]),
        recourse=_dec_mat(doc["recourse"]),
        scenarios=scenarios,
        first_stage_constraints=constraints,
        first_stage_bounds=(
            None if bounds is None else _dec_vec(bounds).entries),
    )
