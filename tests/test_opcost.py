import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from latticeopt import cli, groebner, opcost, toric
from latticeopt.augment import _columns, artificial_system
from latticeopt.groebner import GraverResourceError, buchberger
from latticeopt.instances import (SND_FAMILIES, HsConfig, SndConfig, gen_hs,
                                  gen_snd, gen_snd_family, hs_feasible,
                                  instance_from_json, instance_to_json)
from latticeopt.lattice import CostOrder, IntMatrix, IntVector
from latticeopt.opcost import (CELL_INFEASIBLE, CELL_OK, DecisionList,
                               METHOD_GRAVER, METHOD_KERNEL, METHOD_ORACLE,
                               OppCostMatrix, Scenario, SipInstance,
                               opcost_graver, opcost_kernel, opcost_oracle,
                               rhs, single_scenario_decisions)
from latticeopt.toric import toric_generating_set

from support import four_node_snd, per_scenario_cost_four_node_snd

# Scaled instance used throughout: seed 7 draws demand vectors
# (8, 5, 8, 12) and (3, 4, 10, 3).
HS_CFG = HsConfig(scenario_count=2, seed=7, scaled=True)

# Frozen from a brute-force solve of each one-scenario stacked program
# with a uniform variable bound of 24.
HS_DECISIONS = ((7, 0), (0, 4))
HS_VALUES = ((356, 426), (462, 208))

SND_DECISIONS = (IntVector((1, 1, 1, 0, 0, 0)), IntVector((0, 0, 0, 1, 1, 1)))
SND_VALUES = ((14, 12), (None, 0))
SND_STATUS = (("ok", "ok"), ("infeasible", "ok"))


def hand_instance(costs=None, rhss=((2,), (3,)), technology=((1,),)):
    n = len(rhss)
    costs = costs or [(1,)] * n
    return SipInstance(
        gamma=IntVector((1,)),
        technology=IntMatrix(technology),
        recourse=IntMatrix(((1,),)),
        scenarios=tuple(Scenario(Fraction(1, n), IntVector(c), IntVector(r))
                        for c, r in zip(costs, rhss)),
        first_stage_bounds=(5,),
    )


def test_instance_validation():
    good = hand_instance()
    assert good.first_stage_dim == 1 and good.num_scenarios == 2
    with pytest.raises(ValueError):
        SipInstance(gamma=IntVector((1,)), technology=IntMatrix(((1,),)),
                    recourse=IntMatrix(((1,),)),
                    scenarios=(Scenario(Fraction(1, 2), IntVector((1,)),
                                        IntVector((1,))),))
    with pytest.raises(ValueError):
        SipInstance(gamma=IntVector((1,)), technology=IntMatrix(((1,),)),
                    recourse=IntMatrix(((1,),)),
                    scenarios=(Scenario(Fraction(1), IntVector((-1,)),
                                        IntVector((1,))),))
    with pytest.raises(ValueError):
        SipInstance(gamma=IntVector((1, 2)), technology=IntMatrix(((1,),)),
                    recourse=IntMatrix(((1,),)),
                    scenarios=(Scenario(Fraction(1), IntVector((1,)),
                                        IntVector((1,))),))
    with pytest.raises(ValueError):
        SipInstance(gamma=IntVector((1,)), technology=IntMatrix(((1,),)),
                    recourse=IntMatrix(((1,),)),
                    scenarios=(Scenario(Fraction(1), IntVector((1,)),
                                        IntVector((1,))),),
                    first_stage_bounds=(1, 2))
    with pytest.raises(ValueError):
        SipInstance(gamma=IntVector((1,)), technology=IntMatrix(((1,),)),
                    recourse=IntMatrix(((1,),)),
                    scenarios=(Scenario(Fraction(-1, 2), IntVector((1,)),
                                        IntVector((1,))),
                               Scenario(Fraction(3, 2), IntVector((1,)),
                                        IntVector((1,)))))


def test_decision_list_validation():
    with pytest.raises(ValueError):
        DecisionList((IntVector((-1, 0)),))
    snd = gen_snd(SndConfig(scenario_count=1, seed=0))
    with pytest.raises(ValueError):
        DecisionList((IntVector((1, 1, 1, 1, 1, 1)),)).check(snd)
    DecisionList(SND_DECISIONS).check(snd)


def test_rhs_worked_example():
    inst = hand_instance()
    # h - T x with the fixed demand vector (5, 7, 4, 6)
    hs = gen_hs(HsConfig(scenario_count=1, seed=0, box=((5, 5), (7, 7),
                                                        (4, 4), (6, 6))))
    assert tuple(rhs(hs, IntVector((9, 0)), 0)) == (-4, 7, 4, 6)
    assert tuple(rhs(inst, IntVector((1,)), 1)) == (2,)


def test_single_scenario_decisions_match_oracle_values():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    assert tuple(tuple(x) for x in dec) == HS_DECISIONS
    assert tuple(tuple(x) for x in single_scenario_decisions(
        inst, method=METHOD_GRAVER)) == HS_DECISIONS


def test_single_scenario_decisions_build_each_stacked_test_set_once(
        monkeypatch):
    calls = {}
    # opcost completes M's own algebra through its names; artificial_system
    # saturates the Phase-I extension through the toric module's attribute
    for key, module, name in (
            ("toric_generating_set", opcost, "toric_generating_set"),
            ("buchberger", opcost, "buchberger"),
            ("graver_basis", opcost, "graver_basis"),
            ("extension_saturations", toric, "toric_generating_set")):
        calls[key] = 0

        def counted(*args, _key=key, _fn=getattr(module, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    hs = gen_hs(HS_CFG)
    assert len({s.cost.entries for s in hs.scenarios}) == 1
    assert tuple(map(tuple, single_scenario_decisions(hs))) == HS_DECISIONS
    assert calls == {"toric_generating_set": 1, "buchberger": 1,
                     "graver_basis": 0, "extension_saturations": 0}
    # graver decisions run the kernel solver again: no Graver basis, and
    # closed-form starts make no Phase-I completion
    assert tuple(map(tuple, single_scenario_decisions(
        hs, method=METHOD_GRAVER))) == HS_DECISIONS
    assert calls == {"toric_generating_set": 2, "buchberger": 2,
                     "graver_basis": 0, "extension_saturations": 0}

    def scenario(cost, h):
        return Scenario(Fraction(1, 4), IntVector(cost), IntVector(h))

    # four scenarios over two distinct costs, no closed-form start
    two_costs = SipInstance(
        gamma=IntVector((1, 2)),
        technology=IntMatrix(((1, 1),)),
        recourse=IntMatrix(((1, 2),)),
        scenarios=(scenario((2, 3), (5,)), scenario((1, 3), (6,)),
                   scenario((2, 3), (7,)), scenario((2, 3), (4,))),
        first_stage_bounds=(4, 4),
    )
    expected = tuple(map(tuple, single_scenario_decisions(
        two_costs, method=METHOD_ORACLE)))
    for name in calls:
        calls[name] = 0
    assert tuple(map(tuple, single_scenario_decisions(two_costs))) == expected
    # T x-hat = 8 at the box's upper corner x-hat = (4, 4) exceeds every
    # h_j, so W's Phase-I set finds no recourse there and every scenario
    # takes the stacked path: one stacked Phase-I set, completed under the
    # first scenario's cost, serves the three scenarios of that cost; the
    # other cost gets M's toric generators and its own Groebner basis.
    # Neither extension is saturated: W's set has both columns of its row
    # (h_j - T x ranges over -4..7 in the box) and M = [T | W] is positive
    # with a positive column, so both toric sets are written down
    assert calls == {"toric_generating_set": 1, "buchberger": 1,
                     "graver_basis": 0, "extension_saturations": 0}
    assert tuple(map(tuple, single_scenario_decisions(
        two_costs, method=METHOD_GRAVER))) == expected
    assert calls == {"toric_generating_set": 2, "buchberger": 2,
                     "graver_basis": 0, "extension_saturations": 0}


def _counts(dec, solver):
    return dec.phase_report[solver]["counters"]


def test_decisions_count_the_saturation_rounds_of_m():
    # (toric_elements, toric_rounds, toric_round_elements) of M. Largest
    # coefficient last, each of the triangle's seven rounds completes 4
    # elements (in ascending order 10, 8, 8, 7, 7, 7, 9, keeping 9), and
    # each of HS's four rounds 6 (ascending: 7, 9, 7, 8, keeping 8)
    snd = gen_snd(SndConfig(3, 1, max_demand=2))
    for inst, work in ((snd, (4, 7, 4)), (gen_hs(HS_CFG), (6, 4, 6))):
        c = _counts(single_scenario_decisions(inst), "M")
        assert (c["toric_elements"], c["toric_rounds"],
                c["toric_round_elements"]) == work


def test_decisions_fall_back_to_the_stacked_path_where_x_hat_is_infeasible():
    # T x-hat = 8 at the box's upper corner x-hat = (4, 4): scenarios 1 and
    # 2 (h = 10, 12) find recourse there and walk from (x-hat, y_j) over
    # M's bases; scenarios 0 and 3 (h = 5, 4) take the stacked Phase-I path
    def scenario(cost, h):
        return Scenario(Fraction(1, 4), IntVector(cost), IntVector(h))

    inst = SipInstance(
        gamma=IntVector((1, 2)),
        technology=IntMatrix(((1, 1),)),
        recourse=IntMatrix(((1, 2),)),
        scenarios=(scenario((2, 3), (5,)), scenario((1, 3), (10,)),
                   scenario((2, 3), (12,)), scenario((2, 3), (4,))),
        first_stage_bounds=(4, 4),
    )
    dec = single_scenario_decisions(inst)
    assert dec.decisions == single_scenario_decisions(
        inst, method=METHOD_ORACLE).decisions
    assert _counts(dec, "W")["phase_one_calls"] == 4
    assert _counts(dec, "W")["phase_one_bases"] == 1
    assert _counts(dec, "M")["phase_one_calls"] == 2
    assert _counts(dec, "M")["phase_one_bases"] == 1
    # every scenario infeasible at x-hat: all four take the stacked path
    low = dataclasses.replace(inst, scenarios=tuple(
        dataclasses.replace(sc, rhs=IntVector((h,)))
        for sc, h in zip(inst.scenarios, (5, 6, 7, 4))))
    dec = single_scenario_decisions(low)
    assert dec.decisions == single_scenario_decisions(
        low, method=METHOD_ORACLE).decisions
    assert _counts(dec, "M")["phase_one_calls"] == 4


def test_kernel_build_takes_over_the_decisions_phase_one_set():
    inst = gen_snd(SndConfig(6, seed=1, max_demand=2))
    dec = single_scenario_decisions(inst)
    assert dec.phase_one_set is not None
    assert _counts(dec, "W")["phase_one_bases"] == 1
    by_hand = DecisionList(tuple(dec))
    assert by_hand == dec and by_hand.phase_one_set is None
    adopted, own = opcost_kernel(inst, dec), opcost_kernel(inst, by_hand)
    assert adopted.counters.phase_one_bases == 0
    assert own.counters.phase_one_bases == 1
    assert adopted.values == own.values == opcost_oracle(inst, dec).values
    # the build only reads the list: a second build does the same work
    again = opcost_kernel(inst, dec)
    assert again.counters.as_dict() == adopted.counters.as_dict()
    assert again.values == adopted.values
    # the graver build takes the set over too
    assert opcost_graver(inst, dec).counters.phase_one_bases == 0


def test_snd_families_keep_their_w_columns():
    # T is zero on the flow rows and -capacity x_a on the capacity rows,
    # where h is 0: over the box x_a <= 1 those rows take the signs they
    # take at x-hat (every arc open), so W's set keeps its columns
    for name in SND_FAMILIES:
        for n in (10, 30):
            inst = gen_snd_family(name, n)
            t_hat = inst.technology.mat_vec(opcost._first_stage_start(inst))
            at_x_hat = [sc.rhs - t_hat for sc in inst.scenarios]
            assert (_columns(inst.recourse, opcost._box_sign_range(inst))
                    == _columns(inst.recourse, at_x_hat)), (name, n)
    inst = gen_snd(SndConfig(6, seed=1, max_demand=2))
    t_hat = inst.technology.mat_vec(opcost._first_stage_start(inst))
    assert single_scenario_decisions(inst).phase_one_set.columns == _columns(
        inst.recourse, [sc.rhs - t_hat for sc in inst.scenarios])


def test_graver_build_takes_over_the_decisions_phase_one_set():
    # a Graver basis is a universal test set: a graver build takes over the
    # decisions' W set, which was completed under another cost than most
    # cells', and each feasible Phase-I cell still walks its Graver basis
    # from the set's point, once per distinct (cost, b)
    hs = instance_from_json(instance_to_json(gen_hs(HS_CFG)))
    for inst in (gen_snd(SndConfig(6, seed=1, max_demand=2)), hs):
        dec = single_scenario_decisions(inst)
        assert dec.phase_one_set is not None
        graver = opcost_graver(inst, dec)
        c = graver.counters
        assert (c.phase_one_bases, c.graver_runs) == (0, 1)
        cells = {(sc.cost.entries, rhs(inst, x, j).entries): v
                 for x, row in zip(dec, graver.values)
                 for j, (sc, v) in enumerate(zip(inst.scenarios, row))}
        assert c.phase_one_calls == len(cells)
        assert c.augment_calls == sum(v is not None for v in cells.values())
        assert graver == opcost_kernel(inst, dec) == opcost_oracle(inst, dec)
        # a list made by hand carries no set: the build completes its own
        own = opcost_graver(inst, DecisionList(tuple(dec)))
        assert own.counters.phase_one_bases == 1 and own == graver


def test_decisions_count_the_saturation_rounds_of_w_s_phase_one_set():
    # at N=10 no 4-node scenario ships from vertex 1 or to vertex 3, so
    # W's set lacks those conservation rows' columns (1, +) and (3, -) and
    # its extension is saturated, in rounds the W report counts; at N=30
    # every column is there and the toric set is written down
    for n, work in ((10, (12, 18)), (30, (0, 0))):
        c = _counts(single_scenario_decisions(four_node_snd(n)), "W")
        assert c["phase_one_bases"] == 1
        assert (c["toric_rounds"], c["toric_round_elements"]) == work


def test_kernel_build_adopts_the_set_of_hookless_scaled_hs():
    # read back from JSON, scaled HS has no hook: x-hat = (12, 12) leaves
    # rows 0 and 1 of h_j - T x-hat at most 0, but W's set has the columns
    # of every sign h_j - T x takes over the first-stage box, so it serves
    # the decisions' cells, which use both signs there
    hs = instance_from_json(instance_to_json(gen_hs(HS_CFG)))
    dec = single_scenario_decisions(hs)
    assert dec.phase_one_set.columns == (
        (0, 1), (1, 1), (2, 1), (3, 1), (0, -1), (1, -1))
    built = opcost_kernel(hs, dec)
    assert built.counters.phase_one_bases == 0
    assert built.values == HS_VALUES


def test_kernel_build_completes_its_own_set_where_the_list_s_does_not_serve():
    # the stacked programs do not bound x: decisions (10, 0), (11, 0) and
    # (9, 0) leave the box x <= (4, 4), where h_j - T x >= 1, so their cells
    # use the negative sign that W's set has no column for
    def scenario(cost, h):
        return Scenario(Fraction(1, 4), IntVector(cost), IntVector(h))

    inst = SipInstance(
        gamma=IntVector((1, 2)),
        technology=IntMatrix(((1, 1),)),
        recourse=IntMatrix(((1, 2),)),
        scenarios=(scenario((2, 3), (10,)), scenario((1, 3), (12,)),
                   scenario((2, 3), (11,)), scenario((2, 3), (9,))),
        first_stage_bounds=(4, 4),
    )
    dec = single_scenario_decisions(inst)
    assert dec.phase_one_set.columns == ((0, 1),)
    assert max(x[0] for x in dec) == 11
    built = opcost_kernel(inst, dec)
    assert built.counters.phase_one_bases == 1
    assert built.values == opcost_oracle(inst, dec).values
    # a set that extends another instance's W does not serve either
    snd = gen_snd(SndConfig(3, seed=1, max_demand=2))
    snd_dec = single_scenario_decisions(snd)
    foreign = dataclasses.replace(snd_dec, phase_one_set=(
        single_scenario_decisions(four_node_snd(3)).phase_one_set))
    m = opcost_kernel(snd, foreign)
    assert m.counters.phase_one_bases == 1
    assert m.values == opcost_kernel(snd, snd_dec).values


def test_triangle_with_per_scenario_flow_costs_walks_over_m_bases():
    # per-scenario flow costs on the triangle: the decisions walk from
    # x-hat (every arc open) over the stacked system's Groebner bases and
    # take steps, and the decisions and the kernel matrix equal the oracle's
    base, rng = gen_snd(SndConfig(4, seed=1, max_demand=2)), random.Random(5)
    inst = dataclasses.replace(base, scenarios=tuple(
        dataclasses.replace(sc, cost=IntVector(
            tuple(rng.randint(1, 9) for _ in range(3)) + (0,) * 3))
        for sc in base.scenarios))
    assert len({sc.cost for sc in inst.scenarios}) == 4
    dec = single_scenario_decisions(inst)
    assert _counts(dec, "M")["phase_one_calls"] == 0
    assert _counts(dec, "M")["augment_calls"] == 4
    assert _counts(dec, "M")["walk_steps"] > 0
    assert dec.decisions == single_scenario_decisions(
        inst, method=METHOD_ORACLE).decisions
    assert opcost_kernel(inst, dec) == opcost_oracle(inst, dec)


def test_single_scenario_decisions_reject_unknown_method():
    # no method may fall back to another solver
    with pytest.raises(ValueError, match="unknown method"):
        single_scenario_decisions(gen_hs(HS_CFG), method="simplex")


def test_closed_form_start_checked_in_both_phases():
    # a hook whose point solves neither the stacked system nor W y = h - T x
    inst = dataclasses.replace(
        gen_hs(HS_CFG), feasible_recourse=lambda x, h: IntVector((0,) * 8))
    with pytest.raises(ValueError, match="invalid point"):
        single_scenario_decisions(inst)
    dec = DecisionList(tuple(IntVector(x) for x in HS_DECISIONS))
    with pytest.raises(ValueError, match="invalid point"):
        opcost_kernel(inst, dec)


def test_hook_points_must_be_integers():
    # floats equal to the right integers would make every walk run in floats
    inst = dataclasses.replace(
        gen_hs(HS_CFG),
        feasible_recourse=lambda x, h: [float(e) for e in hs_feasible(x, h)])
    with pytest.raises(ValueError, match="invalid point"):
        single_scenario_decisions(inst)
    dec = DecisionList(tuple(IntVector(x) for x in HS_DECISIONS))
    with pytest.raises(ValueError, match="invalid point"):
        opcost_kernel(inst, dec)
    with pytest.raises(ValueError, match="invalid point"):
        opcost_graver(inst, dec)


def test_oracle_asks_no_hook():
    calls = []

    def counting(x, h):
        calls.append((x, h))
        return hs_feasible(x, h)

    dec = DecisionList(tuple(IntVector(x) for x in HS_DECISIONS))
    hooked = dataclasses.replace(gen_hs(HS_CFG), feasible_recourse=counting)
    assert opcost_oracle(hooked, dec).values == HS_VALUES
    # a small box keeps the stacked brute-force search quick
    small = gen_hs(HsConfig(scenario_count=2, seed=5,
                            box=((1, 3), (1, 3), (1, 2), (1, 2))))
    hooked = dataclasses.replace(small, feasible_recourse=counting)
    assert (single_scenario_decisions(hooked, method=METHOD_ORACLE)
            == single_scenario_decisions(small))
    assert calls == []


def test_decisions_ask_the_hook_only_at_x_hat():
    calls = []

    def counting(x, h):
        calls.append(tuple(x))
        return hs_feasible(x, h)

    hooked = dataclasses.replace(gen_hs(HS_CFG), feasible_recourse=counting)
    dec = single_scenario_decisions(hooked)
    assert tuple(map(tuple, dec)) == HS_DECISIONS
    assert calls == [(12, 12)] * hooked.num_scenarios
    # without first-stage bounds there is no x-hat: every walk starts at a
    # Phase-I point of M, and no solver for W is made
    calls.clear()
    unbounded = dataclasses.replace(hooked, first_stage_bounds=None)
    dec = single_scenario_decisions(unbounded)
    assert tuple(map(tuple, dec)) == HS_DECISIONS
    assert calls == []
    assert _counts(dec, "M")["phase_one_bases"] == 1
    assert "W" not in dec.phase_report


def test_oracle_ignores_an_invalid_hook():
    inst = gen_hs(HS_CFG)
    dec = DecisionList(tuple(IntVector(x) for x in HS_DECISIONS))
    bad = dataclasses.replace(
        inst, feasible_recourse=lambda x, h: IntVector((0,) * 8))
    unhooked = dataclasses.replace(inst, feasible_recourse=None)
    assert opcost_oracle(bad, dec) == opcost_oracle(unhooked, dec)


def test_hook_start_gets_one_fiber_test(monkeypatch):
    # one more decision adds one row: its T x, then per cell only augment's
    # start check (its moves were checked against W when their basis was
    # built, so the walk's end needs none); the algebra and hook behave the
    # same for both, and the new row repeats no earlier (cost, b)
    inst = gen_hs(HS_CFG)
    counted = []
    mat_vec = IntMatrix.mat_vec

    def counting(self, v):
        counted.append(1)
        return mat_vec(self, v)

    monkeypatch.setattr(IntMatrix, "mat_vec", counting)
    made = []
    for xs in (HS_DECISIONS[:1], HS_DECISIONS):
        counted.clear()
        m = opcost_kernel(inst, DecisionList(tuple(map(IntVector, xs))))
        assert m.counters.phase_one_calls == 0
        assert m.counters.memo_hits == 0
        made.append(len(counted))
    assert made[1] - made[0] == 1 + inst.num_scenarios


def test_single_scenario_decisions_oracle_mode_small():
    inst = gen_hs(HsConfig(scenario_count=2, seed=5,
                           box=((1, 3), (1, 3), (1, 2), (1, 2))))
    kernel = single_scenario_decisions(inst)
    oracle_mode = single_scenario_decisions(inst, method=METHOD_ORACLE)
    assert tuple(map(tuple, kernel)) == tuple(map(tuple, oracle_mode))


def test_single_scenario_identical_scenarios_identical_decisions():
    inst = gen_hs(HsConfig(scenario_count=3, seed=1, box=((4, 4), (5, 5),
                                                          (2, 2), (3, 3))))
    dec = single_scenario_decisions(inst)
    assert len(set(tuple(x) for x in dec)) == 1


def test_single_scenario_oracle_needs_bounds():
    inst = SipInstance(
        gamma=IntVector((1,)),
        technology=IntMatrix(((1,),)),
        recourse=IntMatrix(((1,),)),
        scenarios=(Scenario(Fraction(1), IntVector((1,)), IntVector((3,))),),
    )
    with pytest.raises(ValueError):
        single_scenario_decisions(inst, method=METHOD_ORACLE)
    with pytest.raises(ValueError, match="first-stage bounds"):
        opcost_oracle(inst, DecisionList((IntVector((0,)),)))


def test_hs_matrix_all_methods_agree():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    mk = opcost_kernel(inst, dec)
    mg = opcost_graver(inst, dec)
    mo = opcost_oracle(inst, dec)
    assert mk.values == HS_VALUES
    assert mk == mg == mo
    assert all(s == CELL_OK for row in mk.status for s in row)
    assert mk.method == METHOD_KERNEL
    assert mg.method == METHOD_GRAVER
    assert mo.method == METHOD_ORACLE


def test_hs_diagonal_is_column_minimum():
    inst = gen_hs(HsConfig(scenario_count=3, seed=19, scaled=True))
    dec = single_scenario_decisions(inst)
    m = opcost_kernel(inst, dec)
    for j in range(m.size):
        column = [m.values[i][j] for i in range(m.size)]
        assert m.values[j][j] == min(column)


def test_snd_matrix_with_infeasible_cell():
    inst = gen_snd(SndConfig(scenario_count=2, seed=3))
    dec = DecisionList(SND_DECISIONS)
    mk = opcost_kernel(inst, dec)
    mg = opcost_graver(inst, dec)
    mo = opcost_oracle(inst, dec)
    assert mk.values == SND_VALUES
    assert mk.status == SND_STATUS
    assert mk == mg == mo
    # one Phase-I test set of W's narrow extension serves all four cells
    assert mk.counters.phase_one_bases == 1
    assert mk.counters.phase_one_calls == 4


def test_phase_one_walks_once_per_right_hand_side(monkeypatch):
    # SND N=30 has no closed-form start: the decisions phase sees 11
    # distinct stacked right-hand sides in 30 scenarios, and each build 77
    # distinct ones in 210 cells, 50 of them infeasible
    inst = gen_snd(SndConfig(30, seed=1, max_demand=2))
    walk = opcost.phase_one_feasible
    points = []

    def counting(*args, **kwargs):
        point = walk(*args, **kwargs)
        points.append(point)
        return point

    monkeypatch.setattr(opcost, "phase_one_feasible", counting)
    dec = single_scenario_decisions(inst)
    assert len(points) == 11
    for build in (opcost_kernel, opcost_graver):
        points.clear()
        m = build(inst, dec)
        assert len(points) == 77
        assert points.count(None) == 50
        # the (cost, b) memo answers repeats before Phase-I is asked, so
        # every cell handed the Phase-I set is a walk
        assert m.counters.phase_one_calls == 77
        assert cli.matrix_checksum(m) == "51a8ddadf2cbad99"
        assert m.timings_us["phase_one_walk_us"] > 0


def test_seeded_snd_methods_agree_with_infeasible_cells():
    # kernel, graver and the oracle agree cell by cell, and the seeds give
    # infeasible cells, which the oracle must leave empty
    infeasible = cells = 0
    for seed in range(1, 7):
        inst = gen_snd(SndConfig(scenario_count=3, seed=seed, max_demand=2))
        dec = single_scenario_decisions(inst)
        mk = opcost_kernel(inst, dec)
        assert mk == opcost_graver(inst, dec) == opcost_oracle(inst, dec)
        statuses = [s for row in mk.status for s in row]
        infeasible += statuses.count(CELL_INFEASIBLE)
        cells += len(statuses)
    assert (infeasible, cells) == (22, 54)


def test_four_node_snd_methods_agree():
    inst = four_node_snd(3)
    dec = single_scenario_decisions(inst)
    assert dec.decisions == single_scenario_decisions(
        inst, method=METHOD_ORACLE).decisions
    mk = opcost_kernel(inst, dec)
    assert mk == opcost_graver(inst, dec) == opcost_oracle(inst, dec)
    # the kernel build took over the decisions' W Phase-I set
    assert mk.counters.phase_one_bases == 0


def test_four_node_snd_kernel_pipeline_at_n10():
    # seconds only while Phase-I stays narrow: the test set of the stacked
    # system's [M | I | -I] has 1,210 elements here
    inst = four_node_snd(10)
    dec = single_scenario_decisions(inst)
    mk = opcost_kernel(inst, dec)
    assert mk.size == 10
    assert mk.counters.phase_one_bases == 0
    assert mk == opcost_oracle(inst, dec)


def test_four_node_snd_graver_pipeline_at_n10():
    # graver decisions come from the kernel solver: the stacked 16x24
    # Graver basis (1,662 elements) is never completed
    inst = four_node_snd(10)
    kernel = opcost_kernel(inst, single_scenario_decisions(inst))
    graver = opcost_graver(
        inst, single_scenario_decisions(inst, method=METHOD_GRAVER))
    assert graver == kernel and graver.decisions == kernel.decisions
    assert graver.counters.graver_runs == 1


def test_four_node_snd_walks_take_steps(monkeypatch):
    # per-scenario flow costs make the optimisation walks move, which the
    # shared-cost SND families never do
    base = four_node_snd(2)
    demand = IntVector((1, 0, -1, 0) + (0,) * 6)
    costs = ((1, 1, 1, 1, 9, 9), (9, 9, 1, 1, 1, 1))
    inst = dataclasses.replace(base, scenarios=tuple(
        dataclasses.replace(sc, rhs=demand, cost=IntVector(c + (0,) * 6))
        for sc, c in zip(base.scenarios, costs)))
    dec = DecisionList((IntVector((1,) * 6 + (0,) * 6),))
    steps = []
    walk = opcost.augment

    def counting(*args, **kwargs):
        res = walk(*args, **kwargs)
        steps[-1] += res.steps
        return res

    monkeypatch.setattr(opcost, "augment", counting)
    built = []
    for build in (opcost_kernel, opcost_graver):
        steps.append(0)
        built.append(build(inst, dec))
    assert built[0] == built[1] == opcost_oracle(inst, dec)
    assert built[0].values == ((29, 28),)
    assert all(n > 0 for n in steps), steps


@pytest.mark.parametrize("make", [
    lambda: gen_snd(SndConfig(3, seed=1, max_demand=2)),
    lambda: four_node_snd(3)], ids=["triangle", "four-node"])
def test_phase_one_set_holds_the_reduced_basis_for_its_cost(make):
    # completed under K*art + c and checked, the extension's basis is the
    # elimination order's: its elements with no artificial part are M's
    # reduced basis for c, for the stacked system and for W alike
    inst = make()
    stacked, head = opcost._stacked_system(inst)
    tx = [inst.technology.mat_vec(x) for x in single_scenario_decisions(inst)]
    for M, cost, rhss in (
            (stacked, IntVector(inst.gamma.entries
                                + inst.scenarios[0].cost.entries),
             [head + sc.rhs.entries for sc in inst.scenarios]),
            (inst.recourse, inst.scenarios[0].cost,
             [sc.rhs - t for t in tx for sc in inst.scenarios])):
        system = artificial_system(M, rhss, cost)
        n = M.ncols
        elements = [rec[0] for rec in system.moves.moves]
        assert all(sum(g[n:]) >= 0 for g in elements)
        assert sorted(g[:n] for g in elements if not any(g[n:])) == sorted(
            g.entries for g in buchberger(toric_generating_set(M).generators,
                                          CostOrder(cost), matrix=M))


def _chain_spy(monkeypatch, saturate_home, complete_home):
    """Spy on `toric_generating_set` in saturate_home and `buchberger` in
    complete_home. The returned function checks one solver's chain, then
    returns its bases in call order and forgets them: one saturation, whose
    generators seed the first completion, each later completion seeded
    with the basis before it, and every basis the one completed from the
    toric set."""
    saturate = saturate_home.toric_generating_set
    complete = complete_home.buchberger
    sets, runs = [], []  # saturations; (seed, basis) per completion

    def saturate_spy(A):
        sets.append(saturate(A))
        return sets[-1]

    def complete_spy(seed, order, matrix=None):
        runs.append((seed, complete(seed, order, matrix=matrix)))
        return runs[-1][1]

    def take():
        assert len(sets) == 1
        bases = [basis for _, basis in runs]
        for (seed, _), expected in zip(runs, [sets[0].generators] + bases):
            assert seed is expected
        for basis in bases:
            assert basis.elements.canonical() == complete(
                sets[0].generators, basis.order,
                matrix=basis.matrix).elements.canonical()
        sets.clear()
        runs.clear()
        return bases

    monkeypatch.setattr(saturate_home, "toric_generating_set", saturate_spy)
    monkeypatch.setattr(complete_home, "buchberger", complete_spy)
    return take


def test_phase_one_set_doubles_k_until_the_check_passes(monkeypatch):
    # flow costs of 5000 outweigh an artificial unit at K = 1000: K doubles
    # until no element of the extension's basis has a negative artificial
    # total, and the matrix still equals the oracle's. Each solver
    # saturates its extension once, through the toric module: the toric
    # set seeds the first completion, and each doubling re-completes from
    # the basis that failed. The decisions complete W's set at x-hat, and
    # a build handed a list without it completes its own
    take = _chain_spy(monkeypatch, toric, groebner)

    def ks():
        return [basis.order.cost.entries[-1] for basis in take()]

    base = gen_snd(SndConfig(3, seed=1, max_demand=2))
    inst = dataclasses.replace(base, scenarios=tuple(
        dataclasses.replace(sc, cost=IntVector((5000,) * 3 + (0,) * 3))
        for sc in base.scenarios))
    dec = single_scenario_decisions(inst)
    assert ks() == [1000, 2000, 4000, 8000]
    assert dec.decisions == single_scenario_decisions(
        inst, method=METHOD_ORACLE).decisions
    mk = opcost_kernel(inst, DecisionList(dec.decisions))
    assert ks() == [1000, 2000, 4000, 8000]
    adopted = opcost_kernel(inst, dec)
    assert adopted == mk and adopted.counters.phase_one_bases == 0
    assert mk == opcost_oracle(inst, dec)
    assert mk.values == ((10007, 5007, 7), (None, 5003, 3), (None, None, 0))
    # a graver build takes the decisions' set over as well; handed a list
    # without it, it completes its own under the first cell's cost
    graver = opcost_graver(inst, dec)
    assert graver == mk and graver.counters.phase_one_bases == 0
    assert opcost_graver(inst, DecisionList(dec.decisions)) == mk
    assert ks() == [1000, 2000, 4000, 8000]


def test_each_later_completion_is_seeded_with_the_previous_basis(
        monkeypatch):
    # three distinct scenario costs. The decisions walk from x-hat over
    # the stacked system's own bases for all three; in the build the first
    # is served by the Phase-I set and the other two by W's own bases. M
    # is saturated once, its first basis is completed from the toric set,
    # and each later one from the basis before it
    take = _chain_spy(monkeypatch, opcost, opcost)
    inst = per_scenario_cost_four_node_snd(3)
    assert len({sc.cost for sc in inst.scenarios}) == 3
    dec = single_scenario_decisions(inst)
    assert len(take()) == 3
    mk = opcost_kernel(inst, dec)
    assert len(take()) == 2
    assert mk == opcost_oracle(inst, dec)


def test_per_scenario_cost_four_node_methods_agree():
    # only scenario 0's cost is served by the Phase-I set; every other cost
    # walks from the Phase-I point over its own Groebner basis
    inst = per_scenario_cost_four_node_snd(3)
    assert len({sc.cost for sc in inst.scenarios}) == 3
    dec = single_scenario_decisions(inst)
    mk = opcost_kernel(inst, dec)
    assert mk == opcost_graver(inst, dec) == opcost_oracle(inst, dec)
    assert mk.counters.buchberger_runs == 2


def test_q_only_drops_first_stage_cost():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    full = opcost_kernel(inst, dec)
    bare = opcost_kernel(inst, dec, q_only=True)
    for i, x in enumerate(dec):
        gx = inst.gamma.dot(x)
        for j in range(full.size):
            assert full.values[i][j] == bare.values[i][j] + gx


def test_kernel_counters_report_reuse():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    m = opcost_kernel(inst, dec)
    c = m.counters
    assert c.toric_runs == 1
    assert c.buchberger_runs == 1  # both scenarios share one cost vector
    assert c.graver_runs == 0
    assert c.augment_calls == 4
    assert c.phase_one_calls == 0  # closed-form starts bypass Phase-I


def test_kernel_counters_one_basis_per_distinct_cost():
    inst = hand_instance(costs=[(1,), (2,), (1,)],
                         rhss=((2,), (3,), (4,)))
    dec = DecisionList((IntVector((0,)), IntVector((1,)), IntVector((2,))))
    m = opcost_kernel(inst, dec)
    # the Phase-I set, completed under the first cost, serves that cost's
    # cells; only cost (2,) needs W's toric set and a Groebner basis
    assert m.counters.phase_one_bases == 1
    assert m.counters.toric_runs == 1
    assert m.counters.buchberger_runs == 1
    assert m.counters.augment_calls == 3
    assert m == opcost_oracle(inst, dec)


TIMING_KEYS = {"toric_us", "groebner_us", "graver_us", "phase_one_us",
               "phase_one_walk_us", "augment_us", "oracle_us"}


def _counters(**nonzero):
    out = dict.fromkeys(opcost.BuildCounters.__slots__, 0)
    out.update(nonzero)
    return out


def test_build_counters_frozen_for_every_method():
    hs = gen_hs(HS_CFG)
    hs_dec = single_scenario_decisions(hs)
    snd = gen_snd(SndConfig(scenario_count=2, seed=3))
    snd_dec = DecisionList(SND_DECISIONS)
    cases = [
        # W's one completion queues 13 pairs and reduces 12, 8 to zero
        (opcost_kernel(hs, hs_dec), _counters(
            toric_runs=1, toric_elements=4, toric_rounds=4,
            toric_round_elements=4, buchberger_runs=1,
            groebner_elements=8, augment_calls=4, walk_steps=6,
            pairs_queued=13, pair_reductions=12, zero_reductions=8)),
        (opcost_graver(hs, hs_dec), _counters(
            graver_runs=1, graver_elements=44, augment_calls=4,
            walk_steps=6)),
        (opcost_oracle(hs, hs_dec), _counters(oracle_solves=4)),
        # one infeasible cell: four Phase-I calls; the Phase-I set is
        # completed under the one scenario cost, so its walks end at the
        # optimum, no kernel cell walks again and W gets no basis of its
        # own. Each graver cell still walks its Graver basis, and takes no
        # step. The set's extension is saturated in 6 rounds, the largest
        # completing 7 elements, and its completion queues 8 pairs and
        # reduces 4, 2 to zero
        (opcost_kernel(snd, snd_dec), _counters(
            phase_one_calls=4, phase_one_bases=1, toric_rounds=6,
            toric_round_elements=7, walk_steps=7, pairs_queued=8,
            pair_reductions=4, zero_reductions=2)),
        (opcost_graver(snd, snd_dec), _counters(
            graver_runs=1, graver_elements=2, augment_calls=3,
            phase_one_calls=4, phase_one_bases=1, toric_rounds=6,
            toric_round_elements=7, walk_steps=7, pairs_queued=8,
            pair_reductions=4, zero_reductions=2)),
        (opcost_oracle(snd, snd_dec), _counters(oracle_solves=4)),
    ]
    for m, expected in cases:
        assert m.counters.as_dict() == expected, m.method
        assert set(m.timings_us) == TIMING_KEYS


def test_repeated_decisions_share_one_row():
    inst = gen_hs(HS_CFG)
    x, y = (IntVector(d) for d in HS_DECISIONS)
    dec = DecisionList((x, y, x, x))
    m = opcost_kernel(inst, dec)
    assert m.values == HS_VALUES + HS_VALUES[:1] * 2
    assert m.status[2] == m.status[3] == m.status[0]
    # two distinct decisions in two scenarios: four walks, not eight
    assert m.counters.augment_calls == 4
    oracle_m = opcost_oracle(inst, dec)
    assert oracle_m == m and oracle_m.counters.oracle_solves == 4


def test_each_distinct_cell_is_solved_once():
    # a cell's value depends only on its (cost, b): every method solves
    # each distinct pair once and reads the rest from the build's memo
    inst = gen_hs(HsConfig(scenario_count=8, seed=3,
                           box=((1, 3), (1, 3), (1, 2), (1, 2))))
    dec = single_scenario_decisions(inst)
    keys = [(sc.cost.entries, rhs(inst, x, j).entries)
            for x in dict.fromkeys(dec) for j, sc in enumerate(inst.scenarios)]
    distinct = len(set(keys))
    assert len(set(dec)) < len(dec) and distinct < len(keys)
    built = [build(inst, dec)
             for build in (opcost_kernel, opcost_graver, opcost_oracle)]
    for m in built:
        assert m.counters.memo_hits == len(keys) - distinct, m.method
        assert m == built[-1], m.method
    kernel, graver, oracle_m = (m.counters for m in built)
    assert kernel.augment_calls == graver.augment_calls == distinct
    assert oracle_m.oracle_solves == distinct


def test_unscaled_hs_kernel_equals_graver_at_n100():
    # right-hand sides in the thousands; kernel and graver must still agree
    inst = gen_hs(HsConfig(scenario_count=100, seed=1, scaled=False))
    dec = single_scenario_decisions(inst)
    assert tuple(map(tuple, single_scenario_decisions(
        inst, method=METHOD_GRAVER))) == tuple(map(tuple, dec))
    mk = opcost_kernel(inst, dec)
    mg = opcost_graver(inst, dec)
    assert mk.size == 100
    assert mk.values == mg.values and mk.status == mg.status


def test_element_cap_bounds_every_pipeline_completion(monkeypatch):
    # The decisions phase, both builders' bases and the Phase-I sets all
    # complete through buchberger, which reads groebner.ELEMENT_CAP.
    # The kernel build is handed a list made by hand, so it completes its
    # own Phase-I set.
    inst = gen_snd(SndConfig(scenario_count=2, seed=3))
    dec = DecisionList(single_scenario_decisions(inst).decisions)
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 3)
    for build in (single_scenario_decisions, lambda i: opcost_kernel(i, dec),
                  lambda i: opcost_graver(i, dec)):
        with pytest.raises(GraverResourceError, match="exceeded 3 elements"):
            build(inst)


def test_graver_counters():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    m = opcost_graver(inst, dec)
    assert m.counters.graver_runs == 1
    assert m.counters.toric_runs == 0 and m.counters.buchberger_runs == 0


def test_any_callable_hook_builds_with_threads_accepted():
    # a lambda cannot be pickled, so no build may ship the instance anywhere
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    hooked = dataclasses.replace(
        inst, feasible_recourse=lambda x, h: hs_feasible(x, h))
    m = opcost_kernel(hooked, dec, threads=2)
    reference = opcost_kernel(inst, dec)
    assert m == reference
    assert m.counters.as_dict() == reference.counters.as_dict()


def test_timings_account_for_the_build_wall_clock():
    # the phases are disjoint and cover all but bookkeeping: a phase timed
    # inside another (W's algebra built in the row loop) overshoots the wall
    snd = gen_snd(SndConfig(scenario_count=30, seed=1, max_demand=2))
    hs = instance_from_json(instance_to_json(
        gen_hs(HsConfig(scenario_count=30, seed=1, scaled=True))))
    for inst in (snd, hs):
        dec = single_scenario_decisions(inst)
        for build in (opcost_kernel, opcost_graver):
            t0 = time.perf_counter_ns()
            m = build(inst, dec)
            wall_us = (time.perf_counter_ns() - t0) / 1000
            total_us = sum(m.timings_us.values())
            assert 0.95 * wall_us <= total_us <= wall_us, (
                build.__name__, total_us, wall_us)


def test_timings_add_up_when_the_hook_declines():
    # a declined cell builds W's Phase-I set inside the row loop: its time
    # must be booked once, not by both phase_one_us and the loop. The
    # builds are handed lists made by hand, which carry no Phase-I set
    snd = gen_snd(SndConfig(scenario_count=30, seed=1, max_demand=2))
    hs = gen_hs(HsConfig(scenario_count=30, seed=1, scaled=True))
    cases = (
        (snd, lambda x, h: None),
        (hs, lambda x, h: None if h[0] % 2 == 0 else hs_feasible(x, h)),
    )
    for inst, declining in cases:
        dec = DecisionList(single_scenario_decisions(inst).decisions)
        hooked = dataclasses.replace(inst, feasible_recourse=declining)
        for build in (opcost_kernel, opcost_graver):
            t0 = time.perf_counter_ns()
            m = build(hooked, dec)
            wall_us = (time.perf_counter_ns() - t0) / 1000
            total_us = sum(m.timings_us.values())
            assert 0.95 * wall_us <= total_us <= wall_us, (
                build.__name__, total_us, wall_us)
            assert m.counters.phase_one_bases == 1
            assert m == build(inst, dec)


def test_identical_scenarios_identical_columns():
    inst = gen_hs(HsConfig(scenario_count=3, seed=1, box=((4, 4), (5, 5),
                                                          (2, 2), (3, 3))))
    dec = single_scenario_decisions(inst)
    m = opcost_kernel(inst, dec)
    first = [m.values[i][0] for i in range(m.size)]
    for j in range(1, m.size):
        assert [m.values[i][j] for i in range(m.size)] == first
    # identical decisions on top of identical scenarios: constant matrix
    assert len({v for row in m.values for v in row}) == 1


def test_scenario_permutation_permutes_columns():
    base = gen_hs(HS_CFG)
    flipped = SipInstance(
        gamma=base.gamma,
        technology=base.technology,
        recourse=base.recourse,
        scenarios=tuple(reversed(base.scenarios)),
        first_stage_bounds=base.first_stage_bounds,
        feasible_recourse=base.feasible_recourse,
    )
    dec = DecisionList(tuple(IntVector(x) for x in HS_DECISIONS))
    m0 = opcost_kernel(base, dec)
    m1 = opcost_kernel(flipped, dec)
    n = m0.size
    for i in range(n):
        for j in range(n):
            assert m1.values[i][j] == m0.values[i][n - 1 - j]


def test_csv_export_format():
    inst = gen_snd(SndConfig(scenario_count=2, seed=3))
    m = opcost_kernel(inst, DecisionList(SND_DECISIONS))
    lines = m.to_csv().splitlines()
    assert lines[0] == "decision,s0,s1"
    assert lines[1] == "0,14,12"
    assert lines[2] == "1,,0"  # infeasible cell stays empty


def test_json_export_contents():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    m = opcost_graver(inst, dec)
    doc = json.loads(m.to_json())
    assert doc["method"] == METHOD_GRAVER
    assert doc["q_only"] is False
    assert doc["values"] == [list(row) for row in HS_VALUES]
    assert doc["status"] == [["ok", "ok"], ["ok", "ok"]]
    assert doc["decisions"] == [list(x) for x in HS_DECISIONS]
    for key in ("toric_us", "groebner_us", "graver_us", "augment_us",
                "oracle_us"):
        assert isinstance(doc["timings_us"][key], int)
        assert doc["timings_us"][key] >= 0
    assert doc["timings_us"]["graver_us"] > 0
    assert doc["counters"]["graver_runs"] == 1


def test_infeasible_json_uses_null():
    inst = gen_snd(SndConfig(scenario_count=2, seed=3))
    m = opcost_oracle(inst, DecisionList(SND_DECISIONS))
    doc = json.loads(m.to_json())
    assert doc["values"][1][0] is None
    assert doc["status"][1][0] == CELL_INFEASIBLE


def test_matrix_repr_and_size():
    inst = gen_hs(HS_CFG)
    dec = single_scenario_decisions(inst)
    m = opcost_kernel(inst, dec)
    assert m.size == 2
    assert "2x2" in repr(m) and "kernel" in repr(m)
    # one decision in two scenarios: a 1 x 2 matrix
    one = opcost_kernel(inst, DecisionList(dec.decisions[:1]))
    assert one.size == 1 and "1x2" in repr(one)
