import json

import pytest

from latticeopt.instances import (HS_BOX, HS_BOX_SCALED, HsConfig, SndConfig,
                                  gen_hs, gen_snd, hs_feasible,
                                  instance_from_json, instance_to_json)
from latticeopt.lattice import IntMatrix, IntVector
from latticeopt.opcost import Scenario, SipInstance
from latticeopt.toric import toric_generating_set
from fractions import Fraction


def test_hs_fixed_data():
    inst = gen_hs(HsConfig(scenario_count=3, seed=1))
    assert tuple(inst.gamma) == (35, 40)
    assert inst.recourse.rows == (
        (1, 0, 1, 0, -1, 0, 0, 0),
        (0, 1, 0, 1, 0, -1, 0, 0),
        (2, 1, 0, 0, 0, 0, 1, 0),
        (1, 2, 0, 0, 0, 0, 0, 1),
    )
    assert inst.technology.rows == ((1, 0), (0, 1), (0, 0), (0, 0))
    assert inst.first_stage_constraints is None
    assert inst.first_stage_bounds == (12000, 12000)
    for s in inst.scenarios:
        assert tuple(s.cost) == (16, 19, 47, 54, 0, 0, 0, 0)
        assert s.probability == Fraction(1, 3)
        for e, (lo, hi) in zip(s.rhs.entries, HS_BOX):
            assert lo <= e <= hi


def test_hs_scaled_box_and_determinism():
    cfg = HsConfig(scenario_count=5, seed=42, scaled=True)
    a = gen_hs(cfg)
    b = gen_hs(cfg)
    assert instance_to_json(a) == instance_to_json(b)
    assert a.first_stage_bounds == (12, 12)
    for s in a.scenarios:
        for e, (lo, hi) in zip(s.rhs.entries, HS_BOX_SCALED):
            assert lo <= e <= hi
    c = gen_hs(HsConfig(scenario_count=5, seed=43, scaled=True))
    assert instance_to_json(a) != instance_to_json(c)


def test_hs_explicit_box_wins_over_scaled():
    cfg = HsConfig(scenario_count=2, seed=0, box=((1, 1),) * 4, scaled=True)
    inst = gen_hs(cfg)
    assert all(tuple(s.rhs) == (1, 1, 1, 1) for s in inst.scenarios)


def test_hs_config_validation():
    with pytest.raises(ValueError):
        HsConfig(scenario_count=0, seed=1)
    with pytest.raises(ValueError):
        HsConfig(scenario_count=1, seed=1, box=((5, 4),) * 4)
    with pytest.raises(ValueError):
        HsConfig(scenario_count=1, seed=1, box=((-1, 4),) * 4)


def test_hs_feasible_examples():
    assert tuple(hs_feasible((0, 0), (5, 7, 4, 6))) == (0, 0, 5, 7, 0, 0, 4, 6)
    assert tuple(hs_feasible((9, 0), (5, 7, 4, 6))) == (0, 0, 0, 7, 4, 0, 4, 6)


def test_hs_feasible_satisfies_recourse_rows():
    import random
    rng = random.Random(8)
    inst = gen_hs(HsConfig(scenario_count=1, seed=0, scaled=True))
    W = inst.recourse
    T = inst.technology
    for _ in range(50):
        x = IntVector((rng.randint(0, 15), rng.randint(0, 15)))
        xi = IntVector(tuple(rng.randint(0, 15) for _ in range(4)))
        y = hs_feasible(x, xi)
        assert all(e >= 0 for e in y.entries)
        assert W.mat_vec(y) == xi - T.mat_vec(x)


def test_hs_feasible_rejects_bad_input():
    with pytest.raises(ValueError):
        hs_feasible((0, 0), (1, 1, -1, 1))
    with pytest.raises(ValueError):
        hs_feasible((0, 0), (1, 1, 1, -2))
    with pytest.raises(ValueError):
        hs_feasible((0, 0, 0), (1, 1, 1, 1))


def test_hs_recourse_matrix_has_toric_generators():
    inst = gen_hs(HsConfig(scenario_count=1, seed=0))
    gens = toric_generating_set(inst.recourse)
    assert len(gens.generators) > 0
    for g in gens.generators:
        assert inst.recourse.in_kernel(g)


def test_snd_triangle_structure():
    inst = gen_snd(SndConfig(scenario_count=1, seed=0))
    A, b = inst.first_stage_constraints
    assert A.rows == ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1))
    assert tuple(b) == (1, 1, 1)
    assert inst.first_stage_bounds == (1,) * 6
    assert tuple(inst.gamma) == (3, 4, 5, 0, 0, 0)
    # three conservation rows then three capacity rows
    assert inst.recourse.rows == (
        (1, 0, -1, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
    )
    assert inst.technology.rows == (
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 0, 0),
        (0, -2, 0, 0, 0, 0),
        (0, 0, -2, 0, 0, 0),
    )
    assert tuple(inst.scenarios[0].cost) == (1, 1, 1, 0, 0, 0)


def test_snd_conservation_rows_sum_to_zero():
    inst = gen_snd(SndConfig(scenario_count=1, seed=5, vertices=4,
                             arcs=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
                             commodities=2,
                             fixed_costs=(1, 1, 1, 1, 1),
                             capacities=(3, 3, 3, 3, 3),
                             max_demand=2))
    narcs, ncom, nv = 5, 2, 4
    for c in range(ncom):
        rows = inst.recourse.rows[c * nv:(c + 1) * nv]
        summed = [sum(col) for col in zip(*rows)]
        assert all(e == 0 for e in summed)
    # demands balance per commodity in every scenario
    for s in inst.scenarios:
        for c in range(ncom):
            assert sum(s.rhs.entries[c * nv:(c + 1) * nv]) == 0
        assert all(e == 0 for e in s.rhs.entries[ncom * nv:])


def test_snd_determinism_and_demand_range():
    cfg = SndConfig(scenario_count=6, seed=11, max_demand=3)
    a = gen_snd(cfg)
    assert instance_to_json(a) == instance_to_json(gen_snd(cfg))
    for s in a.scenarios:
        assert max(abs(e) for e in s.rhs.entries[:3]) <= 3


def test_snd_zero_demand_scenarios():
    inst = gen_snd(SndConfig(scenario_count=3, seed=2, max_demand=0))
    for s in inst.scenarios:
        assert not any(s.rhs.entries)


def test_snd_config_validation():
    with pytest.raises(ValueError):
        SndConfig(scenario_count=1, seed=0, arcs=((0, 0), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        SndConfig(scenario_count=1, seed=0, arcs=((0, 5), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        SndConfig(scenario_count=1, seed=0, capacities=(0, 2, 2))
    with pytest.raises(ValueError):
        SndConfig(scenario_count=1, seed=0, fixed_costs=(1, 2))


def test_json_round_trip_bit_exact():
    for inst in (gen_hs(HsConfig(scenario_count=4, seed=9)),
                 gen_snd(SndConfig(scenario_count=3, seed=9))):
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert instance_to_json(again) == text
        assert again.feasible_recourse is None


def test_json_round_trip_preserves_structure():
    inst = gen_snd(SndConfig(scenario_count=2, seed=4))
    again = instance_from_json(instance_to_json(inst))
    assert again.gamma == inst.gamma
    assert again.technology.rows == inst.technology.rows
    assert again.recourse.rows == inst.recourse.rows
    A0, b0 = inst.first_stage_constraints
    A1, b1 = again.first_stage_constraints
    assert A1.rows == A0.rows and b1 == b0
    assert again.first_stage_bounds == inst.first_stage_bounds
    for s0, s1 in zip(inst.scenarios, again.scenarios):
        assert s1.probability == s0.probability
        assert s1.cost == s0.cost and s1.rhs == s0.rhs


def test_json_large_integers_become_strings():
    big = 2 ** 60
    inst = SipInstance(
        gamma=IntVector((big,)),
        technology=IntMatrix(((1,),)),
        recourse=IntMatrix(((1,),)),
        scenarios=(Scenario(Fraction(1), IntVector((0,)), IntVector((big,))),),
    )
    text = instance_to_json(inst)
    doc = json.loads(text)
    assert doc["gamma"][0] == str(big)
    assert doc["scenarios"][0]["rhs"][0] == str(big)
    again = instance_from_json(text)
    assert again.gamma.entries == (big,)
    assert again.scenarios[0].rhs.entries == (big,)
    assert instance_to_json(again) == text

