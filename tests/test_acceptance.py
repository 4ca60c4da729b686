"""Acceptance suite: one test per published criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
quantities before asserting, so failures carry their evidence. Shared
expensive inputs are built lazily inside the first test that needs them,
keeping the per-criterion runtime budgets honest.
"""

import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
import time

import latticeopt
from latticeopt import cli, opcost, toric
from latticeopt.graver import (SipBlockStructure, contains_groebner,
                               graver_basis, lift_sip_graver)
from latticeopt.groebner import buchberger
from latticeopt.instances import HsConfig, gen_hs
from latticeopt.lattice import CostOrder, IntMatrix, IntVector
from latticeopt.opcost import (opcost_graver, opcost_kernel, opcost_oracle,
                               single_scenario_decisions)
from latticeopt.oracle import enumerate_graver_in_box
from latticeopt.toric import toric_generating_set

from support import boxed_fibers, check_test_set, random_matrix

CROSS_METHOD_BUDGET_S = 60
TEST_SET_BUDGET_S = 120
TREND_BUDGET_S = 600
KERNEL_GROWTH_LIMIT = 3.0
GRAVER_FLATNESS_LIMIT = 0.5    # Graver constructions added from N=10 to N=100

RANDOM_SHAPES = ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6),
                 (3, 4), (3, 5), (3, 6), (2, 3))


def report(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))


@functools.lru_cache(maxsize=None)
def hs_suite():
    """Scaled instances, argmin decisions, and all three matrices."""
    out = {}
    for seed in (1, 2, 3):
        for n in (2, 4, 8):
            inst = gen_hs(HsConfig(scenario_count=n, seed=seed, scaled=True))
            dec = single_scenario_decisions(inst)
            out[(seed, n)] = (
                opcost_kernel(inst, dec),
                opcost_graver(inst, dec),
                opcost_oracle(inst, dec),
            )
    return out


@functools.lru_cache(maxsize=None)
def random_suite():
    rng = random.Random(20250816)
    return tuple(random_matrix(rng, r, c) for r, c in RANDOM_SHAPES)


def test_criterion_01_cross_method_exactness():
    t0 = time.time()
    mismatches = []
    for key, (mk, mg, mo) in hs_suite().items():
        if not (mk.values == mg.values == mo.values
                and mk.status == mg.status == mo.status):
            mismatches.append(key)
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < CROSS_METHOD_BUDGET_S
    report(1, ok, "9 fixtures, mismatches=%s, %.1fs" % (mismatches, elapsed))
    assert not mismatches
    assert elapsed < CROSS_METHOD_BUDGET_S


def test_criterion_02_diagonal_column_minimum():
    bad = []
    for key, (mk, _, _) in hs_suite().items():
        for j in range(mk.size):
            column = [mk.values[i][j] for i in range(mk.size)]
            if mk.values[j][j] != min(column):
                bad.append((key, j))
    report(2, not bad, "violations=%s" % bad)
    assert not bad


def test_criterion_03_test_set_certificate():
    t0 = time.time()
    rng = random.Random(99)
    checked = 0
    for A in random_suite():
        fibers = boxed_fibers(A, 6)
        for _ in range(5):
            cost = IntVector(tuple(rng.randint(0, 8) for _ in range(A.ncols)))
            basis = toric.test_set(A, cost)
            check_test_set(A, CostOrder(cost), basis, fibers=fibers)
            checked += 1
    elapsed = time.time() - t0
    ok = checked == 50 and elapsed < TEST_SET_BUDGET_S
    report(3, ok, "%d matrix/cost pairs exhaustively checked, %.1fs"
           % (checked, elapsed))
    assert checked == 50
    assert elapsed < TEST_SET_BUDGET_S


def test_criterion_04_graver_matches_box_enumeration():
    bad = []
    extra = (IntMatrix(((1, 1, 1),)), IntMatrix(((1, 2),)))
    for k, A in enumerate(random_suite() + extra):
        basis = graver_basis(A)
        inside = {g.entries for g in basis
                  if max(abs(e) for e in g.entries) <= 6}
        boxed = {v.entries for v in enumerate_graver_in_box(A, 6)}
        if inside != boxed:
            bad.append(k)
    report(4, not bad, "12 matrices, mismatches=%s" % bad)
    assert not bad


def test_criterion_05_groebner_inside_graver():
    W = gen_hs(HsConfig(scenario_count=1, seed=0)).recourse
    gamma = graver_basis(W)
    rng = random.Random(5)
    bad = []
    for k in range(20):
        cost = IntVector(tuple(rng.randint(0, 60) for _ in range(W.ncols)))
        if not contains_groebner(toric.test_set(W, cost), gamma):
            bad.append(tuple(cost))
    report(5, not bad, "20 costs on the fixed 4x8 matrix, escapes=%s" % bad)
    assert not bad


def test_criterion_06_sip_graver_lift():
    first = IntMatrix.identity(2)
    T = IntMatrix(((1, 0),))
    W = IntMatrix(((1, 1),))
    gamma1 = graver_basis(SipBlockStructure(first, T, W, 1).stacked())
    bad = []
    for n in (2, 3):
        structure = SipBlockStructure(first, T, W, n)
        lifted = {g.entries for g in lift_sip_graver(gamma1, structure)}
        direct = {g.entries for g in graver_basis(structure.stacked())}
        if lifted != direct:
            bad.append(n)
    report(6, not bad, "N in {2, 3}, mismatches=%s" % bad)
    assert not bad


def test_criterion_07_reduced_basis_uniqueness():
    fixtures = (
        (IntMatrix(((1, 1, 1),)), (1, 2, 3)),
        (IntMatrix(((1, 2, 3),)), (2, 1, 1)),
        (IntMatrix(((3, 2, 1, 0), (0, 1, 2, 3))), (1, 1, 1, 1)),
    )
    rng = random.Random(7)
    bad = []
    for A, cost in fixtures:
        order = CostOrder(cost)
        seed = list(toric_generating_set(A).generators)
        reference = {g.entries for g in buchberger(seed, order, matrix=A)}
        for _ in range(10):
            rng.shuffle(seed)
            got = {g.entries for g in buchberger(seed, order, matrix=A)}
            if got != reference:
                bad.append(A.rows)
                break
    report(7, not bad, "3 matrices x 10 shuffles, unstable=%s" % bad)
    assert not bad


def test_criterion_08_scaling_trends(monkeypatch):
    """Growth bounds on the work the method keeps flat or linear in N.

    The N x N cell walks grow with N squared under any per-cell solver, so
    neither clause bounds them. The kernel ratio covers the decisions phase
    and the algebra (`decisions_us + toric_us + groebner_us`); the graver
    clause counts every `graver_basis` construction the pipeline makes
    through `latticeopt.opcost`, decisions included. Constructions are
    counted rather than timed because two timings of the same algebra
    differ by more than the allowance. The kernel clause divides two
    one-time completions of tens of ms, so it takes each N's minimum over
    three runs: other load on the host only ever adds time.
    """
    t0 = time.time()
    kernel, algebra = {}, {}
    for _ in range(3):
        for rec in cli.bench("hs-scaled", (50, 100), seed=1,
                             methods=("kernel",)):
            n, t = rec.scenario_count, rec.timings_us
            kernel[n] = min(kernel.get(n, math.inf), sum(t.values()))
            algebra[n] = min(algebra.get(n, math.inf), t["decisions_us"]
                             + t["toric_us"] + t["groebner_us"])
    ratio = kernel[100] / kernel[50]
    algebra_ratio = algebra[100] / algebra[50]

    constructions = [0]

    def counted_graver_basis(*args, **kwargs):
        constructions[0] += 1
        return graver_basis(*args, **kwargs)

    monkeypatch.setattr(opcost, "graver_basis", counted_graver_basis)
    graver = {}
    built = {}
    for n in (10, 100):
        constructions[0] = 0
        (rec,) = cli.bench("hs-scaled", (n,), seed=1, methods=("graver",))
        graver[n] = sum(rec.timings_us.values())
        built[n] = constructions[0]
    delta_us = graver[100] - graver[10]
    growth = built[100] - built[10]
    W = gen_hs(HsConfig(scenario_count=1, seed=1, scaled=True)).recourse
    tc = time.perf_counter_ns()
    graver_basis(W)
    construction_us = (time.perf_counter_ns() - tc) // 1000
    elapsed = time.time() - t0
    kernel_ok = algebra_ratio <= KERNEL_GROWTH_LIMIT
    graver_ok = growth <= GRAVER_FLATNESS_LIMIT
    report(8, kernel_ok and graver_ok and elapsed < TREND_BUDGET_S,
           "kernel decisions+algebra T(100)/T(50)=%.2f (limit %.1f), "
           "pipeline %.2f; graver constructions %d -> %d, growth %d "
           "(limit %.1f), pipeline T(100)-T(10)=%dus, construction=%dus; "
           "%.1fs"
           % (algebra_ratio, KERNEL_GROWTH_LIMIT, ratio, built[10],
              built[100], growth, GRAVER_FLATNESS_LIMIT, delta_us,
              construction_us, elapsed))
    assert elapsed < TREND_BUDGET_S
    assert kernel_ok, "kernel decisions+algebra growth %.2f exceeds %.1f" % (
        algebra_ratio, KERNEL_GROWTH_LIMIT)
    assert graver_ok, (
        "graver constructions grew by %d (%d -> %d), limit %.1f"
        % (growth, built[10], built[100], GRAVER_FLATNESS_LIMIT))


def test_criterion_09_basis_reuse_counters():
    inst = gen_hs(HsConfig(scenario_count=4, seed=2, scaled=True))
    dec = single_scenario_decisions(inst)
    shared = opcost_kernel(inst, dec).counters
    distinct_scenarios = tuple(
        dataclasses.replace(s, cost=IntVector(s.cost.entries[:4] + (j,)
                                              + s.cost.entries[5:]))
        for j, s in enumerate(inst.scenarios))
    distinct_inst = dataclasses.replace(inst, scenarios=distinct_scenarios)
    distinct = opcost_kernel(distinct_inst,
                             single_scenario_decisions(distinct_inst)).counters
    graver = opcost_graver(inst, dec).counters
    got = (shared.toric_runs, shared.buchberger_runs,
           distinct.toric_runs, distinct.buchberger_runs, graver.graver_runs)
    ok = got == (1, 1, 1, 4, 1)
    report(9, ok, "(toric, gb | toric, gb-distinct | graver) = %s" % (got,))
    assert got == (1, 1, 1, 4, 1)


def _opcost_in_fresh_process(instance, method, hash_seed, out_dir):
    """CSV bytes and meta JSON of one CLI opcost run in its own process."""
    csv_path = os.path.join(out_dir, "%s-%s.csv" % (method, hash_seed))
    meta_path = os.path.join(out_dir, "%s-%s.json" % (method, hash_seed))
    package = os.path.dirname(os.path.abspath(latticeopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package),
               PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-m", "latticeopt.cli", "opcost", "--instance",
         instance, "--method", method, "--out", csv_path, "--meta",
         meta_path], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["timings_us"] = {k: 0 for k in meta["timings_us"]}
    for solver in meta["decisions_phase"].values():
        solver["timings_us"] = {k: 0 for k in solver["timings_us"]}
    return csv_bytes, json.dumps(meta, sort_keys=True)


def test_criterion_10_determinism(capsys, tmp_path):
    assert cli.run(["verify"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["verify"]) == 0
    second = capsys.readouterr().out
    inst = gen_hs(HsConfig(scenario_count=4, seed=3, scaled=True))
    dec = single_scenario_decisions(inst)
    serial = opcost_kernel(inst, dec, threads=1)
    parallel = opcost_kernel(inst, dec, threads=8)
    # Two processes with different hash seeds must write the same CSV and
    # the same meta once timings are zeroed: no output may depend on set or
    # dict iteration order that varies between runs.
    instances = {
        "snd": ["gen-snd", "--n", "6", "--seed", "3", "--max-demand", "2"],
        "hs": ["gen-hs", "--n", "6", "--seed", "7", "--scaled"],
    }
    differing = []
    for family, argv in instances.items():
        path = str(tmp_path / (family + ".json"))
        assert cli.run(argv + ["--out", path]) == 0
        for method in ("kernel", "graver", "oracle"):
            runs = [_opcost_in_fresh_process(path, method, seed, tmp_path)
                    for seed in (1, 2)]
            if runs[0] != runs[1]:
                differing.append("%s/%s" % (family, method))
    ok = first == second and serial == parallel and not differing
    with capsys.disabled():
        report(10, ok, "verify outputs identical=%s, threads 1 vs 8 equal=%s, "
               "6 CLI run pairs, hash seeds 1 vs 2, differing=%s"
               % (first == second, serial == parallel, differing))
    assert first == second
    assert serial == parallel
    assert not differing, differing
