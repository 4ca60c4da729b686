"""Scale fixtures: completion on a dense 7x17 system, a wide sweep
against a completion that skips no pair, the 16x24 Graver basis of a
stacked network design system, and the matrices of the larger network
design families.

Wide dense matrices are where completion cost grows steeply with the
variable count, so this pins that the vector-level pipeline still finishes
at 17 columns and stays canonical. Off by default because the runtime is
hardware-sensitive; set LATTICEOPT_STRESS=1 to include it.
"""

import hashlib
import os
import random
import signal
from contextlib import contextmanager

import pytest

from latticeopt import SndConfig, gen_snd
from latticeopt.cli import matrix_checksum
from latticeopt.graver import graver_basis
from latticeopt.groebner import buchberger, normal_form
from latticeopt.lattice import CostOrder, IntMatrix, kernel_basis
from latticeopt.opcost import (_stacked_system, opcost_graver, opcost_kernel,
                               single_scenario_decisions)
from latticeopt.toric import toric_generating_set

import support

pytestmark = [
    pytest.mark.skipif(os.environ.get("LATTICEOPT_STRESS") != "1",
                       reason="stress fixture; set LATTICEOPT_STRESS=1"),
    pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                       reason="needs SIGALRM for the time guard"),
]

GUARD_SECONDS = 300


@contextmanager
def time_guard(seconds):
    def fire(signum, frame):
        raise TimeoutError("stress fixture exceeded %ds guard" % seconds)

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_toric_generators_on_wide_matrix():
    A = support.wide_stairstep_matrix()
    with time_guard(GUARD_SECONDS):
        gens = list(toric_generating_set(A).generators)
    kdim = len(kernel_basis(A))
    assert len(gens) >= kdim
    for g in gens:
        assert A.in_kernel(g)
    # the generators span a full-rank sublattice of the kernel
    G = IntMatrix(tuple(g.entries for g in gens))
    assert len(kernel_basis(G)) == A.ncols - kdim


def test_completion_finishes_and_is_canonical():
    A = support.wide_stairstep_matrix()
    rng = random.Random(1715)
    with time_guard(GUARD_SECONDS):
        seed = list(toric_generating_set(A).generators)
        for cost in ((1,) * A.ncols, tuple(range(1, A.ncols + 1))):
            order = CostOrder(cost)
            reference = buchberger(seed, order, matrix=A)
            assert len(reference) >= len(seed)
            for g in seed:
                assert normal_form(g, reference, order).is_zero()
            shuffled = list(seed)
            rng.shuffle(shuffled)
            again = buchberger(shuffled, order, matrix=A)
            assert {g.entries for g in again} == \
                   {g.entries for g in reference}


def test_completion_matches_criterion_free_reference_sweep():
    # test_groebner's reference cross-check on 300 matrices up to 4x8. A few
    # random lattices with large kernel entries make a saturation round
    # outgrow 500 working elements (one ran past ten minutes uncapped);
    # those matrices are skipped and counted.
    rng = random.Random(1)
    skipped = []
    runs = 0
    with time_guard(GUARD_SECONDS):
        for A, gens, order in support.random_toric_completions(
                rng, 300, [(2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8)],
                element_cap=500, skipped=skipped):
            got = sorted(g.entries for g in buchberger(gens, order, matrix=A))
            assert got == support.reference_completion(gens, order)
            runs += 1
    assert len(skipped) <= 10
    assert runs >= 600


# sha256 of repr(sorted element tuples) of the 4-node SND stacked system's
# Graver basis, recorded from the Lawrence-lifting construction (15.1 s on
# a 2-core host) before project-and-lift replaced it.
FOUR_NODE_STACKED_GRAVER_DIGEST = (
    "b75aaadbc4a4ac292f53df6d5dc78c6350bd0a5f95701545be29cc4b6c735abf")


def test_four_node_stacked_graver_basis():
    M = _stacked_system(support.four_node_snd(1))[0]
    assert (M.nrows, M.ncols) == (16, 24)
    with time_guard(GUARD_SECONDS):
        basis = graver_basis(M)
    elements = sorted(g.entries for g in basis)
    assert len(elements) == 1662
    assert hashlib.sha256(repr(elements).encode()).hexdigest() == \
        FOUR_NODE_STACKED_GRAVER_DIGEST


# Network design families past the triangle, seed 1, max demand 2: each
# matrix's checksum (cli.matrix_checksum), recorded before the Phase-I set
# served the walk. The per-scenario-cost families complete one Groebner
# basis per distinct cost, each seeded with the previous one.
SND_FAMILIES = {
    "four-node-n30": (lambda: support.four_node_snd(30), "9296bdabbb5e30f0"),
    "two-commodity-n10": (lambda: gen_snd(SndConfig(
        10, 1, commodities=2, capacities=(4, 4, 4), max_demand=2)),
        "fadfc7bedbf91bdf"),
    "five-node-n10": (lambda: gen_snd(SndConfig(
        10, 1, vertices=5,
        arcs=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)),
        fixed_costs=(3, 4, 5, 3, 6, 6, 4), capacities=(2,) * 7,
        max_demand=2)), "84b3764daaa15202"),
    "per-scenario-cost-four-node-n30": (
        lambda: support.per_scenario_cost_four_node_snd(30),
        "386a1fcc65f477ad"),
    "per-scenario-cost-4-6-four-node-n30": (
        lambda: support.per_scenario_cost_four_node_snd(30, costs=(4, 6)),
        "7a09aa506d051332"),
}


@pytest.mark.parametrize("family", sorted(SND_FAMILIES))
def test_snd_family_matrix(family):
    make, checksum = SND_FAMILIES[family]
    inst = make()
    with time_guard(GUARD_SECONDS):
        dec = single_scenario_decisions(inst)
        kernel = opcost_kernel(inst, dec)
        graver = opcost_graver(inst, dec)
    assert matrix_checksum(kernel) == checksum
    assert kernel == graver
