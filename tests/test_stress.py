"""Scale fixtures: completion on a dense 7x17 system, a wide sweep
against a completion that skips no pair, the same check on both toric
saturation round orders over wider matrices, the 16x24 Graver basis of a
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

from latticeopt import groebner, instances
from latticeopt.cli import matrix_checksum
from latticeopt.graver import graver_basis
from latticeopt.groebner import buchberger, normal_form
from latticeopt.lattice import CostOrder, IntMatrix, kernel_basis
from latticeopt.opcost import (_stacked_system, opcost_graver, opcost_kernel,
                               single_scenario_decisions)
from latticeopt.toric import toric_generating_set

import support
from test_cli import STANDING_CHECKSUMS

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


def test_round_orders_agree_on_wider_random_matrices():
    # test_toric's round-order check on 24 random 4-5 x 10-12 matrices with
    # entries 0..2. A few of them make a saturation round or a completion
    # outgrow 500 working elements (2 of the 24 here); those matrices are
    # skipped and counted.
    rng = random.Random(23)
    skipped = []
    default_cap = groebner.ELEMENT_CAP
    with time_guard(GUARD_SECONDS):
        for _ in range(24):
            A = support.random_matrix(rng, rng.choice([4, 5]),
                                      rng.choice([10, 11, 12]), 0, 2)
            order = CostOrder(tuple(rng.randint(0, 5)
                                    for _ in range(A.ncols)))
            groebner.ELEMENT_CAP = 500
            try:
                support.check_round_orders_agree(A, [order])
            except groebner.GraverResourceError:
                skipped.append(A)
            finally:
                groebner.ELEMENT_CAP = default_cap
    assert len(skipped) <= 6


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


# Network design families, the triangle among them (`instances.SND_FAMILIES`),
# seed 1, at the scenario count of each one's standing checksum
# (cli.matrix_checksum), recorded before the Phase-I set served the walk.
# The per-scenario-cost families complete one Groebner basis per distinct
# cost, each seeded with the previous one.
SND_FAMILIES = {family: (n, checksum)
                for (family, n), checksum in STANDING_CHECKSUMS.items()
                if family in instances.SND_FAMILIES}


@pytest.mark.parametrize("family", sorted(SND_FAMILIES))
def test_snd_family_matrix(family):
    n, checksum = SND_FAMILIES[family]
    inst = instances.gen_snd_family(family, n)
    with time_guard(GUARD_SECONDS):
        dec = single_scenario_decisions(inst)
        kernel = opcost_kernel(inst, dec)
        graver = opcost_graver(inst, dec)
    assert matrix_checksum(kernel) == checksum
    assert kernel == graver
