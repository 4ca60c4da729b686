"""Scale fixtures: completion on a dense 7x17 system, and a wide sweep
against a completion that skips no pair.

Wide dense matrices are where completion cost grows steeply with the
variable count, so this pins that the vector-level pipeline still finishes
at 17 columns and stays canonical. Off by default because the runtime is
hardware-sensitive; set LATTICEOPT_STRESS=1 to include it.
"""

import os
import random
import signal
from contextlib import contextmanager

import pytest

from latticeopt.groebner import buchberger, normal_form
from latticeopt.lattice import CostOrder, IntMatrix, kernel_basis
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
