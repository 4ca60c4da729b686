"""Graver completion against the box oracle, and the scenario-block lift."""

import hashlib
import itertools
import math
import random

import pytest

from latticeopt import HsConfig, SndConfig, gen_hs, gen_snd, oracle
from latticeopt.graver import (
    GraverBasis,
    GraverResourceError,
    SipBlockStructure,
    contains_groebner,
    graver_basis,
    lift_sip_graver,
)
from latticeopt.groebner import GroebnerBasis
from latticeopt.lattice import (CostOrder, IntMatrix, IntVector, VectorSet,
                                kernel_basis)
from latticeopt.opcost import _stacked_system

import support


def test_single_primitive_direction():
    assert support.as_tuple_set(graver_basis(IntMatrix([[1, 1]]))) == \
        {(1, -1), (-1, 1)}


def test_weighted_row():
    assert support.as_tuple_set(graver_basis(IntMatrix([[1, 2]]))) == \
        {(2, -1), (-2, 1)}


def test_sum_matrix_all_pair_swaps():
    got = support.as_tuple_set(graver_basis(IntMatrix([[1, 1, 1]])))
    want = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                t = [0, 0, 0]
                t[i], t[j] = 1, -1
                want.add(tuple(t))
    assert got == want


def test_trivial_kernel_empty():
    assert len(graver_basis(IntMatrix.identity(3))) == 0


def test_matches_box_oracle_on_random_matrices():
    rng = random.Random(614)
    cases = 0
    while cases < 12:
        nrows = rng.choice([1, 2])
        ncols = rng.choice([3, 4])
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(ncols)]
                       for _ in range(nrows)])
        basis = graver_basis(A)
        bound = 4
        boxed = {tuple(g) for g in basis
                 if max(abs(x) for x in g) <= bound}
        assert boxed == support.as_tuple_set(
            oracle.enumerate_graver_in_box(A, bound))
        cases += 1


def test_pairwise_minimality_and_closure():
    rng = random.Random(303)
    for _ in range(8):
        A = support.random_matrix(rng, 2, 4, 0, 3)
        basis = graver_basis(A)
        elems = [tuple(g) for g in basis]
        for g in elems:
            assert IntVector(tuple(-x for x in g)) in basis.elements
        recs = [(g, tuple(abs(x) for x in g)) for g in elems]
        for g, ga in recs:
            for h, ha in recs:
                if g == h:
                    continue
                same_orthant = all(a * b >= 0 for a, b in zip(g, h))
                if same_orthant and all(x <= y for x, y in zip(ha, ga)):
                    pytest.fail("%r conforms to %r" % (h, g))


# sha256 over the seeded matrices and model matrices below, recorded with the
# pairwise (Pottier) completion this module once used; the Lawrence lifting
# and then project-and-lift replaced it with the digest unchanged. Graver
# bases are unique, so it must not move.
FROZEN_GRAVER_DIGEST = (
    "59b65ad358d0b7aadd9849bf438a052c25c55f45a77637c26f173cffcb01f63f")


def _graver_digest_inputs():
    rng = random.Random(20261019)
    for k in range(18):
        nrows, ncols = rng.choice([(1, 4), (2, 4), (2, 5), (3, 5), (2, 6),
                                   (3, 6)])
        lo = 0
        if k % 3 == 2:
            lo, ncols = -2, min(ncols, 5)
        yield support.random_matrix(rng, nrows, ncols, lo, 3)
    hs = gen_hs(HsConfig(scenario_count=1, seed=0))
    snd = gen_snd(SndConfig(scenario_count=1, seed=0))
    for inst in (hs, snd):
        yield inst.recourse
        yield _stacked_system(inst)[0]


def test_seeded_graver_bases_match_frozen_digest():
    digest = hashlib.sha256()
    for A in _graver_digest_inputs():
        basis = graver_basis(A)
        digest.update(repr((A.rows, sorted(g.entries for g in basis)))
                      .encode())
    assert digest.hexdigest() == FROZEN_GRAVER_DIGEST


def test_graver_basis_runs_no_completion_of_its_own(monkeypatch):
    # Project-and-lift completes on the kernel lattice itself: no toric
    # saturation and no Buchberger run.
    from latticeopt import groebner, toric
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for module, name in ((groebner, "buchberger"),
                         (toric, "toric_generating_set")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    W = gen_hs(HsConfig(scenario_count=1, seed=0, scaled=True)).recourse
    assert len(graver_basis(W)) > 0
    assert calls == []


def test_element_cap_raises(monkeypatch):
    from latticeopt import groebner
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 3)
    with pytest.raises(GraverResourceError):
        graver_basis(IntMatrix([[3, -5, 7, -11, 2]]))


# The most +/- pairs HS W's completion holds at once: its 22 final pairs.
HS_W_PEAK_PAIRS = 22


def test_element_cap_counts_pairs_at_the_peak(monkeypatch):
    from latticeopt import groebner
    W = gen_hs(HsConfig(scenario_count=1, seed=0, scaled=True)).recourse
    monkeypatch.setattr(groebner, "ELEMENT_CAP", HS_W_PEAK_PAIRS)
    assert len(graver_basis(W)) == 2 * HS_W_PEAK_PAIRS
    monkeypatch.setattr(groebner, "ELEMENT_CAP", HS_W_PEAK_PAIRS - 1)
    with pytest.raises(GraverResourceError):
        graver_basis(W)


def _det(rows):
    """Leibniz determinant of a small square matrix."""
    total = 0
    for p in itertools.permutations(range(len(rows))):
        sign = (-1) ** sum(p[i] > p[j] for i, j in
                           itertools.combinations(range(len(p)), 2))
        total += sign * math.prod(rows[i][p[i]] for i in range(len(p)))
    return total


@pytest.mark.parametrize("rows, bound", [
    ([[3, -5, 7, -11, 2]], 5),
    ([[2, 3, 5]], 5),
    ([[4, 6, 9]], 9),
    ([[2, 3, 5, 7]], 7),
    ([[2, -2, 1, 2, 1], [4, 2, -1, 4, 4]], 6),
])
def test_base_step_on_lattices_without_a_unimodular_projection(rows, bound):
    # No r columns carry a unimodular projection of the kernel lattice, so
    # the base step's completion on the pivot columns does real work.
    A = IntMatrix(rows)
    kernel = [g.entries for g in kernel_basis(A)]
    assert all(abs(_det([[v[c] for c in cols] for v in kernel])) != 1
               for cols in itertools.combinations(range(A.ncols),
                                                  len(kernel)))
    basis = graver_basis(A)
    boxed = {g.entries for g in basis if max(map(abs, g.entries)) <= bound}
    assert boxed == support.as_tuple_set(
        oracle.enumerate_graver_in_box(A, bound))


def test_cap_error_is_one_class():
    import latticeopt
    from latticeopt import groebner
    assert GraverResourceError is groebner.GraverResourceError
    assert latticeopt.GraverResourceError is groebner.GraverResourceError


def test_contains_groebner_and_mismatch():
    from latticeopt import toric
    A = IntMatrix([[1, 1, 1]])
    gamma = graver_basis(A)
    gb = toric.test_set(A, IntVector((1, 2, 3)))
    assert contains_groebner(gb, gamma)

    empty = GroebnerBasis(A, CostOrder((1, 2, 3)), VectorSet())
    assert contains_groebner(empty, gamma)

    rogue = GroebnerBasis(None, CostOrder((1, 2, 3)),
                          VectorSet([IntVector((1, 1, 0))]))
    assert not contains_groebner(rogue, gamma)

    other = graver_basis(IntMatrix([[1, 2, 0]]))
    with pytest.raises(ValueError):
        contains_groebner(gb, other)


def _lift_fixture():
    return SipBlockStructure(
        first_stage=IntMatrix.identity(2),
        technology=IntMatrix([[1, 0]]),
        recourse=IntMatrix([[1, 1]]),
        scenarios=2,
    )


def test_stacked_layout():
    s = _lift_fixture()
    assert s.stacked().rows == (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (1, 0, 1, 1, 0, 0),
        (1, 0, 0, 0, 1, 1),
    )


def test_lift_matches_direct_computation():
    s = _lift_fixture()
    one = SipBlockStructure(s.first_stage, s.technology, s.recourse, 1)
    gamma1 = graver_basis(one.stacked())
    assert support.as_tuple_set(gamma1) == {(0, 0, 1, -1), (0, 0, -1, 1)}
    for n in (2, 3):
        sn = SipBlockStructure(s.first_stage, s.technology, s.recourse, n)
        lifted = lift_sip_graver(gamma1, sn)
        direct = graver_basis(sn.stacked())
        assert support.as_tuple_set(lifted) == support.as_tuple_set(direct)
        assert lifted.matrix == sn.stacked()


def test_lift_single_scenario_identity():
    s = _lift_fixture()
    one = SipBlockStructure(s.first_stage, s.technology, s.recourse, 1)
    gamma1 = graver_basis(one.stacked())
    assert support.as_tuple_set(lift_sip_graver(gamma1, one)) == \
        support.as_tuple_set(gamma1)


def test_lift_rejects_singular_first_stage():
    bad = SipBlockStructure(
        first_stage=IntMatrix([[1, 1]]),
        technology=IntMatrix([[1, 0]]),
        recourse=IntMatrix([[1, 1]]),
        scenarios=2,
    )
    one = SipBlockStructure(bad.first_stage, bad.technology, bad.recourse, 1)
    gamma1 = graver_basis(one.stacked())
    with pytest.raises(ValueError):
        lift_sip_graver(gamma1, bad)


def test_block_validation():
    with pytest.raises(ValueError):
        SipBlockStructure(IntMatrix.identity(2), IntMatrix([[1, 0, 0]]),
                          IntMatrix([[1, 1]]), 1)
    with pytest.raises(ValueError):
        SipBlockStructure(IntMatrix.identity(2), IntMatrix([[1, 0]]),
                          IntMatrix([[1, 1]]), 0)


def test_negation_closure_checked_by_constructor():
    A = IntMatrix([[1, 1]])
    with pytest.raises(ValueError):
        GraverBasis(A, VectorSet([IntVector((1, -1))]))
