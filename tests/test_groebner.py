"""Completion, normal forms, and the test-set property checked by brute force."""

import hashlib
import heapq
import random
import types

import pytest

from latticeopt import groebner, toric
from latticeopt.groebner import (GraverResourceError, GroebnerBasis,
                                 buchberger, normal_form, orient)
from latticeopt.lattice import CostOrder, IntMatrix, IntVector, VectorSet
from latticeopt.toric import toric_generating_set

import support


def _vs(*tuples):
    return VectorSet(IntVector(t) for t in tuples)


def test_orient_examples():
    order = CostOrder((1, 2, 3))
    assert orient(IntVector((1, -1, 0)), order) == IntVector((-1, 1, 0))
    assert orient(IntVector((1, -1)), CostOrder((3, 1))) == IntVector((1, -1))
    v = IntVector((2, -1, -1))
    assert orient(orient(v, order), order) == orient(v, order)
    with pytest.raises(ValueError):
        orient(IntVector((0, 0, 0)), order)


def test_orient_tie_breaks_lexicographically():
    order = CostOrder((1, 1))
    assert orient(IntVector((1, -1)), order) == IntVector((1, -1))
    assert orient(IntVector((-1, 1)), order) == IntVector((1, -1))


def test_normal_form_chain_to_zero():
    order = CostOrder((1, 2, 3))
    G = _vs((-1, 1, 0))
    assert normal_form(IntVector((-3, 3, 0)), G, order).is_zero()


def test_normal_form_untouched_when_no_divisor():
    order = CostOrder((1, 2, 3))
    G = _vs((-1, 1, 0))
    v = orient(IntVector((1, 0, -1)), order)
    assert normal_form(v, G, order) == v


def test_normal_form_self_reduction():
    order = CostOrder((1, 2, 3))
    G = _vs((-1, 1, 0))
    assert normal_form(IntVector((-1, 1, 0)), G, order).is_zero()


def test_normal_form_reduces_trailing_part_only_when_full():
    order = CostOrder((1, 1, 2))
    G = _vs((2, 0, -1))
    v = IntVector((-2, 1, 1))
    assert normal_form(v, G, order) == IntVector((0, 1, 0))
    assert normal_form(v, G, order, full=False) == v


def test_normal_form_reorients_midway():
    order = CostOrder((1, 1, 2))
    G = _vs((0, -1, 1))
    assert normal_form(IntVector((1, 0, -1)), G, order) == IntVector((1, -1, 0))


def test_normal_form_rejects_lengths_other_than_the_orders():
    order = CostOrder((1, 2, 3))
    cases = ((IntVector((1, -1, 0)), [IntVector((0, 1))]),
             (IntVector((1, -1)), _vs((-1, 1, 0))),
             (IntVector((0, 0)), _vs((-1, 1, 0))))
    for v, G in cases:
        with pytest.raises(ValueError, match="order's 3 entries"):
            normal_form(v, G, order)


def test_buchberger_disjoint_leads_interreduce():
    # The pair is skipped by the support criterion, but inter-reduction still
    # rewrites the trailing part of (0,-1,1), whose negative side equals the
    # lead of (-1,1,0).
    order = CostOrder((1, 2, 3))
    gb = buchberger(_vs((-1, 1, 0), (0, -1, 1)), order,
                    matrix=IntMatrix([[1, 1, 1]]))
    assert support.as_tuple_set(gb) == {(-1, 1, 0), (-1, 0, 1)}


def test_buchberger_single_and_empty_seed():
    order = CostOrder((1, 1))
    A = IntMatrix([[1, 1]])
    gb = buchberger(_vs((-1, 1)), order, matrix=A)
    assert support.as_tuple_set(gb) == {(1, -1)}
    assert len(buchberger(VectorSet(), order, matrix=A)) == 0


def test_buchberger_requires_a_matrix():
    # every basis the package returns is checked against its matrix
    with pytest.raises(TypeError):
        buchberger(_vs((-1, 1)), CostOrder((1, 1)))
    with pytest.raises(ValueError, match="element not in the kernel"):
        buchberger(_vs((-1, 1)), CostOrder((1, 1)), matrix=IntMatrix([[1, 2]]))


def test_buchberger_is_reduced_and_oriented():
    rng = random.Random(31)
    for _ in range(15):
        A = support.random_matrix(rng, 2, 4, 0, 3)
        c = [rng.randint(0, 5) for _ in range(4)]
        gb = toric.test_set(A, IntVector(c))
        elems = list(gb)
        for g in elems:
            assert A.in_kernel(g)
            cg = gb.order.dot(g)
            assert cg >= 0
            if cg == 0:
                lead = next(g[i] for i in gb.order.tie_order if g[i])
                assert lead > 0
        for g in elems:
            gp = tuple(x if x > 0 else 0 for x in g)
            gn = tuple(-x if x < 0 else 0 for x in g)
            for h in elems:
                if h is g:
                    continue
                hp = tuple(x if x > 0 else 0 for x in h)
                assert not all(a >= b for a, b in zip(gp, hp))
                assert not all(a >= b for a, b in zip(gn, hp))


def test_reduced_basis_unique_under_seed_shuffles():
    rng = random.Random(42)
    fixtures = [
        (IntMatrix([[1, 1, 1]]), (1, 2, 3)),
        (IntMatrix([[3, 2, 1, 0], [0, 1, 2, 3]]), (1, 1, 1, 1)),
        (IntMatrix([[2, 1, 3, 1], [1, 0, 1, 2]]), (3, 0, 2, 1)),
    ]
    for A, c in fixtures:
        order = CostOrder(c)
        reference = toric.test_set(A, IntVector(c))
        gens = list(toric_generating_set(A))
        baseline = support.as_tuple_set(buchberger(support.shuffled_vectorset(rng, gens), order, matrix=A))
        for _ in range(10):
            shuffled = support.shuffled_vectorset(rng, gens)
            assert support.as_tuple_set(buchberger(shuffled, order, matrix=A)) == baseline
        assert support.as_tuple_set(reference) == baseline


def test_test_set_examples():
    gb = toric.test_set(IntMatrix([[1, 1, 1]]), IntVector((1, 2, 3)))
    assert support.as_tuple_set(gb) == {(-1, 1, 0), (-1, 0, 1)}
    assert len(toric.test_set(IntMatrix.identity(2), IntVector((1, 1)))) == 0
    gb = toric.test_set(IntMatrix([[1, 2]]), IntVector((1, 1)))
    assert support.as_tuple_set(gb) == {(2, -1)}


def test_test_set_property_single_row_by_enumeration():
    A = IntMatrix([[1, 2]])
    order = CostOrder((1, 1))
    gb = toric.test_set(A, IntVector((1, 1)))
    support.check_test_set(A, order, gb, box=10)


def test_test_set_property_random_exhaustive():
    rng = random.Random(2718)
    for _ in range(8):
        nrows, ncols = rng.choice([(2, 4), (3, 5), (2, 5)])
        A = support.random_matrix(rng, nrows, ncols, 0, 3)
        c = [rng.randint(0, 5) for _ in range(ncols)]
        order = CostOrder(c)
        gb = toric.test_set(A, IntVector(c))
        support.check_test_set(A, order, gb, box=6)


def test_groebner_basis_kernel_assert():
    order = CostOrder((1, 1))
    with pytest.raises(ValueError):
        GroebnerBasis(IntMatrix([[1, 1]]), order, _vs((1, 1)))


# sha256 of every toric generating set and reduced basis that
# test_seeded_completions_match_frozen_digest builds, recorded before the
# chain criterion and the counted orthant push were added. Both only skip
# work, so the generators and the (unique) reduced bases must not move.
FROZEN_COMPLETION_DIGEST = (
    "8375d630f377cb651405a1756f25febb630e0e0c1b2f20d3a0957254c1a17534")


def seeded_completions_digest():
    """sha256 over 24 seeded toric generating sets and their reduced bases."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for k in range(24):
        nrows, ncols = rng.choice([(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
        lo = -2 if k % 3 == 2 else 0
        A = support.random_matrix(rng, nrows, ncols, lo, 4)
        costs = [tuple(rng.randint(0, 5) for _ in range(ncols))
                 for _ in range(rng.choice([2, 3]))]
        gens = toric_generating_set(A)
        digest.update(repr((A.rows, sorted(g.entries for g in gens))).encode())
        for c in costs:
            order = CostOrder(c)
            gb = buchberger(gens.generators, order, matrix=A)
            for g in gens:
                assert normal_form(g, gb, order).is_zero()
            digest.update(repr((c, sorted(g.entries for g in gb))).encode())
    return digest.hexdigest()


def test_seeded_completions_match_frozen_digest():
    assert seeded_completions_digest() == FROZEN_COMPLETION_DIGEST


def test_interreduction_reaches_its_fixed_point_in_one_pass(monkeypatch):
    # A second pass over every inter-reduced basis changes nothing, on the
    # seeded completions (toric rounds included) and the 7x17 toric set.
    real = groebner._interreduce
    outs = []

    def checking(vecs, order):
        out = real(vecs, order)
        outs.append(out)
        assert real(out, order) == out
        return out

    monkeypatch.setattr(groebner, "_interreduce", checking)
    assert seeded_completions_digest() == FROZEN_COMPLETION_DIGEST
    toric_generating_set(support.wide_stairstep_matrix())
    assert len(outs) > 100


def test_divisors_match_brute_force():
    # The index is grown one record at a time and checked after each append,
    # over every candidate set and with one record's bit left out.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        part = tuple(rng.randint(0, 3) for _ in range(n))
        leads = groebner._LeadIndex(n)
        assert list(groebner._divisors(part, leads)) == []
        for size in range(1, rng.randint(1, 8) + 1):
            leads.append(groebner._record(
                tuple(rng.randint(-2, 2) for _ in range(n))))
            expected = [k for k, (_, lead, _) in enumerate(leads)
                        if all(a <= b for a, b in zip(lead, part))]
            assert list(groebner._divisors(part, leads)) == expected
            out = rng.randrange(size)
            assert list(groebner._divisors(part, leads, ~(1 << out))) == [
                k for k in expected if k != out]


def test_element_cap_bounds_the_working_basis(monkeypatch):
    # Three generators complete to three elements, but two S-vectors join
    # the working basis before inter-reduction: the cap counts all five.
    A = IntMatrix([[1, 1, 1, 1]])
    gens = toric_generating_set(A).generators
    order = CostOrder((1, 2, 3, 4))
    uncapped = support.as_tuple_set(buchberger(gens, order, matrix=A))
    assert len(gens) == len(uncapped) == 3
    for k in (1, 3, 4):
        monkeypatch.setattr(groebner, "ELEMENT_CAP", k)
        with pytest.raises(GraverResourceError, match="exceeded %d " % k):
            buchberger(gens, order, matrix=A)
    for k in (5, 100):
        monkeypatch.setattr(groebner, "ELEMENT_CAP", k)
        assert support.as_tuple_set(
            buchberger(gens, order, matrix=A)) == uncapped


def test_chain_criterion_skips_reductions(monkeypatch):
    # Before the chain criterion this completion made 11 _reduce calls: 5
    # S-pair reductions and 6 in two inter-reduction rounds. The criterion
    # proves two of those S-pairs useless without reducing them, and
    # inter-reduction now takes one round of 3, leaving 6.
    A = IntMatrix([[3, 2, 1, 0], [0, 1, 2, 3]])
    gens = toric_generating_set(A).generators
    calls = []
    real_reduce = groebner._reduce

    def counting(*args):
        calls.append(None)
        return real_reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counting)
    gb = buchberger(gens, CostOrder((1, 1, 1, 1)), matrix=A)
    assert len(calls) < 11
    assert support.as_tuple_set(gb) == {
        (0, 1, -2, 1), (1, -2, 1, 0), (1, -1, -1, 1)}


def test_completion_matches_criterion_free_reference():
    # The product, chain and death rules only skip pairs; a completion that
    # reduces every pair must reach the same reduced basis, whatever the
    # seed order. Unlike the frozen digest, this needs no recorded output.
    # Each matrix's later costs are also completed from the previous cost's
    # basis, as a solver seeds them, and must reach the same basis.
    rng = random.Random(2110)
    runs = chained = 0
    previous = (None, None)
    for A, gens, order in support.random_toric_completions(
            rng, 40, [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7)]):
        reference = support.reference_completion(gens, order)
        basis = buchberger(gens, order, matrix=A)
        assert sorted(g.entries for g in basis) == reference
        if previous[0] is A:
            again = buchberger(previous[1], order, matrix=A)
            assert sorted(g.entries for g in again) == reference
            chained += 1
        previous = (A, basis)
        runs += 1
    assert runs >= 80 and chained >= 40


def _spy_pushes(monkeypatch):
    """Record each pair (i, j), i < j, that buchberger queues."""
    pushed = []

    def push(heap, item):
        pushed.append((item[3], item[2]))
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "heapq", types.SimpleNamespace(
        heappush=push, heappop=heapq.heappop))
    return pushed


def test_death_rule_halves_the_queued_pairs_on_the_wide_matrix(monkeypatch):
    # Before the death rule, completing the 7x17 toric generators under the
    # all-ones cost queued 9,028 pairs; it now queues 4,204. The basis is the
    # one perfbench's completion_7x17 workload checks. The work is pinned
    # exactly: the lead index and the settled-pair chain criterion change
    # how divisors are found, not which pairs are reduced.
    A = support.wide_stairstep_matrix()
    gens = toric_generating_set(A).generators
    pushed = _spy_pushes(monkeypatch)
    calls = {False: 0, True: 0}
    real_reduce = groebner._reduce

    def counting(vec, leads, cost, full, *among):
        calls[full] += 1
        return real_reduce(vec, leads, cost, full, *among)

    monkeypatch.setattr(groebner, "_reduce", counting)
    gb = buchberger(gens, CostOrder((1,) * A.ncols), matrix=A)
    assert len(pushed) == 4204 <= 9028 // 2
    assert calls == {False: 1163, True: 88}  # S-pairs, inter-reduction
    assert len(gb) == 88
    text = ";".join(",".join(map(str, g.entries))
                    for g in gb.elements.canonical())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "63878ca8e3289456"


def test_dead_element_forms_no_later_pairs(monkeypatch):
    # Under cost (1, 2, 3) the seed's leads are x3^3, x3^2 and x3: element 0
    # dies at 1 and element 1 at 2, so the overlapping pair (0, 2) is never
    # queued, and no pair (k, h) with h past k's death ever is.
    seed = _vs((1, 1, -3), (1, 0, -2), (0, 1, -1))
    order = CostOrder((1, 2, 3))
    pushed = _spy_pushes(monkeypatch)
    working = []
    real_reduce = groebner._reduce

    def capture(vec, leads, cost, full, *among):
        if not full and not working:
            working.append(leads)
        return real_reduce(vec, leads, cost, full, *among)

    monkeypatch.setattr(groebner, "_reduce", capture)
    gb = buchberger(seed, order, matrix=IntMatrix([[2, 1, 1]]))
    basis = working[0]
    died = [next((t for t in range(k + 1, len(basis))
                  if all(a <= b for a, b in zip(basis[t][1], basis[k][1]))),
                 len(basis)) for k in range(len(basis))]
    assert died[:2] == [1, 2]
    assert (0, 2) not in pushed
    assert all(j <= died[i] for i, j in pushed)
    got = sorted(g.entries for g in gb)
    assert got == [(-1, 2, 0), (0, -1, 1)]
    assert got == support.reference_completion(seed, order)


def _spy_reduced_pairs(monkeypatch):
    """Record each popped pair (i, j) in order, and the working basis; a
    popped pair is reduced when an S-pair reduction follows its pop."""
    popped, reduced, working = [], [], []

    def pop(heap):
        item = heapq.heappop(heap)
        popped.append((item[3], item[2]))
        return item

    real_reduce = groebner._reduce

    def capture(vec, leads, cost, full, *among):
        if not full:
            working[:] = [leads]
            reduced.append(popped[-1])
        return real_reduce(vec, leads, cost, full, *among)

    monkeypatch.setattr(groebner, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=pop))
    monkeypatch.setattr(groebner, "_reduce", capture)
    return popped, reduced, working


def test_chain_counts_product_dropped_pairs_but_not_unformed_ones(monkeypatch):
    # Chain criterion: popped (i, j) is dropped when a k with a lead dividing
    # lcm(i, j) has both (i, k) and (j, k) settled, i.e. formed and no longer
    # queued.
    def divides(a, b):
        return all(x <= y for x, y in zip(a[1], b))

    # Element 2's lead (0, 0, 2, 0) is disjoint from element 0's, so (0, 2)
    # is dropped by the product criterion when formed, and it counts as
    # settled: with (1, 2) popped first, the chain through 2 drops (0, 1).
    A = IntMatrix([[0, 2, 1, 2], [2, 4, 1, 0]])
    seed = _vs((2, -1, 0, 1), (1, -1, 2, 0), (1, 0, -2, 1))
    order = CostOrder((3, 3, 5, 4))
    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    gb = buchberger(seed, order, matrix=A)
    basis = working[0]
    assert not basis[0][2] & basis[2][2]
    assert divides(basis[2], map(max, basis[0][1], basis[1][1]))
    assert popped == [(1, 2), (0, 1)] and reduced == [(1, 2)]
    assert sorted(g.entries for g in gb) == support.reference_completion(
        seed, order)

    # Under (1, 2, 3) element 0 dies at 1 and 1 at 2, so (0, 2) is never
    # formed though its leads overlap. It is not settled: (0, 1) has the
    # divisor 2 and (1, 2) is popped, yet (0, 1) must be reduced.
    seed = _vs((1, 1, -3), (1, 0, -2), (0, 1, -1))
    order = CostOrder((1, 2, 3))
    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    gb = buchberger(seed, order, matrix=IntMatrix([[2, 1, 1]]))
    basis = working[0]
    assert basis[0][2] & basis[2][2]
    assert divides(basis[2], map(max, basis[0][1], basis[1][1]))
    assert popped == reduced == [(1, 2), (0, 1)]
    assert sorted(g.entries for g in gb) == support.reference_completion(
        seed, order)
