"""Completion, normal forms, and the test-set property checked by brute force."""

import hashlib
import heapq
import operator
import random
import types

import pytest

from latticeopt import groebner, opcost, toric
from latticeopt.augment import artificial_system
from latticeopt.groebner import (GraverResourceError, GroebnerBasis,
                                 buchberger, normal_form, orient)
from latticeopt.instances import (SND_FAMILIES, HsConfig, SndConfig, gen_hs,
                                  gen_snd, gen_snd_family)
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
    with pytest.raises(ValueError, match="cannot orient the zero vector"):
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


# sha256 digests of the 24 seeded toric generating sets, and of their
# matrices with the reduced bases completed from them, that
# test_seeded_completions_match_frozen_digest builds. The reduced bases are
# unique, so no change to an algorithm may move their digest; the toric
# sets depend on the saturation's round order (largest coefficient last).
FROZEN_TORIC_SETS_DIGEST = (
    "b6974d9eb9cd1a75aec22b8c7ee31a3bcde9ad0bc8a5505df4395bfc3112de4c")
FROZEN_BASES_DIGEST = (
    "5a0f788f30cadd05286f7b788735c4a177f5d37a96d62a02c470f5ce50a9ec19")


def seeded_completions_digest():
    """(toric sets digest, bases digest): sha256 over 24 seeded toric
    generating sets, and over their matrices and reduced bases."""
    rng = random.Random(20261018)
    sets, bases = hashlib.sha256(), hashlib.sha256()
    for k in range(24):
        nrows, ncols = rng.choice([(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
        lo = -2 if k % 3 == 2 else 0
        A = support.random_matrix(rng, nrows, ncols, lo, 4)
        costs = [tuple(rng.randint(0, 5) for _ in range(ncols))
                 for _ in range(rng.choice([2, 3]))]
        gens = toric_generating_set(A)
        sets.update(repr((A.rows, sorted(g.entries for g in gens))).encode())
        bases.update(repr(A.rows).encode())
        for c in costs:
            order = CostOrder(c)
            gb = buchberger(gens.generators, order, matrix=A)
            for g in gens:
                assert normal_form(g, gb, order).is_zero()
            bases.update(repr((c, sorted(g.entries for g in gb))).encode())
    return sets.hexdigest(), bases.hexdigest()


def test_seeded_completions_match_frozen_digest():
    assert seeded_completions_digest() == (FROZEN_TORIC_SETS_DIGEST,
                                           FROZEN_BASES_DIGEST)


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
    assert seeded_completions_digest() == (FROZEN_TORIC_SETS_DIGEST,
                                           FROZEN_BASES_DIGEST)
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
    # all-ones cost queued 9,028 pairs; ungraded it queues 4,204 and reduces
    # 1,163 S-pairs, 1,007 to zero. The lattice has a positive grading, and
    # selection by degree with the degree criterion at each pop took that
    # to 1,829 and 406 (319 to zero). Deciding the criterion when a pair is
    # formed queues none of the pairs it drops, and the chain criterion
    # then drops more: 1,079 and 332 (245 to zero). The basis is the one
    # perfbench's completion_7x17 workload checks. The work is pinned
    # exactly: the lead index and the settled-pair chain criterion change
    # how divisors are found, not which pairs are reduced. The basis
    # carries the same counts.
    A = support.wide_stairstep_matrix()
    gens = toric_generating_set(A).generators
    order = CostOrder((1,) * A.ncols)
    calls = {False: 0, True: 0}
    real_reduce = groebner._reduce

    def counting(vec, leads, cost, full, *among):
        calls[full] += 1
        return real_reduce(vec, leads, cost, full, *among)

    monkeypatch.setattr(groebner, "_reduce", counting)
    for complete, queued, reduced, zeros in (
            (lambda: groebner._complete(gens, order, A, False),
             4204, 1163, 1007),
            (lambda: buchberger(gens, order, matrix=A), 1079, 332, 245)):
        pushed = _spy_pushes(monkeypatch)
        calls.update({False: 0, True: 0})
        gb = complete()
        assert len(pushed) == queued <= 9028 // 2
        assert calls == {False: reduced, True: 88}  # S-pairs, inter-reduction
        assert (gb.pairs_queued, gb.pair_reductions,
                gb.zero_reductions) == (queued, reduced, zeros)
        assert len(gb) == 88
        text = ";".join(",".join(map(str, g.entries))
                        for g in gb.elements.canonical())
        assert hashlib.sha256(
            text.encode()).hexdigest()[:16] == "63878ca8e3289456"


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
    # The matrix is graded and the trails of 0 and 1 share x2, so only the
    # ungraded completion pops (0, 1); buchberger settles it when formed.
    A = IntMatrix([[0, 2, 1, 2], [2, 4, 1, 0]])
    seed = _vs((2, -1, 0, 1), (1, -1, 2, 0), (1, 0, -2, 1))
    order = CostOrder((3, 3, 5, 4))
    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    gb = groebner._complete(seed, order, A, False)
    basis = working[0]
    assert not basis[0][2] & basis[2][2]
    assert divides(basis[2], map(max, basis[0][1], basis[1][1]))
    assert popped == [(1, 2), (0, 1)] and reduced == [(1, 2)]
    assert sorted(g.entries for g in gb) == support.reference_completion(
        seed, order)
    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    graded = buchberger(seed, order, matrix=A)
    assert popped == reduced == [(1, 2)]
    assert support.as_tuple_set(graded) == support.as_tuple_set(gb)

    # Under (1, 2, 3) element 0 dies at 1 and 1 at 2, so (0, 2) is never
    # formed though its leads overlap. It is not settled: (0, 1) has the
    # divisor 2 and (1, 2) is popped, yet the ungraded completion must
    # reduce (0, 1). [[2, 1, 1]] is graded, and the trails of 0 and 1 share
    # x1, so buchberger settles (0, 1) by the degree criterion when it is
    # formed, and queues and pops only (1, 2).
    seed = _vs((1, 1, -3), (1, 0, -2), (0, 1, -1))
    order = CostOrder((1, 2, 3))
    A = IntMatrix([[2, 1, 1]])
    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    gb = groebner._complete(seed, order, A, False)
    basis = working[0]
    assert basis[0][2] & basis[2][2]
    assert divides(basis[2], map(max, basis[0][1], basis[1][1]))
    assert popped == reduced == [(1, 2), (0, 1)]
    assert sorted(g.entries for g in gb) == support.reference_completion(
        seed, order)

    popped, reduced, working = _spy_reduced_pairs(monkeypatch)
    graded = buchberger(seed, order, matrix=A)
    basis = working[0]
    assert any(a < 0 and b < 0 for a, b in zip(basis[0][0], basis[1][0]))
    assert popped == reduced == [(1, 2)] and graded.pairs_queued == 1
    assert support.as_tuple_set(graded) == support.as_tuple_set(gb)


def _completion_checking_drops(monkeypatch):
    """buchberger, and the remainders of the pairs its degree criterion
    settles when they are formed (None when the remainder is zero).

    A dropped pair (i, j) is one the completion formed (j is added while i
    is alive: no element added between them has a lead dividing i's) whose
    leads meet and whose trails meet; every other formed pair with meeting
    leads must be queued. Its S-vector is reduced against the working basis
    as it stood when the first pair of degree w.lcm(i, j) or more popped
    after j was added, or against the final working basis when none did: the
    moment the truncated basis first covers its degree.
    """
    remainders, working, pops = [], [], []
    lead_index = groebner._LeadIndex

    class Working(lead_index):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            working.append(self)  # the working basis, then inter-reduction

    def pop(heap):
        item = heapq.heappop(heap)
        pops.append((item[0], len(working[0])))
        return item

    def meet(a, b):
        return any(x and y for x, y in zip(a, b))

    def complete(seed, order, A):
        del working[:], pops[:]
        pushed = _spy_pushes(monkeypatch)
        monkeypatch.setattr(groebner.heapq, "heappop", pop)
        basis = buchberger(seed, order, matrix=A)
        cost, records = order.cost.entries, working[0]
        w = groebner._grading([g.entries for g in seed], A)
        died = [next((t for t in range(k + 1, len(records))
                      if all(map(operator.le, records[t][1], records[k][1]))),
                     len(records)) for k in range(len(records))]
        queued, prefixes = set(), {}
        for j, (v, lead_v, _) in enumerate(records):
            for i in range(j):
                u, lead_u, _ = records[i]
                if j > died[i] or not meet(lead_u, lead_v):
                    continue  # never formed, or the product criterion's
                if not meet((x < 0 for x in u), (x < 0 for x in v)):
                    queued.add((i, j))
                    continue
                degree = sum(map(operator.mul, w, map(max, lead_u, lead_v)))
                size = next((n for d, n in pops if n > j and d >= degree),
                            len(records))
                if size not in prefixes:
                    prefixes[size] = lead_index(len(cost), records[:size])
                s = groebner._orient_tuple(tuple(map(operator.sub, u, v)),
                                           cost)
                remainders.append(
                    groebner._reduce(s, prefixes[size], cost, False)[0])
        assert set(pushed) == queued and len(pushed) == len(queued)
        return basis

    monkeypatch.setattr(groebner, "_LeadIndex", Working)
    return complete, remainders


def test_degree_criterion_drops_only_pairs_that_reduce_to_zero(monkeypatch):
    # Every pair the degree criterion settles when it is formed, reduced
    # against the working basis once the completion first pops a pair of
    # its degree or more, reaches zero, and each graded completion is the
    # criterion-free reference's basis.
    complete, remainders = _completion_checking_drops(monkeypatch)
    rng = random.Random(3410)
    graded = 0
    for A, gens, order in support.random_toric_completions(
            rng, 40, [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7)]):
        if groebner._grading([g.entries for g in gens], A) is None:
            continue
        basis = complete(gens, order, A)
        assert sorted(g.entries for g in basis) == \
            support.reference_completion(gens, order)
        graded += 1
    assert graded >= 80 and len(remainders) >= 1000
    assert remainders == [None] * len(remainders)

    del remainders[:]
    A = support.wide_stairstep_matrix()
    gens = toric_generating_set(A).generators
    order = CostOrder((1,) * A.ncols)
    basis = complete(gens, order, A)
    assert sorted(g.entries for g in basis) == \
        support.reference_completion(gens, order)
    assert len(remainders) >= 100 and remainders == [None] * len(remainders)


# (matrix name, toric set digest) under largest coefficient last. 7x17's
# saturated columns' largest entries grow with the column index, so its
# rounds run in ascending order and its set is the one it had before
# completion had a degree criterion.
GRADED_TORIC_SETS = (
    ("7x17", "050f7ab84ccca497"), ("snd", "ee80dd76c85b1e7d"),
    ("snd-4node", "02cd9b653d44ebde"), ("snd-2commodity", "1854db5659f76c0e"),
    ("snd-5node", "ceb12bc45ebe7465"), ("snd-4node-costs-1-9",
                                        "02cd9b653d44ebde"),
    ("snd-4node-costs-4-6", "02cd9b653d44ebde"))


def _vectors_digest(vectors):
    text = ";".join(",".join(map(str, t)) for t in sorted(vectors))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_grading_is_none_where_the_fiber_of_zero_has_a_one_signed_move():
    # A Phase-I extension with both signs' columns for a row has their sum
    # in its kernel. One whose rows each use one sign, like the triangle's
    # W set for its scenarios' h_j, can be graded.
    hs = gen_hs(HsConfig(scenario_count=3, seed=1, scaled=True))
    snd = gen_snd(SndConfig(3, 1, max_demand=2))
    h = snd.scenarios[0].rhs
    both_signs = artificial_system(snd.recourse, [h, -h]).moves.matrix
    for A in (hs.recourse, opcost._stacked_system(hs)[0], both_signs):
        gens = [g.entries for g in toric_generating_set(A)]
        assert any(min(g) >= 0 or max(g) <= 0 for g in gens)
        assert groebner._grading(gens, A) is None
    one_sign = artificial_system(
        snd.recourse, [sc.rhs for sc in snd.scenarios]).moves.matrix
    for A in (snd.recourse, one_sign):
        gens = [g.entries for g in toric_generating_set(A)]
        assert min(groebner._grading(gens, A)) > 0


def test_grading_is_positive_and_leaves_the_toric_sets_unchanged():
    stacked = {"7x17": support.wide_stairstep_matrix()}
    for name in SND_FAMILIES:
        stacked[name] = opcost._stacked_system(gen_snd_family(name, 3))[0]
    sets = {}
    for name, digest in GRADED_TORIC_SETS:
        A = stacked[name]
        if A not in sets:
            sets[A] = [g.entries for g in toric_generating_set(A)]
        gens = sets[A]
        assert _vectors_digest(gens) == digest, name
        w = groebner._grading(gens, A)
        assert len(w) == A.ncols and min(w) > 0, name
        assert all(sum(map(operator.mul, w, g)) == 0 for g in gens), name
