"""Toric generating sets: flips, saturation rounds, fiber connectivity."""

import random

import pytest

from latticeopt import groebner, toric
from latticeopt.groebner import GraverResourceError
from latticeopt.lattice import CostOrder, IntMatrix, IntVector, kernel_basis
from latticeopt.toric import (ToricGenerators, _common_orthant_push, _flip,
                              toric_generating_set)

import support


def test_flip_negates_exactly_the_listed_columns_and_is_self_inverse():
    assert _flip([(1, -2, 3)], {1}) == [IntVector((1, 2, 3))]
    assert _flip([(0, 0)], {0}) == [IntVector((0, 0))]
    assert _flip([(4, -5, 6), (1, 2, 3)], set()) == [IntVector((4, -5, 6)),
                                                     IntVector((1, 2, 3))]
    rng = random.Random(7)
    for _ in range(20):
        rows = [tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(3)]
        cols = {j for j in range(4) if rng.random() < 0.5}
        flipped = _flip(rows, cols)
        for row, out in zip(rows, flipped):
            # only signs move, and exactly in the listed nonzero columns
            assert list(map(abs, out)) == list(map(abs, row))
            assert {j for j in range(4) if out[j] != row[j]} == {
                j for j in cols if row[j]}
        assert [v.entries for v in _flip(flipped, cols)] == rows


def test_flip_is_additive():
    rng = random.Random(8)
    for _ in range(20):
        u = IntVector([rng.randint(-6, 6) for _ in range(4)])
        v = IntVector([rng.randint(-6, 6) for _ in range(4)])
        cols = {j for j in range(4) if rng.random() < 0.5}
        fu, fv, fs = _flip([u, v, u + v], cols)
        assert fs == fu + fv


def test_sum_matrix_generators():
    gens = toric_generating_set(IntMatrix([[1, 1, 1]]))
    assert support.as_tuple_set(gens) == {(0, 1, -1), (1, 0, -1)}


def test_identity_matrix_trivial():
    assert len(toric_generating_set(IntMatrix.identity(2))) == 0


def test_generators_in_kernel_and_sign_normalized():
    rng = random.Random(97)
    for _ in range(12):
        A = support.random_matrix(rng, rng.choice([2, 3]), rng.choice([4, 5]), 0, 4)
        gens = toric_generating_set(A)
        for g in gens:
            assert A.in_kernel(g)
            first = next(x for x in g if x)
            assert first > 0


def test_deterministic():
    A = IntMatrix([[2, 1, 0, 3], [1, 0, 1, 1]])
    assert support.as_tuple_set(toric_generating_set(A)) == \
        support.as_tuple_set(toric_generating_set(A))


def test_twisted_cubic_fiber_needs_saturation():
    # ker has basis {(1,-2,1,0), (0,1,-2,1)} whose moves cannot connect the
    # two-point fiber of b=(3,3); only a saturation round finds the extra
    # generator, so the basis alone would fail this connectivity check.
    A = IntMatrix([[3, 2, 1, 0], [0, 1, 2, 3]])
    gens = [tuple(g) for g in toric_generating_set(A)]
    pts = [(1, 0, 0, 1), (0, 1, 1, 0)]
    diff = tuple(a - b for a, b in zip(pts[0], pts[1]))
    assert diff in gens or tuple(-x for x in diff) in gens
    for c in [(1, 1, 1, 1), (2, 0, 1, 3), (0, 5, 1, 0)]:
        gb = toric.test_set(A, IntVector(c))
        support.check_test_set(A, CostOrder(c), gb, box=6)


def test_element_cap_reaches_the_saturation_rounds(monkeypatch):
    A = IntMatrix([[3, 2, 1, 0], [0, 1, 2, 3]])
    uncapped = support.as_tuple_set(toric_generating_set(A))
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 2)
    with pytest.raises(GraverResourceError):
        toric_generating_set(A)
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 100)
    assert support.as_tuple_set(toric_generating_set(A)) == uncapped


def test_constructor_asserts_kernel_membership():
    from latticeopt.lattice import VectorSet
    with pytest.raises(ValueError):
        ToricGenerators(IntMatrix([[1, 1]]), VectorSet([IntVector((1, 1))]))


def test_saturation_certificate_random_instances():
    # Fifty (b, c) pairs across two matrices: a test set seeded by the
    # generators must land on the brute-force optimum from a brute-force
    # feasible start. This is the operational stand-in for ideal membership.
    from latticeopt.augment import augment, prepare_moves
    from latticeopt.groebner import buchberger
    from latticeopt.oracle import OPTIMAL, IpProblem, solve_bruteforce

    rng = random.Random(1234)
    for shape in [(2, 5), (3, 6)]:
        A = support.random_matrix(rng, shape[0], shape[1], 0, 4)
        gens = toric_generating_set(A)
        for _ in range(25):
            z = [rng.randint(0, 2) for _ in range(shape[1])]
            b = A.mat_vec(z)
            c = IntVector([rng.randint(0, 6) for _ in range(shape[1])])
            bound = max(1, max(b.entries))
            start = solve_bruteforce(
                IpProblem(A, b, IntVector((0,) * shape[1]), bound))
            assert start.status == OPTIMAL
            best = solve_bruteforce(IpProblem(A, b, c, bound))
            gb = buchberger(gens.generators, CostOrder(c), matrix=A)
            res = augment(start.solution, prepare_moves(gb, c), b)
            assert res.value == best.value
            assert res.solution == best.solution


def _reference_orthant_push(vectors):
    """The push as it scored every trial move on every column."""
    vecs = [tuple(v) for v in vectors]
    cols = range(len(vecs[0]) if vecs else 0)
    pos = [sum(v[j] > 0 for v in vecs) for j in cols]
    neg = [sum(v[j] < 0 for v in vecs) for j in cols]

    def mixed_after(old, new):
        return sum(1 for j in cols
                   if pos[j] - (old[j] > 0) + (new[j] > 0)
                   and neg[j] - (old[j] < 0) + (new[j] < 0))

    def first_improving_move(best):
        for i, vi in enumerate(vecs):
            for k, vk in enumerate(vecs):
                if i == k:
                    continue
                for sign in (1, -1):
                    cand = tuple(a + sign * b for a, b in zip(vi, vk))
                    if any(cand):
                        count = mixed_after(vi, cand)
                        if count < best:
                            return i, cand, count
        return None

    best = sum(1 for j in cols if pos[j] and neg[j])
    while best > 0:
        move = first_improving_move(best)
        if move is None:
            break
        i, cand, best = move
        for j in cols:
            pos[j] += (cand[j] > 0) - (vecs[i][j] > 0)
            neg[j] += (cand[j] < 0) - (vecs[i][j] < 0)
        vecs[i] = cand
    return vecs


def test_orthant_push_matches_the_every_column_scoring():
    # scoring a move on v_k's support alone changes no accepted move
    rng = random.Random(31)
    for _ in range(150):
        A = support.random_matrix(rng, rng.randint(1, 4), rng.randint(3, 9),
                                  -2, 4)
        basis = [v.entries for v in kernel_basis(A)]
        assert _common_orthant_push(basis) == _reference_orthant_push(basis)
    # hand-made sets, duplicates and opposite pairs included
    for vectors in ([], [(1, -1)], [(1, -1), (-1, 1)], [(1, -1), (1, -1)],
                    [(2, -1, 0), (0, 1, -1), (-1, 0, 1)]):
        assert _common_orthant_push(vectors) == \
            _reference_orthant_push(vectors)
