"""Vector/order/kernel substrate tests.

Kernel bases are checked against an independently written integer
row-echelon membership routine, not against the package's own reduction.
"""

import itertools
import random

import pytest

from latticeopt import HsConfig, gen_hs, toric
from latticeopt.graver import (SipBlockStructure, graver_basis,
                               lift_sip_graver)
from latticeopt.groebner import orient
from latticeopt.lattice import (
    CostOrder,
    IntMatrix,
    IntVector,
    KernelVectorSet,
    VectorSet,
    kernel_basis,
)


def _xgcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _xgcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _echelon(vectors):
    rows = [list(v) for v in vectors]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    i = 0
    for col in range(n):
        if i >= len(rows):
            break
        nz = [r for r in range(i, len(rows)) if rows[r][col] != 0]
        if not nz:
            continue
        rows[i], rows[nz[0]] = rows[nz[0]], rows[i]
        for r in range(i + 1, len(rows)):
            if rows[r][col] == 0:
                continue
            a, b = rows[i][col], rows[r][col]
            g, x, y = _xgcd(a, b)
            ri, rr = rows[i], rows[r]
            rows[i] = [x * p + y * q for p, q in zip(ri, rr)]
            rows[r] = [(a // g) * q - (b // g) * p for p, q in zip(ri, rr)]
        pivots.append((i, col))
        i += 1
    return rows, pivots


def _in_lattice(basis_vectors, v):
    """Is v an integer combination of the basis vectors?"""
    v = list(v)
    if not basis_vectors:
        return not any(v)
    rows, pivots = _echelon(basis_vectors)
    for i, col in pivots:
        p = rows[i][col]
        if v[col] % p:
            return False
        t = v[col] // p
        v = [a - t * b for a, b in zip(v, rows[i])]
    return not any(v)


def _rank(matrix):
    _, pivots = _echelon(matrix.rows)
    return len(pivots)


# ----- the cost order, as groebner.orient applies it -----

def _compare(order, u, v):
    """-1, 0, or +1 as u is below, equal to, or above v in the order: u is
    above v when `orient` leaves u - v as it is."""
    if u == v:
        return 0
    d = u - v
    return 1 if orient(d, order) is d else -1


def test_compare_cost_dominates():
    order = CostOrder(IntVector([1, 2, 3]))
    assert _compare(order, IntVector([1, 0, 0]), IntVector([0, 1, 0])) == -1


def test_compare_lex_tiebreak():
    order = CostOrder(IntVector([1, 1, 1]))
    # dot products tie at 2; difference (1,-2,1) has positive leftmost entry
    assert _compare(order, IntVector([1, 0, 1]), IntVector([0, 2, 0])) == 1


def test_compare_equal_and_errors():
    order = CostOrder(IntVector([2, 5]))
    u = IntVector([3, 4])
    assert _compare(order, u, u) == 0
    with pytest.raises(ValueError):
        orient(u - u, order)


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        CostOrder(IntVector([1, -1]))


def test_compare_total_order_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        order = CostOrder(IntVector(rng.randint(0, 6) for _ in range(n)))
        u, v, w = (IntVector(rng.randint(0, 9) for _ in range(n)) for _ in range(3))
        cuv, cvu = _compare(order, u, v), _compare(order, v, u)
        assert cuv == -cvu
        assert (cuv == 0) == (u == v)
        if _compare(order, u, v) <= 0 and _compare(order, v, w) <= 0:
            assert _compare(order, u, w) <= 0


def test_compare_translation_invariance():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        order = CostOrder(IntVector(rng.randint(0, 6) for _ in range(n)))
        u = IntVector(rng.randint(0, 9) for _ in range(n))
        v = IntVector(rng.randint(0, 9) for _ in range(n))
        w = IntVector(rng.randint(0, 9) for _ in range(n))
        assert _compare(order, u, v) == _compare(order, u + w, v + w)


# ----- kernel_basis -----

def _check_kernel(matrix, box=6):
    basis = [list(v) for v in kernel_basis(matrix).canonical()]
    n = matrix.ncols
    for v in basis:
        assert matrix.mat_vec(IntVector(v)).is_zero()
    assert len(basis) == n - _rank(matrix)
    # every small kernel vector must be an integer combination of the basis
    for point in itertools.product(range(-box, box + 1), repeat=n):
        if matrix.mat_vec(IntVector(point)).is_zero():
            assert _in_lattice(basis, point), point
    return basis


def test_kernel_basis_sum_matrix():
    basis = _check_kernel(IntMatrix([[1, 1, 1]]))
    assert len(basis) == 2


def test_kernel_basis_trivial():
    assert len(kernel_basis(IntMatrix.identity(2))) == 0


def test_kernel_basis_one_row():
    basis = _check_kernel(IntMatrix([[1, 2]]), box=8)
    assert basis in ([[2, -1]], [[-2, 1]])


def test_kernel_basis_random():
    rng = random.Random(2024)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(2, 6)
        matrix = IntMatrix([[rng.randint(-5, 5) for _ in range(n)]
                            for _ in range(m)])
        basis = [list(v) for v in kernel_basis(matrix)]
        for v in basis:
            assert matrix.mat_vec(IntVector(v)).is_zero()
        assert len(basis) == n - _rank(matrix)
        if n <= 4:
            for point in itertools.product(range(-6, 7), repeat=n):
                if matrix.mat_vec(IntVector(point)).is_zero():
                    assert _in_lattice(basis, point)


# ----- plumbing -----

def test_vector_arithmetic():
    a = IntVector([1, -2, 3])
    b = IntVector([4, 5, -6])
    assert a + b == IntVector([5, 3, -3])
    assert a - b == IntVector([-3, -7, 9])
    assert -a == IntVector([-1, 2, -3])
    assert a.dot(b) == 1 * 4 - 2 * 5 - 3 * 6


def _random_entry(rng):
    return rng.choice((rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))


def test_arithmetic_matches_the_per_entry_reference():
    # the operator-mapped arithmetic against its entry-by-entry definition,
    # over mixed signs and entries past 2**64; half the matrices have a last
    # column that cancels the rest, so the all-ones vector is in their kernel
    rng = random.Random(2022)
    for case in range(200):
        n, m = rng.randint(1, 7), rng.randint(1, 4)
        a = [_random_entry(rng) for _ in range(n)]
        b = [_random_entry(rng) for _ in range(n)]
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        if case % 2:
            rows = [r[:-1] + [-sum(r[:-1])] for r in rows]
        va, vb, M = IntVector(a), IntVector(b), IntMatrix(rows)
        assert (va + vb).entries == tuple(a[i] + b[i] for i in range(n))
        assert (va - vb).entries == tuple(a[i] - b[i] for i in range(n))
        assert (-va).entries == tuple(-a[i] for i in range(n))
        assert va.dot(vb) == sum(a[i] * b[i] for i in range(n))
        for v in (a, [1] * n):
            product = tuple(sum(r[i] * v[i] for i in range(n)) for r in rows)
            for form in (IntVector, tuple, list):
                assert M.mat_vec(form(v)) == IntVector(product)
                assert M.in_kernel(form(v)) == (not any(product))
        assert M.in_kernel([1] * n) == bool(case % 2)


def test_vectors_of_different_lengths_do_not_combine():
    a, b = IntVector((1, 2)), IntVector((5,))
    m = IntMatrix([[1, 2], [3, 4]])
    for combine in (lambda: a + b, lambda: a - b, lambda: a.dot(b),
                    lambda: b + a, lambda: b - a, lambda: b.dot(a),
                    lambda: m.mat_vec(b), lambda: m.mat_vec((1, 2, 3)),
                    lambda: m.in_kernel(b), lambda: m.in_kernel([0, 0, 0])):
        with pytest.raises(ValueError):
            combine()
    with pytest.raises(ValueError):
        CostOrder((1, 2, 3)).dot(IntVector((1, 1)))


def test_vector_set_dedup_and_canonical():
    s = VectorSet([IntVector([1, 0]), IntVector([0, 1]), IntVector([1, 0])])
    assert len(s) == 2
    assert [list(v) for v in s.canonical()] == [[0, 1], [1, 0]]
    assert IntVector([0, 1]) in s
    assert IntVector([2, 2]) not in s


def test_kernel_vector_set_dedups_sorts_and_checks():
    A = IntMatrix([[1, 1, 1]])
    s = KernelVectorSet(A, [(0, 1, -1), IntVector((1, -1, 0)), (0, 1, -1)])
    assert [g.entries for g in s] == [(0, 1, -1), (1, -1, 0)]
    assert len(s) == 2 and s.matrix == A
    assert repr(s) == "KernelVectorSet(2 elements, 3 cols)"
    with pytest.raises(ValueError, match="element not in the kernel"):
        KernelVectorSet(A, [(1, -1, 0), (1, 1, 0)])


def test_every_basis_iterates_in_canonical_order():
    W = gen_hs(HsConfig(scenario_count=1, seed=0)).recourse
    one = SipBlockStructure(IntMatrix.identity(2), IntMatrix([[1, 0]]),
                            IntMatrix([[1, 1, 1]]), 1)
    three = SipBlockStructure(one.first_stage, one.technology,
                              one.recourse, 3)
    results = {
        "toric": toric.toric_generating_set(W),
        "groebner": toric.test_set(W, IntVector((16, 19, 47, 54, 0, 0, 0, 0))),
        "graver": graver_basis(W),
        "lifted": lift_sip_graver(graver_basis(one.stacked()), three),
    }
    for name, basis in results.items():
        entries = [g.entries for g in basis]
        assert isinstance(basis, KernelVectorSet), name
        assert len(entries) > 1, name
        assert all(a < b for a, b in zip(entries, entries[1:])), name
        assert entries == [g.entries for g in basis.elements.canonical()]


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.column(1) == (2, 4)
    assert m.mat_vec(IntVector([1, 1])) == IntVector([3, 7])
    with pytest.raises(ValueError):
        m.mat_vec(IntVector([1, 1, 1]))


def test_unit_cost_order_is_an_elimination_order():
    # Toric saturation's round j orders by the cost e_j with ties in
    # variable order, and relies on that being the elimination order that
    # reads entry j first: vectors that tie on e_j share their j-th entry.
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, v = (IntVector([rng.randint(-2, 2) for _ in range(n)])
                for _ in range(2))
        for j in range(n):
            order = CostOrder([1 if i == j else 0 for i in range(n)])

            def key(w):
                return (w[j], w.entries[:j] + w.entries[j + 1:])

            expected = (key(u) > key(v)) - (key(u) < key(v))
            assert _compare(order, u, v) == expected
            assert _compare(order, u, u) == 0
