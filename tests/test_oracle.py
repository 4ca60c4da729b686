"""Oracle tests: the oracle itself is verified by raw itertools enumeration."""

import itertools
import random

import pytest

from latticeopt import oracle
from latticeopt.lattice import IntMatrix, IntVector
from latticeopt.oracle import (
    INFEASIBLE_IN_BOX,
    OPTIMAL,
    IpOutcome,
    IpProblem,
    OracleResourceError,
    enumerate_graver_in_box,
    lex_max_point,
    solve_bruteforce,
)


def _raw_best(A, b, c, bounds):
    """Reference fold over the full product box, no pruning at all."""
    best = None
    for point in itertools.product(*(range(u + 1) for u in bounds)):
        if A.mat_vec(IntVector(point)) == b:
            key = (sum(ci * zi for ci, zi in zip(c, point)), point)
            if best is None or key < best:
                best = key
    return best


def test_solve_simplex_line():
    p = IpProblem(IntMatrix([[1, 1, 1]]), IntVector([3]), IntVector([1, 2, 3]), 3)
    out = solve_bruteforce(p)
    assert out.status == OPTIMAL
    assert out.solution == IntVector([3, 0, 0])
    assert out.value == 3
    # derived independently from all 64 lattice points
    ref = _raw_best(p.A, p.b, p.c, (3, 3, 3))
    assert (out.value, out.solution.entries) == ref


def test_solve_zero_rhs():
    p = IpProblem(IntMatrix([[1, 1, 1]]), IntVector([0]), IntVector([5, 1, 9]), 4)
    out = solve_bruteforce(p)
    assert out == IpOutcome(OPTIMAL, IntVector([0, 0, 0]), 0)


def test_solve_parity_infeasible():
    p = IpProblem(IntMatrix([[2]]), IntVector([3]), IntVector([1]), 5)
    out = solve_bruteforce(p)
    assert out.status == INFEASIBLE_IN_BOX
    assert out.solution is None and out.value is None


def test_tie_break_is_lexicographic():
    p = IpProblem(IntMatrix([[1, 1]]), IntVector([2]), IntVector([1, 1]), 2)
    assert solve_bruteforce(p).solution == IntVector([0, 2])


def test_per_variable_bounds():
    p = IpProblem(IntMatrix([[1, 1]]), IntVector([5]), IntVector([1, 3]), (2, 5))
    out = solve_bruteforce(p)
    # unrestricted optimum (5,0) is cut off by the bound 2 on z_1
    assert out.solution == IntVector([2, 3])
    with pytest.raises(ValueError):
        IpProblem(IntMatrix([[1, 1]]), IntVector([5]), IntVector([1, 3]),
                  (2, 5, 7)).bounds()


def test_node_cap_raises(monkeypatch):
    p = IpProblem(IntMatrix([[1, 1, 1, 1]]), IntVector([8]),
                  IntVector([1, 1, 1, 1]), 8)
    monkeypatch.setattr(oracle, "NODE_CAP", 5)
    with pytest.raises(OracleResourceError, match="node cap 5 exceeded"):
        solve_bruteforce(p)
    with pytest.raises(OracleResourceError):
        enumerate_graver_in_box(IntMatrix([[1, 1]]), 3)


def test_solve_matches_raw_enumeration_random():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(2, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        z = [rng.randint(0, 4) for _ in range(n)]
        b = A.mat_vec(IntVector(z))  # guarantees feasibility
        c = IntVector(rng.randint(0, 6) for _ in range(n))
        p = IpProblem(A, b, c, 6)
        out = solve_bruteforce(p)
        ref = _raw_best(A, b, c.entries, (6,) * n)
        assert out.status == OPTIMAL
        assert (out.value, out.solution.entries) == ref


def test_solve_permutation_invariance():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(2, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]])
        z = [rng.randint(0, 3) for _ in range(n)]
        b = A.mat_vec(IntVector(z))
        c = [rng.randint(0, 5) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        base = solve_bruteforce(IpProblem(A, b, IntVector(c), 5))
        permuted = solve_bruteforce(IpProblem(
            IntMatrix([[row[p] for p in perm] for row in A.rows]),
            b, IntVector(c[p] for p in perm), 5))
        assert base.status == permuted.status
        if base.status == OPTIMAL:
            assert base.value == permuted.value


def test_lex_max_point_matches_raw_enumeration_random():
    # negative entries, zero bounds, and boxes that hold no point of A z = b
    rng = random.Random(17)
    empty = 0
    for _ in range(200):
        m = rng.randint(1, 2)
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        highs = tuple(rng.randint(0, 3) for _ in range(n))
        if rng.random() < 0.5:
            b = A.mat_vec(IntVector(rng.randint(0, u) for u in highs))
        else:
            b = IntVector(rng.randint(-6, 6) for _ in range(m))
        points = [p for p in itertools.product(*(range(u + 1) for u in highs))
                  if A.mat_vec(IntVector(p)) == b]
        got = lex_max_point(A, b, highs)
        if not points:
            empty += 1
            assert got is None
        else:
            assert got == IntVector(max(points))
    assert empty > 0


def test_lex_max_point_node_cap_raises(monkeypatch):
    # parity makes every branch fail, which the row intervals cannot see
    A, b = IntMatrix([[2, 2, 2, 2]]), IntVector([7])
    assert lex_max_point(A, b, (8,) * 4) is None
    monkeypatch.setattr(oracle, "NODE_CAP", 5)
    with pytest.raises(OracleResourceError, match="node cap 5 exceeded"):
        lex_max_point(A, b, (8,) * 4)


def _raw_graver(A, bound):
    n = A.ncols
    points = [p for p in itertools.product(range(-bound, bound + 1), repeat=n)
              if any(p) and A.mat_vec(IntVector(p)).is_zero()]
    out = set()
    for v in points:
        dominated = any(
            u != v and all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(u, v))
            for u in points)
        if not dominated:
            out.add(v)
    return out


def test_graver_box_primitive_direction():
    got = enumerate_graver_in_box(IntMatrix([[1, 1]]), 3)
    assert {v.entries for v in got} == {(1, -1), (-1, 1)}


def test_graver_box_weighted_row():
    got = enumerate_graver_in_box(IntMatrix([[1, 2]]), 4)
    assert {v.entries for v in got} == {(2, -1), (-2, 1)}
    assert {v.entries for v in got} == _raw_graver(IntMatrix([[1, 2]]), 4)


def test_graver_box_trivial_kernel():
    assert len(enumerate_graver_in_box(IntMatrix.identity(2), 3)) == 0


def test_graver_box_random_matches_raw():
    rng = random.Random(5)
    for _ in range(15):
        m = rng.randint(1, 2)
        n = rng.randint(2, 4)
        A = IntMatrix([[rng.randint(-2, 3) for _ in range(n)] for _ in range(m)])
        got = {v.entries for v in enumerate_graver_in_box(A, 3)}
        assert got == _raw_graver(A, 3)
