"""Brute-force integer-program oracle.

Ground truth for the algebraic machinery: plain depth-first enumeration over
a box, prunable only by constraint-row interval arithmetic. Deliberately
shares no algorithmic code with the completion/augmentation modules so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .lattice import IntMatrix, IntVector, VectorSet

OPTIMAL = "optimal"
INFEASIBLE_IN_BOX = "infeasible_in_box"

NODE_CAP = 10 ** 8  # most box nodes one search may visit


class OracleResourceError(RuntimeError):
    """Raised when a search would visit more than NODE_CAP nodes."""


@dataclass(frozen=True)
class IpProblem:
    """min c.z subject to A.z = b, 0 <= z <= var_bound componentwise.

    var_bound is a single cap applied to every variable or a per-variable
    sequence. The box must contain the true optimum for the answer to be
    meaningful; instance generators are responsible for valid bounds.
    """

    A: IntMatrix
    b: IntVector
    c: IntVector
    var_bound: Union[int, Sequence[int]]

    def __post_init__(self):
        if self.A.nrows != len(self.b):
            raise ValueError("rhs dimension does not match row count")
        if self.A.ncols != len(self.c):
            raise ValueError("cost dimension does not match column count")

    def bounds(self) -> tuple:
        n = self.A.ncols
        if isinstance(self.var_bound, int):
            bounds = (self.var_bound,) * n
        else:
            bounds = tuple(self.var_bound)
            if len(bounds) != n:
                raise ValueError("per-variable bound count does not match columns")
        if any(u < 0 for u in bounds):
            raise ValueError("variable bounds must be non-negative")
        return bounds


class IpOutcome(NamedTuple):
    status: str
    solution: Optional[IntVector]
    value: Optional[int]


def _suffix_intervals(rows, lows, highs):
    """lo[r][j], hi[r][j]: range of sum(a_rk * z_k, k >= j) over the box."""
    m, n = len(rows), len(lows)
    lo = [[0] * (n + 1) for _ in range(m)]
    hi = [[0] * (n + 1) for _ in range(m)]
    for r in range(m):
        row, lor, hir = rows[r], lo[r], hi[r]
        for j in range(n - 1, -1, -1):
            a = row[j]
            x, y = a * lows[j], a * highs[j]
            if x > y:
                x, y = y, x
            lor[j] = lor[j + 1] + x
            hir[j] = hir[j + 1] + y
    return lo, hi


def _value_range(j, rows, b, s, lo, hi, vlo, vhi):
    """Intersect [vlo, vhi] with the values of z_j every row can still absorb."""
    for r in range(len(rows)):
        a = rows[r][j]
        low = b[r] - s[r] - hi[r][j + 1]
        upp = b[r] - s[r] - lo[r][j + 1]
        if a == 0:
            if low > 0 or upp < 0:
                return 1, 0
        elif a > 0:
            vlo = max(vlo, -((-low) // a))
            vhi = min(vhi, upp // a)
        else:
            vlo = max(vlo, -((-upp) // a))
            vhi = min(vhi, low // a)
        if vlo > vhi:
            return 1, 0
    return vlo, vhi


def _walk(rows, b, lows, highs, leaf):
    """Depth-first over the box lows <= z <= highs, each variable's values
    in increasing order; leaf(z) at each A z = b, and the walk stops at the
    first leaf that returns True.

    z is one list, reused for every point: a leaf copies what it keeps.
    """
    lo, hi = _suffix_intervals(rows, lows, highs)
    n = len(highs)
    z = [0] * n
    s = [0] * len(rows)
    nodes = 0

    def walk(j: int) -> bool:
        nonlocal nodes
        if j == n:
            return leaf(z)
        vlo, vhi = _value_range(j, rows, b, s, lo, hi, lows[j], highs[j])
        if vlo > vhi:
            return False
        arj = [row[j] for row in rows]
        for r, a in enumerate(arj):
            s[r] += a * vlo
        val = vlo
        while val <= vhi:
            nodes += 1
            if nodes > NODE_CAP:
                raise OracleResourceError(
                    "node cap %d exceeded: the box is too large" % NODE_CAP)
            z[j] = val
            if walk(j + 1):
                return True
            val += 1
            for r, a in enumerate(arj):
                s[r] += a
        for r, a in enumerate(arj):
            s[r] -= a * (vhi + 1)
        z[j] = 0
        return False

    walk(0)


def lex_max_point(A: IntMatrix, b: IntVector,
                  highs: Sequence[int]) -> Optional[IntVector]:
    """The lexicographically largest z with A z = b and 0 <= z <= highs,
    or None when the box holds no such z.

    Reflected through z = highs - z', it is the lexicographically smallest
    z' in the same box with -A z' = b - A highs: the first point `_walk`
    reaches. Visiting more than NODE_CAP nodes raises OracleResourceError.
    """
    highs = tuple(highs)
    found = []

    def first(z):
        found.append(IntVector(u - v for u, v in zip(highs, z)))
        return True

    _walk([tuple(-a for a in row) for row in A.rows],
          (b - A.mat_vec(highs)).entries, (0,) * len(highs), highs, first)
    return found[0] if found else None


def solve_bruteforce(problem: IpProblem) -> IpOutcome:
    """Exhaustive search for the >_c-smallest cost minimizer in the box.

    Ties in c.z are broken toward the lexicographically smallest solution, so
    the outcome is the unique optimum of the refined order, matching what the
    augmentation methods converge to.
    """
    c = tuple(problem.c.entries)
    highs = problem.bounds()
    best_val: Optional[int] = None
    best_sol: Optional[tuple] = None

    def keep_best(z):
        nonlocal best_val, best_sol
        val = sum(ci * zi for ci, zi in zip(c, z))
        if best_val is None or val < best_val or \
                (val == best_val and tuple(z) < best_sol):
            best_val = val
            best_sol = tuple(z)

    _walk([tuple(r) for r in problem.A.rows], tuple(problem.b.entries),
          (0,) * len(highs), highs, keep_best)
    if best_sol is None:
        return IpOutcome(INFEASIBLE_IN_BOX, None, None)
    return IpOutcome(OPTIMAL, IntVector(best_sol), best_val)


def enumerate_graver_in_box(A: IntMatrix, bound: int) -> VectorSet:
    """Conformally minimal nonzero kernel vectors with every |v_i| <= bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = A.ncols
    sols: list = []
    _walk([tuple(r) for r in A.rows], (0,) * A.nrows, (-bound,) * n,
          (bound,) * n, lambda z: sols.append(tuple(z)))
    sols = [v for v in sols if any(v)]
    sols.sort(key=lambda t: (sum(abs(x) for x in t), t))
    kept: list = []
    for v in sols:
        # a conforming strict minorant has strictly smaller L1 norm, so it
        # was already kept; scanning kept is enough
        if not any(all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(u, v))
                   for u in kept):
            kept.append(v)
    return VectorSet(IntVector(v) for v in kept)
