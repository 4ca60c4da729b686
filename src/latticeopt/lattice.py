"""Exact integer vectors, cost orders, and integer kernel lattice bases.

Everything downstream (completion procedures, augmentation, the oracle)
works on these types. `KernelVectorSet` is the one container of a
matrix's kernel vectors: it runs the kernel check and keeps the canonical
(sorted) order for the toric, Groebner and Graver results. Vector and
matrix arithmetic maps `operator`'s add, sub and mul over entry tuples
behind explicit length checks that raise ValueError. All of it is exact
arbitrary-precision Python ints; there is deliberately no floating-point
or rational mode.
"""

from __future__ import annotations

from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Sequence


class IntVector:
    """Immutable dense vector of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def _paired(self, other: "IntVector") -> tuple:
        if len(self.entries) != len(other.entries):
            raise ValueError("vectors of different lengths do not combine")
        return self.entries, other.entries

    def __add__(self, other: "IntVector") -> "IntVector":
        return IntVector(map(add, *self._paired(other)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        return IntVector(map(sub, *self._paired(other)))

    def __neg__(self) -> "IntVector":
        return IntVector(map(neg, self.entries))

    def dot(self, other: "IntVector") -> int:
        return sum(map(mul, *self._paired(other)))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntVector({list(self.entries)!r})"


def as_vector(v: "IntVector | Sequence[int]") -> IntVector:
    return v if isinstance(v, IntVector) else IntVector(v)


def as_entries(v: "IntVector | Iterable[int]") -> tuple:
    """v's entries as a tuple: an IntVector's own, a tuple itself."""
    return v.entries if isinstance(v, IntVector) else tuple(v)


class CostOrder:
    """Total order on non-negative vectors: compare c.x first, ties lexicographic.

    Ties are read in variable order; `groebner.orient` applies the order
    to a difference u - v. Elimination orders need no other: vectors
    that tie on the cost e_j share entry j. `tie_order` stays only because
    `perfbench/tracing.py`'s `_buchberger_key` reads it; ROADMAP item 20
    removes it. Negative cost entries are rejected: with c >= 0 the order
    is a well-founded monomial order, which the completion procedures rely
    on for termination.
    """

    __slots__ = ("cost",)

    def __init__(self, cost: "IntVector | Sequence[int]"):
        self.cost = as_vector(cost)
        if any(e < 0 for e in self.cost.entries):
            raise ValueError("cost entries must be non-negative")

    @property
    def tie_order(self) -> tuple:
        return tuple(range(len(self.cost)))

    @property
    def dim(self) -> int:
        return len(self.cost)

    def dot(self, v: IntVector) -> int:
        return self.cost.dot(v)

    def __repr__(self) -> str:
        return f"CostOrder({list(self.cost.entries)!r})"


class IntMatrix:
    """Immutable rectangular grid of arbitrary-precision integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def _row_dots(self, v: "IntVector | Sequence[int]") -> list:
        ve = as_entries(v)
        if len(ve) != self.ncols:
            raise ValueError("dimension mismatch: %d cols vs %d entries"
                             % (self.ncols, len(ve)))
        return [sum(map(mul, row, ve)) for row in self.rows]

    def mat_vec(self, v: "IntVector | Sequence[int]") -> IntVector:
        return IntVector(self._row_dots(v))

    def in_kernel(self, v: "IntVector | Sequence[int]") -> bool:
        return not any(self._row_dots(v))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


class VectorSet:
    """Deduplicated, insertion-ordered collection of IntVectors.

    Iteration follows insertion order (deterministic); canonical() gives a
    sorted listing for order-independent comparisons and exports.
    """

    __slots__ = ("_vecs",)

    def __init__(self, vectors: Iterable[IntVector] = ()):
        self._vecs: dict = {}
        for v in vectors:
            self.add(v)

    def add(self, v: IntVector) -> bool:
        if v.entries in self._vecs:
            return False
        self._vecs[v.entries] = v
        return True

    def __contains__(self, v: IntVector) -> bool:
        return v.entries in self._vecs

    def __iter__(self) -> Iterator[IntVector]:
        return iter(self._vecs.values())

    def __len__(self) -> int:
        return len(self._vecs)

    def canonical(self) -> list:
        return [self._vecs[k] for k in sorted(self._vecs)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorSet) and self._vecs.keys() == other._vecs.keys()

    def __repr__(self) -> str:
        return f"VectorSet({[list(v.entries) for v in self.canonical()]!r})"


class KernelVectorSet:
    """A matrix and kernel vectors of it, deduplicated in canonical order.

    The one owner of a basis's matrix, its elements (a VectorSet in sorted
    order, so iteration is canonical) and the check on each element: it
    must lie in the matrix's kernel and pass the subclass's `_admits`, or
    ValueError quotes `_refusal`. The toric, Groebner and Graver results
    subclass it; their builders hand it plain vectors or entry tuples.
    `work` maps `opcost.BuildCounters` slot names to the counts of the
    work that built the set, outside equality and repr; it is empty for a
    set written down.
    """

    __slots__ = ("matrix", "elements", "work")
    _refusal = "element not in the kernel: %r"

    def __init__(self, matrix: IntMatrix, vectors: Iterable,
                 work: "dict | None" = None):
        self.matrix = matrix
        self.work = {} if work is None else work
        self.elements = VectorSet(
            map(IntVector, sorted(set(map(as_entries, vectors)))))
        for g in self.elements:
            if not (matrix.in_kernel(g) and self._admits(g)):
                raise ValueError(self._refusal % (g,))

    def _admits(self, g: IntVector) -> bool:
        return True

    def __iter__(self) -> Iterator[IntVector]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "%s(%d elements, %d cols)" % (
            type(self).__name__, len(self), self.matrix.ncols)


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g, g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _size_reduce(vectors: list) -> list:
    """Shrink basis vector magnitudes by integer pairwise reduction.

    Every replacement v_i <- v_i - t*v_k is unimodular, so the spanned
    lattice is unchanged. Accepting only strict norm decreases guarantees
    termination; the scan order is fixed, so the result is deterministic.
    """
    vecs = [list(v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            for k in range(len(vecs)):
                if i == k:
                    continue
                vi, vk = vecs[i], vecs[k]
                num = sum(a * b for a, b in zip(vi, vk))
                den = sum(b * b for b in vk)
                t = (2 * num + den) // (2 * den)
                if t == 0:
                    continue
                cand = [a - t * b for a, b in zip(vi, vk)]
                if sum(a * a for a in cand) < sum(a * a for a in vi):
                    vecs[i] = cand
                    changed = True
    return vecs


def kernel_basis(matrix: IntMatrix) -> VectorSet:
    """Lattice basis of the full integer kernel {v : A.v = 0}.

    Column-style Hermite reduction: unimodular column operations bring A to
    echelon form while the same operations accumulate on an identity block;
    transform columns under zeroed echelon columns span ker(A) over Z exactly
    (the transform is unimodular, so the basis is not finite-index short).
    """
    m, n = matrix.nrows, matrix.ncols
    work = [list(col) for col in zip(*matrix.rows)]
    trans = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    lead = 0
    for r in range(m):
        pivots = [j for j in range(lead, n) if work[j][r] != 0]
        if not pivots:
            continue
        p = pivots[0]
        for j in pivots[1:]:
            a, b = work[p][r], work[j][r]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            for cols in (work, trans):
                cp, cj = cols[p], cols[j]
                cols[p] = [x * u + y * v for u, v in zip(cp, cj)]
                # det [[x, -bg], [y, ag]] = (a*x + b*y)/g = 1: unimodular
                cols[j] = [ag * v - bg * u for u, v in zip(cp, cj)]
        work[lead], work[p] = work[p], work[lead]
        trans[lead], trans[p] = trans[p], trans[lead]
        lead += 1
    if any(any(work[j]) for j in range(lead, n)):
        raise ValueError("column reduction left a nonzero non-pivot column")
    kernel = [trans[j] for j in range(lead, n)]
    return VectorSet(IntVector(v) for v in _size_reduce(kernel))
