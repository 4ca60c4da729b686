"""Graver bases by sum completion, and the block lift for stacked scenarios.

The Graver basis of a matrix is the set of conformally minimal nonzero
kernel vectors. Completion seeds with a kernel lattice basis and its
negations, then keeps adding irreducible pairwise sums; a final sieve keeps
the conformally minimal survivors. For two-stage matrices with injective
first stage, the basis of the N-scenario stack is just the one-scenario
basis copied into each block, which this module exploits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .lattice import IntMatrix, IntVector, VectorSet, kernel_basis


class GraverResourceError(RuntimeError):
    """Raised when completion exceeds the configured element cap."""


class GraverBasis:
    """Conformally minimal kernel vectors, closed under negation."""

    __slots__ = ("matrix", "elements")

    def __init__(self, matrix: IntMatrix, elements: VectorSet):
        self.matrix = matrix
        self.elements = elements
        for g in elements:
            if g.is_zero() or not matrix.in_kernel(g) or -g not in elements:
                raise ValueError("not a negation-closed set of nonzero "
                                 "kernel vectors: %r" % (g,))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "GraverBasis(%d elements, %d cols)" % (len(self), self.matrix.ncols)


def _rec(vec):
    """(vector, positive-support mask, negative-support mask, magnitudes)."""
    pmask = nmask = 0
    for i, x in enumerate(vec):
        if x > 0:
            pmask |= 1 << i
        elif x < 0:
            nmask |= 1 << i
    return (vec, pmask, nmask, tuple(abs(x) for x in vec))


def _conforms_rec(h, s):
    """h conforms to s: same closed orthant and componentwise no larger."""
    return (not (h[1] & ~s[1]) and not (h[2] & ~s[2])
            and all(a <= b for a, b in zip(h[3], s[3])))


def _conformal_nf(vec, records):
    """Subtract conforming elements until none apply; None when zero."""
    while True:
        s = _rec(vec)
        for h in records:
            if h[0] != vec and _conforms_rec(h, s):
                vec = tuple(a - b for a, b in zip(vec, h[0]))
                break
        else:
            return vec
        if not any(vec):
            return None


def graver_basis(A: IntMatrix, element_cap: Optional[int] = None) -> GraverBasis:
    """Complete the kernel lattice to its conformally minimal elements.

    Pairs whose members share a closed orthant are skipped: their sum
    conformally reduces to zero through the pair itself. The optional cap
    bounds the working set and raises GraverResourceError when exceeded.
    """
    seeds = []
    for v in kernel_basis(A):
        seeds.append(tuple(v))
        seeds.append(tuple(-x for x in v))

    records = []
    index = set()
    queue = deque()

    def add(vec):
        rec = _rec(vec)
        for other in records:
            queue.append((other, rec))
        records.append(rec)
        index.add(vec)
        if element_cap is not None and len(records) > element_cap:
            raise GraverResourceError(
                "completion exceeded %d elements" % element_cap)

    for t in seeds:
        t = _conformal_nf(t, records)
        if t is not None and t not in index:
            add(t)

    while queue:
        f, g = queue.popleft()
        if not (f[1] & g[2]) and not (f[2] & g[1]):
            continue
        s = tuple(a + b for a, b in zip(f[0], g[0]))
        if not any(s):
            continue
        s = _conformal_nf(s, records)
        if s is not None and s not in index:
            add(s)

    survivors = []
    for rec in records:
        if not any(other is not rec and _conforms_rec(other, rec)
                   for other in records):
            survivors.append(rec[0])
    closed = set(survivors)
    closed.update(tuple(-x for x in s) for s in survivors)
    elements = VectorSet(IntVector(t) for t in sorted(closed))
    return GraverBasis(A, elements)


def contains_groebner(G, gamma: GraverBasis) -> bool:
    """True iff every basis element of G lies in gamma up to sign."""
    if G.matrix is not None and G.matrix != gamma.matrix:
        raise ValueError("bases belong to different matrices")
    return all(g in gamma.elements or -g in gamma.elements for g in G)


@dataclass(frozen=True)
class SipBlockStructure:
    """Block data (A, T, W, N) of a two-stage stacked constraint matrix."""

    first_stage: IntMatrix
    technology: IntMatrix
    recourse: IntMatrix
    scenarios: int

    def __post_init__(self):
        if self.technology.ncols != self.first_stage.ncols:
            raise ValueError("technology block must match first-stage columns")
        if self.technology.nrows != self.recourse.nrows:
            raise ValueError("technology and recourse need equal row counts")
        if self.scenarios < 1:
            raise ValueError("scenario count must be positive")

    def stacked(self) -> IntMatrix:
        """[[A 0 ... 0], [T W 0 ... 0], [T 0 W ... 0], ...]."""
        nw = self.recourse.ncols
        N = self.scenarios
        rows = []
        for row in self.first_stage.rows:
            rows.append(tuple(row) + (0,) * (N * nw))
        for i in range(N):
            for trow, wrow in zip(self.technology.rows, self.recourse.rows):
                rows.append(tuple(trow) + (0,) * (i * nw) + tuple(wrow)
                            + (0,) * ((N - 1 - i) * nw))
        return IntMatrix(rows)


def lift_sip_graver(gamma1: GraverBasis,
                    structure: SipBlockStructure) -> GraverBasis:
    """Copy the one-scenario basis into each block of the N-scenario stack.

    Requires the first stage to have trivial rational kernel; then every
    element of the one-scenario basis has zero first-stage part and the
    copies are exactly the stacked matrix's Graver basis.
    """
    if len(kernel_basis(structure.first_stage)) != 0:
        raise ValueError("first-stage matrix has a nontrivial kernel")
    one = SipBlockStructure(structure.first_stage, structure.technology,
                            structure.recourse, 1)
    if gamma1.matrix != one.stacked():
        raise ValueError("basis does not belong to the one-scenario stack")

    na = structure.first_stage.ncols
    nw = structure.recourse.ncols
    N = structure.scenarios
    lifted = []
    for g in gamma1:
        head = g.entries[:na]
        if any(head):
            raise ValueError("element with nonzero first-stage part: %r"
                             % (g,))
        v = g.entries[na:]
        for i in range(N):
            lifted.append((0,) * na + (0,) * (i * nw) + v
                          + (0,) * ((N - 1 - i) * nw))
    elements = VectorSet(IntVector(t) for t in sorted(set(lifted)))
    return GraverBasis(structure.stacked(), elements)
