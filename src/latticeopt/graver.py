"""Graver bases by project-and-lift, and the block lift for stacked scenarios.

A's Graver basis (its conformally minimal nonzero kernel vectors) is built
on the kernel lattice L itself (Hemmecke, "On the positive sum property and
the computation of Graver test sets", Math. Program. 96, 2003). L projects
injectively onto the r = rank L pivot columns of a basis, so a vector is
known by those coordinates and lifts uniquely. Vectors are kept full length
with those columns first, and permuted back at the end.

A set G closed under negation has the positive-sum property on coordinates
< k when every v in L is a sum of elements g of G conformal to v (g ⊑ v)
there; its ⊑-minimal elements on < k are then the Graver basis of L
projected onto < k. One completion, `_complete(G, lo, hi)`, takes G with
the property on < lo to G with it on < hi. +/- a basis has it on < 0 (every
v is a non-negative integer sum of it), so (0, r) is the base step, and
(k, k + 1) lifts one coordinate at a time. Each sum f + g of two elements
is reduced by conformal minorants on < hi, and a nonzero remainder joins
G. Only pairs that agree in sign on < lo and differ in sign somewhere in
[lo, hi) are summed: in v = sum a_i g_i with each g_i ⊑ v on < lo, any two
g_i agree in sign there, and replacing two of opposite sign in [lo, hi) by
the reduction of their sum strictly lowers sum a_i |g_i|_[lo, hi)
(Hemmecke's argument). The conformal tests read `groebner`'s lead index
over the doubled coordinates (v+, v-): g ⊑ v exactly when (g+, g-) <=
(v+, v-) entrywise. Each completion's working set is bounded by
`groebner.ELEMENT_CAP` pairs +/-g.

For two-stage matrices with injective first stage, the N-scenario stack's
basis is the one-scenario basis copied into each block.

`GraverBasis` is a `lattice.KernelVectorSet`, which checks each element
against the matrix's kernel and keeps the elements in canonical (sorted)
order; it adds only that the set is nonzero and closed under negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count, islice
from operator import add, neg, or_, sub

from . import groebner
from .groebner import GraverResourceError, _divisors, _LeadIndex
from .lattice import IntMatrix, IntVector, KernelVectorSet, kernel_basis


class GraverBasis(KernelVectorSet):
    """Conformally minimal kernel vectors, closed under negation."""

    __slots__ = ()
    _refusal = "not a negation-closed set of nonzero kernel vectors: %r"

    def _admits(self, g: IntVector) -> bool:
        return not g.is_zero() and -g in self.elements


def _lift_order(rows, ncols):
    """Every column, the pivot columns of a row echelon form of the
    independent rows first: their lattice projects injectively onto those.
    Fraction-free (Bareiss) elimination divides exactly by the last pivot."""
    rows, cols, prev = [list(r) for r in rows], [], 1
    for j in range(ncols):
        k = next((i for i, row in enumerate(rows) if row[j]), None)
        if k is not None:
            pivot = rows.pop(k)
            rows = [[(pivot[j] * x - row[j] * y) // prev
                     for x, y in zip(row, pivot)] for row in rows]
            cols.append(j)
            prev = pivot[j]
    return cols + [j for j in range(ncols) if j not in cols]


def _complete(G, lo, hi):
    """G (a list g0, -g0, g1, -g1, ...) with the positive-sum property on
    coordinates < lo, completed to it on < hi, and cut to its ⊑-minimal
    elements there. Each representative pairs with every earlier element of
    either sign, so each sum is formed once up to negation."""
    def record(g):
        return g, (tuple(x if x > 0 else 0 for x in g[:hi])
                   + tuple(-x if x < 0 else 0 for x in g[:hi]))

    def opposed(lead, a, b):
        """Elements whose sign opposes the lead's somewhere in [a, b)."""
        uses, sel = index.uses, lead[hi + a:hi + b] + lead[a:b]
        return reduce(or_, compress(uses[a:b] + uses[hi + a:hi + b], sel), 0)

    index = _LeadIndex(2 * hi, map(record, G))
    # Representatives sit at even places; the list grows as it is read.
    for rep, (f, lead) in zip(count(0, 2), islice(index, 0, None, 2)):
        pairs = (opposed(lead, lo, hi) & ~opposed(lead, 0, lo)
                 & ((1 << rep) - 1))
        while pairs:
            j = (pairs & -pairs).bit_length() - 1
            pairs ^= 1 << j
            s, part = record(tuple(map(add, f, index[j][0])))
            while (k := next(_divisors(part, index), None)) is not None:
                s, part = record(tuple(map(sub, s, index[k][0])))
            if any(part):
                if len(index) >= 2 * groebner.ELEMENT_CAP:
                    raise GraverResourceError("Graver completion exceeded "
                                              "%d pairs" % groebner.ELEMENT_CAP)
                index.append((s, part))
                index.append(record(tuple(map(neg, s))))
    return [g for i, (g, lead) in enumerate(index)
            if next(_divisors(lead, index, ~(1 << i)), None) is None]


def graver_basis(A: IntMatrix) -> GraverBasis:
    """Complete +/- a kernel basis by project-and-lift (Hemmecke, Math.
    Program. 96, 2003; the module docstring gives the pair filter and why
    it is enough): the base step on the pivot columns, then one more
    column at a time.

    A working set past `groebner.ELEMENT_CAP` pairs raises
    GraverResourceError.
    """
    # Through the module global, so that a tracer wrapping it sees it.
    basis = [g.entries for g in kernel_basis(A)]
    cols, r = _lift_order(basis, A.ncols), len(basis)
    G = [tuple(map(v.__getitem__, cols))
         for g in basis for v in (g, tuple(map(neg, g)))]
    for lo, hi in [(0, r)] + [(k, k + 1) for k in range(r, A.ncols)]:
        G = _complete(G, lo, hi)
    back = sorted(range(A.ncols), key=cols.__getitem__)
    return GraverBasis(A, (tuple(map(g.__getitem__, back)) for g in G))


def contains_groebner(G, gamma: GraverBasis) -> bool:
    """True iff every basis element of G lies in gamma up to sign."""
    if G.matrix != gamma.matrix:
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
    return GraverBasis(structure.stacked(), lifted)
