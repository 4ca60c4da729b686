"""Graver bases by Lawrence lifting, and the block lift for stacked scenarios.

A's Graver basis (its conformally minimal nonzero kernel vectors) is read off
the toric generating set T of the Lawrence lifting [[A, 0], [I, I]], whose
interleaved columns (x_1, y_1, ..., x_n, y_n) saturate faster. T = +/-Graver:
- each (u, -u), u Graver, is indispensable (Sturmfels, "Groebner Bases and
  Convex Polytopes", AMS 1996, Thm 7.1), so it is in T up to sign;
- T is the last round's reduced basis, one coordinate flipped back, signs
  normalised: no lead divides a lead or a tail, so no element is a conformal
  minorant of another (flips and negation keep conformality), while any
  element outside +/-Graver has a Graver conformal minorant, which is in T.
Each saturation round's working basis is bounded by `groebner.ELEMENT_CAP`.

For two-stage matrices with injective first stage, the N-scenario stack's
basis is the one-scenario basis copied into each block.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import toric
from .groebner import GraverResourceError
from .lattice import IntMatrix, IntVector, VectorSet, kernel_basis


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


def graver_basis(A: IntMatrix) -> GraverBasis:
    """Saturate the Lawrence lifting; keep the x part of each generator.

    A round past `groebner.ELEMENT_CAP` raises GraverResourceError.
    """
    n = A.ncols
    rows = [tuple(x for a in row for x in (a, 0)) for row in A.rows]
    rows += [tuple(int(j // 2 == i) for j in range(2 * n)) for i in range(n)]
    lifting = IntMatrix(rows)
    # Through the module, so that a tracer or test spy wrapping it sees it.
    gens = toric.toric_generating_set(lifting)
    halves = {g.entries[::2] for g in gens}
    closed = halves | {tuple(-x for x in u) for u in halves}
    return GraverBasis(A, VectorSet(IntVector(t) for t in sorted(closed)))


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
