"""Generating sets of toric ideals by variable saturation.

A kernel lattice basis generates the right lattice but usually not the full
ideal of fiber moves. This module closes the gap: nudge the basis toward a
common sign pattern, flip the offending coordinates, then saturate one
coordinate at a time with a Buchberger round under an elimination order,
undoing each flip as its round completes. The rounds run largest
coefficient last: columns with the smallest max |A_ij| first, ties broken
by the later column first. Any order is sound: every order saturates the
same ideal I : (prod_j x_j)^inf, the toric ideal (Sturmfels, "Groebner
Bases and Convex Polytopes", Lemma 12.2), and the reduced basis completed
from any generating set of it is unique, so only the generating set itself
depends on the order. On the stacked network design matrices that puts the
capacity columns last and keeps every round's basis small. A test set for
a cost is that set completed under the cost. `ToricGenerators` is a
`lattice.KernelVectorSet`, which checks each generator against the
matrix's kernel and keeps them in canonical (sorted) order; its `work`
counts the saturation's rounds and largest round, outside equality and
repr.
"""

from __future__ import annotations

from typing import Iterable

from .groebner import GroebnerBasis, _complete, buchberger, orient
from .lattice import (CostOrder, IntMatrix, IntVector, KernelVectorSet,
                      kernel_basis)


class ToricGenerators(KernelVectorSet):
    """Kernel vectors whose moves connect every fiber of the matrix.

    The `work` of a saturated set is {"toric_rounds": its saturation
    rounds, "toric_round_elements": the largest reduced basis a round
    completed}.
    """

    __slots__ = ()
    _refusal = "generator not in the kernel: %r"

    # the elements slot under the name callers and perfbench/workloads.py read
    generators = KernelVectorSet.elements


def _flip(rows, cols):
    """Each row with its entries in the columns cols negated, as an
    IntVector: a self-inverse additive map, for vectors and matrix rows."""
    return [IntVector(-x if j in cols else x for j, x in enumerate(row))
            for row in rows]


def _common_orthant_push(vectors):
    """Greedy elementary ops v_i <- v_i +/- v_k lowering the mixed-column count.

    A column is mixed when the set has both a positive and a negative entry
    in it. Per-column counts of positive and negative entries let each trial
    move be scored on v_k's support alone, the only columns it changes; they
    change only when a move is accepted. Each accepted move is unimodular,
    so the lattice spanned is unchanged. The count is bounded below, so the
    loop terminates.
    """
    vecs = [tuple(v) for v in vectors]
    cols = range(len(vecs[0]) if vecs else 0)
    pos = [sum(v[j] > 0 for v in vecs) for j in cols]
    neg = [sum(v[j] < 0 for v in vecs) for j in cols]

    def first_improving_move(best):
        mixed = [bool(pos[j] and neg[j]) for j in cols]
        steps = [((v, tuple(-b for b in v)), [j for j in cols if v[j]])
                 for v in vecs]

        def count_after(old, step, support):
            count = best
            for j in support:
                a, b = old[j], old[j] + step[j]
                count += bool(pos[j] - (a > 0) + (b > 0)
                              and neg[j] - (a < 0) + (b < 0)) - mixed[j]
            return count

        for i, vi in enumerate(vecs):
            for k, (signed, support) in enumerate(steps):
                if i == k:
                    continue
                for step in signed:
                    count = count_after(vi, step, support)
                    if count < best:
                        cand = tuple(a + b for a, b in zip(vi, step))
                        if any(cand):
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


def toric_generating_set(A: IntMatrix) -> ToricGenerators:
    """Generating set of the full move ideal of {z >= 0 : Az = b} fibers.

    Steps: kernel basis; greedy push toward a common sign pattern; J = every
    coordinate still carrying a negative entry; flip all of J; for each j in
    J, largest coefficient last (`_round_order`), run Buchberger under the
    cost e_j and flip j back. `_flip` does every flip: of the basis, of
    the rows of each round's matrix (A with the columns still pending
    negated) and of each round's generators. With
    ties read in variable order, e_j is an elimination order for j, since
    vectors that tie on it share entry j. Each round saturates one
    coordinate, and the flips cancel exactly, so the result lives in ker(A)
    again. Any round order saturates the same ideal (module docstring).
    The result's `work` counts its rounds and the largest reduced basis
    one completed. A round whose working basis outgrows
    `groebner.ELEMENT_CAP` raises GraverResourceError.
    """
    basis = _common_orthant_push([tuple(v) for v in kernel_basis(A)])

    n = A.ncols
    J = _round_order(A, (j for j in range(n) if any(v[j] < 0 for v in basis)))
    pending = set(J)
    generators = _flip(basis, pending)
    largest = 0

    for j in J:
        gb = _complete(generators,
                       CostOrder(tuple(1 if i == j else 0 for i in range(n))),
                       IntMatrix(_flip(A.rows, pending)), False)
        largest = max(largest, len(gb))
        pending.discard(j)
        generators = _flip(gb, {j})

    zero_cost = CostOrder((0,) * n)  # orients by the first nonzero entry
    return ToricGenerators(A, (orient(g, zero_cost) for g in generators),
                           dict(toric_rounds=len(J),
                                toric_round_elements=largest))


def _round_order(A: IntMatrix, columns) -> list:
    """The columns in saturation order, largest coefficient last: by
    max_i |A_ij| ascending, ties by the later column first."""
    return sorted(columns, key=lambda j: (
        max((abs(row[j]) for row in A.rows), default=0), -j))


def test_set(A: IntMatrix, c: "IntVector | Iterable[int]") -> GroebnerBasis:
    """Reduced basis whose oriented elements form a test set for IP(c, .)."""
    return buchberger(toric_generating_set(A).generators, CostOrder(c),
                      matrix=A)
