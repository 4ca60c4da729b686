"""Augmentation walks over test sets, and Phase-I feasibility.

A walk repeatedly takes the first applicable improving move in a fixed scan
order and subtracts the largest multiple of it that stays non-negative,
until no move applies. Each full-multiple step is a run of unit steps along
one move, so the fixed point is the same: over a valid test set it is the
optimum of the cost order's lexicographic refinement; over a
negation-closed Graver basis the improving halves of the pairs play the
same role.

Phase-I follows the extended-matrix method of Conti and Traverso
("Buchberger algorithm and integer programming", AAECC-9, LNCS 539, 1991)
over a narrow extension: one artificial column per (row, sign) that the
right-hand sides to be served use, rather than [A | I | -I]. One test set
of it serves every such b, each walk starting at (0, |b| on the matching
columns).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .groebner import GroebnerBasis, test_set
from .lattice import CostOrder, IntMatrix, IntVector, as_vector


class AugmentResult(NamedTuple):
    solution: IntVector
    value: int
    steps: int


class PreparedMoves(NamedTuple):
    """A move set's improving moves in scan order, for one cost vector.

    `cost` holds the entries the moves were filtered and sorted for, and
    each move is (entries, positive part as (index, entry) pairs).
    """

    cost: tuple
    moves: tuple


def prepare_moves(T, c: "IntVector | Iterable[int]") -> PreparedMoves:
    """Moves with positive cost, or zero cost and lexicographically downhill.

    Applying such a t to any point strictly decreases (c.z, tie-broken z);
    every other element can never be taken, so it is dropped up front. The
    scan order is fixed: best cost improvement first, then entry order.
    Walks that share a move set and a cost can share the result.
    """
    order = CostOrder(c)
    keyed = []
    for t in T:
        entries = t.entries if isinstance(t, IntVector) else tuple(t)
        if not any(entries):
            continue
        cdot = order.dot(IntVector(entries))
        if cdot < 0:
            continue
        if cdot == 0:
            lead = next(entries[i] for i in order.tie_order if entries[i])
            if lead < 0:
                continue
        pos = tuple((i, x) for i, x in enumerate(entries) if x > 0)
        keyed.append((-cdot, entries, pos))
    keyed.sort()
    return PreparedMoves(order.cost.entries,
                         tuple((entries, pos) for _, entries, pos in keyed))


def augment(z0: "IntVector | Iterable[int]", c: "IntVector | Iterable[int]",
            T, A: IntMatrix, b: "IntVector | Iterable[int]") -> AugmentResult:
    """Walk downhill from a feasible point; returns the fixed point reached.

    T is a move set, or its `prepare_moves` result for c. Each step applies
    the largest feasible multiple of the first applicable move. A start or
    end off {z >= 0 in ints : A z = b} raises ValueError.
    """
    z0, c, b = as_vector(z0), as_vector(c), as_vector(b)
    if len(z0) != A.ncols or len(c) != A.ncols:
        raise ValueError("dimension mismatch with matrix columns")
    if not isinstance(T, PreparedMoves):
        T = prepare_moves(T, c)
    elif T.cost != c.entries:
        raise ValueError("moves were prepared for another cost vector")
    if (not all(isinstance(e, int) and e >= 0 for e in z0.entries)
            or A.mat_vec(z0) != b):
        raise ValueError("invalid point: start must be in ints, >= 0, A z = b")

    z = list(z0.entries)
    steps = 0
    progress = True
    while progress:
        progress = False
        for entries, pos in T.moves:
            if all(z[i] >= x for i, x in pos):
                if not pos:
                    raise ValueError("improving move %r has no positive "
                                     "entry: the walk would not end"
                                     % (entries,))
                k = min(z[i] // x for i, x in pos)
                z = [zi - k * x for zi, x in zip(z, entries)]
                steps += 1
                progress = True
                break
    solution = IntVector(z)
    if A.mat_vec(solution) != b or any(e < 0 for e in solution.entries):
        raise ValueError("walk left the fiber: a move is not in the kernel")
    return AugmentResult(solution, c.dot(solution), steps)


class ArtificialSystem(NamedTuple):
    """A's Phase-I extension [A | S] and the cost that charges S.

    Each column of S is s e_i for one (row i, sign s) in `columns`, in
    column order: every positive sign in row order, then every negative one.
    """

    matrix: IntMatrix
    cost: IntVector
    columns: tuple

    def start(self, b: IntVector) -> IntVector:
        """(0, |b| on the matching columns): the Phase-I walk's start for b."""
        art = tuple(max(s * b.entries[i], 0) for i, s in self.columns)
        if sum(art) != sum(abs(x) for x in b.entries):
            raise ValueError("right-hand side %r has a sign the extension "
                             "has no artificial column for" % (b.entries,))
        return IntVector((0,) * (self.matrix.ncols - len(art)) + art)


def artificial_system(A: IntMatrix, rhss) -> ArtificialSystem:
    """A plus one artificial column per (row, sign) some b in rhss uses.

    Rows whose b is always 0 get no column. One test set of the extension
    drives Phase-I for every right-hand side with those signs; when the
    right-hand sides use both signs in every row it is [A | I | -I].
    """
    m = A.nrows
    pos, neg = [False] * m, [False] * m
    for b in rhss:
        for i, x in enumerate(as_vector(b).entries):
            if x > 0:
                pos[i] = True
            elif x < 0:
                neg[i] = True
    columns = (tuple((i, 1) for i in range(m) if pos[i])
               + tuple((i, -1) for i in range(m) if neg[i]))
    rows = [tuple(row) + tuple(s if k == i else 0 for k, s in columns)
            for i, row in enumerate(A.rows)]
    cost = IntVector((0,) * A.ncols + (1,) * len(columns))
    return ArtificialSystem(IntMatrix(rows), cost, columns)


def phase_one_feasible(A: IntMatrix, b: "IntVector | Iterable[int]",
                       system: Optional[ArtificialSystem] = None,
                       moves: "Optional[GroebnerBasis | PreparedMoves]" = None,
                       steps: Optional[list] = None) -> Optional[IntVector]:
    """A feasible point of {z >= 0 : Az = b}, or None when there is none.

    Minimizes the artificial total by augmentation on `system`, an
    `artificial_system` of A whose right-hand sides use every sign b uses
    (by default b alone). `moves` may carry the system's precomputed test
    set, or that set prepared for its cost, so callers solving many b
    against one extension complete it once. When `steps` is a list, the
    walk's step count is appended to it.
    """
    b = as_vector(b)
    if len(b) != A.nrows:
        raise ValueError("right-hand side length must match row count")
    if system is None:
        if moves is not None:
            raise ValueError("precomputed moves need the system they serve")
        system = artificial_system(A, (b,))
    ext, n = system.matrix, A.ncols
    if (ext.nrows != A.nrows
            or any(r[:n] != a for r, a in zip(ext.rows, A.rows))):
        raise ValueError("artificial system does not extend the matrix")
    if moves is None:
        moves = test_set(ext, system.cost)
    res = augment(system.start(b), system.cost, moves, ext, b)
    if steps is not None:
        steps.append(res.steps)
    if res.value != 0:
        return None
    return IntVector(res.solution.entries[:n])
