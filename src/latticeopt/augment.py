"""Augmentation walks over test sets, and Phase-I feasibility.

A walk is the normal form of its start: one `groebner._reduce` call, the
loop that completion uses, over moves that are the completion's own
records (vector, lead, lead mask) in its lead index. Each step takes the
first move whose lead fits under z in a fixed scan order, at its largest
multiple, until none fits. Over a valid test set the end is the optimum of
the cost order's lexicographic refinement; over a negation-closed Graver
basis the improving halves of the pairs play the same role. A walk takes
its moves, the cost it minimises and the matrix whose kernel the moves were
checked in together, as one `PreparedMoves`, and checks only its start.

Phase-I follows the extended-matrix method of Conti and Traverso
("Buchberger algorithm and integer programming", AAECC-9, LNCS 539, 1991)
over a narrow extension: one artificial column per (row, sign) that the
right-hand sides to be served use, rather than [A | I | -I]. The
`ArtificialSystem` holds those columns and the extension's test set for an
elimination order refined by a cost c on A's columns, prepared as moves
that carry the extension as their matrix, its only copy. It serves every
such b: each walk starts at (0, |b| on the matching columns) and ends at
A's refined optimum for c, or at a positive artificial total.

The extension's toric ideal needs no saturation when its columns match
A's signs: (i, sign A_ij) is a column for every nonzero A_ij. Then each
column j of A gives v_j = (e_j, -|A_ij| on column (i, sign A_ij)), each
row with both columns gives u_i = e_(i,+) + e_(i,-), and these vectors are
a lattice basis of ker [A | S]: subtracting x_j v_j from a kernel vector
(x, t) leaves (0, t') with S t' = 0, a sum of u_i. Their ideal J is prime,
since k[y, t]/J is k[t] modulo t_(i,+) t_(i,-) - 1 for the rows with both
columns, a domain in which no variable is zero; so J is its own
saturation, which is the toric ideal (Sturmfels, "Groebner Bases and
Convex Polytopes", Lemma 12.2). Conti and Traverso write it down the same
way for [A | I], A >= 0. Extensions whose columns do not match are
saturated.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import Iterable, NamedTuple, Optional

from . import groebner, toric
from .groebner import _LeadIndex, _record, _reduce, orient
from .lattice import (CostOrder, IntMatrix, IntVector, KernelVectorSet,
                      as_entries, as_vector)


class AugmentResult(NamedTuple):
    solution: IntVector
    value: int
    steps: int


class PreparedMoves(NamedTuple):
    """A move set's improving moves in scan order, for one cost vector.

    `cost` is the vector a walk over the moves minimises. `moves` is a
    `groebner._LeadIndex` of `groebner._record`s, (vector, lead, support
    mask of the lead): each step's divisor search reads its per-variable
    bitsets instead of scanning every move. `matrix` is the matrix whose
    kernel the moves were checked against when their set was built; a walk
    tests its start against it.
    """

    cost: IntVector
    moves: list
    matrix: IntMatrix


def prepare_moves(basis: KernelVectorSet,
                  c: "IntVector | Iterable[int]") -> PreparedMoves:
    """The moves t of a checked basis that `orient` leaves as they are, in
    scan order, with the basis's matrix.

    Those are the t with c.t > 0, or with c.t = 0 and a positive first
    nonzero entry. Applying such a t to any point strictly
    decreases (c.z, tie-broken z); every other element can never be taken,
    so it is dropped up front. The scan order is fixed: best cost
    improvement first, then entry order. The lead index is built here, once
    per cost, and every walk over the result reuses it: walks that share a
    move set and a cost can share the result. The basis must be a
    `KernelVectorSet`, whose elements were checked against its matrix when
    it was built, so every move lies in that kernel; any other iterable
    raises TypeError.
    """
    if not isinstance(basis, KernelVectorSet):
        raise TypeError("prepare_moves takes a KernelVectorSet, whose "
                        "elements are checked against its matrix")
    order = CostOrder(c)
    keyed = []
    for t in basis:
        if t.is_zero():
            continue
        cdot = order.dot(t)  # raises on a length mismatch
        if orient(t, order) is t:
            keyed.append((-cdot, t.entries))
    keyed.sort()
    return PreparedMoves(order.cost, _LeadIndex(
        order.dim, (_record(entries) for _, entries in keyed)), basis.matrix)


def augment(z0: "IntVector | Iterable[int]", moves: PreparedMoves,
            b: "IntVector | Iterable[int]") -> AugmentResult:
    """Walk downhill from a feasible point; returns the fixed point reached.

    The walk minimises `moves.cost` over `moves`, a `prepare_moves` result:
    it is the lead reduction of z0 against the moves (a z that cancels to
    zero is the zero point). It runs on entry tuples from entry to exit and
    wraps only the returned solution. The start is checked: one off
    {z >= 0 in ints : A z = b}, A = `moves.matrix`, raises ValueError. The
    end needs no check: a step applies a move only where its lead fits
    under z, so z stays >= 0, and every move is a kernel vector of A, so
    A z = b holds throughout.
    """
    if not isinstance(moves, PreparedMoves):
        raise TypeError("augment walks prepared moves: pass the move set "
                        "through prepare_moves(T, c)")
    z0, b, c = as_entries(z0), as_entries(b), moves.cost.entries
    if len(z0) != len(c):
        raise ValueError("dimension mismatch with matrix columns")
    if (not all(map(isinstance, z0, repeat(int)))
            or min(z0, default=0) < 0
            or moves.matrix.mat_vec(z0).entries != b):
        raise ValueError("invalid point: start must be in ints, >= 0, A z = b")

    z, steps = _reduce(z0, moves.moves, c, False)
    z = (0,) * len(c) if z is None else z
    return AugmentResult(IntVector(z), sum(map(mul, c, z)), steps)


class ArtificialSystem(NamedTuple):
    """A's Phase-I extension [A | S] and its prepared test set.

    Each column of S is s e_i for one (row i, sign s) in `columns`, in
    column order: every positive sign in row order, then every negative one.
    The moves are prepared for `moves.cost`, c on A's columns and K on S's,
    and `moves.matrix` is the extension they were checked against.
    """

    columns: tuple
    moves: PreparedMoves


def _columns(A: IntMatrix, rhss) -> tuple:
    """The (row, sign) of every nonzero entry of some b in rhss, positive
    signs in row order first, then negative ones. A b whose length is not
    A's row count raises ValueError."""
    m = A.nrows
    pos, neg = [False] * m, [False] * m
    for b in rhss:
        b = as_vector(b)
        if len(b) != m:
            raise ValueError("right-hand side %r does not have the matrix's "
                             "%d rows" % (b.entries, m))
        for i, x in enumerate(b.entries):
            if x > 0:
                pos[i] = True
            elif x < 0:
                neg[i] = True
    return (tuple((i, 1) for i in range(m) if pos[i])
            + tuple((i, -1) for i in range(m) if neg[i]))


def _extension(A: IntMatrix, columns) -> IntMatrix:
    """[A | S]: S's column for (row i, sign s) is s e_i."""
    return IntMatrix([tuple(row) + tuple(s if k == i else 0
                                         for k, s in columns)
                      for i, row in enumerate(A.rows)])


def _written_generators(A: IntMatrix, columns, ext: IntMatrix):
    """The toric generating set of ext = [A | S] written down, or None when
    some nonzero A_ij has no column (i, sign A_ij).

    Column j of A gives v_j: 1 at j and -|A_ij| on column (i, sign A_ij)
    for each nonzero A_ij; a row with both signs gives u_i, 1 on each of
    its two columns. `toric.ToricGenerators` checks each against ext's
    kernel.
    """
    at = {col: A.ncols + k for k, col in enumerate(columns)}
    vectors = []
    for j, col in enumerate(zip(*A.rows)):
        v = [0] * ext.ncols
        v[j] = 1
        for i, a in enumerate(col):
            if a:
                k = at.get((i, 1 if a > 0 else -1))
                if k is None:
                    return None
                v[k] = -abs(a)
        vectors.append(v)
    for i, s in columns:
        if s > 0 and (i, -1) in at:
            v = [0] * ext.ncols
            v[at[i, 1]] = v[at[i, -1]] = 1
            vectors.append(v)
    return toric.ToricGenerators(ext, vectors)


def serves(system: ArtificialSystem, A: IntMatrix, rhss) -> bool:
    """Whether `system` can find Phase-I points for A and every b in rhss:
    it extends A, and has an artificial column for every (row, sign) those
    right-hand sides use."""
    return (system.moves.matrix == _extension(A, system.columns)
            and set(_columns(A, rhss)) <= set(system.columns))


def artificial_system(A: IntMatrix, rhss, c=None) -> ArtificialSystem:
    """A plus one artificial column per (row, sign) some b in rhss uses.

    Rows whose b is always 0 get no column. The extension's test set is
    completed here under K*(artificial columns) + c, c a cost on A's
    columns (0 when None); K starts at 1000 and doubles while an element
    has a negative artificial total. The first completion is seeded with
    the extension's toric set, and each doubling re-completes from the
    basis that failed, which generates the same ideal. When every nonzero
    A_ij has the column (i, sign A_ij) that toric set is written down, the
    v_j and u_i of the module docstring, whose ideal is prime and so needs
    no saturation; otherwise the extension is saturated once. Either way
    the reduced basis is the same, since it is unique. The saturation and
    each completion go through the attributes of the `toric` and
    `groebner` modules, so a wrapper set there sees them. Once the check
    passes, the cost orients every element as the elimination order
    (artificial total, then c, then variable order) does, so the basis is
    also that order's reduced basis:
    two nested initial ideals of one ideal are equal (Sturmfels, "Groebner
    Bases and Convex Polytopes", Ch. 1-2). When the right-hand sides use
    both signs in every row the extension is [A | I | -I]. A b whose length
    is not A's row count raises ValueError.
    """
    columns = _columns(A, rhss)
    ext = _extension(A, columns)
    c = (0,) * A.ncols if c is None else as_entries(c)
    seed = _written_generators(A, columns, ext)
    if seed is None:
        seed = toric.toric_generating_set(ext)
    K, basis = 1000, seed.generators
    while True:
        cost = IntVector(c + (K,) * len(columns))
        basis = groebner.buchberger(basis, CostOrder(cost), matrix=ext)
        if all(sum(g.entries[A.ncols:]) >= 0 for g in basis):
            return ArtificialSystem(columns, prepare_moves(basis, cost))
        K *= 2


def phase_one_feasible(system: ArtificialSystem,
                       b: "IntVector | Iterable[int]",
                       steps: Optional[list] = None) -> Optional[IntVector]:
    """A's refined optimum for the system's c on {z >= 0 : Az = b}, or None
    when that set is empty.

    A is the matrix `system` extends, an `artificial_system` whose
    right-hand sides use every sign b uses; one that uses another sign
    raises ValueError. The walk starts at (0, |b| on the matching
    artificial columns) over the system's test set and minimises the
    artificial total first; b is feasible exactly when it reaches 0. When
    `steps` is a list, the walk's step count is appended to it.
    """
    b = as_vector(b)
    ext = system.moves.matrix
    if len(b) != ext.nrows:
        raise ValueError("right-hand side length must match row count")
    art = tuple(max(s * b.entries[i], 0) for i, s in system.columns)
    if sum(art) != sum(map(abs, b.entries)):
        raise ValueError("right-hand side %r has a sign the extension "
                         "has no artificial column for" % (b.entries,))
    n = ext.ncols - len(art)
    res = augment((0,) * n + art, system.moves, b)
    if steps is not None:
        steps.append(res.steps)
    if any(res.solution.entries[n:]):
        return None
    return IntVector(res.solution.entries[:n])
