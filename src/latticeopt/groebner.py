"""Buchberger completion in kernel-vector form.

Basis elements are integer kernel vectors oriented so the positive part is
the leading side under the cost order; S-vectors are plain differences and
reduction is componentwise subtraction. Common monomial factors disappear
implicitly in vector arithmetic, which is sound for the saturated ideals
this package feeds in (the toric module's saturation rounds exist exactly
to make that so).

Completion skips the S-pairs that three rules prove useless (Buchberger's
product and chain criteria, and the pruning half of the Gebauer-Moeller
update; J. Symb. Comput. 6, 1988). Hemmecke-Malkin (J. Symb. Comput. 44,
2009) show the criteria carry over to this vector form. In it a pair
(i, j) is settled once the two points lcm - v_i and lcm - v_j, where lcm
is the componentwise max of the leads, are joined by a path of basis moves
whose points all lie below lcm in the order:
- product: disjoint leads settle the pair outright, since from either
  point the other element's move applies and both paths meet at
  trail_i + trail_j;
- chain: if the lead of a third element k divides the lcm and the pairs
  (i, k) and (j, k) are settled, their paths, shifted up by a non-negative
  vector, stay below lcm and join both points through lcm - v_k;
- death: once a new element t has a lead dividing an earlier k's, k dies
  at t and forms no pair with any later h. Lead(t) divides lcm(k, h), so
  (k, h) is the chain through t: (k, t) is formed, and (t, h) is formed or
  skipped by this same rule, ending at a formed pair. A dead k stays a
  reducer, and its queued pairs stay queued.
The chain criterion may count a pair as settled only if it was formed:
pair (a, b), a < b, was formed exactly when a died at or after b, so it
checks that before "no longer pending". Skipping only drops work and the
reduced basis is unique, so the result is the same as without the rules.

One loop, `_reduce`, serves completion, inter-reduction, `normal_form` and
every augmentation walk. It and the chain criterion ask one question, whose
lead divides this exponent vector, and `_divisors` is the one scan that
answers it. A queued pair's key is its lcm, which the chain criterion
reads back instead of recomputing it, and inter-reduction takes one pass
(`_interreduce` says why). Ties are read in variable order throughout.
"""

from __future__ import annotations

import heapq
from itertools import compress
from operator import add, floordiv, le, mul, neg, sub
from typing import Iterable, Optional

from .lattice import CostOrder, IntMatrix, IntVector, VectorSet

ELEMENT_CAP = 2_000  # most elements a working basis may hold


class GraverResourceError(RuntimeError):
    """Raised when a completion's working basis grows past ELEMENT_CAP."""


class GroebnerBasis:
    """Reduced basis for one matrix/order pair; elements are oriented vectors."""

    __slots__ = ("matrix", "order", "elements")

    def __init__(self, matrix: Optional[IntMatrix], order: CostOrder,
                 elements: VectorSet):
        self.matrix = matrix
        self.order = order
        self.elements = elements
        if matrix is not None:
            for g in elements:
                if not matrix.in_kernel(g):
                    raise ValueError("element not in the kernel: %r" % (g,))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "GroebnerBasis(%d elements, order=%r)" % (len(self), self.order)


# ----- tuple-level helpers (hot paths avoid IntVector wrappers) -----

def _orient_tuple(t, cost):
    cv = sum(map(mul, cost, t))
    if cv > 0:
        return t
    if cv < 0:
        return tuple(map(neg, t))
    for x in t:
        if x:
            return t if x > 0 else tuple(map(neg, t))
    raise ValueError("cannot orient the zero vector")


def _part_mask(part):
    mask = 0
    for i, x in enumerate(part):
        if x:
            mask |= 1 << i
    return mask


def _record(vec):
    """(vector, positive part, support mask of the lead)."""
    pos = tuple(x if x > 0 else 0 for x in vec)
    return (vec, pos, _part_mask(pos))


def _divisors(part, elems):
    """Indices of the records in elems whose lead divides part, in order;
    the support mask rules out most records before the entrywise test."""
    outside = ~_part_mask(part)
    for k, (_, lead, mask) in enumerate(elems):
        if not mask & outside and all(map(le, lead, part)):
            yield k


def _reduce(vec, elems, cost, full):
    """Normal form of an oriented vector against records, and its step count.

    Each step takes the first record whose lead divides the lead or, when
    `full` and none does, the trail, and subtracts (lead) or adds (trail) its
    largest multiple m = min(part_i // lead_i) over the record lead's support.
    Read as the binomial x^lead - x^trail, each unit of m replaces one monomial
    by a smaller one, so (lead, trail) strictly descends in the well-founded
    order and the loop ends. Costs are non-negative, so orientation keeps a
    non-negative vector: a point z >= 0 is its own lead, m keeps it
    non-negative, and a walk from z is its lead reduction. Returns (vector,
    or None once it cancels to zero, steps); a chosen record with an empty
    lead has no largest multiple, and ValueError names it.
    """
    steps = 0
    while True:
        part, op = vec, sub
        if vec and min(vec) < 0:
            part = tuple(x if x > 0 else 0 for x in vec)
        k = next(_divisors(part, elems), None)
        if k is None and full:
            part, op = tuple(-x if x < 0 else 0 for x in vec), add
            k = next(_divisors(part, elems), None)
        if k is None:
            return vec, steps
        g, lead, mask = elems[k]
        if not mask:
            raise ValueError("move %r has an empty lead" % (g,))
        m = min(map(floordiv, compress(part, lead), filter(None, lead)))
        if m > 1:
            g = tuple(map(m.__mul__, g))
        vec = tuple(map(op, vec, g))
        steps += 1
        if min(vec) < 0:
            vec = _orient_tuple(vec, cost)
        elif not any(vec):
            return None, steps


# ----- public operations -----

def orient(v: IntVector, order: CostOrder) -> IntVector:
    """v or -v, whichever has its positive part on the leading side."""
    if v.is_zero():
        raise ValueError("cannot orient the zero vector")
    t = _orient_tuple(v.entries, order.cost.entries)
    return v if t == v.entries else IntVector(t)


def normal_form(v: IntVector, G: "VectorSet | Iterable[IntVector]",
                order: CostOrder, full: bool = True) -> IntVector:
    """Reduce v against G; with full=True the trailing part is reduced too.

    Against a Groebner basis the full remainder is unique, whatever G's
    order. v and every element of G must have the order's length.
    """
    elems = [_record(g.entries) for g in G]
    if any(len(u) != order.dim for u in [v.entries] + [r[0] for r in elems]):
        raise ValueError("v and G must have the order's %d entries" % order.dim)
    if v.is_zero():
        return v
    cost = order.cost.entries
    out, _ = _reduce(_orient_tuple(v.entries, cost), elems, cost, full)
    return IntVector((0,) * len(v) if out is None else out)


def _interreduce(vecs, order):
    """Minimalize a Groebner basis by leads, then tail-reduce each survivor.

    One pass reaches the reduced basis. The kept leads are the minimal
    generators of the initial ideal, so no lead divides another and each
    tail step adds an element whose lead divides the trailing part. Such a
    step cannot lower a lead: a common factor that cancelled would leave a
    proper divisor of a minimal lead in the initial ideal. So every
    survivor keeps its lead, and its tail ends reduced against the final
    leads.
    """
    cost = order.cost.entries
    kept = []
    for rec in sorted(map(_record, sorted(set(vecs))),
                      key=lambda r: (sum(map(mul, cost, r[1])), r[1])):
        if next(_divisors(rec[1], kept), None) is None:
            kept.append(rec)
    return sorted(_reduce(rec[0], kept[:idx] + kept[idx + 1:], cost, True)[0]
                  for idx, rec in enumerate(kept))


def buchberger(seed: "VectorSet | Iterable[IntVector]", order: CostOrder,
               matrix: Optional[IntMatrix] = None) -> GroebnerBasis:
    """Complete a kernel-vector seed to the unique reduced basis for the order.

    Pairs are processed in ascending order of the componentwise max of the two
    leads (normal selection), and a queued pair's key is that lcm.
    Each new element, seed or remainder, pairs with every earlier element
    still alive and kills those whose lead its own lead divides (death
    rule). A pair with disjoint lead supports is never queued (product
    criterion), and a popped pair (i, j) is dropped when some k has a lead
    dividing its lcm and both (i, k) and (j, k) were formed and are no
    longer pending (chain criterion); the module docstring says why all
    three are sound. Inter-reduction of the
    completed basis takes one pass. A matrix or seed vector whose length
    differs from the order's raises ValueError. A working basis that grows
    past ELEMENT_CAP, read at each insertion, raises GraverResourceError.
    """
    if matrix is not None and matrix.ncols != order.dim:
        raise ValueError("cost has %d entries, the matrix %d columns"
                         % (order.dim, matrix.ncols))
    cost = order.cost.entries
    basis = []
    alive = float("inf")
    died = []  # died[k]: first later element whose lead divides k's, or alive
    heap = []
    pending = set()  # pairs pushed and not yet popped

    def push(i, j):
        """Queue the pair i < j keyed by its lcm, (c.lcm, lcm, j, i), unless
        its leads are disjoint (product criterion). Pairs are pushed in
        (j, i) order, so (j, i) breaks ties first in, first out."""
        if basis[i][2] & basis[j][2]:
            lcm = tuple(map(max, basis[i][1], basis[j][1]))
            heapq.heappush(heap, (sum(map(mul, cost, lcm)), lcm, j, i))
            pending.add((i, j))

    def add(t):
        """Append t, pair it with each earlier element still alive, and mark
        dead each of those whose lead t's lead divides. Adding the element
        past ELEMENT_CAP raises GraverResourceError."""
        n = len(basis)
        basis.append(_record(t))
        died.append(alive)
        if n >= ELEMENT_CAP:
            raise GraverResourceError(
                "completion exceeded %d elements" % ELEMENT_CAP)
        _, lead, mask = basis[n]
        for k in range(n):
            if died[k] == alive:
                push(k, n)
                _, lead_k, mask_k = basis[k]
                if not mask & ~mask_k and all(map(le, lead, lead_k)):
                    died[k] = n

    seen = set()
    for v in seed:
        if len(v) != order.dim:
            raise ValueError("cost has %d entries, a seed vector %d"
                             % (order.dim, len(v)))
        if v.is_zero():
            continue
        t = _orient_tuple(v.entries, cost)
        if t not in seen:
            seen.add(t)
            add(t)

    def chain(i, j, lcm):
        """True when some k has a lead dividing the pair's lcm and both
        (i, k) and (j, k) were formed and are no longer pending (chain
        criterion). Pair (a, b), a < b, was formed when died[a] >= b."""
        return any(k != i and k != j
                   and died[min(i, k)] >= max(i, k)
                   and died[min(j, k)] >= max(j, k)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k in _divisors(lcm, basis))

    while heap:
        _, lcm, j, i = heapq.heappop(heap)
        pending.remove((i, j))
        if chain(i, j, lcm):
            continue
        s = _orient_tuple(tuple(map(sub, basis[i][0], basis[j][0])), cost)
        s, _ = _reduce(s, basis, cost, False)
        if s is None:
            continue
        add(s)

    reduced = _interreduce([rec[0] for rec in basis], order)
    return GroebnerBasis(matrix, order, VectorSet(IntVector(t) for t in reduced))


def test_set(A: IntMatrix, c: "IntVector | Iterable[int]") -> GroebnerBasis:
    """Reduced basis whose oriented elements form a test set for IP(c, .)."""
    order = CostOrder(c if isinstance(c, IntVector) else IntVector(c))
    from .toric import toric_generating_set  # import cycle: deferred
    return buchberger(toric_generating_set(A).generators, order, matrix=A)
