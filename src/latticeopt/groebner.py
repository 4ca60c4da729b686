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
each element keeps the bitset of the partners whose pair with it was
formed and is no longer queued (dropped by the product criterion, or
popped), and a pair the death rule never formed is in neither. Skipping
only drops work and the reduced basis is unique, so the result is the
same as without the rules.

A fourth rule, degree, needs a positive grading w = lambda^T A > 0 of the
matrix A and a seed that generates the lattice ideal of ker(A); it is
the truncated-basis setting of Kreuzer-Robbiano (Computational
Commutative Algebra 2, 4.5) that Hemmecke-Malkin work in. Every kernel
vector v has w.v = 0, so its binomial is homogeneous of degree w.v+, and
pairs are selected by degree w.lcm. A remainder has the degree of its
pair, so pairs pop in nondecreasing degree and no pair is formed below the
degree last popped; when one of degree d pops every pair below d has been
handled: the working basis is a Groebner basis truncated at d, and every
ideal element of degree below d reduces to zero. A pair whose trails share
a variable has that factor in both of its points, so S = v_i - v_j is of
degree below its own w.lcm. Both trails are known when the pair is
formed: each element keeps the support of its trail as a bitmask, and a
pair whose leads and trail masks both meet is settled there, as the
product criterion settles a pair, with no lcm and nothing queued. From the
first pop of degree w.lcm or more on, its S reduces to zero, so the rule
adds and removes no element, and the chain criterion, whose pairs (i, k)
and (j, k) have lcms dividing lcm(i, j), may count it as settled. The
grading exists exactly when the fiber of 0 holds no point but 0
(Stiemke), and a generating seed's moves connect that fiber, so a
one-signed seed vector shows there is none; otherwise a batch perceptron
looks for lambda (`_grading`). Toric saturation's rounds complete seeds
that do not generate their matrix's lattice ideal, since saturating is
what makes them generate it, so they call `_complete` without a grading;
completion without one keys and drops pairs as the first three rules
alone do.

One loop, `_reduce`, serves completion, inter-reduction, `normal_form` and
every augmentation walk. It and the chain criterion ask one question, whose
lead divides this exponent vector, and `_divisors` answers it from a lead
index (`_LeadIndex`): per variable, the bitset of the records whose lead
uses it. One OR over the vector's zero coordinates rules out every record
whose lead does not fit its support, and the entrywise test runs on the
rest, lowest index first, which is the scan order. The chain criterion
narrows the same search to the settled partners of both elements. A
queued pair's key is its lcm, which the chain criterion reads back
instead of recomputing it, and inter-reduction takes one pass
(`_interreduce` says why). Ties are read in variable order throughout.
`GroebnerBasis` is a `lattice.KernelVectorSet`, which checks each element
against the matrix's kernel and keeps the elements in canonical (sorted)
order; it adds only the cost order.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import compress, count
from operator import add, floordiv, le, mul, neg, not_, or_, sub
from typing import Iterable

from .lattice import CostOrder, IntMatrix, IntVector, KernelVectorSet

ELEMENT_CAP = 2_000  # most elements a working basis may hold
GRADING_ROUNDS = 64  # most perceptron rounds spent looking for a grading


class GraverResourceError(RuntimeError):
    """Raised when a completion's working basis grows past ELEMENT_CAP."""


class GroebnerBasis(KernelVectorSet):
    """Reduced basis for one matrix/order pair; elements are oriented vectors.

    The `work` of a completed basis is {"pairs_queued", "pair_reductions",
    "zero_reductions"}: the pairs its completion queued, the S-vectors it
    reduced and those that reduced to zero.
    """

    __slots__ = ("order",)

    def __init__(self, matrix: IntMatrix, order: CostOrder, elements,
                 work: "dict | None" = None):
        self.order = order
        super().__init__(matrix, elements, work)

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


class _LeadIndex(list):
    """Records in scan order, indexed by lead support: bit k of uses[v] is
    set when record k's lead has variable v in its support. `append` is the
    only way in, and keeps the index in O(dim)."""

    __slots__ = ("uses",)

    def __init__(self, dim, records=()):
        super().__init__()
        self.uses = [0] * dim
        for rec in records:
            self.append(rec)

    def append(self, rec):
        bit, uses = 1 << len(self), self.uses
        for v in compress(count(), rec[1]):
            uses[v] |= bit
        super().append(rec)


def _divisors(part, leads, among=-1):
    """Indices of the records in the index `leads` whose lead divides part,
    taken from the bitset `among` (every record by default), lowest first:
    the scan order, so the first is the one a linear scan would find. A
    record whose lead uses a zero coordinate of part is ruled out by one OR
    of bitsets; the entrywise test runs on the rest alone."""
    cand = among & ~reduce(or_, compress(leads.uses, map(not_, part)), 0)
    cand &= (1 << len(leads)) - 1
    while cand:
        low = cand & -cand
        k = low.bit_length() - 1
        if all(map(le, leads[k][1], part)):
            yield k
        cand ^= low


def _reduce(vec, leads, cost, full, among=-1):
    """Normal form of an oriented vector against a lead index, and its
    step count.

    Each step takes the first record in the bitset `among` (every record by
    default) whose lead divides the lead or, when `full` and none does, the
    trail, and subtracts (lead) or adds (trail) its largest multiple
    m = min(part_i // lead_i) over the record lead's support.
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
        k = next(_divisors(part, leads, among), None)
        if k is None and full:
            part, op = tuple(-x if x < 0 else 0 for x in vec), add
            k = next(_divisors(part, leads, among), None)
        if k is None:
            return vec, steps
        g, lead, mask = leads[k]
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
    """v or -v, whichever has its positive part on the leading side; the
    zero vector raises ValueError."""
    t = _orient_tuple(v.entries, order.cost.entries)
    return v if t == v.entries else IntVector(t)


def normal_form(v: IntVector, G: Iterable[IntVector],
                order: CostOrder) -> IntVector:
    """Reduce v against G, its leading and its trailing part.

    Against a Groebner basis the full remainder is unique, whatever G's
    order. v and every element of G must have the order's length.
    """
    vecs = [v.entries] + [g.entries for g in G]
    if any(len(u) != order.dim for u in vecs):
        raise ValueError("v and G must have the order's %d entries" % order.dim)
    if v.is_zero():
        return v
    cost = order.cost.entries
    leads = _LeadIndex(order.dim, map(_record, vecs[1:]))
    out, _ = _reduce(_orient_tuple(v.entries, cost), leads, cost, True)
    return IntVector((0,) * len(v) if out is None else out)


def _interreduce(vecs, order):
    """Minimalize a Groebner basis by leads, then tail-reduce each survivor.

    One pass reaches the reduced basis. The kept leads are the minimal
    generators of the initial ideal, so no lead divides another and each
    tail step adds an element whose lead divides the trailing part. Such a
    step cannot lower a lead: a common factor that cancelled would leave a
    proper divisor of a minimal lead in the initial ideal. So every
    survivor keeps its lead, and its tail ends reduced against the final
    leads. The survivors share one lead index; each reduction leaves its
    own survivor's bit out of the search.
    """
    cost = order.cost.entries
    kept = _LeadIndex(order.dim)
    for rec in sorted(map(_record, sorted(set(vecs))),
                      key=lambda r: (sum(map(mul, cost, r[1])), r[1])):
        if next(_divisors(rec[1], kept), None) is None:
            kept.append(rec)
    return [_reduce(rec[0], kept, cost, True, ~(1 << idx))[0]
            for idx, rec in enumerate(kept)]


def _grading(seed, matrix):
    """A positive grading w = lambda^T matrix > 0 for seed's lattice, or
    None.

    None at once when a seed tuple is one-signed: no w > 0 is orthogonal
    to it. Otherwise a batch perceptron looks for lambda: each round adds
    to it every column a_j with lambda.a_j <= 0, and after GRADING_ROUNDS
    rounds it gives up.
    """
    if not seed or any(min(t) >= 0 or max(t) <= 0 for t in seed):
        return None
    cols = tuple(zip(*matrix.rows))
    lam, w = (0,) * matrix.nrows, (0,) * matrix.ncols
    for _ in range(GRADING_ROUNDS):
        low = (col for col, x in zip(cols, w) if x <= 0)
        lam = tuple(map(add, lam, map(sum, zip(*low))))
        w = tuple(sum(map(mul, lam, col)) for col in cols)
        if min(w) > 0:
            return w
    return None


def buchberger(seed: Iterable[IntVector], order: CostOrder,
               matrix: IntMatrix) -> GroebnerBasis:
    """Complete a kernel-vector seed to the unique reduced basis for the order.

    The seed must generate the lattice ideal of ker(matrix), as a toric
    generating set or a Groebner basis of that ideal does. Pairs are
    processed in ascending order of the componentwise max of the two leads
    (normal selection), and a queued pair's key is that lcm, weighted by
    a positive grading w = lambda^T matrix where `_grading` finds one and
    by the cost otherwise.
    Each new element, seed or remainder, pairs with every earlier element
    still alive and kills those whose lead its own lead divides (death
    rule). A pair with disjoint lead supports is never queued (product
    criterion), and a popped pair (i, j) is dropped when some k has a lead
    dividing its lcm and both (i, k) and (j, k) are settled: formed, and
    dropped at formation or popped (chain criterion). The settled partners
    are kept as one bitset per element, and the lead index searches only
    their intersection. With a grading, each element also keeps its trail's
    support as a bitmask, and a pair whose trails share a variable is
    settled when it is formed, as a product-criterion pair is, since its
    S-vector is of lower degree (degree criterion). The module
    docstring says why all four rules are sound. The result's `work`
    counts the pairs queued, the S-pair reductions and the zero
    reductions. The working basis is one lead index, grown by each
    insertion, and inter-reduction of the completed basis takes one
    pass. The matrix is required: the GroebnerBasis returned checks each
    element against its kernel and keeps them in canonical order. A matrix
    or seed vector whose length differs from the order's raises ValueError.
    A working basis that grows past ELEMENT_CAP, read at each insertion,
    raises GraverResourceError.
    """
    return _complete(seed, order, matrix, True)


def _complete(seed, order, matrix, graded):
    """`buchberger`, which looks for a grading only when `graded` is set.
    Toric saturation's rounds pass False: their seeds do not generate the
    lattice ideal of their matrix, which the degree criterion needs."""
    if matrix.ncols != order.dim:
        raise ValueError("cost has %d entries, the matrix %d columns"
                         % (order.dim, matrix.ncols))
    cost = order.cost.entries
    seen = {}  # the oriented seed, deduplicated, in seed order
    for v in seed:
        if len(v) != order.dim:
            raise ValueError("cost has %d entries, a seed vector %d"
                             % (order.dim, len(v)))
        if not v.is_zero():
            seen.setdefault(_orient_tuple(v.entries, cost))
    grading = _grading(seen, matrix) if graded else None
    weight = cost if grading is None else grading
    basis = _LeadIndex(order.dim)
    live = []  # live[k]: no later element's lead divides k's
    settled = []  # settled[k]: the h whose pair with k is formed, not queued
    trails = []  # trails[k]: the support of k's trail, 0 without a grading
    heap = []
    queued = reductions = zeros = 0

    def settle(i, j):
        settled[i] |= 1 << j
        settled[j] |= 1 << i

    def push(i, j):
        """Queue the pair i < j keyed by its lcm, (weight.lcm, lcm, j, i),
        unless its leads are disjoint (product criterion) or, under a
        grading, its trails meet (degree criterion); either settles it. The
        weight is the grading, else the cost. Pairs are pushed in (j, i)
        order, so (j, i) breaks ties first in, first out."""
        if basis[i][2] & basis[j][2] and not trails[i] & trails[j]:
            lcm = tuple(map(max, basis[i][1], basis[j][1]))
            heapq.heappush(heap, (sum(map(mul, weight, lcm)), lcm, j, i))
        else:
            settle(i, j)

    def add(t):
        """Append t, pair it with each earlier element still alive, and mark
        dead each of those whose lead t's lead divides. Adding the element
        past ELEMENT_CAP raises GraverResourceError."""
        n = len(basis)
        basis.append(_record(t))
        live.append(True)
        settled.append(0)
        trails.append(0 if grading is None else _part_mask(x < 0 for x in t))
        if n >= ELEMENT_CAP:
            raise GraverResourceError(
                "completion exceeded %d elements" % ELEMENT_CAP)
        _, lead, mask = basis[n]
        for k in range(n):
            if live[k]:
                push(k, n)
                _, lead_k, mask_k = basis[k]
                if not mask & ~mask_k and all(map(le, lead, lead_k)):
                    live[k] = False

    for t in seen:
        add(t)

    while heap:
        _, lcm, j, i = heapq.heappop(heap)
        queued += 1  # every queued pair pops once
        settle(i, j)
        chain = _divisors(lcm, basis, settled[i] & settled[j])
        if next(chain, None) is not None:
            continue  # chain criterion: a settled k's lead divides lcm
        s = _orient_tuple(tuple(map(sub, basis[i][0], basis[j][0])), cost)
        s, _ = _reduce(s, basis, cost, False)
        reductions += 1
        if s is None:
            zeros += 1
            continue
        add(s)

    return GroebnerBasis(matrix, order,
                         _interreduce([rec[0] for rec in basis], order),
                         dict(pairs_queued=queued, pair_reductions=reductions,
                              zero_reductions=zeros))
