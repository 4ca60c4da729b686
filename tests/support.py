"""Shared helpers for exhaustive fiber checks in the test suite.

pytest rewrites no assert in this module and `python -O` strips them, so
every check here raises AssertionError explicitly.
"""

import itertools
import random
from operator import le, mul

from latticeopt.instances import (  # noqa: F401 -- tests read it here
    gen_snd_family, wide_stairstep_matrix)
from latticeopt.lattice import IntMatrix, IntVector


def random_matrix(rng: random.Random, nrows: int, ncols: int,
                  lo: int = 0, hi: int = 4) -> IntMatrix:
    """Random matrix with no zero column (so boxed fibers are complete)."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(ncols)]
                for _ in range(nrows)]
        if all(any(rows[i][j] > 0 for i in range(nrows))
               for j in range(ncols)):
            return IntMatrix(rows)


def boxed_fibers(A: IntMatrix, box: int):
    """All fibers {z >= 0 : Az = b} that fit entirely inside [0, box]^n.

    Requires every column of A to be non-negative with a positive entry;
    then any feasible z for a right-hand side with max(b) <= box satisfies
    z_j <= box, so scanning the box enumerates those fibers completely.
    """
    rows = A.rows
    if any(x < 0 for row in rows for x in row):
        raise AssertionError("boxed fibers need a non-negative matrix")
    fibers = {}
    for z in itertools.product(range(box + 1), repeat=A.ncols):
        b = tuple(sum(r[j] * z[j] for j in range(len(z))) for r in rows)
        if max(b) <= box:
            fibers.setdefault(b, []).append(z)
    return fibers


def order_key(order, z):
    e = tuple(z)
    return (sum(c * x for c, x in zip(order.cost.entries, e)),
            tuple(e[i] for i in order.tie_order))


def check_test_set(A: IntMatrix, order, elements, box: int = 6, fibers=None):
    """Exhaustively verify the improving-move property on boxed fibers.

    Every non-optimal fiber point must admit t in `elements` with z - t
    feasible; the optimum must admit none (an improving move from it would
    contradict optimality).
    """
    moves = [tuple(t) for t in elements]
    if fibers is None:
        fibers = boxed_fibers(A, box)
    for b, pts in fibers.items():
        if len(pts) < 2:
            continue
        best = min(pts, key=lambda z: order_key(order, z))
        for z in pts:
            stepped = any(all(zi - ti >= 0 for zi, ti in zip(z, t))
                          for t in moves)
            if z == best and stepped:
                raise AssertionError(("the optimum has a move", b, z))
            if z != best and not stepped:
                raise AssertionError(("no improving move", b, z, moves))


def check_augmentation_exact(A, c, moves, box=6, fibers=None):
    """Augmenting from every boxed feasible point must reach the fiber optimum.

    `moves` may be any iterable of kernel vectors of A: it is checked into
    a `KernelVectorSet` on A before it is prepared."""
    from latticeopt.augment import augment, prepare_moves
    from latticeopt.lattice import CostOrder, KernelVectorSet

    order = CostOrder(c)
    prepared = prepare_moves(KernelVectorSet(A, moves), c)
    if fibers is None:
        fibers = boxed_fibers(A, box)
    for b, pts in fibers.items():
        best = min(pts, key=lambda z: order_key(order, z))
        for z in pts:
            res = augment(z, prepared, b)
            if tuple(res.solution) != best:
                raise AssertionError((b, z, best, res))
            if res.value != sum(ci * xi for ci, xi in zip(c, best)):
                raise AssertionError(("wrong value", b, z, res))


def as_tuple_set(vectors):
    return {tuple(v) for v in vectors}


def shuffled_vectorset(rng, vectors):
    from latticeopt.lattice import VectorSet
    items = [IntVector(tuple(v)) for v in vectors]
    rng.shuffle(items)
    return VectorSet(items)


def four_node_snd(scenario_count):
    """SND on a 4-node network: W is 10x12, the stacked system 16x24."""
    return gen_snd_family("snd-4node", scenario_count)


def per_scenario_cost_four_node_snd(scenario_count, costs=(1, 9)):
    """4-node SND whose scenarios draw their six flow costs, in scenario
    order, from random.Random(5).randint(*costs); slack columns cost 0.
    `costs` is (1, 9) or (4, 6), the two ranges `instances.SND_FAMILIES`
    defines."""
    return gen_snd_family("snd-4node-costs-%d-%d" % costs, scenario_count)


def random_toric_completions(rng, count, shapes, element_cap=None,
                             skipped=None):
    """(matrix, shuffled toric generators, order) triples: `count` random
    matrices of the given shapes, every second one with entries down to -2,
    and 2-3 random costs each. With a cap, which stands in for
    `groebner.ELEMENT_CAP` during each saturation only, a matrix whose
    saturation outgrows it is appended to `skipped` instead."""
    from latticeopt import groebner
    from latticeopt.lattice import CostOrder
    from latticeopt.toric import toric_generating_set

    for k in range(count):
        nrows, ncols = rng.choice(shapes)
        A = random_matrix(rng, nrows, ncols, -2 if k % 2 else 0, 4)
        costs = [CostOrder(tuple(rng.randint(0, 5) for _ in range(ncols)))
                 for _ in range(rng.choice([2, 3]))]
        default_cap = groebner.ELEMENT_CAP
        if element_cap is not None:
            groebner.ELEMENT_CAP = element_cap
        try:
            gens = list(toric_generating_set(A).generators)
        except groebner.GraverResourceError:
            if element_cap is None:
                raise
            skipped.append(A)
            continue
        finally:
            groebner.ELEMENT_CAP = default_cap
        for order in costs:
            rng.shuffle(gens)
            yield A, list(gens), order


def _plain_orient(t, cost):
    """t or -t: positive cost, or zero cost and a positive first entry."""
    zero = (0, (0,) * len(t))
    return t if (sum(map(mul, cost, t)), t) > zero else tuple(-x for x in t)


def _support(part):
    """The support of part as a bitmask."""
    return sum(1 << i for i, x in enumerate(part) if x)


def _plain_lead(t):
    """(t, its positive part, that part's support)."""
    lead = tuple(max(x, 0) for x in t)
    return t, lead, _support(lead)


def _plain_step(t, basis, part, sign):
    """t plus sign times the largest multiple of the first element of basis
    whose lead fits under part, or None when none fits."""
    outside = ~_support(part)
    for g, lead, mask in basis:
        if not mask & outside and all(map(le, lead, part)):
            m = min(p // y for y, p in zip(lead, part) if y)
            return tuple(x + sign * m * y for x, y in zip(t, g))
    return None


def _plain_reduce(t, basis, cost, full):
    """Normal form of the oriented t against basis, a list of `_plain_lead`
    triples, by linear scans: each step reduces t's positive part or, when
    full and that is reduced, its negative part. None once t cancels."""
    while any(t):
        step = _plain_step(t, basis, tuple(max(x, 0) for x in t), -1)
        if step is None and full:
            step = _plain_step(t, basis, tuple(max(-x, 0) for x in t), 1)
        if step is None:
            return t
        t = _plain_orient(step, cost)
    return None


def reference_completion(seed, order):
    """Criterion-free Buchberger completion, as a sorted list of tuples.

    Every pair of the working basis is reduced, by a plain linear-scan
    reducer that shares no code with `groebner`: no product, chain or death
    rule skips one, and no lead index finds a divisor. The minimal leads
    are then kept (a divisor has the smaller degree, so it comes first) and
    each survivor's trailing part is reduced against the others, which gives
    the reduced basis that `buchberger` must match for any seed order.
    """
    cost = order.cost.entries
    basis = []
    for v in seed:
        t = tuple(v)
        if any(t):
            g = _plain_lead(_plain_orient(t, cost))
            if g not in basis:
                basis.append(g)
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        s = _plain_reduce(_plain_orient(
            tuple(a - b for a, b in zip(basis[i][0], basis[j][0])), cost),
            basis, cost, False)
        if s is not None:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(_plain_lead(s))
    kept = []
    for g in sorted(basis, key=lambda g: (sum(g[1]), g)):
        if not any(all(map(le, h[1], g[1])) for h in kept):
            kept.append(g)
    return sorted(_plain_reduce(g[0], [h for h in kept if h != g], cost, True)
                  for g in kept)


def ascending_toric_generating_set(A: IntMatrix):
    """`toric.toric_generating_set` with its saturation rounds in ascending
    column order, the order used before largest coefficient last: a second
    generating set of the same toric ideal, which must complete to the
    same reduced bases."""
    from latticeopt import toric

    rule = toric._round_order
    toric._round_order = lambda A, columns: sorted(columns)
    try:
        return toric.toric_generating_set(A)
    finally:
        toric._round_order = rule


def check_round_orders_agree(A: IntMatrix, orders):
    """Under each cost order, A's toric sets from both round orders must
    complete to one reduced basis, the criterion-free reference's."""
    from latticeopt.groebner import buchberger
    from latticeopt.toric import toric_generating_set

    sets = (toric_generating_set(A), ascending_toric_generating_set(A))
    for order in orders:
        rule, ascending = (
            sorted(g.entries for g in buchberger(s.generators, order, A))
            for s in sets)
        if not rule == ascending == reference_completion(sets[0].generators,
                                                         order):
            raise AssertionError(("round orders disagree", A.rows,
                                  order.cost.entries))
