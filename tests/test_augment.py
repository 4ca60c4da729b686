"""Augmentation walks, Phase-I feasibility, and exactness against the oracle."""

import itertools
import operator
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import latticeopt
from latticeopt import augment as augment_module
from latticeopt import oracle, toric
from latticeopt.augment import (PreparedMoves, artificial_system, augment,
                                phase_one_feasible, prepare_moves)
from latticeopt.graver import graver_basis
from latticeopt.lattice import (IntMatrix, IntVector, KernelVectorSet,
                                VectorSet)

import support


def _moves(A, c, *tuples):
    return prepare_moves(KernelVectorSet(A, tuples), c)


def test_worked_walk_on_sum_matrix():
    A = IntMatrix([[1, 1, 1]])
    res = augment((0, 0, 3),
                  _moves(A, (1, 2, 3), (-1, 1, 0), (0, -1, 1)), (3,))
    assert res.solution == IntVector((3, 0, 0))
    assert res.value == 3
    # each step takes a move as far as it goes: (0,3,0), then (3,0,0)
    assert res.steps == 2


def test_empty_move_set_is_fixed_point():
    A = IntMatrix([[1, 1, 1]])
    res = augment((0, 0, 3), _moves(A, (1, 2, 3)), (3,))
    assert res.solution == IntVector((0, 0, 3))
    assert res.steps == 0


def test_optimal_start_unchanged():
    A = IntMatrix([[1, 1, 1]])
    res = augment((3, 0, 0),
                  _moves(A, (1, 2, 3), (-1, 1, 0), (0, -1, 1)), (3,))
    assert res.solution == IntVector((3, 0, 0))
    assert res.steps == 0


def test_rejects_bad_starts():
    # each start is refused with its message whether z0 and b come as
    # IntVectors, tuples or lists
    A = IntMatrix([[1, 1, 1]])
    T = _moves(A, (1, 2, 3), (-1, 1, 0))
    for z0, b, fragment in (((1, 1, 0), (3,), "invalid point"),
                            ((4, -1, 0), (3,), "invalid point"),
                            ((3, 0, 0), (3, 0), "invalid point"),
                            ((1, 2), (3,), "dimension mismatch")):
        for form in (IntVector, tuple, list):
            with pytest.raises(ValueError, match=fragment):
                augment(form(z0), T, form(b))
    # a move outside the kernel is refused before any walk can take it
    with pytest.raises(ValueError, match="not in the kernel"):
        prepare_moves(KernelVectorSet(IntMatrix([[1, 1]]), [(1, 0)]), (1, 1))


def test_input_forms_give_equal_results():
    # z0 and b as IntVectors, tuples or lists walk the same path; the
    # result always wraps its solution and carries an int value
    rng = random.Random(2222)
    A = support.random_matrix(rng, 2, 4, 0, 3)
    c = [rng.randint(0, 5) for _ in range(4)]
    moves = prepare_moves(toric.test_set(A, c), c)
    walked = 0
    for b, pts in support.boxed_fibers(A, 4).items():
        for z in pts:
            results = {augment(zf(z), moves, bf(b))
                       for zf in (IntVector, tuple, list)
                       for bf in (IntVector, tuple, list)}
            assert len(results) == 1
            res, = results
            assert type(res.solution) is IntVector
            assert type(res.value) is int
            assert res.value == sum(map(operator.mul, c, res.solution))
            walked += res.steps
    assert walked > 0


def test_raw_move_set_rejected():
    # the walk's cost and matrix travel with its moves: a bare set has none
    A = IntMatrix([[1, 1, 1]])
    T = VectorSet([IntVector((-1, 1, 0))])
    with pytest.raises(TypeError, match="prepare_moves"):
        augment((3, 0, 0), T, (3,))
    moves = prepare_moves(KernelVectorSet(A, T), (1, 2, 3))
    assert moves.matrix is A
    assert augment((3, 0, 0), moves, (3,)).value == 3


def test_prepare_moves_takes_only_a_checked_set():
    # only a KernelVectorSet proves its moves lie in its matrix's kernel,
    # which is what lets a walk skip checking its end point
    T = [IntVector((-1, 1, 0))]
    for raw in (T, VectorSet(T), tuple(T), iter(T)):
        with pytest.raises(TypeError, match="KernelVectorSet"):
            prepare_moves(raw, (1, 2, 3))
    # a cost that does not fit the matrix is refused at preparation, or,
    # with no move to price, at the walk's start check
    A = IntMatrix([[1, 1, 1]])
    with pytest.raises(ValueError, match="different lengths"):
        prepare_moves(KernelVectorSet(A, T), (1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        augment((1, 1), prepare_moves(KernelVectorSet(A, []), (1, 2)), (2,))


def test_start_entries_must_be_ints():
    # floats equal to a feasible start would run the walk in floating point
    A = IntMatrix([[1, 1, 1]])
    T = _moves(A, (1, 2, 3), (-1, 1, 0))
    assert augment((3, 0, 0), T, (3,)).value == 3
    for start in ((3.0, 0, 0), (3, 0.0, 0), (3, 0, 0.0), (Fraction(3), 0, 0),
                  (3, Fraction(0), 0)):
        for form in (IntVector, tuple, list):
            with pytest.raises(ValueError, match="invalid point"):
                augment(form(start), T, (3,))


def test_exact_over_test_sets_random():
    rng = random.Random(555)
    for _ in range(6):
        A = support.random_matrix(rng, 2, 4, 0, 3)
        c = [rng.randint(0, 5) for _ in range(4)]
        gb = toric.test_set(A, IntVector(c))
        support.check_augmentation_exact(A, c, gb, box=6)


def test_graver_universal_over_twenty_costs():
    rng = random.Random(777)
    A = support.random_matrix(rng, 2, 4, 0, 3)
    gamma = graver_basis(A)
    fibers = support.boxed_fibers(A, 6)
    for _ in range(20):
        c = [rng.randint(0, 7) for _ in range(4)]
        prepared = prepare_moves(gamma, c)
        assert prepared.cost == IntVector(c)
        assert all(mask for _, _, mask in prepared.moves)
        support.check_augmentation_exact(A, c, gamma, fibers=fibers)


def test_zero_cost_moves_respect_tie_order():
    # cost ignores both coordinates, so the walk is pure lexicographic descent
    A = IntMatrix([[1, 1]])
    gamma = graver_basis(A)
    res = augment((4, 0), prepare_moves(gamma, (0, 0)), (4,))
    assert res.solution == IntVector((0, 4))
    assert res.steps == 1


def test_full_multiple_steps_on_large_rhs():
    # unit steps would take a million; each step applies a whole multiple
    A = IntMatrix([[1, 1, 1]])
    n = 10 ** 6
    res = augment((0, 0, n), prepare_moves(graver_basis(A), (1, 2, 3)), (n,))
    assert res.solution == IntVector((n, 0, 0))
    assert res.value == n
    assert res.steps <= 2


def _reference_walk(z, moves):
    """The walk spelled out: the first prepared move whose lead fits under
    z, at its largest multiple, until none fits. Returns the end and the
    multiples taken."""
    multiples = []
    while True:
        for vec, lead, _ in moves.moves:
            if all(x <= zi for x, zi in zip(lead, z)):
                k = min(zi // x for x, zi in zip(lead, z) if x)
                z = tuple(zi - k * x for zi, x in zip(z, vec))
                multiples.append(k)
                break
        else:
            return z, multiples


def test_walk_takes_the_first_fitting_move_at_its_largest_multiple():
    # zero cost entries leave ties to the tie order, so the scan order and
    # the multiples decide the path, which must match the reference step
    # for step
    rng = random.Random(1818)
    for _ in range(8):
        A = support.random_matrix(rng, 2, 4, 0, 2)
        c = [rng.choice((0, rng.randint(1, 5))) for _ in range(4)]
        c[rng.randrange(4)] = 0
        fibers = support.boxed_fibers(A, 6)
        for T in (toric.test_set(A, c), graver_basis(A)):
            moves = prepare_moves(T, c)
            for b, pts in fibers.items():
                for z in pts:
                    res = augment(z, moves, b)
                    end, multiples = _reference_walk(z, moves)
                    assert res.solution.entries == end, (A.rows, c, z)
                    assert res.steps == len(multiples), (A.rows, c, z)
                    assert res.value == sum(map(operator.mul, c, end))


def test_large_rhs_walks_match_the_oracle():
    # every column of A has a positive entry, so no point of the fiber of
    # b = A z0 leaves the box [0, max b]: the oracle's optimum is proven
    rng = random.Random(606)
    multiples = []
    for m, n in ((1, 3), (1, 4), (2, 3), (2, 4)) * 5:
        A = support.random_matrix(rng, m, n, 0, 4)
        c = IntVector([rng.randint(0, 9) for _ in range(n)])
        sets = (prepare_moves(toric.test_set(A, c), c),
                prepare_moves(graver_basis(A), c))
        for _ in range(4):
            z0 = IntVector([rng.randint(0, 10) for _ in range(n)])
            b = A.mat_vec(z0)
            best = oracle.solve_bruteforce(
                oracle.IpProblem(A, b, c, max(b.entries)))
            for moves in sets:
                res = augment(z0, moves, b)
                assert (res.solution, res.value) == (best.solution,
                                                     best.value), (A.rows, c)
                path = _reference_walk(z0.entries, moves)[1]
                assert res.steps == len(path)
                multiples += path
    assert max(multiples) >= 2


def test_every_walk_ends_in_its_fiber():
    # augment checks only its start; the end stays >= 0 because a step
    # applies a move only where its lead fits, and keeps A z = b because
    # every move was checked into its matrix's kernel. Checked here from
    # outside, over Groebner, Graver and unfiltered toric moves.
    rng = random.Random(3131)
    walked = 0
    for m, n in ((1, 3), (2, 4), (2, 5)) * 3:
        A = support.random_matrix(rng, m, n, 0, 3)
        c = [rng.randint(0, 6) for _ in range(n)]
        fibers = support.boxed_fibers(A, 5)
        for basis in (toric.test_set(A, c), graver_basis(A),
                      toric.toric_generating_set(A)):
            moves = prepare_moves(basis, c)
            assert moves.matrix is A
            for b, pts in fibers.items():
                for z in pts:
                    end = augment(z, moves, b).solution
                    assert min(end.entries) >= 0, (A.rows, c, z, end)
                    assert A.mat_vec(end) == IntVector(b), (A.rows, c, z)
                    walked += 1
    assert walked > 1000


# right-hand sides of a two-row matrix that use both signs in both rows
BOTH_SIGNS = ((1, -1), (-1, 1))


def _phase_one(A, b):
    return phase_one_feasible(artificial_system(A, [b]), b)


def test_artificial_system_shape():
    A = IntMatrix([[1, -1], [2, 1]])
    columns, moves = artificial_system(A, BOTH_SIGNS)
    ext = moves.matrix
    assert ext.rows == ((1, -1, 1, 0, -1, 0), (2, 1, 0, 1, 0, -1))
    assert moves.cost == IntVector((0, 0) + (1000,) * 4)
    assert columns == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert moves == prepare_moves(toric.test_set(ext, moves.cost),
                                  moves.cost)


def test_artificial_system_one_column_per_used_sign():
    A = IntMatrix([[1, -1], [2, 1]])
    columns, moves = artificial_system(A, [(1, 0), (2, 3)])
    assert moves.matrix.rows == ((1, -1, 1, 0), (2, 1, 0, 1))
    assert moves.cost == IntVector((0, 0, 1000, 1000))
    assert columns == ((0, 1), (1, 1))
    # row 0 is always zero: it gets no column; row 1 only the negative one
    columns, moves = artificial_system(A, [(0, -1), (0, 0)])
    assert moves.matrix.rows == ((1, -1, 0), (2, 1, -1))
    assert moves.cost == IntVector((0, 0, 1000)) and columns == ((1, -1),)
    columns, moves = artificial_system(A, [(0, 0)])
    assert moves.matrix == A and moves.cost == IntVector((0, 0))
    assert columns == ()


def _count_saturations(monkeypatch):
    """A list that grows by one entry per `toric_generating_set` call."""
    calls, saturate = [], toric.toric_generating_set

    def counted(M):
        calls.append(M)
        return saturate(M)

    monkeypatch.setattr(toric, "toric_generating_set", counted)
    return calls


def test_written_seed_completes_as_the_saturated_seed(monkeypatch):
    # mixed-sign matrices whose right-hand sides use the sign of every
    # nonzero entry in its row, beside a random one: the extension's toric
    # set is written down, and completes to the moves and columns that the
    # saturated set gives
    rng = random.Random(3535)
    saturations = _count_saturations(monkeypatch)
    for m, n in ((1, 3), (2, 3), (2, 4), (3, 4)) * 5:
        A = support.random_matrix(rng, m, n, -3, 3)
        rhss = [tuple(s if any(s * a > 0 for a in row) else 0
                      for row in A.rows) for s in (1, -1)]
        rhss.append(tuple(rng.randint(-2, 2) for _ in range(m)))
        c = [rng.randint(0, 5) for _ in range(n)]
        written = artificial_system(A, rhss, c)
        assert saturations == []
        with monkeypatch.context() as patch:
            patch.setattr(augment_module, "_written_generators",
                          lambda *args: None)
            saturated = artificial_system(A, rhss, c)
        assert len(saturations) == 1
        saturations.clear()
        assert written == saturated, (A.rows, rhss, c)


def test_unmatched_columns_are_saturated(monkeypatch):
    # row 0 has a negative entry but only the positive column: saturate
    saturations = _count_saturations(monkeypatch)
    A = IntMatrix([[1, -1], [2, 1]])
    system = artificial_system(A, [(1, 0), (2, 3)])
    assert system.columns == ((0, 1), (1, 1))
    assert len(saturations) == 1
    assert augment_module._written_generators(
        A, system.columns, system.moves.matrix) is None


def test_artificial_system_rejects_rhs_of_wrong_length():
    A = IntMatrix([[1, 1]])
    B = IntMatrix([[1, 1], [1, 0]])
    for M, rhss in ((A, [(1, 2)]), (A, [()]), (B, [(1,)]),
                    (B, [(1, 0), (1, 0, 0)])):
        with pytest.raises(ValueError, match="rows"):
            artificial_system(M, rhss)


def test_phase_one_finds_point():
    A = IntMatrix([[1, 1, 1]])
    z = _phase_one(A, (3,))
    assert z is not None and A.mat_vec(z) == IntVector((3,))
    assert all(e >= 0 for e in z.entries)


def test_phase_one_zero_rhs():
    z = _phase_one(IntMatrix([[1, 1, 1]]), (0,))
    assert z == IntVector((0, 0, 0))


def test_phase_one_parity_infeasible():
    assert _phase_one(IntMatrix([[2]]), (3,)) is None


def test_phase_one_negative_rhs():
    A = IntMatrix([[1, -1]])
    z = _phase_one(A, (-2,))
    assert z is not None and A.mat_vec(z) == IntVector((-2,))


def test_phase_one_accepts_precomputed_moves():
    A = IntMatrix([[1, 1, 1]])
    system = artificial_system(A, [(1,), (-1,)])
    for b in (3, 0, -1):
        steps = []
        z = phase_one_feasible(system, (b,), steps)
        assert len(steps) == 1
        if b < 0:
            assert z is None
        else:
            assert z is not None and A.mat_vec(z) == IntVector((b,))


def test_phase_one_one_move_set_serves_every_rhs():
    rng = random.Random(2024)
    for _ in range(3):
        A = support.random_matrix(rng, 2, 4, 0, 3)
        system = artificial_system(A, BOTH_SIGNS)
        fibers = support.boxed_fibers(A, 6)
        for b in itertools.product(range(-2, 7), repeat=2):
            z = phase_one_feasible(system, b)
            if b not in fibers:
                assert z is None, (A.rows, b, z)
            else:
                assert z is not None, (A.rows, b)
                assert A.mat_vec(z) == IntVector(b)
                assert all(e >= 0 for e in z.entries)


def test_phase_one_narrow_extension_decides_feasibility():
    # one-signed and mixed right-hand-side lists: each extension finds a
    # point for exactly the b of its list that have one
    rng = random.Random(4242)
    lists = (
        list(itertools.product(range(0, 7), repeat=2)),
        list(itertools.product(range(-2, 7), range(0, 7))),
        [(b, 0) for b in range(-2, 7)],
    )
    for _ in range(3):
        A = support.random_matrix(rng, 2, 4, 0, 3)
        fibers = support.boxed_fibers(A, 6)
        for rhss in lists:
            system = artificial_system(A, rhss)
            assert len(system.columns) < 2 * A.nrows
            for b in rhss:
                z = phase_one_feasible(system, b)
                if b not in fibers:
                    assert z is None, (A.rows, b, z)
                else:
                    assert z is not None, (A.rows, b)
                    assert A.mat_vec(z) == IntVector(b)
                    assert all(e >= 0 for e in z.entries)
        with pytest.raises(ValueError, match="no artificial column"):
            phase_one_feasible(artificial_system(A, lists[0]), (-1, 0))


def test_phase_one_rhs_length_checked():
    with pytest.raises(ValueError):
        phase_one_feasible(artificial_system(IntMatrix([[1, 1]]), [(1,)]),
                           (1, 2))


def test_invariants_hold_under_optimize_flag():
    # python -O strips assert statements; these checks must survive it.
    code = textwrap.dedent("""
        from fractions import Fraction
        from latticeopt.augment import (PreparedMoves, artificial_system,
                                        augment, phase_one_feasible,
                                        prepare_moves)
        from latticeopt.graver import GraverBasis
        from latticeopt.groebner import _LeadIndex, _record
        from latticeopt.lattice import (IntMatrix, IntVector,
                                        KernelVectorSet, VectorSet)
        A = IntMatrix(((1, 1),))
        # each case names the check it trips by a fragment of its message
        T = prepare_moves(KernelVectorSet(A, [IntVector((1, -1))]), (1, 2))
        calls = [
            ("negation-closed", lambda: GraverBasis(
                A, VectorSet([IntVector((1, 0))]))),
            ("not in the kernel", lambda: prepare_moves(
                KernelVectorSet(A, [IntVector((1, 0))]), (1, 1))),
            ("empty lead", lambda: augment((1, 1), PreparedMoves(
                IntVector((1, 1)), _LeadIndex(2, [_record((-1, 0))]),
                IntMatrix(((0, 1),))), (1,))),
            ("invalid point", lambda: augment((Fraction(2), 0), T, (2,))),
            ("invalid point", lambda: augment((2.0, 0), T, (2,))),
            ("invalid point", lambda: augment((3, -1), T, (2,))),
            ("invalid point", lambda: augment((1, 0), T, (2,))),
            ("dimension mismatch", lambda: augment((2,), T, (2,))),
            ("different lengths", lambda: prepare_moves(
                KernelVectorSet(A, [IntVector((1, -1))]), (1, 2, 3))),
            ("dimension mismatch", lambda: augment((1, 1, 1), prepare_moves(
                KernelVectorSet(A, []), (1, 2, 3)), (2,))),
            ("does not have the matrix's",
                lambda: artificial_system(A, [(1, 2)])),
            ("no artificial column", lambda: phase_one_feasible(
                artificial_system(A, [(2,)]), (-2,))),
        ]
        for fragment, call in calls:
            try:
                call()
            except ValueError as exc:
                if fragment in str(exc):
                    continue
                raise SystemExit("%r raised %r" % (fragment, exc))
            raise SystemExit("%r: an invalid input was accepted" % fragment)
    """)
    package = os.path.dirname(os.path.abspath(latticeopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
