"""The benchmark's workloads: seeded inputs, one timed pipeline each, checks.

A workload makes a case from a seed (set-up, not timed), runs one pipeline
on it (timed: input to result), and checks the result. Every call into
latticeopt goes through a module attribute looked up at call time, so the
tracer's wrappers see it. Matrix pipelines run the public library API or
`latticeopt.cli.run`; completion runs toric saturation and Buchberger on a
dense 7x17 matrix.

Each matrix workload has one instance, generated with seed 1; the case
seed permutes its scenarios. Every case therefore does the same cell work
in a different order, and its matrix, permuted back, must match the
checksum recorded for the instance. Instances drawn from different seeds
can differ in cost by a factor of 1.6 or more (unscaled HS, N=10), which
would swamp the comparison between two commits this benchmark exists for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from types import SimpleNamespace

from latticeopt import cli, groebner, instances, lattice, opcost, toric

# latticeopt.cli.matrix_checksum of each instance's matrix, recorded at the
# commit that introduced the benchmark. Kernel, graver and oracle must give
# the same matrix, so one checksum serves every method of a family.
MATRIX_CHECKSUM = {
    ("hs_scaled", 100): "9ed53dcf426c1924",
    ("hs_scaled", 20): "36ebfb8b8f2274ca",
    ("hs_unscaled", 10): "b6dfec7b7d0a8fc1",
    ("snd_cli", 30): "51a8ddadf2cbad99",
}
# sha256 prefix of the sorted element list of the reduced basis. The reduced
# basis is unique, so it holds for every seed (generator order); both costs
# of the completion workload give the same 88-element basis.
COMPLETION_DIGEST = "63878ca8e3289456"


def permutation(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def permuted(inst, perm):
    """The instance with scenario j of the result being scenario perm[j]."""
    return dataclasses.replace(
        inst, scenarios=tuple(inst.scenarios[p] for p in perm))


class Grid:
    """A built matrix as the checks see it, from the library or CLI metadata."""

    def __init__(self, values, status, decisions, counters):
        self.values = [list(row) for row in values]
        self.status = [list(row) for row in status]
        self.decisions = [tuple(x) for x in decisions]
        self.counters = dict(counters)

    @classmethod
    def of(cls, m):
        return cls(m.values, m.status, [x.entries for x in m.decisions],
                   m.counters.as_dict())

    def same_cells(self, other):
        return self.values == other.values and self.status == other.status


def _matrix_problems(grid, n):
    """Shape, status and the diagonal-is-column-minimum invariant."""
    if len(grid.values) != n or any(len(row) != n for row in grid.values):
        return ["matrix is not %dx%d" % (n, n)]
    out = []
    for vrow, srow in zip(grid.values, grid.status):
        for v, s in zip(vrow, srow):
            if (v is None) != (s == opcost.CELL_INFEASIBLE):
                out.append("value/status mismatch")
                return out
    for j in range(n):
        d = grid.values[j][j]
        if d is None or any(grid.values[i][j] is not None
                            and grid.values[i][j] < d for i in range(n)):
            out.append("diagonal cell %d is not its column minimum" % j)
    return out


def _cross_problems(grid, inst, methods):
    """Cells of the other methods' builds on the same decisions must match."""
    dec = opcost.DecisionList(tuple(lattice.IntVector(x)
                                    for x in grid.decisions))
    out = []
    for method in methods:
        build = getattr(opcost, "opcost_" + method)
        if not grid.same_cells(Grid.of(build(inst, dec))):
            out.append("matrix differs from the %s build" % method)
    return out


PROPERTY_KEYS = ("opcost.cells_dup_frac", "opcost.cells_infeasible_frac",
                 "opcost.cells_phase_one_frac", "opcost.max_abs_b",
                 "opcost.distinct_decisions", "opcost.phase_one_calls",
                 "opcost.phase_one_bases")


def cell_properties(inst, grid):
    """Input properties the cell loop's cost depends on."""
    keys = []
    max_b = 0
    for x in grid.decisions:
        xv = lattice.IntVector(x)
        for j, sc in enumerate(inst.scenarios):
            b = opcost.rhs(inst, xv, j).entries
            max_b = max([max_b] + [abs(e) for e in b])
            keys.append((b, sc.cost.entries))
    cells = len(keys)
    return {
        "opcost.cells_dup_frac": (cells - len(set(keys))) / cells,
        "opcost.cells_infeasible_frac": sum(
            v is None for row in grid.values for v in row) / cells,
        "opcost.cells_phase_one_frac": grid.counters["phase_one_calls"] / cells,
        "opcost.max_abs_b": max_b,
        "opcost.distinct_decisions": len(set(grid.decisions)),
        "opcost.phase_one_calls": grid.counters["phase_one_calls"],
        "opcost.phase_one_bases": grid.counters["phase_one_bases"],
    }


class HsLibrary:
    """HS instance through the library: decisions, then one build, threads=1."""

    threads = 1

    def __init__(self, family, n, method):
        self.family, self.n, self.method = family, n, method
        self.scaled = family == "hs_scaled"
        self.reference = ("graver",) if method == "kernel" else ("kernel",)

    def make(self, seed, workdir):
        base = instances.gen_hs(instances.HsConfig(
            scenario_count=self.n, seed=1, scaled=self.scaled))
        perm = permutation(self.n, seed)
        inst = permuted(base, perm)
        with open(os.path.join(workdir, "instance.json"), "w") as fh:
            fh.write(instances.instance_to_json(inst))
        return inst, perm

    def run(self, case, threads):
        inst = case[0]
        dec = opcost.single_scenario_decisions(inst, method=self.method)
        return getattr(opcost, "opcost_" + self.method)(inst, dec,
                                                        threads=threads)

    def grid(self, case, out):
        return Grid.of(out)

    def properties(self, case, grid):
        return cell_properties(case[0], grid)

    def check(self, case, grid, full):
        inst, perm = case
        problems = _matrix_problems(grid, self.n)
        problems += _checksum_problems(grid, perm, (self.family, self.n))
        if full:
            problems += _cross_problems(grid, inst, self.reference)
        return problems


class SndCli:
    """SND through `latticeopt.cli.run`: gen-snd to JSON, then opcost --meta."""

    family = "snd_cli"
    n = 30
    max_demand = 2
    threads = min(2, os.cpu_count() or 1)

    def __init__(self, method):
        self.method = method
        self.reference = tuple(m for m in ("kernel", "graver", "oracle")
                               if m != method)

    def make(self, seed, workdir):
        path = os.path.join(workdir, "snd-%d.json" % seed)
        code = cli.run(["gen-snd", "--n", str(self.n), "--max-demand",
                        str(self.max_demand), "--seed", "1", "--out", path])
        if code != 0:
            raise RuntimeError("gen-snd exited with %d" % code)
        with open(path) as fh:
            base = instances.instance_from_json(fh.read())
        perm = permutation(self.n, seed)
        with open(path, "w") as fh:
            fh.write(instances.instance_to_json(permuted(base, perm)))
        return SimpleNamespace(path=path, perm=perm,
                               csv=os.path.join(workdir, "m-%d.csv" % seed),
                               meta=os.path.join(workdir, "m-%d.json" % seed))

    def run(self, case, threads):
        code = cli.run(["--threads", str(threads), "opcost", "--instance",
                        case.path, "--method", self.method, "--out", case.csv,
                        "--meta", case.meta])
        if code != 0:
            raise RuntimeError("opcost exited with %d" % code)
        return code

    def grid(self, case, out):
        with open(case.meta) as fh:
            meta = json.load(fh)
        return Grid(meta["values"], meta["status"], meta["decisions"],
                    meta["counters"])

    def instance(self, case):
        with open(case.path) as fh:
            return instances.instance_from_json(fh.read())

    def properties(self, case, grid):
        return cell_properties(self.instance(case), grid)

    def check(self, case, grid, full):
        problems = _matrix_problems(grid, self.n)
        problems += _checksum_problems(grid, case.perm, (self.family, self.n))
        if full:
            problems += _cross_problems(grid, self.instance(case),
                                        self.reference)
        return problems


def _checksum_problems(grid, perm, key):
    """Permuted back to the instance's scenario order, the matrix must match."""
    if len(grid.values) != len(perm):
        return []  # reported by _matrix_problems
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    values = [[grid.values[inv[a]][inv[b]] for b in range(len(perm))]
              for a in range(len(perm))]
    got = cli.matrix_checksum(SimpleNamespace(values=values))
    want = MATRIX_CHECKSUM[key]
    return [] if got == want else ["checksum %s, expected %s" % (got, want)]


def wide_stairstep_matrix():
    """Seven dense arithmetic-progression rows beside an identity block."""
    rows = [(1,) * 10] + [tuple(i + j for j in range(10)) for i in range(1, 7)]
    return lattice.IntMatrix(tuple(
        row + tuple(1 if k == r else 0 for k in range(7))
        for r, row in enumerate(rows)))


def basis_digest(basis):
    text = ";".join(",".join(map(str, g.entries))
                    for g in basis.elements.canonical())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Completion:
    """Toric generators of the 7x17 matrix, completed under two costs.

    The seed shuffles the generators before each completion; the reduced
    basis does not depend on that order, so its digest is fixed.
    """

    family = "completion_7x17"
    method = None
    threads = 1

    def __init__(self):
        self.matrix = wide_stairstep_matrix()
        n = self.matrix.ncols
        self.costs = ((1,) * n, tuple(range(1, n + 1)))

    def make(self, seed, workdir):
        with open(os.path.join(workdir, "matrix.json"), "w") as fh:
            json.dump({"rows": [list(r) for r in self.matrix.rows]}, fh)
        return seed

    def run(self, seed, threads):
        gens = list(toric.toric_generating_set(self.matrix).generators)
        rng = random.Random(seed)
        bases = []
        for cost in self.costs:
            rng.shuffle(gens)
            bases.append(groebner.buchberger(gens, lattice.CostOrder(cost),
                                             matrix=self.matrix))
        return gens, bases

    def grid(self, case, out):
        return out

    def properties(self, case, out):
        return dict.fromkeys(PROPERTY_KEYS, 0)

    def check(self, case, out, full):
        gens, bases = out
        problems = []
        for cost, basis in zip(self.costs, bases):
            got = basis_digest(basis)
            if got != COMPLETION_DIGEST:
                problems.append("cost %s: basis digest %s, expected %s"
                                % (cost[:3], got, COMPLETION_DIGEST))
            if full:
                order = lattice.CostOrder(cost)
                if not all(groebner.normal_form(g, basis, order).is_zero()
                           for g in gens):
                    problems.append("a generator does not reduce to zero")
        return problems


WORKLOADS = {
    "hs_scaled.kernel": HsLibrary("hs_scaled", 100, "kernel"),
    "hs_scaled.graver": HsLibrary("hs_scaled", 20, "graver"),
    "hs_unscaled.kernel": HsLibrary("hs_unscaled", 10, "kernel"),
    "snd_cli.kernel": SndCli("kernel"),
    "snd_cli.oracle": SndCli("oracle"),
    "completion_7x17": Completion(),
}
