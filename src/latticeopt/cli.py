"""Command-line front end: generators, bases, matrices, bench, verify.

Matrix files are JSON objects {"rows": [[...]]}; instance files follow the
interchange format in the instances module. Exit codes: 0 success,
1 verification mismatch, 2 bad input, 3 a limit hit: an element cap or
the oracle's node cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time

from .augment import augment  # noqa: F401 -- perfbench traces it here
from .graver import (GraverResourceError, SipBlockStructure,
                     contains_groebner, graver_basis, lift_sip_graver)
from .groebner import buchberger
from .instances import (SND_FAMILIES, HsConfig, SndConfig, _dec_as, _dec_mat,
                        _dec_vec, gen_hs, gen_snd, gen_snd_family,
                        instance_from_json, instance_to_json)
from .lattice import CostOrder, IntMatrix, IntVector
from .opcost import (DecisionList, METHOD_GRAVER, METHOD_KERNEL,
                     METHOD_ORACLE, METHODS, opcost_graver, opcost_kernel,
                     opcost_oracle, single_scenario_decisions)
from .oracle import OracleResourceError, enumerate_graver_in_box
from .toric import test_set, toric_generating_set


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One benchmark row: a full matrix build pipeline at one size."""

    family: str
    method: str
    scenario_count: int
    variable_count: int
    timings_us: dict
    total_us_min: int
    total_us_max: int
    checksum: str
    counters: dict

    def to_json_line(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def matrix_checksum(matrix) -> str:
    """Order-independent digest of the (position, value) cell multiset."""
    cells = sorted(
        "%d:%d:%s" % (i, j, "x" if v is None else v)
        for i, row in enumerate(matrix.values)
        for j, v in enumerate(row))
    return hashlib.sha256(",".join(cells).encode()).hexdigest()[:16]


def _opcost(method, inst, dec, q_only=False):
    """The matrix that `method`'s builder makes.

    The builders are read from this module's globals on each call, so a
    tracer that wraps them here sees every build.
    """
    return {METHOD_KERNEL: opcost_kernel, METHOD_GRAVER: opcost_graver,
            METHOD_ORACLE: opcost_oracle}[method](inst, dec, q_only=q_only)


def _as_read(inst):
    """The instance read back from its JSON, as `opcost` reads it."""
    return instance_from_json(instance_to_json(inst))


# Each family's instance for (scenario count, seed). SND is the triangle
# network with demands up to 2 and the snd-* families are
# `instances.SND_FAMILIES`, each read back from its JSON.
BENCH_FAMILIES = {
    "hs-scaled": lambda n, seed: gen_hs(HsConfig(n, seed, scaled=True)),
    "hs-unscaled": lambda n, seed: gen_hs(HsConfig(n, seed)),
    "snd": lambda n, seed: _as_read(gen_snd(SndConfig(n, seed,
                                                      max_demand=2))),
    **{name: (lambda n, seed, name=name: _as_read(
        gen_snd_family(name, n, seed))) for name in SND_FAMILIES},
}


BENCH_RUNS = 5  # runs of each size's decisions and builds


def bench(family, n_list, seed, methods):
    """Time the decision + matrix pipeline per method and scenario count.

    Each size takes BENCH_RUNS runs of its decisions, which every method's
    build in the run shares. A row reports each timing's median, the
    lowest and highest run totals, and the last run's checksum and
    counters. An unknown method raises ValueError, and an unknown family
    KeyError, before any work is done.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError("unknown method %r: choose from %s"
                             % (method, ", ".join(METHODS)))
    records = []
    for n in n_list:
        inst = BENCH_FAMILIES[family](n, seed)
        runs = {method: [] for method in methods}
        for _ in range(BENCH_RUNS):
            t0 = time.perf_counter_ns()
            dec = single_scenario_decisions(inst)
            decisions_us = (time.perf_counter_ns() - t0) // 1000
            for method in methods:
                m = _opcost(method, inst, dec)
                runs[method].append(
                    ({"decisions_us": decisions_us, **m.timings_us}, m))
        for method in methods:
            timings = [t for t, _ in runs[method]]
            totals = [sum(t.values()) for t in timings]
            m = runs[method][-1][1]
            records.append(BenchRecord(
                family=family, method=method, scenario_count=n,
                variable_count=inst.recourse.ncols,
                timings_us={key: statistics.median(t[key] for t in timings)
                            for key in timings[0]},
                total_us_min=min(totals), total_us_max=max(totals),
                checksum=matrix_checksum(m), counters=m.counters.as_dict()))
    return records


def _read_matrix(path: str) -> IntMatrix:
    with open(path) as fh:
        return _dec_mat(_dec_as(json.load(fh), dict)["rows"])


def _emit(text: str, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_gen_hs(args) -> int:
    cfg = HsConfig(scenario_count=args.n, seed=args.seed, scaled=args.scaled)
    _emit(instance_to_json(gen_hs(cfg)), args.out)
    return 0


def _cmd_gen_snd(args) -> int:
    cfg = SndConfig(scenario_count=args.n, seed=args.seed,
                    max_demand=args.max_demand)
    _emit(instance_to_json(gen_snd(cfg)), args.out)
    return 0


def _cmd_toric(args) -> int:
    gens = toric_generating_set(_read_matrix(args.matrix))
    doc = {"generators": [list(g.entries) for g in gens.generators]}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_groebner(args) -> int:
    A = _read_matrix(args.matrix)
    cost = IntVector(_parse_int_list(args.cost))
    basis = test_set(A, cost)
    doc = {"cost": list(cost.entries),
           "elements": [list(g.entries) for g in basis]}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_graver(args) -> int:
    basis = graver_basis(_read_matrix(args.matrix))
    doc = {"elements": [list(g.entries) for g in basis]}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_opcost(args) -> int:
    with open(args.instance) as fh:
        inst = instance_from_json(fh.read())
    if args.decisions == "single-scenario":
        dec = single_scenario_decisions(inst)
    else:
        with open(args.decisions) as fh:
            rows = _dec_as(json.load(fh), list)
        dec = DecisionList(tuple(map(_dec_vec, rows)))
    m = _opcost(args.method, inst, dec, args.q_only)
    _emit(m.to_csv(), args.out)
    if args.meta is not None:
        _emit(m.to_json(), args.meta)
    return 0


def _cmd_bench(args) -> int:
    if args.label is not None and os.path.basename(args.label) != args.label:
        raise ValueError("label %r holds a path separator" % args.label)
    records = [rec for family in args.family or ("hs-unscaled",)
               for rec in bench(family, _parse_int_list(args.n_list),
                                args.seed, tuple(args.methods.split(",")))]
    _emit("\n".join(r.to_json_line() for r in records), args.out)
    if args.label is not None:
        doc = {"seed": args.seed, "cpu_count": os.cpu_count(),
               "python": "%d.%d.%d" % sys.version_info[:3],
               "rows": [dataclasses.asdict(r) for r in records]}
        _emit(json.dumps(doc, indent=1), "BENCH_%s.json" % args.label)
    return 0


def _verify_checks():
    def hs_cross_method():
        inst = gen_hs(HsConfig(scenario_count=2, seed=7, scaled=True))
        dec = single_scenario_decisions(inst)
        mk = opcost_kernel(inst, dec)
        mg = opcost_graver(inst, dec)
        mo = opcost_oracle(inst, dec)
        return mk == mg == mo

    def snd_cross_method():
        inst = gen_snd(SndConfig(scenario_count=2, seed=3))
        dec = DecisionList((IntVector((1, 1, 1, 0, 0, 0)),
                            IntVector((0, 0, 0, 1, 1, 1))))
        mk = opcost_kernel(inst, dec)
        mg = opcost_graver(inst, dec)
        mo = opcost_oracle(inst, dec)
        return mk == mg == mo

    def hs_diagonal_minimum():
        inst = gen_hs(HsConfig(scenario_count=3, seed=19, scaled=True))
        m = opcost_kernel(inst, single_scenario_decisions(inst))
        return all(
            m.values[j][j] == min(m.values[i][j] for i in range(m.size))
            for j in range(m.size))

    def toric_trivial_kernel():
        gens = toric_generating_set(IntMatrix.identity(2))
        return len(gens.generators) == 0

    def toric_sum_matrix():
        gens = toric_generating_set(IntMatrix(((1, 1, 1),)))
        return {g.entries for g in gens.generators} == {
            (1, 0, -1), (0, 1, -1)}

    def groebner_reduced_example():
        basis = buchberger([IntVector((-1, 1, 0)), IntVector((0, -1, 1))],
                           CostOrder((1, 2, 3)), IntMatrix(((1, 1, 1),)))
        return {g.entries for g in basis} == {(-1, 1, 0), (-1, 0, 1)}

    def groebner_inside_graver():
        W = gen_hs(HsConfig(scenario_count=1, seed=0)).recourse
        gamma = graver_basis(W)
        basis = test_set(W, IntVector((16, 19, 47, 54, 0, 0, 0, 0)))
        return contains_groebner(basis, gamma)

    def graver_box_equality():
        A = IntMatrix(((1, 2),))
        basis = graver_basis(A)
        box = enumerate_graver_in_box(A, 4)
        inside = {g.entries for g in basis
                  if max(abs(e) for e in g.entries) <= 4}
        return inside == {v.entries for v in box}

    def sip_lift():
        first = IntMatrix.identity(2)
        T = IntMatrix(((1, 0),))
        W = IntMatrix(((1, 1),))
        s1 = SipBlockStructure(first, T, W, 1)
        gamma1 = graver_basis(s1.stacked())
        s2 = SipBlockStructure(first, T, W, 2)
        lifted = lift_sip_graver(gamma1, s2)
        direct = graver_basis(s2.stacked())
        return {g.entries for g in lifted} == {g.entries for g in direct}

    def reuse_counters():
        inst = gen_hs(HsConfig(scenario_count=2, seed=7, scaled=True))
        dec = single_scenario_decisions(inst)
        c = opcost_kernel(inst, dec).counters
        g = opcost_graver(inst, dec).counters
        return (c.toric_runs, c.buchberger_runs, g.graver_runs) == (1, 1, 1)

    def json_round_trip():
        inst = gen_hs(HsConfig(scenario_count=3, seed=11, scaled=True))
        text = instance_to_json(inst)
        return instance_to_json(instance_from_json(text)) == text

    def repeat_determinism():
        inst = gen_snd(SndConfig(scenario_count=2, seed=3))
        dec = DecisionList((IntVector((1, 1, 1, 0, 0, 0)),
                            IntVector((0, 0, 0, 1, 1, 1))))
        return opcost_kernel(inst, dec) == opcost_kernel(inst, dec)

    return [
        ("hs-cross-method", hs_cross_method),
        ("snd-cross-method", snd_cross_method),
        ("hs-diagonal-minimum", hs_diagonal_minimum),
        ("toric-trivial-kernel", toric_trivial_kernel),
        ("toric-sum-matrix", toric_sum_matrix),
        ("groebner-reduced-example", groebner_reduced_example),
        ("groebner-inside-graver", groebner_inside_graver),
        ("graver-box-equality", graver_box_equality),
        ("sip-lift", sip_lift),
        ("reuse-counters", reuse_counters),
        ("json-round-trip", json_round_trip),
        ("repeat-determinism", repeat_determinism),
    ]


def _cmd_verify(args) -> int:
    checks = _verify_checks()
    failures = 0
    for name, check in checks:
        ok = check()
        print(("ok %s" if ok else "FAIL %s") % name)
        if not ok:
            failures += 1
    print("%d checks, %d failures" % (len(checks), failures))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeopt",
        description="Lattice test sets and opportunity cost matrices.")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every build runs in one "
                        "process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hs", help="write a sampled instance as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaled", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_hs)

    p = sub.add_parser("gen-snd", help="write a network design instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-demand", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_snd)

    p = sub.add_parser("toric", help="kernel generating set of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_toric)

    p = sub.add_parser("groebner", help="reduced basis for a cost vector")
    p.add_argument("--matrix", required=True)
    p.add_argument("--cost", required=True,
                   help="comma-separated non-negative integers")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_groebner)

    p = sub.add_parser("graver", help="Graver basis of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_graver)

    p = sub.add_parser("opcost", help="opportunity cost matrix from instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=METHODS, default=METHOD_KERNEL)
    p.add_argument("--decisions", default="single-scenario",
                   help="'single-scenario' or a JSON file of vectors")
    p.add_argument("--q-only", action="store_true")
    p.add_argument("--out", default="-", help="CSV destination")
    p.add_argument("--meta", default=None, help="metadata JSON destination")
    p.set_defaults(func=_cmd_opcost)

    p = sub.add_parser("bench", help="pipeline timings as JSON lines")
    p.add_argument("--n-list", default="10,50,100")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--family", action="append", choices=BENCH_FAMILIES,
                   help="repeat for more families (default hs-unscaled)")
    p.add_argument("--methods", default="kernel,graver")
    p.add_argument("--out", default="-")
    p.add_argument("--label", default=None,
                   help="also write the rows, the Python version and the "
                   "CPU count to BENCH_<label>.json")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="cross-method and invariant checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (OracleResourceError, GraverResourceError) as exc:
        print("limit hit: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
