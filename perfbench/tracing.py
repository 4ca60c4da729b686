"""Spans around latticeopt's layer functions, recorded from outside the package.

Each wrapped call records a span (name, start, end, parent) plus whatever
the call returned that a metric counts. Self time is a span's duration minus
the durations of its direct children; children never overlap because the
traced pipelines run single-threaded.

The package imports functions by value, so a function is replaced in every
namespace that holds it. `latticeopt.augment` is the function re-exported by
the package, so submodules are fetched with importlib.
"""

from __future__ import annotations

import importlib
import time

PERF = time.perf_counter

# (span name, defining module, function, modules that import it by name)
TARGETS = (
    ("opcost.decisions", "opcost", "single_scenario_decisions", ("cli",)),
    ("opcost.build", "opcost", "opcost_kernel", ("cli",)),
    ("opcost.build", "opcost", "opcost_graver", ("cli",)),
    ("opcost.build", "opcost", "opcost_oracle", ("cli",)),
    ("toric", "toric", "toric_generating_set", ("opcost", "cli")),
    ("groebner.buchberger", "groebner", "buchberger",
     ("toric", "opcost", "cli")),
    ("graver", "graver", "graver_basis", ("opcost", "cli")),
    ("augment.walk", "augment", "augment", ("opcost", "cli")),
    ("augment.phase_one", "augment", "phase_one_feasible", ("opcost",)),
    ("oracle", "oracle", "solve_bruteforce", ()),
    ("lattice.kernel_basis", "lattice", "kernel_basis", ("toric", "graver")),
    ("instances.json_decode", "instances", "instance_from_json", ("cli",)),
    ("cli", "cli", "run", ()),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "key", "out")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.key = None
        self.out = None

    @property
    def duration(self):
        return self.end - self.start


def _buchberger_key(args, kwargs):
    """Distinct-input key of a Buchberger call: seed set, order, matrix."""
    seed = args[0]
    order = args[1] if len(args) > 1 else kwargs["order"]
    matrix = args[2] if len(args) > 2 else kwargs.get("matrix")
    return (frozenset(v.entries for v in seed), order.cost.entries,
            tuple(order.tie_order), None if matrix is None else matrix.rows)


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for name, home, attr, users in TARGETS:
            original = getattr(self._module(home), attr)
            wrapper = self._wrap(name, original)
            for mod_name in (home,) + users:
                mod = self._module(mod_name)
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    @staticmethod
    def _module(name):
        return importlib.import_module("latticeopt." + name)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_name = name
            if name == "augment.walk" and parent >= 0 and \
                    spans[parent].name == "augment.phase_one":
                span_name = "augment.phase_one.walk"
            span = Span(span_name, parent)
            if name == "groebner.buchberger":
                if not isinstance(args[0], (list, tuple)):
                    args = (list(args[0]),) + args[1:]
                span.key = _buchberger_key(args, kwargs)
            elif name == "graver":
                span.key = args[0].rows
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = PERF()
            try:
                span.out = fn(*args, **kwargs)
            finally:
                span.end = PERF()
                stack.pop()
            return span.out

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Spans recorded since the last call; the tracer starts empty again."""
        out = list(self.spans)
        del self.spans[:]
        return out


def layer_metrics(spans, wall_s):
    """Per-layer counts and self times of one traced pipeline."""
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_sum[s.parent] += s.duration
    self_s = {}
    calls = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child_sum[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    builds = named("opcost.build")
    build_s = sum(s.duration for s in builds)
    reported_s = sum(sum(s.out.timings_us.values()) for s in builds) / 1e6
    buch = named("groebner.buchberger")
    phase_one = named("augment.phase_one")
    return {
        "opcost.decisions_s": sum(s.duration for s in named("opcost.decisions")),
        "opcost.build_s": build_s,
        "opcost.self_s": (self_s.get("opcost.decisions", 0.0)
                          + self_s.get("opcost.build", 0.0)),
        "opcost.timings_gap_frac": (1 - reported_s / build_s) if builds else 0.0,
        "toric.calls": calls.get("toric", 0),
        "toric.self_s": self_s.get("toric", 0.0),
        "groebner.buchberger.calls": len(buch),
        "groebner.buchberger.distinct_inputs": len({s.key for s in buch}),
        "groebner.buchberger.self_s": self_s.get("groebner.buchberger", 0.0),
        "groebner.basis_elems": sum(
            len(s.out) for s in buch
            if s.parent < 0 or spans[s.parent].name != "toric"),
        "graver.calls": calls.get("graver", 0),
        "graver.distinct_inputs": len({s.key for s in named("graver")}),
        "graver.self_s": self_s.get("graver", 0.0),
        "augment.walk.calls": calls.get("augment.walk", 0),
        "augment.walk.steps": sum(s.out.steps for s in named("augment.walk")),
        "augment.walk.self_s": self_s.get("augment.walk", 0.0),
        "augment.phase_one.calls": len(phase_one),
        "augment.phase_one.self_s": (self_s.get("augment.phase_one", 0.0)
                                     + self_s.get("augment.phase_one.walk", 0.0)),
        "augment.phase_one.infeasible": sum(1 for s in phase_one if s.out is None),
        "oracle.calls": calls.get("oracle", 0),
        "oracle.self_s": self_s.get("oracle", 0.0),
        "lattice.kernel_basis.calls": calls.get("lattice.kernel_basis", 0),
        "lattice.kernel_basis.self_s": self_s.get("lattice.kernel_basis", 0.0),
        "instances.json_decode_s": sum(
            s.duration for s in named("instances.json_decode")),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.coverage_frac": sum(
            s.duration for s in spans if s.parent < 0) / wall_s,
    }
