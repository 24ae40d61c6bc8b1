"""In-process tracing of the CLI's layers for the per-layer metrics.

``Tracer.install`` wraps the public functions of the layer modules
``jsonio``, ``preferences``, ``cones``, ``linprog`` and ``counterexample``
at every import site: modules bind names such as ``dual_cone`` at import,
so each module whose namespace holds the original function, ``cli``
included, gets the wrapper.  The runner records ``cli.main`` itself through
``Tracer.span``.  ``ExactLP.minimize`` is wrapped on the class,
which covers ``feasibility`` and ``maximize`` for every caller.  Each call
records a span (name, parent span, start, end) kept in memory until
``metrics`` folds them into per-layer totals.  ``uninstall`` restores every
original binding.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, function); layer = text before the first dot
WRAPPED = {
    "jsonio.parse": ("jsonio", ("load_json", "parse_dataset", "parse_query_pair", "parse_utility_set")),
    "jsonio.emit": ("jsonio", ("dump_json", "representation_to_json", "verdict_to_json")),
    "preferences.extract": ("preferences", ("extract_representation",)),
    "preferences.query": ("preferences", ("query",)),
    "preferences.agree": ("preferences", ("utilities_agree",)),
    "preferences.uniqueness": ("preferences", ("check_uniqueness",)),
    "cones.dual": ("cones", ("dual_cone",)),
    "cones.from_generators": ("cones", ("cone_from_generators",)),
    "cones.membership": ("cones", ("membership",)),
    "cones.contains": ("cones", ("contains",)),
    "cones.equal": ("cones", ("cone_equal",)),
    "cones.canonical_rep": ("cones", ("canonical_rep",)),
    "cones.verify": ("cones", ("verify_membership",)),
    "counterexample.lab": ("counterexample", ("lab_table",)),
    "counterexample.build": ("counterexample", ("build_truncation",)),
    "counterexample.anchor": ("counterexample", ("anchor_membership",)),
    "counterexample.cost": ("counterexample", ("separation_cost",)),
}

# per-layer metric -> span whose outermost calls it totals
TIMES = {
    "cones.dual_s": "cones.dual",
    "cones.from_generators_s": "cones.from_generators",
    "cones.membership_s": "cones.membership",
    "cones.contains_s": "cones.contains",
    "cones.canonical_rep_s": "cones.canonical_rep",
    "cones.verify_s": "cones.verify",
    "preferences.query_s": "preferences.query",
    "preferences.agree_s": "preferences.agree",
    "counterexample.build_s": "counterexample.build",
    "counterexample.anchor_s": "counterexample.anchor",
    "counterexample.cost_s": "counterexample.cost",
    "linprog.solve_s": "linprog.solve",
    "jsonio.parse_s": "jsonio.parse",
    "jsonio.emit_s": "jsonio.emit",
}
CALLS = {
    "cones.membership_calls": "cones.membership",
    "cones.contains_calls": "cones.contains",
    "linprog.solves": "linprog.solve",
}
SELF_TIMES = ("cli", "preferences", "cones", "counterexample")


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start ns, end ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter_ns()

    def _wrap(self, name: str, fn, before=None, after=None):
        """Record a span per call; ``before`` may rewrite the positional
        arguments and ``after`` sees the result, both to add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(*args)
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def install(self) -> None:
        def lp_cells(lp, *rest):
            self._count("linprog.cells", len(lp.rows) * lp.num_vars)
            return (lp, *rest)

        def generators_in(vectors, *rest):
            vectors = list(vectors)
            self._count("cones.generators_in", len(vectors))
            return (vectors, *rest)

        hooks = {
            "cones.dual": (None, lambda cone: self._count("cones.dual_rays", len(cone.rays))),
            "cones.from_generators": (
                generators_in,
                lambda cone: self._count("cones.rays_kept", len(cone.rays) + len(cone.lineality)),
            ),
        }
        modules = [m for key, m in sys.modules.items() if key == "multiutility" or key.startswith("multiutility.")]
        for name, (module, functions) in WRAPPED.items():
            home = sys.modules[f"multiutility.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, *hooks.get(name, ()))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, value))
                            setattr(m, attr, wrapper)
        lp_class = sys.modules["multiutility.linprog"].ExactLP
        self._undo.append((lp_class, "minimize", lp_class.minimize))
        lp_class.minimize = self._wrap("linprog.solve", lp_class.minimize, before=lp_cells)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in SELF_TIMES}
        children = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                children[parent] += end - start
        names = {}
        for idx, (name, parent, start, end) in enumerate(spans):
            names.setdefault(name, []).append(idx)
            layer = name.split(".", 1)[0]
            if layer in SELF_TIMES:
                out[f"{layer}.self_s"] += (end - start - children[idx]) / 1e9

        def outermost(idx: int) -> bool:
            name, parent = spans[idx][0], spans[idx][1]
            while parent >= 0:
                if spans[parent][0] == name:
                    return False
                parent = spans[parent][1]
            return True

        for metric, name in TIMES.items():
            out[metric] = sum(
                (spans[i][3] - spans[i][2]) / 1e9 for i in names.get(name, ()) if outermost(i)
            )
        for metric, name in CALLS.items():
            out[metric] = len(names.get(name, ()))
        # share of membership calls during which at least one LP ran
        with_lp = set()
        for i in names.get("linprog.solve", ()):
            parent = spans[i][1]
            while parent >= 0 and spans[parent][0] != "cones.membership":
                parent = spans[parent][1]
            if parent >= 0:
                with_lp.add(parent)
        calls = out["cones.membership_calls"]
        out["cones.membership_lp_ratio"] = len(with_lp) / calls if calls else 0.0
        for key in ("cones.dual_rays", "cones.generators_in", "cones.rays_kept", "linprog.cells"):
            out[key] = self.counts[key]
        return out
