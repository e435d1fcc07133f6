"""Per-layer tracing of coxsph from outside the package.

`Tracer.install()` replaces the public functions of each traced module, and
the public methods of its classes, with wrappers that count calls and time
them. Hot functions such as `CoxeterSystem.multiply` run millions of times,
so nothing is recorded per call: counts and times are aggregated in memory,
keyed by (parent span, span). Only top-level calls, one per request, are
kept as spans.

A span is named `<module>.<function>`; a method takes its own name, so
`CoxeterSystem.multiply` is `coxeter.multiply` and `WitnessSearcher.search`
is `spherical.search`. When two classes of one module define a method of the
same name, the first class in `CLASSES` keeps it (`Element.inverse` only
forwards to `CoxeterSystem.inverse`).
"""

from __future__ import annotations

import inspect
from time import perf_counter

MODULES = ("coxeter", "words", "spherical", "typea", "polyring", "splitrule", "harness")

CLASSES = {
    "coxeter": ("CoxeterSystem", "Element"),
    "spherical": ("WitnessSearcher",),
    "polyring": ("Poly", "SplitExpansion", "SplitSet"),
}

# Constructors traced as spans of their own: each call builds one searcher.
CONSTRUCTORS = {"spherical.WitnessSearcher": ("spherical", "WitnessSearcher")}

# (ancestor, span): calls of span made anywhere below an active ancestor.
UNDER = {
    ("spherical.search", "coxeter.multiply"): "spherical.search.dfs_steps",
    ("polyring.split_expand", "polyring.d_schur"): "polyring.peel_steps",
}

# Span -> (counter, measure of the returned value), summed over calls.
RESULTS = {
    "spherical.search": ("spherical.search.found", lambda r: r is not None),
    "polyring.key_polynomial": ("polyring.key.terms", lambda r: len(r.terms)),
}


def _public_callables(package, name):
    """(span name, owner, attribute, original) for one traced module."""
    module = getattr(package, name)
    out, taken = [], set()
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a wrapper would time only the generator's creation
        out.append((f"{name}.{attr}", module, attr, obj))
        taken.add(attr)
    for cls_name in CLASSES.get(name, ()):
        cls = getattr(module, cls_name)
        for attr, obj in vars(cls).items():
            if attr.startswith("_") or attr in taken or not inspect.isfunction(obj):
                continue
            out.append((f"{name}.{attr}", cls, attr, obj))
            taken.add(attr)
    return out


class Tracer:
    """Aggregating call tracer; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self._patches = []
        self.stats = {}  # (parent, span) -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []  # (span, start_s, duration_s, request id)
        self._stack = []  # [span, child_s] per active call
        self._active = {}

    def reset(self):
        """Forget everything recorded; the wrappers hold these containers."""
        for box in (self.stats, self.counters, self.spans, self._stack, self._active):
            box.clear()

    def _wrap(self, span, fn):
        stats, stack, active, counters = self.stats, self._stack, self._active, self.counters
        under = [(anc, counter) for (anc, sp), counter in UNDER.items() if sp == span]
        result_counter, measure = RESULTS.get(span, (None, None))
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            active[span] = active.get(span, 0) + 1
            for anc, counter in under:
                if active.get(anc):
                    counters[counter] = counters.get(counter, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[span] -= 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    spans.append((span, start, elapsed, len(spans)))
                row = stats.get((parent, span))
                if row is None:
                    row = stats[(parent, span)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if measure is not None:
                counters[result_counter] = counters.get(result_counter, 0) + measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced callable, in every coxsph module that names it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, m) for m in MODULES]
        targets = [t for m in MODULES for t in _public_callables(self.package, m)]
        for span, (mod_name, cls_name) in CONSTRUCTORS.items():
            cls = getattr(getattr(self.package, mod_name), cls_name)
            targets.append((span, cls, "__init__", cls.__init__))
        replaced = {}
        for span, owner, attr, original in targets:
            wrapper = self._wrap(span, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if not inspect.isclass(owner):
                replaced[id(original)] = (original, wrapper)
        # `from .typea import left_descents` and the like hold their own
        # references; point those at the wrappers too.
        for module in modules + [self.package]:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj and getattr(module, attr) is not hit[1]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation --------------------------------------------------------

    def calls(self, span) -> int:
        return sum(row[0] for (_, sp), row in self.stats.items() if sp == span)

    def self_s(self, span) -> float:
        return sum(row[2] for (_, sp), row in self.stats.items() if sp == span)

    def module_self_s(self, module) -> float:
        prefix = module + "."
        return sum(row[2] for (_, sp), row in self.stats.items() if sp.startswith(prefix))

    def calls_from(self, parent, span) -> int:
        row = self.stats.get((parent, span))
        return row[0] if row else 0

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced job, by name."""
        m = {}
        for span in (
            "coxeter.multiply", "coxeter.word", "coxeter.left_descents",
            "coxeter.inverse", "coxeter.decompose_subset", "coxeter.coxeter_system",
            "words.evaluate", "typea.element_to_perm", "spherical.search",
            "polyring.key_polynomial", "polyring.demazure_pi",
            "polyring.is_split_symmetric", "polyring.split_expand",
            "polyring.d_schur", "polyring.is_D_multiplicity_free",
            "polyring.split_expand_via_solver", "splitrule.ry_expand",
        ):
            m[f"{span}.calls"] = self.calls(span)
            m[f"{span}.self_s"] = self.self_s(span)
        for span in ("words.parse_word", "polyring.is_symmetric_in"):
            m[f"{span}.calls"] = self.calls(span)
        m["coxeter.elements.self_s"] = self.self_s("coxeter.elements")
        for parent in ("coxeter.elements", "coxeter.word", "spherical.search"):
            m[f"coxeter.multiply.calls.by.{parent}"] = self.calls_from(parent, "coxeter.multiply")
        for module in MODULES:
            m[f"{module}.self_s"] = self.module_self_s(module)
        for counter in list(UNDER.values()) + [c for c, _ in RESULTS.values()]:
            m[counter] = self.counters.get(counter, 0)
        found, searches = m.pop("spherical.search.found"), m["spherical.search.calls"]
        m["spherical.search.found_ratio"] = found / searches if searches else 0.0
        m["spherical.searchers_built"] = self.calls("spherical.WitnessSearcher")
        return m
