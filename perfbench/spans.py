"""Tracing from outside: wrap public graphgenus functions at every
module binding and keep spans in memory.

A span is [name, parent index, start, end, request id].  Spans of one
request share the tracer's list until ``fold`` turns them into
per-function call counts and self times, where self time is the span's
duration minus the union of its child spans.  The wrappers also count what the layer
ratios need: repeated presentations and classes in canonical_form,
welds that return None, classes found per canonical_form call inside
enumerate_trivalent, and rank against relations in RelationSet.
"""
from __future__ import annotations

import sys
import time

# (module, attribute) of every traced function; methods are "Class.method"
TARGETS = (
    ("cli", "main"),
    ("graph_core", "canonical_form"),
    ("graph_core", "weld_all"),
    ("graph_algebra", "parse_vector"),
    ("graph_algebra", "enumerate_trivalent"),
    ("graph_algebra", "ihx_relations"),
    ("graph_algebra", "RelationSet.__init__"),
    ("graph_algebra", "RelationSet.reduce_vector"),
    ("graph_algebra", "reduce"),
    ("graph_algebra", "dimension"),
    ("wheeling", "omega"),
    ("wheeling", "glue_hat"),
    ("wheeling", "wheeling_check"),
    ("lie_oracle", "builtin"),
    ("lie_oracle", "weight"),
    ("genus", "Genus.polynomial"),
    ("hk_analysis", "validate"),
    ("scalars", "parse_pi_scalar"),
)
NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)
IMPORT_SPAN = "import_graphgenus"
COUNTERS = ("canon_calls", "canon_repeat", "canon_class_repeat", "weld_calls",
            "weld_none", "enum_classes", "enum_canon_calls", "rel_rank", "rel_in")


def self_times(spans):
    """{name: [calls, self seconds]} of spans [name, parent, start, end, ...]."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for i, (name, _, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) - covered
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.seen_presentations: set = set()
        self.seen_classes: set = set()
        self.open_enumerations = 0
        self.request = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None,
                           time.perf_counter(), None, self.request])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def fold(self):
        """Per-function totals and counters since the last fold; resets."""
        totals = self_times(self.spans)
        counts = self.counts
        self.spans, self.counts = [], dict.fromkeys(COUNTERS, 0)
        self.request += 1
        return totals, counts

    def _observe(self, name, args, result):
        c = self.counts
        if name == "graph_core.canonical_form":
            g = args[0]
            c["canon_calls"] += 1
            c["canon_repeat"] += g in self.seen_presentations
            c["canon_class_repeat"] += result.graph in self.seen_classes
            self.seen_presentations.add(g)
            self.seen_classes.add(result.graph)
            c["enum_canon_calls"] += self.open_enumerations > 0
        elif name == "graph_core.weld_all":
            c["weld_calls"] += 1
            c["weld_none"] += result is None
        elif name == "graph_algebra.enumerate_trivalent":
            c["enum_classes"] += len(result)
        elif name == "graph_algebra.RelationSet.__init__":
            c["rel_rank"] += args[0].rank
            c["rel_in"] += len(args[0].relations)

    def wrap(self, name, fn):
        tracer = self
        enumeration = name == "graph_algebra.enumerate_trivalent"

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            tracer.open_enumerations += enumeration
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.open_enumerations -= enumeration
                tracer.end(idx)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> None:
        """Replace each target at every binding in the package's modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for mod_name, attr in TARGETS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
