"""Span tracing of the package from outside, for the benchmark's traced mode.

`Tracer.install()` wraps each function in `TRACED` and rebinds the wrapper
in every package namespace that binds the original, because
`from .weyl import length` copies the binding into the importing module.
Each call becomes a span (name, start, end, parent). Spans are kept in
flat arrays in memory and reduced to per-layer figures at the end of a
pass. A generator's span covers only its own work: each resumption is one
span, so the consumer's work between items is not counted as the
generator's.

Only the functions the per-layer metrics name are wrapped. Small helpers
such as `letter_key` run tens of millions of times per pass; wrapping them
would make the trace mostly measure itself.

None of the traced functions calls itself, so spans of one name never
nest and their durations add up to the time spent in that function.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

TRACED = {
    "weyl": ("length",),
    "qbg": ("edge_by_criterion", "edge_by_length"),
    "chains": ("mu_chain",),
    "foldings": ("level_of", "fold_chain", "weight_of", "enumerate_admissible"),
    "fillings": ("filling_map", "inverse_filling_map", "content", "enumerate_bmu"),
    "kn": ("split_column",),
    "charge": ("charge",),
    "poly": ("ram_yip_t0", "charge_formula_t0", "weyl_character", "is_invariant", "poly_mul"),
    "verify": ("check_qbg", "check_kn", "check_bijection", "check_statistics", "check_poly"),
    "cli": ("main",),
}


def package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "charge_lab" or name.startswith("charge_lab.")]


def rebind(old, new):
    """Bind `new` wherever a package module binds `old`; return an undo callable."""
    sites = [(mod, attr) for mod in package_modules()
             for attr, value in vars(mod).items() if value is old]
    for mod, attr in sites:
        setattr(mod, attr, new)

    def undo():
        for mod, attr in sites:
            setattr(mod, attr, old)

    return undo


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        # Outcome counts: edge kinds of edge_by_criterion, items produced.
        self.counts = Counter()
        self._undo = []

    def install(self):
        for module, functions in TRACED.items():
            mod = sys.modules[f"charge_lab.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                self._undo.append(rebind(fn, self._wrap(f"{module}.{fn_name}", fn)))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def reset(self):
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts, clock = self.counts, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            items = f"{name}.items"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    counts[items] += 1
                    yield item

            return traced_generator

        if name == "qbg.edge_by_criterion":
            def observe(kind):
                counts[f"qbg.edges_{kind.value if kind is not None else 'none'}"] += 1
        elif name == "fillings.enumerate_bmu":
            def observe(fillings):
                counts["fillings.enumerate_bmu.items"] += len(fillings)
        else:
            observe = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def table(self) -> dict:
        """Per traced function: span count, total seconds and self seconds."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]
        return {name: {"calls": calls[k], "s": total[k], "self_s": own[k]}
                for k, name in enumerate(self.names)}


def layer_metrics(table: dict, counts: Counter) -> dict:
    """The per-layer metrics BENCHMARK.json lists, from one traced pass."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def calls_s(fn):
        put(f"{fn}.calls", table[fn]["calls"], "count")
        put(f"{fn}.s", table[fn]["s"], "s")

    def s_self(fn):
        put(f"{fn}.s", table[fn]["s"], "s")
        put(f"{fn}.self_s", table[fn]["self_s"], "s")

    calls_s("weyl.length")
    for fn in ("level_of", "fold_chain", "weight_of"):
        calls_s(f"foldings.{fn}")
    put("foldings.enumerate_admissible.pairs", counts["foldings.enumerate_admissible.items"], "count")
    put("foldings.enumerate_admissible.s", table["foldings.enumerate_admissible"]["s"], "s")
    calls_s("qbg.edge_by_criterion")
    for kind in ("up", "quantum", "none"):
        put(f"qbg.edges_{kind}", counts[f"qbg.edges_{kind}"], "count")
    tests = table["qbg.edge_by_criterion"]["calls"]
    accepted = counts["qbg.edges_up"] + counts["qbg.edges_quantum"]
    put("qbg.accept_ratio", accepted / tests if tests else 0.0, "ratio")
    calls_s("qbg.edge_by_length")
    calls_s("chains.mu_chain")
    for fn in ("filling_map", "inverse_filling_map", "content"):
        calls_s(f"fillings.{fn}")
    put("fillings.enumerate_bmu.items", counts["fillings.enumerate_bmu.items"], "count")
    put("fillings.enumerate_bmu.s", table["fillings.enumerate_bmu"]["s"], "s")
    calls_s("kn.split_column")
    calls_s("charge.charge")
    for fn in ("ram_yip_t0", "charge_formula_t0", "weyl_character", "is_invariant"):
        s_self(f"poly.{fn}")
    calls_s("poly.poly_mul")
    for suite in ("qbg", "kn", "bijection", "statistics", "poly"):
        s_self(f"verify.check_{suite}")
    put("cli.main.self_s", table["cli.main"]["self_s"], "s")
    return m
