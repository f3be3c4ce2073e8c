"""Span tracing installed from outside the package, and its per-layer metrics.

``Tracer.install`` replaces every binding of each function in ``TARGETS``
(its home module, every module that imported it, the package namespace)
with a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory until ``dump``.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

BIJECTION_MAPS = ("uk_decompose", "uk_compose", "amb_decompose", "amb_compose",
                  "cuk_decompose", "cuk_compose", "split_to_bicolored", "bicolored_to_split")


def _chain_order(tracer, args, result, computed):
    order = args[0]
    tracer.counters["series.chain_order_sum"] += order
    tracer.counters["series.chain_order_max"] = max(tracer.counters["series.chain_order_max"], order)
    if tracer.parent_name() == "counting.chain_count":
        tracer.counters["counting.chain_builds"] += 1


def _split_words(tracer, args, result, computed):
    if computed:
        n = args[0]
        tracer.counters["enumeration.words_swept"] += 1 << (n * (n - 1) // 2)
        tracer.counters["enumeration.split_words_found"] += len(result)


def _classify_bulk(tracer, args, result, computed):
    if computed:
        tracer.counters["enumeration.classified_graphs"] += len(result.words)


def _orbit_reps(tracer, args, result, computed):
    tracer.counters["enumeration.orbit_keys_scanned"] += len(args[0])
    tracer.counters["enumeration.orbits_found"] += len(result)


def _ks_partitions(tracer, args, result, computed):
    tracer.counters["structure.subsets_scanned"] += 1 << args[0].n
    tracer.counters["structure.partitions_found"] += len(result)


def _independence_number(tracer, args, result, computed):
    tracer.counters["structure.subsets_scanned"] += 1 << args[0].n


# (module, attribute, span name, observer); "Class.method" patches the class
TARGETS = [
    ("counting", "split_labeled_bp", "counting.split_labeled_bp", None),
    ("counting", "split_labeled", "counting.split_labeled", None),
    ("counting", "bicolored_labeled", "counting.bicolored_labeled", None),
    ("counting", "chain_count", "counting.chain_count", None),
    ("series", "derive_labeled_chain", "series.derive_labeled_chain", _chain_order),
    ("series", "derive_unlabeled_chain", "series.derive_unlabeled_chain", None),
    ("series", "RationalSeries.__mul__", "series.mul", None),
    ("series", "RationalSeries.__truediv__", "series.div", None),
    ("asymptotics", "ratio_report", "asymptotics.ratio_report", None),
    ("asymptotics", "asymptotic_bicolored", "asymptotics.asymptotic_bicolored", None),
    ("enumeration", "class_census", "enumeration.class_census", None),
    ("enumeration", "_split_words", "enumeration.split_words", _split_words),
    ("enumeration", "_split_data", "enumeration.classify_bulk", _classify_bulk),
    ("enumeration", "_orbit_reps", "enumeration.orbit_reps", _orbit_reps),
    ("enumeration", "_colored_split_keys", "enumeration.colored_keys", None),
    ("enumeration", "_bicolored_keys", "enumeration.bicolored_keys", None),
    ("enumeration", "_perm_tables", "enumeration.perm_tables", None),
    ("enumeration", "enumerate_labeled", "enumeration.enumerate_labeled", None),
    ("structure", "swing_report", "structure.swing_report", None),
    ("structure", "ks_partitions", "structure.ks_partitions", _ks_partitions),
    ("structure", "independence_number", "structure.independence_number", _independence_number),
    ("structure", "all_colorings", "structure.all_colorings", None),
    *[("bijections", m, f"bijections.{m}", None) for m in BIJECTION_MAPS],
    ("graphs", "is_split", "graphs.is_split", None),
    ("graphs", "make_graph", "graphs.make_graph", None),
    ("graphs", "relabel", "graphs.relabel", None),
]
GENERATORS = {"enumeration.enumerate_labeled"}


class Tracer:
    """In-memory span store.  Each span is [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        cache_info = getattr(fn, "cache_info", None)
        calls = name + ".calls"

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counters[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)  # one span per resumption
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.counters[name + ".structures"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[calls] += 1
            misses = cache_info().misses if cache_info else 0
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                computed = cache_info is None or cache_info().misses > misses
                observe(self, args, result, computed)
            return result
        return wrapper

    def install(self):
        """Wrap every target; the package must already be imported."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "splitspecies" or name.startswith("splitspecies."))]
        for module_name, attr, name, observe in TARGETS:
            home = sys.modules[f"splitspecies.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), observe))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------

def self_times_ms(spans: list[list], factors: list[float] | None = None) -> dict[str, float]:
    """Total self time per span name, in milliseconds.

    With ``factors``, the self time of a span of op i is scaled by factors[i].
    """
    child = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent, op), c in zip(spans, child):
        out[name] += (end - start - c) / 1e6 * (factors[op] if factors else 1.0)
    return dict(out)


def layer_shares(self_ms: dict[str, float]) -> dict[str, float]:
    """Share of all self time held by each layer (first component of the span name)."""
    total = sum(self_ms.values())
    shares: dict[str, float] = defaultdict(float)
    for name, ms in self_ms.items():
        shares[name.split(".")[0]] += ms / total if total else 0.0
    return dict(shares)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_ms: dict[str, float], counters: dict[str, float],
                  import_ms: float, stdout_bytes: int) -> dict[str, float]:
    """The per-layer metric values of one pass, keyed as in BENCHMARK.json."""
    c = defaultdict(int, counters)
    ms = defaultdict(float, self_ms)
    m = {
        "cli.import_ms": import_ms,
        "cli.self_ms": ms["cli.main"],
        "cli.stdout_bytes": stdout_bytes,
    }
    for name in ("counting.split_labeled_bp", "counting.bicolored_labeled",
                 "counting.chain_count", "series.derive_labeled_chain", "series.mul",
                 "asymptotics.ratio_report", "asymptotics.asymptotic_bicolored",
                 "enumeration.class_census", "structure.swing_report",
                 "structure.ks_partitions", "structure.independence_number",
                 "graphs.is_split", *[f"bijections.{b}" for b in BIJECTION_MAPS]):
        m[name + ".calls"] = c[name + ".calls"]
    for name in ("counting.split_labeled_bp", "counting.split_labeled",
                 "counting.bicolored_labeled", "series.derive_labeled_chain", "series.mul",
                 "series.div", "series.derive_unlabeled_chain", "asymptotics.ratio_report",
                 "asymptotics.asymptotic_bicolored", "enumeration.class_census",
                 "enumeration.split_words", "enumeration.classify_bulk",
                 "enumeration.orbit_reps", "enumeration.colored_keys",
                 "enumeration.bicolored_keys", "enumeration.perm_tables",
                 "enumeration.enumerate_labeled", "structure.swing_report",
                 "structure.ks_partitions", "structure.independence_number",
                 "structure.all_colorings", *[f"bijections.{b}" for b in BIJECTION_MAPS],
                 "graphs.is_split", "graphs.make_graph", "graphs.relabel"):
        m[name + ".self_ms"] = ms[name]
    for name in ("counting.chain_builds", "series.chain_order_sum", "series.chain_order_max",
                 "enumeration.words_swept", "enumeration.split_words_found",
                 "enumeration.classified_graphs", "enumeration.orbit_keys_scanned",
                 "enumeration.orbits_found", "enumeration.enumerate_labeled.structures",
                 "structure.subsets_scanned"):
        m[name] = c[name]
    m["counting.chain_reuse_ratio"] = (1 - _ratio(c["counting.chain_builds"],
                                                  c["counting.chain_count.calls"])
                                       if c["counting.chain_count.calls"] else 0.0)
    m["enumeration.split_yield"] = _ratio(c["enumeration.split_words_found"],
                                          c["enumeration.words_swept"])
    m["structure.partition_yield"] = _ratio(c["structure.partitions_found"],
                                            c["structure.subsets_scanned"])
    return m


def merge_counters(dumps: list[dict]) -> dict[str, float]:
    """Sum counters over several dumps; ``*_max`` counters take the maximum."""
    out: dict[str, float] = defaultdict(int)
    for d in dumps:
        for key, value in d["counters"].items():
            out[key] = max(out[key], value) if key.endswith("_max") else out[key] + value
    return dict(out)


def write_dump(tracer: Tracer, path: str, **extra):
    with open(path, "w") as f:
        json.dump({**tracer.dump(), **extra}, f)
