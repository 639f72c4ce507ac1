"""Timing wrappers installed around cohenram's public functions from
outside the package.

Each wrapped function is replaced in every ``cohenram`` module that
binds it, so ``from .arith import shared_sieve`` in two consumers means
two patched names.  Coarse calls record a span (name, start, end,
parent, self time, attributes) held in memory; the hot scalar calls only
add to a per-name count, total and self time.  Self time is a call's
duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time

# metric-name prefix -> (module, attribute) of each wrapped function
SPANS = {
    "cli.main": ("cohenram.cli", "main"),
    "arith.shared_sieve": ("cohenram.arith", "shared_sieve"),
    "arith.sieve": ("cohenram.arith", "sieve"),
    "expansions.expansion_partial_sum": ("cohenram.expansions", "expansion_partial_sum"),
    "expansions.sivaramakrishnan_check": ("cohenram.expansions", "sivaramakrishnan_check"),
    "asymptotics.asymptotic_verify": ("cohenram.asymptotics", "asymptotic_verify"),
    "asymptotics.lhs_sum": ("cohenram.asymptotics", "lhs_sum"),
    "asymptotics.rhs_product": ("cohenram.asymptotics", "rhs_product"),
    "asymptotics.general_main_term": ("cohenram.asymptotics", "general_main_term"),
}
AGGREGATES = {
    "arith.factorize": ("cohenram.arith", "factorize"),
    "arith.jordan": ("cohenram.arith", "jordan"),
    "arith.mobius": ("cohenram.arith", "mobius"),
    "cohen.crs_fast": ("cohenram.cohen", "crs_fast"),
    "cohen.kvector_sum": ("cohenram.cohen", "kvector_sum"),
    "expansions.local_factor_exact": ("cohenram.expansions", "local_factor_exact"),
}
# lru_caches whose hit ratios are reported, taken from cache_info() deltas
CACHES = {
    "factorize": ("cohenram.arith", "factorize"),
    "ratio_array": ("cohenram.asymptotics", "_ratio_array"),
}
# every per-layer metric with its unit
LAYER_UNITS = {
    "arith.sieve_s": "s", "arith.sieve_entries": "count", "arith.factorize_s": "s",
    "arith.factorize_calls": "count", "arith.factorize_hit_ratio": "ratio",
    "cohen.crs_fast_s": "s", "cohen.crs_fast_calls": "count", "cohen.kvector_sum_s": "s",
    "expansions.local_factor_exact_s": "s", "expansions.exact_cases": "count",
    "expansions.expansion_partial_sum_s": "s", "asymptotics.lhs_sum_s": "s",
    "asymptotics.lhs_terms_per_s": "1/s", "asymptotics.sieved_per_term": "ratio",
    "asymptotics.ratio_cache_hit_ratio": "ratio", "asymptotics.rhs_product_s": "s",
    "asymptotics.general_main_term_s": "s", "cli.self_s": "s", "arith.self_s": "s",
    "cohen.self_s": "s", "expansions.self_s": "s", "asymptotics.self_s": "s",
    "trace.unaccounted_s": "s", "trace.overhead_s": "s",
}


def _span_attrs(name, args, kwargs):
    if name == "arith.sieve":
        return {"entries": (args[1] if len(args) > 1 else kwargs.get("limit")) or 0}
    if name == "asymptotics.lhs_sum":
        return {"terms": getattr(args[0] if args else None, "N", 0)}
    if name == "cli.main":
        return {"command": args[0][0] if args and args[0] else None}
    return None


class Tracer:
    """Owns the span list, the aggregates and the stack of open calls."""

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end, self, attrs, phase]
        self.aggregates = {}   # name -> [calls, total_s, self_s]
        self.phase = None
        # one entry per open call: [span id or None, time spent in wrapped children]
        self._stack = [[None, 0.0]]
        self._next_id = 0
        self._caches = {}

    def install(self) -> None:
        """Patch every binding of the listed functions; a function absent
        at this commit is skipped and its metrics read 0."""
        for key, (modname, attr) in CACHES.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[key] = fn
        for table, make in ((SPANS, self._span_wrapper), (AGGREGATES, self._agg_wrapper)):
            for name, (modname, attr) in table.items():
                fn = getattr(sys.modules.get(modname), attr, None)
                if fn is None:
                    continue
                wrapped = make(name, fn)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("cohenram"):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapped)

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A span opened by the benchmark itself around one of its steps."""
        frame = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(name, frame, t0, time.perf_counter(), attrs)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close_span(self, name, frame, t0, t1, attrs):
        self._stack.pop()
        dur = t1 - t0
        self._stack[-1][1] += dur
        self.spans.append([frame[0], self._stack[-1][0], name, t0, t1,
                           dur - frame[1], attrs, self.phase])

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            frame = tracer._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close_span(name, frame, t0, time.perf_counter(),
                                   _span_attrs(name, args, kwargs))

        wrapped.__wrapped__ = fn
        return wrapped

    def _agg_wrapper(self, name, fn):
        stack = self._stack
        rec = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][1] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        wrapped.__wrapped__ = fn
        return wrapped

    def cache_counts(self) -> dict:
        """{cache: (hits, misses)} for every listed lru_cache present."""
        return {key: (fn.cache_info().hits, fn.cache_info().misses)
                for key, fn in self._caches.items()}

    def snapshot(self) -> dict:
        """Copy of the aggregates, for per-phase deltas."""
        return {k: list(v) for k, v in self.aggregates.items()}

    def write_jsonl(self, path, extra=None) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, self_s, attrs, phase in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self_s": self_s,
                                     "attrs": attrs, "phase": phase}) + "\n")
            for rec in extra or ():
                fh.write(json.dumps(rec) + "\n")


def wrapper_cost(calls=20_000, repeats=5) -> tuple[float, float]:
    """(aggregate, span) seconds a wrapper adds to one call, measured on a
    no-op; each the fastest of ``repeats`` batches, as ``timeit`` does."""
    def noop():
        return None

    costs = []
    for make in (Tracer()._agg_wrapper, Tracer()._span_wrapper):
        wrapped = make("probe", noop)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        costs.append(max(best, 0.0))
    return costs[0], costs[1]


def layer_metrics(spans, aggregates, caches_before, caches_after, phase, costs) -> dict:
    """Per-layer figures for one phase from its spans and aggregate deltas;
    ``costs`` is what ``wrapper_cost()`` measured."""
    spans = [s for s in spans if s[7] == phase]
    by_id = {s[0]: s for s in spans}

    def total(name):
        return sum(s[4] - s[3] for s in spans if s[2] == name)

    def self_of(name):
        return sum(s[5] for s in spans if s[2] == name)

    def agg(name, field):
        return aggregates.get(name, (0, 0.0, 0.0))[field]

    def under(span, name):
        while span is not None:
            if span[2] == name:
                return True
            span = by_id.get(span[1])
        return False

    def hit_ratio(key):
        if key not in caches_before or key not in caches_after:
            return 0.0
        hits = caches_after[key][0] - caches_before[key][0]
        misses = caches_after[key][1] - caches_before[key][1]
        return hits / (hits + misses) if hits + misses else 0.0

    lhs_terms = sum(s[6]["terms"] for s in spans if s[2] == "asymptotics.lhs_sum")
    lhs_time = total("asymptotics.lhs_sum")
    lhs_entries = sum(s[6]["entries"] for s in spans
                      if s[2] == "arith.sieve" and under(s, "asymptotics.lhs_sum"))
    module_self = {}
    for name, self_s in [(s[2], s[5]) for s in spans] + [
            (name, rec[2]) for name, rec in aggregates.items()]:
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + self_s

    return {
        "arith.sieve_s": total("arith.shared_sieve"),
        "arith.sieve_entries": sum(s[6]["entries"] for s in spans if s[2] == "arith.sieve"),
        "arith.factorize_s": agg("arith.factorize", 1),
        "arith.factorize_calls": agg("arith.factorize", 0),
        "arith.factorize_hit_ratio": hit_ratio("factorize"),
        "cohen.crs_fast_s": agg("cohen.crs_fast", 1),
        "cohen.crs_fast_calls": agg("cohen.crs_fast", 0),
        "cohen.kvector_sum_s": agg("cohen.kvector_sum", 1),
        "expansions.local_factor_exact_s": agg("expansions.local_factor_exact", 1),
        "expansions.exact_cases": agg("expansions.local_factor_exact", 0),
        "expansions.expansion_partial_sum_s": self_of("expansions.expansion_partial_sum"),
        "asymptotics.lhs_sum_s": self_of("asymptotics.lhs_sum"),
        "asymptotics.lhs_terms_per_s": lhs_terms / lhs_time if lhs_time else 0.0,
        "asymptotics.sieved_per_term": lhs_entries / lhs_terms if lhs_terms else 0.0,
        "asymptotics.ratio_cache_hit_ratio": hit_ratio("ratio_array"),
        "asymptotics.rhs_product_s": total("asymptotics.rhs_product"),
        "asymptotics.general_main_term_s": total("asymptotics.general_main_term"),
        "cli.self_s": self_of("cli.main"),
        "arith.self_s": module_self.get("arith", 0.0),
        "cohen.self_s": module_self.get("cohen", 0.0),
        "expansions.self_s": module_self.get("expansions", 0.0),
        "asymptotics.self_s": module_self.get("asymptotics", 0.0),
        "trace.unaccounted_s": module_self.get("bench", 0.0),
        # wrapped calls times the calibrated cost of one wrapper
        "trace.overhead_s": sum(rec[0] for rec in aggregates.values()) * costs[0]
                            + len(spans) * costs[1],
    }
