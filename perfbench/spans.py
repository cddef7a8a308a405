"""Outside-in span tracing of one partx process, and self-time arithmetic.

:func:`instrument` wraps partx's layer boundaries from the outside; no
file of partx changes.  Class methods that every caller goes through are
replaced on the class (``CountTable.extend``, ``ModCountTable.extend``,
``PowerSeries.__mul__``, ``PowerSeries.inverse``).  Module functions are
wrapped only where another layer calls them: ``identities`` and ``cli``
get forwarding proxies in place of their ``counting``, ``partitions``,
``identities`` and ``series`` references, so calls a module makes into
itself stay unwrapped.

``identities`` calls ``partition_count`` and ``count_containing`` up to
millions of times per op, and a span around each doubles the sweep.  Those
two get count-only wrappers: their calls are counted and their time stays
in the caller's self time (``identities.sweep``).

``series.coeff_ops`` is computed from truncations, not counted: a product
of two series of n coefficients is charged n(n+1)/2 coefficient products and
an inverse n(n-1)/2.  The kernel skips zero coefficients, so this is an
upper bound on the products it makes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory and are written once, when the
process ends.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

COEFF_OPS_RULE = ("n(n+1)/2 per multiply, n(n-1)/2 per inverse of n-coefficient series; "
                  "an upper bound")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def raise_to(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def timed(rec: Recorder, name: str, fn, after=None):
    """fn inside a span; ``after(result, *args)`` runs once the span is closed."""

    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def counted(rec: Recorder, name: str, fn):
    counters = rec.counters
    key = name + ".untimed_calls"

    def wrapper(*args, **kwargs):
        counters[key] = counters.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class ModuleProxy:
    """Forwards every attribute to ``target`` except the given overrides."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _wrap_extend(rec: Recorder, cls, name: str) -> None:
    original = cls.extend

    def extend(self, new_max):
        before = self.max_n
        index = rec.begin(name)
        try:
            return original(self, new_max)
        finally:
            rec.end(index)
            if self.max_n > before:
                rec.add(name + ".entries", self.max_n - before)
                rec.raise_to(name + ".high_water", self.max_n)

    cls.extend = extend


def instrument(rec: Recorder) -> None:
    """Wrap partx's layer boundaries so that they record into ``rec``."""
    from partx import cli, counting, identities, partitions, series

    _wrap_extend(rec, counting.CountTable, "counting.extend")
    _wrap_extend(rec, counting.ModCountTable, "counting.mod_extend")

    def square_ops(result, a, b=None):
        rec.add("series.coeff_ops", len(a.coeffs) * (len(a.coeffs) + 1) // 2)

    def inverse_ops(result, a):
        rec.add("series.coeff_ops", len(a.coeffs) * (len(a.coeffs) - 1) // 2)

    series.PowerSeries.__mul__ = timed(rec, "series.mul", series.PowerSeries.__mul__, square_ops)
    series.PowerSeries.inverse = timed(rec, "series.inverse", series.PowerSeries.inverse,
                                       inverse_ops)

    oracle_ns = set()

    def oracle(fn):
        def note(result, n, *rest):
            oracle_ns.add(n)
            rec.counters["partitions.oracle.distinct_n"] = len(oracle_ns)

        return timed(rec, "partitions.oracle", fn, note)

    identities.partitions = ModuleProxy(partitions, {
        "oracle_stats": oracle(partitions.oracle_stats),
        "elder_count": oracle(partitions.elder_count),
    })
    identities.counting = ModuleProxy(counting, {
        "partition_count": counted(rec, "counting.stats", counting.partition_count),
        "count_containing": counted(rec, "counting.stats", counting.count_containing),
        "distinct_members": timed(rec, "counting.stats", counting.distinct_members),
        "occurrence_count": timed(rec, "counting.stats", counting.occurrence_count),
        "partition_count_mod": timed(rec, "counting.stats_mod", counting.partition_count_mod),
        "occurrence_count_mod": timed(rec, "counting.stats_mod", counting.occurrence_count_mod),
    })

    def loaded(result, path):
        rec.add("counting.cache_load.bytes", os.path.getsize(path))

    def saved(result, table, path):
        rec.add("counting.cache_save.bytes", os.path.getsize(path))

    cli.counting = ModuleProxy(counting, {
        "partition_count": timed(rec, "counting.stats", counting.partition_count),
        "distinct_members": timed(rec, "counting.stats", counting.distinct_members),
        "occurrence_count": timed(rec, "counting.stats", counting.occurrence_count),
        "load_table": timed(rec, "counting.cache_load", counting.load_table, loaded),
        "save_table": timed(rec, "counting.cache_save", counting.save_table, saved),
        "consistency_check": timed(rec, "counting.cache_check", counting.consistency_check),
    })

    def swept(result, *args):
        rec.add("identities.instances", result.total_checked)

    cli.identities = ModuleProxy(identities, {
        "sweep": timed(rec, "identities.sweep", identities.sweep, swept),
    })
    builders = ("euler_inverse_product", "qk_generating_function", "euler_product_pow",
                "double_sum_expansion")
    overrides = {name: timed(rec, "series.build", getattr(series, name)) for name in builders}
    overrides["format_series"] = timed(rec, "series.format", series.format_series)
    cli.series = ModuleProxy(series, overrides)
    cli.main = timed(rec, "cli", cli.main)


# --------------------------------------------------------------------------
# self time


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(start, end, children[i])
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(doc: dict) -> dict[str, float]:
    """Per-name ``.calls`` and ``.self_s`` plus the raw counters of one process."""
    out: dict[str, float] = defaultdict(float)
    spans = doc["spans"]
    for (name, *_), self_s in zip(spans, self_times(spans)):
        out[name + ".calls"] += 1
        out[name + ".self_s"] += self_s
    for key, value in doc["counters"].items():
        if key.endswith(".untimed_calls"):
            out[key.removesuffix(".untimed_calls") + ".calls"] += value
        else:
            out[key] = value
    return dict(out)
