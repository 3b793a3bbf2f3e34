"""Spans around the calls into each ``pflyub`` module, installed from outside.

``install`` replaces every public module-level function of the layers below
with a wrapper that records a span (name, start, end, parent), in every
``pflyub`` namespace that holds the function: several modules import
``gaussian_binomial`` (and the CLI imports ``build_table`` and others) by
name, so patching the defining module alone would miss those calls.  The
arithmetic operators of ``BiLaurentPoly`` are wrapped on the class, including
the aliases ``__radd__`` and ``__rmul__``, and so are the validator and
emitters of ``LyubeznikTable``.  Generator functions (``enumerate_box``) are
left alone: a span around one would end before its body runs.

Spans are kept in flat arrays and written out once, at the end of a process
or pass.  ``layer_metrics`` turns the span files of one pass into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("characters", "ext_mult", "kgroup", "lyubeznik", "origin_localcoh", "partitions", "polyring", "weights_bott")
POLY_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
TABLE_METHODS = ("validate", "to_obj", "to_csv", "to_latex")

# Span groups whose time is reported as ``<group>_s``: the time inside the
# outermost span of the group, so recursion and nesting are not counted twice.
# A string is a prefix that selects every span of one module.
GROUPS = {
    "polyring.mul": ("polyring.BiLaurentPoly.__mul__", "polyring.BiLaurentPoly.__rmul__"),
    "polyring.add": ("polyring.BiLaurentPoly.__add__", "polyring.BiLaurentPoly.__radd__"),
    "partitions.gaussian": ("partitions.gaussian_binomial",),
    "partitions.oracle": ("partitions.gaussian_binomial_oracle",),
    "lyubeznik.closed": ("lyubeznik.L_closed",),
    "lyubeznik.composed": ("lyubeznik.L_composed",),
    "lyubeznik.validate": ("lyubeznik.LyubeznikTable.validate",),
    "lyubeznik.emit_json": ("lyubeznik.LyubeznikTable.to_obj", "json.dumps"),
    "lyubeznik.emit_csv": ("lyubeznik.LyubeznikTable.to_csv",),
    "lyubeznik.emit_latex": ("lyubeznik.LyubeznikTable.to_latex",),
    "kgroup.class": "kgroup.",
    "origin_localcoh.h0": "origin_localcoh.",
    "weights_bott.pushforward": ("weights_bott.verify_pushforward",),
    "weights_bott.bott": ("weights_bott.bott",),
    "weights_bott.enumerate_B": ("weights_bott.enumerate_B",),
    "characters.limit": ("characters.verify_limitpfaff",),
    "ext_mult.series": ("ext_mult.ext_series_enum", "ext_mult.ext_series_closed"),
    "ext_mult.zset": ("ext_mult.zset_rectangle", "ext_mult.zset_thickened"),
}
# Groups whose number of spans is reported as ``<group>_calls``.
COUNTED = ("polyring.mul", "polyring.add", "partitions.gaussian", "kgroup.class", "origin_localcoh.h0", "weights_bott.bott")
# Span whose self time (its duration minus its children's) is reported.
BUILD_TABLE = "lyubeznik.build_table"


def metric_names() -> list[str]:
    """Names of the numbers ``layer_metrics`` returns, in report order."""
    names = [f"{group}_s" for group in GROUPS]
    names += [f"{group}_calls" for group in COUNTED]
    return names + ["polyring.term_products", "lyubeznik.build_self_s"]


class Tracer:
    """An in-memory span buffer; spans nest by call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.stack = [-1]

    def reset(self) -> None:
        for column in (self.name, self.parent, self.start, self.end, self.work):
            del column[:]
        del self.stack[1:]

    def wrap(self, fn, name: str, work=None):
        """Return ``fn`` wrapped so that each call records a span ``name``;
        ``work(*args)``, if given, is an amount of work kept with the span."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, works, stack = self.name, self.parent, self.start, self.end, self.work, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            works.append(work(*args) if work else 0)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def write(self, path: str) -> None:
        """Write the spans: a JSON list of names, then one line
        ``name parent start_ns end_ns work`` per span, in call order."""
        with open(path, "w") as out:
            out.write(json.dumps(self.names) + "\n")
            out.writelines(
                f"{n} {p} {s} {e} {w}\n" for n, p, s, e, w in zip(self.name, self.parent, self.start, self.end, self.work)
            )


def _term_products(a, b) -> int:
    return len(a) * (len(b) if hasattr(b, "_terms") else 1)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in every pflyub namespace,
    and the arithmetic and emitters of the two core classes."""
    import pflyub
    import pflyub.cli

    modules = [importlib.import_module(f"pflyub.{layer}") for layer in LAYERS]
    namespaces = [pflyub, pflyub.cli, *modules]
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            wrapped = tracer.wrap(fn, f"{layer}.{attr}")
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, name, wrapped)
    poly = pflyub.polyring.BiLaurentPoly
    for op in POLY_OPERATORS:
        work = _term_products if op in ("__mul__", "__rmul__") else None
        setattr(poly, op, tracer.wrap(vars(poly)[op], f"polyring.BiLaurentPoly.{op}", work))
    table = pflyub.lyubeznik.LyubeznikTable
    for method in TABLE_METHODS:
        setattr(table, method, tracer.wrap(vars(table)[method], f"lyubeznik.LyubeznikTable.{method}"))


def _group_of(name: str) -> str | None:
    for group, members in GROUPS.items():
        if name.startswith(members) if isinstance(members, str) else name in members:
            return group
    return None


def layer_metrics(paths: list[str]) -> dict[str, float]:
    """Sum the per-layer numbers over the span files of one pass."""
    totals = dict.fromkeys(metric_names(), 0)
    for path in paths:
        with open(path) as spans:
            names = json.loads(spans.readline())
            rows = [tuple(map(int, line.split())) for line in spans]
        groups = [_group_of(name) for name in names]
        build = names.index(BUILD_TABLE) if BUILD_TABLE in names else -1
        cover: list[frozenset] = []  # groups of each span and its ancestors
        interned: dict[tuple[frozenset, str | None], frozenset] = {}
        child_ns = [0] * len(rows)
        for nid, parent, start, end, work in rows:
            group = groups[nid]
            above = cover[parent] if parent >= 0 else frozenset()
            key = (above, group)
            if key not in interned:
                interned[key] = above | {group}
            cover.append(interned[key])
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
            if group is None:
                continue
            if group not in above:
                totals[f"{group}_s"] += duration / 1e9
            if group in COUNTED:
                totals[f"{group}_calls"] += 1
            if group == "polyring.mul":
                totals["polyring.term_products"] += work
        if build >= 0:
            for i, row in enumerate(rows):
                if row[0] == build:
                    totals["lyubeznik.build_self_s"] += (row[3] - row[2] - child_ns[i]) / 1e9
    return totals
