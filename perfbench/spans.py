"""In-memory spans around calls into reannotate's modules, for the traced run.

The program itself is not changed: ``install`` replaces the module and class
attributes that the CLI and the library API look up with wrappers that
record a span (name, start, end, parent, operation id, RSS high-water at
the end), and ``LabelHierarchy``'s query methods with wrappers that only
count calls and sum their time. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import argparse
import functools
import resource
import statistics
import sys
import time

# attribute looked up by cli.main or by library callers -> span name
SPAN_NAMES = {
    "load_hierarchy": "hierarchy.load_hierarchy",
    "load_pool": "corpus.load_pool",
    "load_predictions": "corpus.load_predictions",
    "load_gold": "corpus.load_gold",
    "validate_bundle": "corpus.validate_bundle",
    "efficiency_curve": "evaluate.efficiency_curve",
    "jaccard_curve": "evaluate.jaccard_curve",
    "f1_curve": "evaluate.f1_curve",
    "write_curves_csv": "evaluate.write_curves_csv",
    "_build_parser": "cli.argparse",
    "_schedule": "cli.schedule",
    "_write_manifest": "cli.manifest",
}
MODULES = (
    "reannotate", "reannotate.cli", "reannotate.corpus", "reannotate.evaluate",
    "reannotate.hierarchy", "reannotate.strategies",
)
QUERIES = ("tree_distance", "distance_to_lca", "lca")

# span fields
NAME, START, END, PARENT, OP, RSS_KIB = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = "none"
        self.queries: dict[str, list[int]] = {self.op: [0, 0]}  # op -> [calls, ns]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, op: str) -> None:
        """Attribute the following spans and query counts to operation ``op``."""
        self.op = op
        self.queries.setdefault(op, [0, 0])

    def call(self, name: str, fn, *args, **kwargs):
        record = [name, 0, 0, self._stack[-1] if self._stack else None, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter_ns()
            record[RSS_KIB] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._stack.pop()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _ranked(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = args[3] if len(args) > 3 else kwargs["kind"]
            return self.call(f"strategies.rank.{kind.value}", fn, *args, **kwargs)
        return wrapper

    def _counted(self, fn):
        clock = time.perf_counter_ns
        queries = self.queries

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                tally = queries[self.op]
                tally[0] += 1
                tally[1] += clock() - start
        return wrapper

    def install(self) -> None:
        """Wrap every traced attribute of the reannotate modules imported so far."""
        for module_name in MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, name in SPAN_NAMES.items():
                if callable(getattr(module, attr, None)):
                    self._patch(module, attr, self._spanned(name, getattr(module, attr)))
            if callable(getattr(module, "rank", None)):
                self._patch(module, "rank", self._ranked(module.rank))
        strategies = sys.modules["reannotate.strategies"]
        self._patch(
            strategies.RankedList, "write_csv",
            self._spanned("strategies.write_csv", strategies.RankedList.write_csv),
        )
        hierarchy = sys.modules["reannotate.hierarchy"].LabelHierarchy
        for attr in QUERIES:
            self._patch(hierarchy, attr, self._counted(getattr(hierarchy, attr)))
        if "reannotate.cli" in sys.modules:
            self._patch(
                argparse.ArgumentParser, "parse_args",
                self._spanned("cli.argparse", argparse.ArgumentParser.parse_args),
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "queries": self.queries}


def metric_name(span: str) -> str:
    """Span name to metric name: 'corpus.load_pool' -> 'corpus.load_pool_s',
    'strategies.rank.gd' -> 'strategies.rank_s.gd'."""
    module, function, *rest = span.split(".")
    return ".".join([module, function + "_s", *rest])


def per_operation(trace: dict) -> dict[str, dict[str, float]]:
    """Per-layer figures of each traced operation: seconds per span name,
    RSS high-water (MiB) after each module's last span, hierarchy query
    count and time, and cli.main's self time."""
    ops: dict[str, dict[str, float]] = {}
    spans = trace["spans"]
    last_end: dict[tuple[str, str], int] = {}
    children_ns: dict[int, int] = {}
    for record in spans:
        figures = ops.setdefault(record[OP], {})
        seconds = (record[END] - record[START]) / 1e9
        key = metric_name(record[NAME])
        figures[key] = figures.get(key, 0.0) + seconds
        module = record[NAME].split(".")[0]
        if record[END] >= last_end.get((record[OP], module), -1):
            last_end[(record[OP], module)] = record[END]
            figures[f"{module}.rss_mib"] = record[RSS_KIB] / 1024
        if record[PARENT] is not None:
            parent = record[PARENT]
            children_ns[parent] = children_ns.get(parent, 0) + record[END] - record[START]
    for index, record in enumerate(spans):
        if record[NAME] == "cli.main":
            own = record[END] - record[START] - children_ns.get(index, 0)
            figures = ops[record[OP]]
            figures["cli.self_s"] = figures.get("cli.self_s", 0.0) + own / 1e9
    for op, (calls, ns) in trace["queries"].items():
        if calls:
            figures = ops.setdefault(op, {})
            figures["hierarchy.queries"] = calls
            figures["hierarchy.query_s"] = ns / 1e9
    return ops


def layer_medians(ops: dict[str, dict[str, float]]) -> dict[str, float]:
    """Median of each figure over the operations in which it occurs."""
    values: dict[str, list[float]] = {}
    for figures in ops.values():
        for key, value in figures.items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}
