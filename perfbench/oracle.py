"""Independent output checks for the benchmark.

Every check compares the program's output with an answer the benchmark
computes itself from the generated bundle (see gen.py): distances from
ancestor chains, rankings from exact scores, curve values from recounts and
F1 from confusion counts. Each check returns a list of problem strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

from gen import NEGATIVE, Bundle


class Oracle:
    """Expected scores and rankings for one bundle, computed on first use."""

    def __init__(self, bundle: Bundle) -> None:
        self.bundle = bundle
        self.depth = bundle.depths()
        self._chains: dict[str, tuple[list[str], set[str]]] = {}
        self._scores: dict[str, dict[str, Fraction]] = {}
        self._rankings: dict[str, list[str]] = {}
        self.noisy = bundle.noisy_ids()
        self._f1: dict[bool, dict[str, tuple[Fraction, ...]]] = {}

    def _chain(self, node: str) -> tuple[list[str], set[str]]:
        chain = self._chains.get(node)
        if chain is None:
            path = [node]
            while self.bundle.parent[path[-1]] is not None:
                path.append(self.bundle.parent[path[-1]])
            chain = self._chains[node] = (path, set(path))
        return chain

    def lca_depth(self, a: str, b: str) -> int:
        """Depth of the first ancestor-or-self of ``a`` that is also one of ``b``."""
        ancestors_b = self._chain(b)[1]
        for node in self._chain(a)[0]:
            if node in ancestors_b:
                return self.depth[node]
        raise AssertionError(f"{a} and {b} share no root")

    def scores(self, kind: str, seed: int | None = None) -> dict[str, Fraction]:
        if kind == "random":  # one per seed, cheap: not kept
            return self._compute(kind, seed)
        if kind not in self._scores:
            self._scores[kind] = self._compute(kind, seed)
        return self._scores[kind]

    def _compute(self, kind: str, seed: int | None) -> dict[str, Fraction]:
        b = self.bundle
        if kind == "random":
            rng = random.Random(seed)  # floats are exact, so they order like Fractions
            return {iid: rng.random() for iid in sorted(b.ids)}
        k = len(b.models)
        rows = zip(b.ids, b.labels, zip(*b.preds))
        if kind == "confidence":
            out = {}
            for iid, label, preds in rows:
                off = [Fraction(c) for p, c in preds if p != label]
                out[iid] = sum(off) / len(off) if off else Fraction(0)
            return out
        depth = self.depth
        if kind == "gd":
            return {
                iid: Fraction(
                    sum(depth[label] + depth[p] - 2 * self.lca_depth(label, p) for p, _ in preds),
                    k,
                )
                for iid, label, preds in rows
            }
        if kind == "ld":
            return {
                iid: Fraction(sum(depth[label] - self.lca_depth(label, p) for p, _ in preds), k)
                for iid, label, preds in rows
            }
        raise ValueError(f"no oracle for strategy {kind!r}")

    def ranking(self, kind: str, seed: int | None = None) -> list[str]:
        if kind == "random":
            return order(self.scores(kind, seed))
        if kind not in self._rankings:
            self._rankings[kind] = order(self.scores(kind))
        return self._rankings[kind]

    def f1(self, relabeled: bool) -> dict[str, tuple[Fraction, ...]]:
        if relabeled not in self._f1:
            self._f1[relabeled] = f1_expected(self.bundle, relabeled)
        return self._f1[relabeled]


def order(scores: dict[str, Fraction]) -> list[str]:
    """Pool ids by descending score, ties by ascending id."""
    return sorted(scores, key=lambda iid: (-scores[iid], iid))


def even_budgets(count: int, size: int) -> list[int]:
    return sorted({i * size // (count - 1) for i in range(count)})


def strided_budgets(step: int, size: int) -> list[int]:
    points = list(range(0, size + 1, step))
    return points if points[-1] == size else [*points, size]


def _matches(text: str, expected: Fraction) -> bool:
    """Output CSVs hold repr(float) of the exact value."""
    return text == repr(float(expected))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_ranked(path: Path, scores: dict[str, Fraction]) -> list[str]:
    """A permutation of the pool ids, ordered by (score desc, id asc), with the oracle's scores."""
    try:
        rows = _read_rows(path)
    except OSError as exc:
        return [f"{path.name}: {exc.strerror}"]
    if not rows or rows[0] != ["rank", "instance_id", "score"]:
        return [f"{path.name}: bad header"]
    rows = rows[1:]
    ids = [row[1] for row in rows]
    if len(rows) != len(scores) or set(ids) != scores.keys():
        return [f"{path.name}: not a permutation of the {len(scores)} pool ids"]
    previous = None
    for position, (rank, iid, text) in enumerate(rows, start=1):
        if rank != str(position):
            return [f"{path.name}: row {position} has rank {rank}"]
        if not _matches(text, scores[iid]):
            return [f"{path.name}: {iid} scored {text}, oracle {scores[iid]}"]
        key = (-scores[iid], iid)
        if previous is not None and not previous < key:
            return [f"{path.name}: row {position} ({iid}) breaks (score desc, id asc) order"]
        previous = key
    return []


def read_curves(path: Path) -> dict[tuple[str, str], dict[int, str]]:
    """(metric, series) -> {budget: value text} from a metric,series,budget,value CSV."""
    rows = _read_rows(path)
    if not rows or rows[0] != ["metric", "series", "budget", "value"]:
        raise ValueError(f"{path.name}: bad header")
    curves: dict[tuple[str, str], dict[int, str]] = {}
    for metric, series, budget, value in rows[1:]:
        curves.setdefault((metric, series), {})[int(budget)] = value
    return curves


def _curve(path: Path, metric: str, series: str, budgets: list[int]):
    try:
        curve = read_curves(path).get((metric, series))
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]
    if curve is None:
        return None, [f"{path.name}: no {metric} series {series!r}"]
    if list(curve) != budgets:
        return None, [f"{path.name}: {metric}/{series} budgets differ from the schedule"]
    return curve, []


def check_efficiency(
    path: Path, series: str, ranking: list[str], noisy: set[str], budgets: list[int]
) -> list[str]:
    """Efficiency at B equals the noisy ids recounted in the ranking's top-B prefix."""
    curve, problems = _curve(path, "efficiency", series, budgets)
    if problems:
        return problems
    cumulative = [0]
    for iid in ranking:
        cumulative.append(cumulative[-1] + (iid in noisy))
    for budget, text in curve.items():
        expected = Fraction(cumulative[budget], len(noisy))
        if not _matches(text, expected):
            return [f"{path.name}: efficiency/{series} at {budget} is {text}, recount {expected}"]
    return []


def check_jaccard(
    path: Path, series: str, a: list[str], b: list[str], budgets: list[int]
) -> list[str]:
    """Jaccard of the two prefixes at every budget; exactly 1 at budget 0 and the full pool."""
    curve, problems = _curve(path, "jaccard", series, budgets)
    if problems:
        return problems
    for budget in (0, len(a)):
        if budget in curve and Fraction(curve[budget]) != 1:
            return [f"{path.name}: jaccard/{series} is {curve[budget]} at budget {budget}"]
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    both = previous = 0
    for budget, text in curve.items():
        for iid in a[previous:budget]:
            both += iid in seen_b
            seen_a.add(iid)
        for iid in b[previous:budget]:
            both += iid in seen_a
            seen_b.add(iid)
        previous = budget
        union = 2 * budget - both
        expected = Fraction(both, union) if union else Fraction(1)
        if not _matches(text, expected):
            return [f"{path.name}: jaccard/{series} at {budget} is {text}, recount {expected}"]
    return []


def f1_expected(bundle: Bundle, relabeled: bool) -> dict[str, tuple[Fraction, ...]]:
    """Per-model (precision, recall, f1) from confusion counts, before or after relabeling all."""
    truth = {}
    for iid, label in zip(bundle.ids, bundle.labels):
        if relabeled and iid in bundle.gold:
            if bundle.gold[iid] is None:
                continue  # eliminated instances leave the scored pool
            label = bundle.gold[iid]
        truth[iid] = label
    out = {}
    for model, column in zip(bundle.models, bundle.preds):
        tp = fp = fn = 0
        for iid, (pred, _) in zip(bundle.ids, column):
            if iid not in truth:
                continue
            label = truth[iid]
            if pred == label:
                tp += pred != NEGATIVE
            else:
                fp += pred != NEGATIVE
                fn += label != NEGATIVE
        p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        out[model] = (p, r, 2 * p * r / (p + r) if p + r else Fraction(0))
    return out


def check_f1(path: Path, o: Oracle, budgets: list[int]) -> list[str]:
    """Per-model precision, recall and F1 at budget 0 and at the full pool."""
    try:
        curves = read_curves(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    for budget, relabeled in ((0, False), (budgets[-1], True)):
        for model, values in o.f1(relabeled).items():
            for metric, expected in zip(("precision", "recall", "f1"), values):
                text = curves.get((metric, model), {}).get(budget)
                if text is None or not _matches(text, expected):
                    return [
                        f"{path.name}: {metric}/{model} at {budget} is {text}, "
                        f"confusion oracle {expected}"
                    ]
    return []


def check_manifest(out: Path) -> list[str]:
    """manifest.json lists exactly the files written beside it."""
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json unreadable: {exc!r}"]
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if sorted(listed) != written:
        return [f"manifest lists {sorted(listed)}, directory holds {written}"]
    return []
