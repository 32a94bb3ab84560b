"""Budget-sweep simulation: selection overlap, error-catching efficiency, micro-F1 curves.

Curve values are exact rationals; each (strategy, budget) cell is a pure
computation over immutable inputs, so sweeps parallelize freely and the
assembled output is deterministic regardless of execution order.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .corpus import GoldSet, Instance, PredictionSet, ReannotationPool, _EliminatedType
from .errors import ValidationError
from .strategies import RankedList

METRICS = ("jaccard", "efficiency", "precision", "recall", "f1")


def _check_budgets(schedule: BudgetSchedule, pool_size: int) -> None:
    if schedule.budgets[-1] > pool_size:
        raise ValidationError(
            f"budget {schedule.budgets[-1]} exceeds pool size {pool_size}"
        )


@dataclass(frozen=True)
class BudgetSchedule:
    """Strictly increasing, nonnegative reannotation budgets."""

    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.budgets, tuple):
            object.__setattr__(self, "budgets", tuple(self.budgets))
        if not self.budgets:
            raise ValidationError("budget schedule is empty")
        for b in self.budgets:
            if isinstance(b, bool) or not isinstance(b, int):
                raise ValidationError(f"budget {b!r} is not an integer")
        if self.budgets[0] < 0:
            raise ValidationError(f"negative budget {self.budgets[0]}")
        if any(b >= c for b, c in zip(self.budgets, self.budgets[1:])):
            raise ValidationError("budgets must be strictly increasing")

    @classmethod
    def explicit(cls, budgets: Iterable[int], pool_size: int) -> "BudgetSchedule":
        schedule = cls(tuple(budgets))
        _check_budgets(schedule, pool_size)
        return schedule

    @classmethod
    def evenly(cls, count: int, pool_size: int) -> "BudgetSchedule":
        """`count` budgets spread from 0 to pool_size inclusive (deduplicated)."""
        if count < 2:
            raise ValidationError("an even schedule needs at least 2 budgets")
        points = sorted({i * pool_size // (count - 1) for i in range(count)})
        return cls(tuple(points))

    @classmethod
    def strided(cls, step: int, pool_size: int) -> "BudgetSchedule":
        """0, step, 2*step, ..., always ending at the full pool size."""
        if step < 1:
            raise ValidationError(f"stride must be positive, got {step}")
        points = list(range(0, pool_size + 1, step))
        if points[-1] != pool_size:
            points.append(pool_size)
        return cls(tuple(points))

    def __iter__(self) -> Iterator[int]:
        return iter(self.budgets)

    def __len__(self) -> int:
        return len(self.budgets)


@dataclass(frozen=True)
class CurvePoint:
    budget: int
    value: Fraction


@dataclass(frozen=True)
class CurveSeries:
    """One budget-indexed metric curve, labeled by strategy name or model id."""

    metric: str
    series: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}")

    def budgets(self) -> tuple[int, ...]:
        return tuple(p.budget for p in self.points)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(p.value for p in self.points)

    def value_at(self, budget: int) -> Fraction:
        for point in self.points:
            if point.budget == budget:
                return point.value
        raise ValidationError(f"no curve point at budget {budget}")


def jaccard_curve(a: RankedList, b: RankedList, schedule: BudgetSchedule) -> CurveSeries:
    """Overlap of the two top-B selections at each budget: |A ∩ B| / |A ∪ B|.

    Defined as 1 at B = 0 (two empty selections); the series is labeled
    with `a`'s strategy name.
    """
    if set(a.ids) != set(b.ids):
        raise ValidationError("rankings cover different pools")
    _check_budgets(schedule, len(a))
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    intersection = 0
    previous = 0
    points = []
    for budget in schedule:
        segment_a, segment_b = a.ids[previous:budget], b.ids[previous:budget]
        intersection += len(seen_b.intersection(segment_a))
        seen_a.update(segment_a)
        intersection += len(seen_a.intersection(segment_b))
        seen_b.update(segment_b)
        previous = budget
        union = 2 * budget - intersection
        value = Fraction(1) if union == 0 else Fraction(intersection, union)
        points.append(CurvePoint(budget, value))
    return CurveSeries("jaccard", a.name, tuple(points))


def efficiency_curve(
    ranking: RankedList, gold: GoldSet, schedule: BudgetSchedule
) -> CurveSeries:
    """Fraction of the noisy set captured in the top-B prefix, per budget.

    The denominator is the noisy set of whatever pool was loaded (the gold
    set's pool), not of any particular partition.
    """
    noisy = gold.noisy_ids
    if not noisy:
        raise ValidationError("efficiency undefined: the noisy set is empty")
    if gold.pool_ids != set(ranking.ids):
        raise ValidationError("gold and ranking cover different pools")
    _check_budgets(schedule, len(ranking))
    cumulative = list(accumulate(map(noisy.__contains__, ranking.ids), initial=0))
    points = tuple(
        CurvePoint(b, Fraction(cumulative[b], len(noisy))) for b in schedule
    )
    return CurveSeries("efficiency", ranking.name, points)


@dataclass(frozen=True)
class RelabeledPool:
    """Pool after relabeling a ranked prefix; eliminated instances are listed separately."""

    instances: tuple[Instance, ...]
    eliminated_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def labels_by_id(self) -> dict[str, str]:
        return {inst.id: inst.label for inst in self.instances}


def apply_reannotation(
    pool: Iterable[Instance],
    ranking: RankedList,
    gold: GoldSet,
    budget: int,
    *,
    drop_eliminated: bool = True,
) -> RelabeledPool:
    """Relabel the top-`budget` prefix with gold labels.

    Instances outside the prefix keep their current labels. Inside the
    prefix, ELIMINATED instances are dropped (or kept untouched when
    ``drop_eliminated`` is false); prefix ids absent from the input pool
    are skipped, which makes the operation idempotent.
    """
    prefix = set(ranking.top(budget))
    kept: list[Instance] = []
    dropped: list[str] = []
    for inst in pool:
        if inst.id not in prefix:
            kept.append(inst)
            continue
        record = gold.get(inst.id)
        if record is None:
            kept.append(inst)
        elif record.is_eliminated:
            if drop_eliminated:
                dropped.append(inst.id)
            else:
                kept.append(inst)
        elif record.gold == inst.label:
            kept.append(inst)
        else:
            kept.append(replace(inst, label=record.gold))
    return RelabeledPool(tuple(kept), tuple(dropped))


class MicroScores(NamedTuple):
    precision: Fraction
    recall: Fraction
    f1: Fraction


def micro_f1(
    predictions: Mapping[str, str],
    labels: Mapping[str, str],
    negative_label: str,
) -> MicroScores:
    """Micro-averaged precision/recall/F1 with the negative class earning no credit.

    Counts over all labeled instances: a true positive needs prediction and
    label equal and non-negative; predicting non-negative wrongly is a
    false positive; missing a non-negative label is a false negative.
    Every labeled instance needs a prediction; 0/0 ratios are reported as 0.
    """
    pairs = ((predictions[iid], label) for iid, label in labels.items())
    return _scores_from_counts(*_confusion_counts(pairs, negative_label))


def _scores_from_counts(tp: int, fp: int, fn: int) -> MicroScores:
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return MicroScores(precision, recall, f1)


def _confusion_delta(pred: str, label: str, negative_label: str) -> tuple[int, int, int]:
    if pred == label:
        return (int(pred != negative_label), 0, 0)
    return (0, int(pred != negative_label), int(label != negative_label))


def _confusion_counts(pairs: Iterable[tuple[str, str]], negative_label: str) -> list[int]:
    """[tp, fp, fn] over (prediction, label) pairs, one delta per distinct pair."""
    try:
        counted = Counter(pairs)
    except KeyError as exc:
        raise ValidationError(f"no prediction for instance {exc.args[0]!r}") from None
    tp = fp = fn = 0
    for (pred, label), n in counted.items():
        dtp, dfp, dfn = _confusion_delta(pred, label, negative_label)
        tp += n * dtp
        fp += n * dfp
        fn += n * dfn
    return [tp, fp, fn]


def f1_curve(
    predictions: PredictionSet,
    pool: Iterable[Instance],
    ranking: RankedList,
    gold: GoldSet,
    schedule: BudgetSchedule,
    negative_label: str,
    *,
    drop_eliminated: bool = True,
) -> list[CurveSeries]:
    """Per-model precision/recall/F1 of the progressively relabeled pool.

    Equivalent to scoring each model against
    ``apply_reannotation(pool, ranking, gold, B)`` at every budget, but
    computed incrementally over the ascending schedule so a full sweep
    touches each instance once.
    """
    if isinstance(pool, ReannotationPool):
        label_now = dict(zip(pool._ids, pool._labels))
    else:
        label_now = {inst.id: inst.label for inst in pool}
    if label_now.keys() != set(ranking.ids):
        raise ValidationError("pool and ranking cover different instances")
    _check_budgets(schedule, len(ranking))

    slot, columns = predictions.columns()
    try:
        slots = list(map(slot.__getitem__, label_now))
    except KeyError as exc:
        raise ValidationError(f"no prediction for instance {exc.args[0]!r}") from None
    counts = [
        _confusion_counts(zip(map(labels.__getitem__, slots), label_now.values()), negative_label)
        for labels, _ in columns
    ]
    per_model: list[list[tuple[int, MicroScores]]] = [[] for _ in columns]
    relabels = gold._gold
    applied = 0
    for budget in schedule:
        for iid in filter(relabels.__contains__, ranking.ids[applied:budget]):
            new = relabels[iid]
            old = label_now[iid]
            if isinstance(new, _EliminatedType):
                if not drop_eliminated:
                    continue
                new = None
                del label_now[iid]
            elif new == old:
                continue
            else:
                label_now[iid] = new
            at = slot[iid]
            for (labels, _), c in zip(columns, counts):
                pred = labels[at]
                dtp, dfp, dfn = _confusion_delta(pred, old, negative_label)
                c[0] -= dtp
                c[1] -= dfp
                c[2] -= dfn
                if new is not None:
                    dtp, dfp, dfn = _confusion_delta(pred, new, negative_label)
                    c[0] += dtp
                    c[1] += dfp
                    c[2] += dfn
        applied = budget
        for points, c in zip(per_model, counts):
            points.append((budget, _scores_from_counts(*c)))

    return [
        CurveSeries(metric, m, tuple(CurvePoint(b, s[i]) for b, s in points))
        for m, points in zip(predictions.model_ids, per_model)
        for i, metric in enumerate(MicroScores._fields)
    ]


def write_curves_csv(series: Iterable[CurveSeries], target: str | Path) -> None:
    """Write metric,series,budget,value rows, sorted for stable output."""
    rows = [
        (s.metric, s.series, point.budget, repr(float(point.value)))
        for s in series
        for point in s.points
    ]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "series", "budget", "value"])
        writer.writerows(rows)
