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
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .corpus import GoldSet, Instance, PredictionSet
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
        for iid in a.ids[previous:budget]:
            if iid in seen_b:
                intersection += 1
            seen_a.add(iid)
        for iid in b.ids[previous:budget]:
            if iid in seen_a:
                intersection += 1
            seen_b.add(iid)
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
    cumulative = [0]
    caught = 0
    for iid in ranking.ids:
        caught += iid in noisy
        cumulative.append(caught)
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
    return _scores_from_counts(*_confusion_counts(predictions, labels, negative_label))


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


def _confusion_counts(
    predictions: Mapping[str, str], labels: Mapping[str, str], negative_label: str
) -> list[int]:
    """[tp, fp, fn] over every labeled instance, one delta per distinct pair."""
    try:
        pairs = Counter((predictions[iid], label) for iid, label in labels.items())
    except KeyError as exc:
        raise ValidationError(f"no prediction for instance {exc.args[0]!r}") from None
    tp = fp = fn = 0
    for (pred, label), n in pairs.items():
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
    label_now = {inst.id: inst.label for inst in pool}
    if label_now.keys() != set(ranking.ids):
        raise ValidationError("pool and ranking cover different instances")
    _check_budgets(schedule, len(ranking))

    slot, columns = predictions.columns()
    pred_of = {
        m: dict(zip(slot, labels)) for m, (labels, _) in zip(predictions.model_ids, columns)
    }
    counts = {
        m: _confusion_counts(pred_map, label_now, negative_label)
        for m, pred_map in pred_of.items()
    }
    per_model: dict[str, list[tuple[int, MicroScores]]] = {m: [] for m in pred_of}
    applied = 0
    for budget in schedule:
        for iid in ranking.ids[applied:budget]:
            record = gold.get(iid)
            if record is None:
                continue
            old = label_now[iid]
            if record.is_eliminated:
                if not drop_eliminated:
                    continue
                new = None
                del label_now[iid]
            else:
                if record.gold == old:
                    continue
                new = record.gold
                label_now[iid] = new
            for m, pred_map in pred_of.items():
                pred = pred_map[iid]
                dtp, dfp, dfn = _confusion_delta(pred, old, negative_label)
                c = counts[m]
                c[0] -= dtp
                c[1] -= dfp
                c[2] -= dfn
                if new is not None:
                    dtp, dfp, dfn = _confusion_delta(pred, new, negative_label)
                    c[0] += dtp
                    c[1] += dfp
                    c[2] += dfn
        applied = budget
        for m in predictions.model_ids:
            per_model[m].append((budget, _scores_from_counts(*counts[m])))

    return [
        CurveSeries(metric, m, tuple(CurvePoint(b, s[i]) for b, s in per_model[m]))
        for m in predictions.model_ids
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
