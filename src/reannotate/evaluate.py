"""Budget-sweep simulation: selection overlap, error-catching efficiency, micro-F1 curves.

Curve values are exact rationals; each (strategy, budget) cell is a pure
computation over immutable inputs, so sweeps parallelize freely and the
assembled output is deterministic regardless of execution order. f1_curve
keeps its ranking-independent state on the PredictionSet (`_keep`), so
concurrent calls may both build it but never read half of it. A `rank`
output keeps its pool rows and its pool's `_position`: the curves read the
rows in place over that pool and gather them by id over any other.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, and_, eq, is_, is_not, lshift, ne, neg, or_, rshift, sub
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import (
    ELIMINATED, GoldSet, Instance, PredictionSet, ReannotationPool, _gather, _take,
)
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


def _rows_of(ranking: RankedList, position: Mapping[str, int], message: str) -> Sequence[int]:
    """Each rank's row in the pool whose id -> row map is `position` (`_gather`);
    a ranking whose ids are not exactly the pool's (they are distinct) raises `message`."""
    rows = _gather(lambda: ranking.ids, position, ranking._position, message)
    if rows is not None and len(rows) != len(position):
        raise ValidationError(message)
    return ranking._rows if rows is None else rows


def jaccard_curve(a: RankedList, b: RankedList, schedule: BudgetSchedule) -> CurveSeries:
    """Overlap of the two top-B selections at each budget: |A ∩ B| / |A ∪ B|.

    Defined as 1 at B = 0 (two empty selections); the series is labeled
    with `a`'s strategy name. Both selections grow as rows of one pool: the
    pool `a` was ranked from by `rank`, else `a`'s ids in rank order. One
    set gathers the rows of both prefixes; each prefix holds B distinct rows,
    so |A ∩ B| = 2B − |A ∪ B|.
    """
    position = a._position or dict(zip(a.ids, range(len(a))))
    rows_a, rows_b = (_rows_of(r, position, "rankings cover different pools") for r in (a, b))
    _check_budgets(schedule, len(a))
    union: set[int] = set()
    previous = 0
    points = []
    for budget in schedule:
        union.update(rows_a[previous:budget], rows_b[previous:budget])
        previous = budget
        size = len(union)
        value = Fraction(1) if size == 0 else Fraction(2 * budget - size, size)
        points.append(CurvePoint(budget, value))
    return CurveSeries("jaccard", a.name, tuple(points))


def efficiency_curve(
    ranking: RankedList, gold: GoldSet, schedule: BudgetSchedule
) -> CurveSeries:
    """Fraction of the noisy set captured in the top-B prefix, per budget.

    The denominator is the noisy set of whatever pool was loaded (the gold
    set's pool), not of any particular partition. The ranking's rows over
    that pool are read in place when `rank` ordered it, else gathered by id,
    and counted through the gold set's noisy flag per row.
    """
    noisy = gold.noisy_ids
    if not noisy:
        raise ValidationError("efficiency undefined: the noisy set is empty")
    rows = _rows_of(ranking, gold._position, "gold and ranking cover different pools")
    _check_budgets(schedule, len(ranking))
    hits = bytes(_take(gold._noisy_rows, rows))  # each rank's noisy flag
    caught = accumulate(map(hits.count, repeat(1), (0, *schedule), schedule))
    points = tuple(
        CurvePoint(b, Fraction(found, len(noisy))) for b, found in zip(schedule, caught)
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


def _credited(labels: list, negative_label: str) -> list[str | None]:
    """Each label, or None where it earns no credit (the negative label and
    ELIMINATED). No prediction equals None."""
    no_credit = {negative_label: None, ELIMINATED: None}
    return list(map(no_credit.get, labels, labels))


def _counts(preds: Sequence[str], credit: list, negative_label: str) -> tuple[int, int, int]:
    """The one count rule: true positives (predictions equal to the credited
    label), predicted positives and gold positives; fp = predicted - tp and
    fn = gold - tp."""
    tp = sum(map(eq, preds, credit))
    return tp, len(preds) - preds.count(negative_label), len(credit) - credit.count(None)


def _scores(tp: int, predicted: int, gold: int) -> MicroScores:
    precision = Fraction(tp, predicted) if predicted else Fraction(0)
    recall = Fraction(tp, gold) if gold else Fraction(0)
    f1 = Fraction(2 * tp, predicted + gold) if tp else Fraction(0)
    return MicroScores(precision, recall, f1)


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
    try:
        preds = list(map(predictions.__getitem__, labels))
    except KeyError as exc:
        raise ValidationError(f"no prediction for instance {exc.args[0]!r}") from None
    credit = _credited(list(labels.values()), negative_label)
    return _scores(*_counts(preds, credit, negative_label))


def _f1_state(
    predictions: PredictionSet, pool: ReannotationPool, gold: GoldSet, negative_label: str,
    drop_eliminated: bool,
) -> tuple:
    """The part of `f1_curve` that no ranking changes: the pool's id -> row
    map; a code per row, 0 where the gold value leaves the row's label in
    `pool` alone, else 1 + the index of that changed id; per model its
    budget-0 (tp, P, G); the field width; and per changed id, at its
    1 + index, one int packing its G delta and each model's tp and P deltas.
    Each field holds its delta + 1 in `width` bits, from G in the lowest up
    to the last model's P, and the sum of any set of changed ids' packed
    ints holds each field's sum without a carry between fields."""
    labels, row = pool._labels, pool._position
    credit = _credited(labels, negative_label)

    relabels = gold._gold
    known = list(filter(row.__contains__, relabels))
    old = list(map(labels.__getitem__, map(row.__getitem__, known)))
    new = list(map(relabels.__getitem__, known))
    changed = list(map(ne, new, old))  # ELIMINATED differs from every label
    if not drop_eliminated:
        changed = list(map(and_, changed, map(is_not, new, repeat(ELIMINATED))))
    walk, old, new = (list(compress(column, changed)) for column in (known, old, new))
    dropped = list(map(is_, new, repeat(ELIMINATED)))
    old_credit, new_credit = _credited(old, negative_label), _credited(new, negative_label)
    gained = map(sub, map(is_not, new_credit, repeat(None)), map(is_not, old_credit, repeat(None)))
    walk_rows = list(map(row.__getitem__, walk))
    fields, counts = [list(gained)], []
    for (preds,) in predictions._over(pool, labels_only=True):
        walk_preds = _take(preds, walk_rows)
        tp_delta = map(sub, map(eq, walk_preds, new_credit), map(eq, walk_preds, old_credit))
        lost = map(and_, dropped, map(ne, walk_preds, repeat(negative_label)))  # P drops by 1
        fields += [list(tp_delta), list(map(neg, lost))]
        counts.append(_counts(preds, credit, negative_label))
    width = (2 * len(walk)).bit_length()  # a field sums to at most 2·changed
    packed = repeat(0)
    for field in reversed(fields):
        packed = list(map(or_, map(lshift, packed, repeat(width)), map(add, field, repeat(1))))
    code = [0] * len(labels)
    for index, walk_row in enumerate(walk_rows, 1):
        code[walk_row] = index
    return row, code, counts, width, (0, *packed)


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
    counted once over the pool and then kept as running counts over the
    ids whose gold value changes their label in `pool`, in rank order.
    Any other iterable of instances is first made a `ReannotationPool`, with
    that constructor's checks. The counts and the per-changed-id deltas do
    not depend on the ranking: `predictions` keeps them for the very pool,
    gold, negative label and drop flag objects of the last call (`_keep`), so
    a pool made afresh from a plain iterable rebuilds them. The ranking's rows
    over the pool are read in place when `rank` ordered it, else by id.
    """
    if not isinstance(pool, ReannotationPool):
        pool = ReannotationPool(pool)
    # keyed on the pool, not its `_position`: each pool builds its own map, so the two agree
    position, code, counts, width, packed = predictions._keep(
        _f1_state, pool, gold, negative_label, drop_eliminated
    )
    rows = _rows_of(ranking, position, "pool and ranking cover different instances")
    _check_budgets(schedule, len(ranking))

    # each rank's code; the changed ids' codes in rank order; how many of them
    # each budget applies; and per budget the sum of their packed ints
    codes = _take(code, rows)
    ranks = list(compress(range(len(codes)), codes))
    applied = list(map(bisect_left, repeat(ranks), schedule))
    moved = _take((0, *accumulate(_take(packed, list(filter(None, codes))))), applied)
    mask = (1 << width) - 1

    def delta(field: int) -> map:  # per budget, the field's sum less its applied offsets
        sums = map(and_, map(rshift, moved, repeat(field * width)), repeat(mask))
        return map(sub, sums, applied)

    gold_moved = list(delta(0))
    series = []
    for m, (model, (tp, predicted, gold_count)) in enumerate(zip(predictions.model_ids, counts)):
        scores = map(
            _scores,
            map(add, repeat(tp), delta(1 + 2 * m)),
            map(add, repeat(predicted), delta(2 + 2 * m)),
            map(add, repeat(gold_count), gold_moved),
        )
        series += [
            CurveSeries(metric, model, tuple(map(CurvePoint, schedule, values)))
            for metric, values in zip(MicroScores._fields, zip(*scores))
        ]
    return series


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
