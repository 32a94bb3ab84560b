"""Per-instance disagreement scoring and deterministic pool ranking.

Scores are exact rationals, kept as integer keys over one denominator per
ranking, so ordering compares integers and never hinges on floating-point
equality; floats appear only when writing CSV.
"""

from __future__ import annotations

import csv
import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from operator import add, and_, eq, ge, gt, lshift, mul, ne, sub
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Instance, PredictionSet, ReannotationPool
from .errors import ValidationError
from .hierarchy import LabelHierarchy

_MAX_SEED = 2**64


class StrategyKind(enum.Enum):
    """Ways to order the reannotation pool."""

    GD = "gd"  # mean tree distance between the dataset label and each prediction
    LD = "ld"  # mean distance from the dataset label to its LCA with each prediction
    CONFIDENCE = "confidence"  # mean confidence of the disagreeing models
    RANDOM = "random"  # seeded uniform shuffle

    @classmethod
    def from_name(cls, name: str) -> "StrategyKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValidationError(f"unknown strategy {name!r}") from None


def _check_seed(seed: object) -> None:
    """Seeds are ints in [0, 2^64); random.Random(-1) would silently equal random.Random(1)."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _MAX_SEED:
        raise ValidationError(f"seed {seed} outside [0, 2^64)")


def _scores(
    ids: Sequence[str],
    dataset_labels: Sequence[str],
    predictions: PredictionSet,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
    position: Mapping[str, int] | None = None,
) -> tuple[list[int], int]:
    """Each instance's GD, LD or CONFIDENCE score in the given order, as (int keys, denominator).

    Reads the K prediction columns in place when ``position``, the row map of the
    pool that ``ids`` and ``dataset_labels`` come from, is the map they were built
    over; else gathers them by slot. GD and LD walk one instance's K predictions
    in turn (walks then share a path), once per distinct pair per call.
    """
    slot, columns = predictions.columns()
    if slot is not position:
        slots = list(map(predictions._slot_of, ids))
        columns = [[list(map(column.__getitem__, slots)) for column in pair] for pair in columns]
    k = len(columns)
    if kind is StrategyKind.CONFIDENCE:
        smallest = min(min(filter(None, confs), default=1.0) for _, confs in columns)
        shift = 53 - math.frexp(smallest)[1]  # 2^shift times each confidence is an int
        first = min(shift, 1023)  # 2^1024 overflows a float
        total, count = repeat(0), repeat(0)
        for labels, confs in columns:
            scaled = list(map(int, map(math.ldexp, confs, repeat(first))))
            if shift > first:  # a confidence below about 2^-970: add the bits under 2^-1023
                low = map(math.ldexp, map(float, scaled), repeat(-first))
                low = map(int, map(math.ldexp, map(sub, confs, low), repeat(shift)))
                scaled = map(add, map(lshift, scaled, repeat(shift - first)), low)
            differs = list(map(ne, labels, dataset_labels))
            total = list(map(add, total, map(mul, scaled, differs)))
            count = list(map(add, count, differs))
        scale = math.lcm(*range(1, k + 1))
        per_count = [0] + [scale // n for n in range(1, k + 1)]  # 0 models disagree: key 0
        return list(map(mul, total, map(per_count.__getitem__, count))), scale << shift
    distance = cache(
        hierarchy.tree_distance if kind is StrategyKind.GD else hierarchy.distance_to_lca
    )
    rows = zip(*(labels for labels, _ in columns))
    row_labels = chain.from_iterable(map(repeat, dataset_labels, repeat(k)))
    distances = map(distance, row_labels, chain.from_iterable(rows))
    return list(map(sum, zip(*[distances] * k))), k  # one sum per K consecutive distances


def _score_one(
    instance: Instance,
    predictions: PredictionSet,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
) -> Fraction:
    keys, denominator = _scores((instance.id,), (instance.label,), predictions, hierarchy, kind)
    return Fraction(keys[0], denominator)


def graph_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean shortest-path distance between the dataset label and each model's prediction.

    Models agreeing with the dataset label contribute 0; the mean runs over
    all K models.
    """
    return _score_one(instance, predictions, hierarchy, StrategyKind.GD)


def lca_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean distance from the dataset label up to its LCA with each model's prediction."""
    return _score_one(instance, predictions, hierarchy, StrategyKind.LD)


def confidence_score(instance: Instance, predictions: PredictionSet) -> Fraction:
    """Mean confidence of the models whose prediction differs from the dataset label.

    0 when every model agrees, so unanimously agreed instances rank last
    among scored ones.
    """
    return _score_one(instance, predictions, None, StrategyKind.CONFIDENCE)


@dataclass(frozen=True)
class RankedList:
    """A strategy's permutation of the pool; the top-B prefix is the selection at budget B.

    The score of ``ids[i]`` is exactly ``keys[i] / denominator``. Scores never
    increase down the list, and ties are in ascending id order.
    """

    strategy: StrategyKind
    ids: tuple[str, ...]
    keys: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.ids):
            raise ValidationError(f"{len(self.keys)} scores for {len(self.ids)} instances")
        if self.denominator < 1:
            raise ValidationError(f"score denominator {self.denominator} is not positive")
        if len(set(self.ids)) != len(self.ids):  # rescan for the first repeat
            seen: set[str] = set()
            for iid in self.ids:
                if iid in seen:
                    raise ValidationError(f"instance {iid!r} appears twice in the ranking")
                seen.add(iid)
        keys, next_keys, next_ids = self.keys, self.keys[1:], self.ids[1:]
        if not all(map(ge, keys, next_keys)) or any(
            map(and_, map(eq, keys, next_keys), map(gt, self.ids, next_ids))
        ):  # rescan for the first rank out of order
            pairs = zip(keys, next_keys, self.ids, next_ids)
            for position, (key, next_key, iid, next_iid) in enumerate(pairs, start=2):
                if next_key > key or (next_key == key and next_iid < iid):
                    raise ValidationError(
                        f"ranking out of order at rank {position} ({next_iid!r}): scores must "
                        f"not increase and ties must be in ascending id order"
                    )

    @property
    def name(self) -> str:
        return self.strategy.value

    def __len__(self) -> int:
        return len(self.ids)

    def top(self, budget: int) -> tuple[str, ...]:
        """Ids selected at the given budget (the length-B prefix)."""
        if not 0 <= budget <= len(self.ids):
            raise ValidationError(f"budget {budget} outside [0, {len(self.ids)}]")
        return self.ids[:budget]

    def write_csv(self, target: str | Path) -> None:
        """Write rank,instance_id,score rows, rank starting at 1."""
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "instance_id", "score"])
            for position, (iid, key) in enumerate(zip(self.ids, self.keys), start=1):
                writer.writerow([position, iid, repr(key / self.denominator)])


def rank(
    pool: ReannotationPool,
    predictions: PredictionSet | None,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
    seed: int | None = None,
) -> RankedList:
    """Deterministically order the pool: descending score, ties by ascending id.

    RANDOM ignores predictions and hierarchy; it draws one uniform key per
    instance from the given seed (in sorted-id order, so the permutation
    depends only on the seed and the id set) and the usual descending sort
    yields the shuffle. random() returns multiples of 2^-53, so each draw
    times 2^53 is an exact integer key. Selections at growing budgets are
    nested prefixes for every strategy.
    """
    if kind is StrategyKind.RANDOM:
        if seed is None:
            raise ValidationError("random strategy requires a seed")
        _check_seed(seed)
        rng = random.Random(seed)
        keys, denominator = [0] * len(pool), 2**53
        for row in pool._id_order:
            keys[row] = int(rng.random() * 2**53)
    elif predictions is None:
        raise ValidationError(f"{kind.value} strategy requires predictions")
    elif kind is not StrategyKind.CONFIDENCE and hierarchy is None:
        raise ValidationError(f"{kind.value} strategy requires a hierarchy")
    else:
        keys, denominator = _scores(
            pool.ids(), pool._labels, predictions, hierarchy, kind, pool._position
        )
    order = pool._id_order.copy()  # the stable sort below keeps ties in ascending id order
    order.sort(key=keys.__getitem__, reverse=True)
    ids, keys = tuple(map(pool._ids.__getitem__, order)), tuple(map(keys.__getitem__, order))
    return RankedList(kind, ids, keys, denominator)
