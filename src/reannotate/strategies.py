"""Per-instance disagreement scoring and deterministic pool ranking.

Scores are exact rationals, kept as integer keys over one denominator per
ranking, so ordering compares integers and never hinges on floating-point
equality; floats appear only when writing CSV. Scoring is a pure function per instance and may be run
concurrently against the shared immutable hierarchy and prediction set.
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
from operator import and_, eq, ge, gt
from pathlib import Path
from typing import Iterable, Sequence

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


def _confidence_mean(
    label: str, predicted: Iterable[str], confidences: Iterable[float]
) -> tuple[int, int]:
    """Exact mean confidence of the predictions that differ from ``label``, as a ratio."""
    ratios = [c.as_integer_ratio() for p, c in zip(predicted, confidences) if p != label]
    if not ratios:
        return 0, 1  # every model agrees
    denominator = math.lcm(*(d for _, d in ratios))  # the largest one, for floats
    total = sum(n * (denominator // d) for n, d in ratios)
    return total, denominator * len(ratios)


def _scores(
    ids: Sequence[str],
    dataset_labels: Sequence[str],
    predictions: PredictionSet,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
) -> tuple[list[int], int]:
    """Each instance's GD, LD or CONFIDENCE score in the given order, as (int keys, denominator).

    Reads the K prediction columns through the id -> slot map, one instance's
    K predictions after another: consecutive walks then share the dataset
    label's path, which is faster on deep trees than one model after another.
    The distance cache lives for this call only: one hierarchy walk per
    distinct (dataset label, prediction) pair.
    """
    slot, columns = predictions.columns()
    try:
        slots = list(map(slot.__getitem__, ids))
    except KeyError as exc:
        raise ValidationError(f"no predictions for instance {exc.args[0]!r}") from None
    rows = zip(*(map(labels.__getitem__, slots) for labels, _ in columns))
    if kind is StrategyKind.CONFIDENCE:
        confidences = zip(*(map(column.__getitem__, slots) for _, column in columns))
        means = list(map(_confidence_mean, dataset_labels, rows, confidences))
        scale = math.lcm(*{d for _, d in means})
        return [total * (scale // d) for total, d in means], scale
    distance = cache(
        hierarchy.tree_distance if kind is StrategyKind.GD else hierarchy.distance_to_lca
    )
    k = len(columns)
    row_labels = chain.from_iterable(map(repeat, dataset_labels, repeat(k)))
    distances = map(distance, row_labels, chain.from_iterable(rows))
    return list(map(sum, zip(*[distances] * k))), k  # one sum per K consecutive distances


def graph_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean shortest-path distance between the dataset label and each model's prediction.

    Models agreeing with the dataset label contribute 0; the mean runs over
    all K models.
    """
    keys, denominator = _scores(
        (instance.id,), (instance.label,), predictions, hierarchy, StrategyKind.GD
    )
    return Fraction(keys[0], denominator)


def lca_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean distance from the dataset label up to its LCA with each model's prediction."""
    keys, denominator = _scores(
        (instance.id,), (instance.label,), predictions, hierarchy, StrategyKind.LD
    )
    return Fraction(keys[0], denominator)


def confidence_score(instance: Instance, predictions: PredictionSet) -> Fraction:
    """Mean confidence of the models whose prediction differs from the dataset label.

    0 when every model agrees, so unanimously agreed instances rank last
    among scored ones.
    """
    keys, denominator = _scores(
        (instance.id,), (instance.label,), predictions, None, StrategyKind.CONFIDENCE
    )
    return Fraction(keys[0], denominator)


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
        keys, denominator = _scores(pool.ids(), pool._labels, predictions, hierarchy, kind)
    ids = pool.ids()
    order = pool._id_order.copy()  # the stable sort below keeps ties in ascending id order
    order.sort(key=keys.__getitem__, reverse=True)
    ids, keys = tuple(map(ids.__getitem__, order)), tuple(map(keys.__getitem__, order))
    return RankedList(kind, ids, keys, denominator)
