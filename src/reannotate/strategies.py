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
from collections import deque
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, repeat
from operator import add, and_, eq, ge, gt, lshift, mul, ne, rshift, sub, truediv
from pathlib import Path
from typing import Sequence

from .corpus import Instance, PredictionSet, ReannotationPool, _take
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
    pool: ReannotationPool,
    predictions: PredictionSet,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
) -> tuple[list[int], int]:
    """Each pool row's GD, LD or CONFIDENCE score, as (int keys, denominator).

    Reads the K prediction columns lined up with `pool` (`PredictionSet._over`).
    GD and LD come from one hierarchy walk per distinct (dataset label,
    prediction) pair: the row sums of `_distance_sums` hold both. Those sums
    are kept on `predictions` for these pool and hierarchy objects (`_keep`),
    so the other of the two strategies reads them and walks no more.
    """
    k = predictions.k
    if kind is StrategyKind.CONFIDENCE:
        columns, dataset_labels = predictions._over(pool), pool._labels
        smallest = min(min(filter(None, confs), default=1.0) for _, confs in columns)
        shift = 53 - math.frexp(smallest)[1]  # 2^shift times each confidence is an int
        first = min(shift, 1023)  # 2^1024 overflows a float
        total, count = [0] * len(pool), [0] * len(pool)
        for labels, confs in columns:  # only the rows where the model disagrees
            rows = list(compress(range(len(pool)), map(ne, labels, dataset_labels)))
            confs = _take(confs, rows)
            scaled = list(map(int, map(math.ldexp, confs, repeat(first))))
            if shift > first:  # a confidence below about 2^-970: add the bits under 2^-1023
                low = map(math.ldexp, map(float, scaled), repeat(-first))
                low = map(int, map(math.ldexp, map(sub, confs, low), repeat(shift)))
                scaled = map(add, map(lshift, scaled, repeat(shift - first)), low)
            for row, value in zip(rows, scaled):
                total[row] += value
                count[row] += 1
        scale = math.lcm(*range(1, k + 1))
        per_count = [0] + [scale // n for n in range(1, k + 1)]  # 0 models disagree: key 0
        return list(map(mul, total, map(per_count.__getitem__, count))), scale << shift
    sums, shift = predictions._keep(_distance_sums, pool, hierarchy)
    if kind is StrategyKind.GD:
        return list(map(rshift, sums, repeat(shift))), k
    return list(map(and_, sums, repeat((1 << shift) - 1))), k


def _distance_sums(
    predictions: PredictionSet, pool: ReannotationPool, hierarchy: LabelHierarchy
) -> tuple[list[int], int]:
    """Per row of `pool`, the sum over its K pairs (a, b) of dataset label and
    prediction of tree_distance(a, b) << shift | distance_to_lca(a, b), and
    shift. A row's K distances to the LCA sum below 2^shift, so the high part
    of a row's sum is its GD key and the low part its LD key."""
    columns = predictions._over(pool, labels_only=True)
    shift = (len(columns) * hierarchy.height).bit_length()
    lca = hierarchy._lca

    @cache
    def pair(a: str, b: str) -> int:  # one LCA walk per distinct pair
        _, up, down = lca(a, b)  # raises for the first unknown label
        return (up + down) << shift | up  # tree_distance, distance_to_lca

    # zip walks the columns row by row: one instance's K pairs in turn
    return list(map(sum, zip(*[map(pair, pool._labels, labels) for (labels,) in columns]))), shift


def _score_one(
    instance: Instance,
    predictions: PredictionSet,
    hierarchy: LabelHierarchy | None,
    kind: StrategyKind,
) -> Fraction:
    # a shallow copy keeps what the one-instance pool builds; `predictions` keeps its own
    keys, denominator = _scores(ReannotationPool((instance,)), copy(predictions), hierarchy, kind)
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
    increase down the list, and ties are in ascending id order. A list from
    `rank` also remembers each rank's pool row (``_rows``), that pool's
    id -> row map (``_position``), and its id column and the key per row it
    was sorted by (``_sorted_by``); it builds ``ids`` and ``keys`` from them
    on first read. They are not fields, and a list built by hand, copied or
    unpickled has none of them.
    """

    _rows = None
    _position = None
    _sorted_by = None

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

    @classmethod
    def _from_sorted(
        cls, strategy: StrategyKind, denominator: int, rows: list[int], pool: ReannotationPool,
        key_of: Sequence[float],
    ) -> RankedList:
        """A list that `rank` sorted itself: `rows` of `pool` in rank order, by
        `key_of`, the key per row. The checks above are skipped."""
        ranking = cls.__new__(cls)
        ranking.__dict__.update(strategy=strategy, denominator=denominator, _rows=rows)
        ranking.__dict__.update(_position=pool._position, _sorted_by=(pool._ids, key_of))
        return ranking

    def __getattr__(self, name: str):  # called only for what the instance and class lack
        """`ids` or `keys` of a list from `rank`, built from its rows on first
        read and kept in one store of a finished tuple."""
        if name not in ("ids", "keys") or self._sorted_by is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pool_ids, key_of = self._sorted_by
        values = map((pool_ids if name == "ids" else key_of).__getitem__, self._rows)
        if name == "keys" and self.strategy is StrategyKind.RANDOM:  # a draw times 2^53 is exact
            values = map(int, map(mul, values, repeat(2.0**53)))
        view = self.__dict__[name] = tuple(values)
        return view

    def __reduce__(self):  # a copy is checked afresh and keeps no pool rows
        return type(self), (self.strategy, self.ids, self.keys, self.denominator)

    @property
    def name(self) -> str:
        return self.strategy.value

    def __len__(self) -> int:
        return len(self.ids if self._rows is None else self._rows)

    def top(self, budget: int) -> tuple[str, ...]:
        """Ids selected at the given budget (the length-B prefix)."""
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ValidationError(f"budget {budget!r} is not an integer")
        if not 0 <= budget <= len(self):
            raise ValidationError(f"budget {budget} outside [0, {len(self)}]")
        return self.ids[:budget]

    def write_csv(self, target: str | Path) -> None:
        """Write rank,instance_id,score rows, rank starting at 1."""
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "instance_id", "score"])
            keys = set(self.keys)  # one float repr per distinct score
            text = dict(zip(keys, map(repr, map(truediv, keys, repeat(self.denominator)))))
            ranks = range(1, len(self.ids) + 1)
            writer.writerows(zip(ranks, self.ids, map(text.__getitem__, self.keys)))


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
    times 2^53 is an exact integer key, and the draws sort as their keys do.
    Selections at growing budgets are nested prefixes for every strategy.
    """
    if kind is StrategyKind.RANDOM:
        if seed is None:
            raise ValidationError("random strategy requires a seed")
        _check_seed(seed)
        draws = map(random.Random.random, repeat(random.Random(seed), len(pool)))
        keys, denominator = [0.0] * len(pool), 2**53
        deque(map(keys.__setitem__, pool._id_order, draws), maxlen=0)  # each row's draw
    elif predictions is None:
        raise ValidationError(f"{kind.value} strategy requires predictions")
    elif kind is not StrategyKind.CONFIDENCE and hierarchy is None:
        raise ValidationError(f"{kind.value} strategy requires a hierarchy")
    else:
        keys, denominator = _scores(pool, predictions, hierarchy, kind)
    order = pool._id_order.copy()  # the stable sort below keeps ties in ascending id order
    order.sort(key=keys.__getitem__, reverse=True)  # RANDOM sorts its float draws: faster than ints
    return RankedList._from_sorted(kind, denominator, order, pool, keys)
