"""Per-instance disagreement scoring and deterministic pool ranking.

Scores are exact rationals (integer tree distances, exact means), so
ordering never hinges on floating-point equality; floats appear only when
writing CSV. Scoring is a pure function per instance and may be run
concurrently against the shared immutable hierarchy and prediction set.
"""

from __future__ import annotations

import csv
import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable

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


def _mean_distance(
    instance: Instance, predictions: PredictionSet, distance: Callable[[str, str], int]
) -> Fraction:
    """Mean of ``distance(dataset label, prediction)`` over all K models' predictions."""
    records = predictions.for_instance(instance.id)
    total = sum(distance(instance.label, rec.label) for rec in records)
    return Fraction(total, len(records))


def graph_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean shortest-path distance between the dataset label and each model's prediction.

    Models agreeing with the dataset label contribute 0; the mean runs over
    all K models.
    """
    return _mean_distance(instance, predictions, hierarchy.tree_distance)


def lca_distance_score(
    instance: Instance, predictions: PredictionSet, hierarchy: LabelHierarchy
) -> Fraction:
    """Mean distance from the dataset label up to its LCA with each model's prediction."""
    return _mean_distance(instance, predictions, hierarchy.distance_to_lca)


def confidence_score(instance: Instance, predictions: PredictionSet) -> Fraction:
    """Mean confidence of the models whose prediction differs from the dataset label.

    0 when every model agrees, so unanimously agreed instances rank last
    among scored ones.
    """
    disagreeing = [
        rec for rec in predictions.for_instance(instance.id) if rec.label != instance.label
    ]
    if not disagreeing:
        return Fraction(0)
    total = sum(Fraction(rec.confidence) for rec in disagreeing)
    return total / len(disagreeing)


@dataclass(frozen=True)
class ScoredInstance:
    instance_id: str
    score: Fraction


@dataclass(frozen=True)
class RankedList:
    """A strategy's permutation of the pool; the top-B prefix is the selection at budget B."""

    strategy: StrategyKind
    entries: tuple[ScoredInstance, ...]

    @property
    def name(self) -> str:
        return self.strategy.value

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(entry.instance_id for entry in self.entries)

    def top(self, budget: int) -> tuple[str, ...]:
        """Ids selected at the given budget (the length-B prefix)."""
        if not 0 <= budget <= len(self.entries):
            raise ValidationError(
                f"budget {budget} outside [0, {len(self.entries)}]"
            )
        return self.ids[:budget]

    def write_csv(self, target: str | Path) -> None:
        """Write rank,instance_id,score rows, rank starting at 1."""
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "instance_id", "score"])
            for position, entry in enumerate(self.entries, start=1):
                writer.writerow([position, entry.instance_id, repr(float(entry.score))])


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
    yields the shuffle. Selections at growing budgets are nested prefixes
    for every strategy.
    """
    if kind is StrategyKind.RANDOM:
        if seed is None:
            raise ValidationError("random strategy requires a seed")
        if not 0 <= seed < _MAX_SEED:
            raise ValidationError(f"seed {seed} outside [0, 2^64)")
        rng = random.Random(seed)
        draws = {iid: Fraction(rng.random()) for iid in sorted(pool.ids())}
        score = lambda inst: draws[inst.id]
    elif predictions is None:
        raise ValidationError(f"{kind.value} strategy requires predictions")
    elif kind is StrategyKind.CONFIDENCE:
        score = lambda inst: confidence_score(inst, predictions)
    elif hierarchy is None:
        raise ValidationError(f"{kind.value} strategy requires a hierarchy")
    else:
        distance = (
            hierarchy.tree_distance if kind is StrategyKind.GD else hierarchy.distance_to_lca
        )
        score = lambda inst: _mean_distance(inst, predictions, distance)
    entries = [ScoredInstance(inst.id, score(inst)) for inst in pool]
    scale = math.lcm(*{e.score.denominator for e in entries})  # score * scale is an exact int
    entries.sort(key=lambda entry: entry.instance_id)  # the stable sort below keeps ties so
    entries.sort(key=lambda e: e.score.numerator * (scale // e.score.denominator), reverse=True)
    return RankedList(kind, tuple(entries))
