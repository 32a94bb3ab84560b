"""Synthetic fixtures: balanced hierarchies and corpora with planted annotation noise.

These generators back the test suite and the `synth` CLI subcommand, so the
whole pipeline can be exercised without any licensed corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import (
    ELIMINATED,
    GoldRecord,
    GoldSet,
    Instance,
    PredictionRecord,
    PredictionSet,
    ReannotationPool,
)
from .errors import ValidationError
from .hierarchy import LabelHierarchy


def balanced_hierarchy(
    groups: int = 3,
    subgroups: int = 3,
    labels: int = 4,
    negative_label: str | None = "no_relation",
) -> LabelHierarchy:
    """Three-level taxonomy: root -> groups -> subgroups -> leaf labels.

    The negative label, when given, sits directly under the root (a
    depth-1 leaf), mirroring the recommended placement for datasets whose
    negative class has no natural group.
    """
    if min(groups, subgroups, labels) < 1:
        raise ValidationError("hierarchy shape parameters must be positive")
    records: list[tuple[str, str | None]] = [("root", None)]
    if negative_label:
        records.append((negative_label, "root"))
    for g in range(groups):
        records.append((f"g{g}", "root"))
        for s in range(subgroups):
            records.append((f"g{g}s{s}", f"g{g}"))
            for x in range(labels):
                records.append((f"g{g}s{s}x{x}", f"g{g}s{s}"))
    return LabelHierarchy(records)


@dataclass(frozen=True)
class SynthBundle:
    """A generated corpus plus the latent truth it was planted from."""

    hierarchy: LabelHierarchy
    pool: ReannotationPool
    predictions: PredictionSet
    gold: GoldSet
    true_labels: dict[str, str]


def _distance_buckets(
    hierarchy: LabelHierarchy,
    leaves: tuple[str, ...],
    plant_min_distance: int,
    flip_max_distance: int,
    allow_internal_predictions: bool,
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    far: dict[str, list[str]] = {}
    near: dict[str, list[str]] = {}
    flip_pool = hierarchy.names() if allow_internal_predictions else leaves  # holds every leaf
    for leaf in leaves:
        distance = {other: hierarchy.tree_distance(leaf, other) for other in flip_pool}
        candidates = [o for o in leaves if distance[o] >= plant_min_distance]
        if not candidates:
            top = max(distance[o] for o in leaves if o != leaf)
            candidates = [o for o in leaves if distance[o] == top]
        far[leaf] = candidates
        close = [o for o in flip_pool if o != leaf and distance[o] <= flip_max_distance]
        near[leaf] = close or [o for o in leaves if o != leaf]
    return far, near


def synth_corpus(
    hierarchy: LabelHierarchy,
    rng: random.Random,
    *,
    size: int,
    models: int,
    noise_rate: float = 0.15,
    eliminate_rate: float = 0.03,
    flip_rate: float = 0.15,
    plant_min_distance: int = 4,
    flip_max_distance: int = 2,
    allow_internal_predictions: bool = False,
) -> SynthBundle:
    """Generate a corpus with planted label noise.

    Every instance gets a latent true label drawn uniformly from the
    hierarchy's leaves. Mislabeled (``noise_rate``) and eliminated
    (``eliminate_rate``) instances carry a dataset label far from the
    truth — at least ``plant_min_distance`` edges when the hierarchy
    allows, otherwise as far as possible. Each model predicts the truth,
    or with probability ``flip_rate`` a label within
    ``flip_max_distance`` of it (high confidence when agreeing with the
    truth, lower when flipped). Gold records hold the truth for mislabeled
    rows, ELIMINATED for eliminated rows, and cover clean rows only half
    the time — absence means clean.
    """
    if size < 1 or models < 1:
        raise ValidationError("size and models must be positive")
    rates = (noise_rate, eliminate_rate, flip_rate, noise_rate + eliminate_rate)
    if not all(0 <= rate <= 1 for rate in rates):  # a NaN fails both comparisons
        raise ValidationError(
            "noise_rate, eliminate_rate, flip_rate and noise_rate + eliminate_rate "
            "must each lie within [0, 1]"
        )
    leaves = hierarchy.leaves()
    if len(leaves) < 2:
        raise ValidationError("hierarchy needs at least two leaf labels")
    far, near = _distance_buckets(
        hierarchy, leaves, plant_min_distance, flip_max_distance,
        allow_internal_predictions,
    )

    width = max(4, len(str(size - 1)))
    model_ids = [f"m{j + 1}" for j in range(models)]
    instances = []
    gold_records = []
    pred_records = []
    true_labels: dict[str, str] = {}
    for i in range(size):
        iid = f"s{i:0{width}d}"
        truth = rng.choice(leaves)
        true_labels[iid] = truth
        draw = rng.random()
        if draw < eliminate_rate:
            label = rng.choice(far[truth])
            gold_records.append(GoldRecord(iid, ELIMINATED))
        elif draw < eliminate_rate + noise_rate:
            label = rng.choice(far[truth])
            gold_records.append(GoldRecord(iid, truth))
        else:
            label = truth
            if rng.random() < 0.5:
                gold_records.append(GoldRecord(iid, truth))
        instances.append(Instance(iid, label, partition="test"))
        for model_id in model_ids:
            if rng.random() < flip_rate:
                predicted = rng.choice(near[truth])
                confidence = rng.uniform(0.3, 0.7)
            else:
                predicted = truth
                confidence = rng.uniform(0.7, 1.0)
            pred_records.append(PredictionRecord(model_id, iid, predicted, confidence))

    pool = ReannotationPool(instances)
    return SynthBundle(
        hierarchy,
        pool,
        PredictionSet(pred_records, pool),
        GoldSet(gold_records, pool),
        true_labels,
    )
