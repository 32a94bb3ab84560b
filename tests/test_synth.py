import random

import pytest

from reannotate import ValidationError, load_gold, load_pool, load_predictions
from reannotate.hierarchy import dump_hierarchy, load_hierarchy
from reannotate.synth import balanced_hierarchy, synth_corpus


def test_balanced_hierarchy_shape():
    h = balanced_hierarchy(groups=2, subgroups=3, labels=4)
    # root + negative + groups + subgroups + leaves
    assert len(h) == 1 + 1 + 2 + 2 * 3 + 2 * 3 * 4
    assert h.height == 3
    assert h.depth("no_relation") == 1
    assert "no_relation" in h.leaves()
    assert h.tree_distance("g0s0x0", "g1s0x0") == 6
    assert h.tree_distance("g0s0x0", "g0s1x0") == 4
    assert h.tree_distance("g0s0x0", "g0s0x1") == 2


def test_balanced_hierarchy_without_negative():
    h = balanced_hierarchy(groups=1, subgroups=1, labels=2, negative_label=None)
    assert "no_relation" not in h
    with pytest.raises(ValidationError):
        balanced_hierarchy(groups=0)


def test_corpus_deterministic_per_seed():
    h = balanced_hierarchy()
    one = synth_corpus(h, random.Random(5), size=40, models=3)
    two = synth_corpus(h, random.Random(5), size=40, models=3)
    assert list(one.pool) == list(two.pool)
    assert one.gold.records() == two.gold.records()
    for m in one.predictions.model_ids:
        assert one.predictions.records_for_model(m) == two.predictions.records_for_model(m)
    different = synth_corpus(h, random.Random(6), size=40, models=3)
    assert list(different.pool) != list(one.pool)


def test_noisy_set_matches_planted_truth():
    h = balanced_hierarchy()
    bundle = synth_corpus(
        h, random.Random(2), size=300, models=2, noise_rate=0.3, eliminate_rate=0.1
    )
    for iid in bundle.pool.ids():
        truth = bundle.true_labels[iid]
        record = bundle.gold.get(iid)
        if record is not None and not record.is_eliminated:
            assert record.gold == truth
        planted_noisy = bundle.pool.label_of(iid) != truth
        eliminated = record is not None and record.is_eliminated
        assert (iid in bundle.gold.noisy_ids) == (planted_noisy or eliminated)
    # rates are in the right ballpark on 300 draws
    assert 60 <= len(bundle.gold.noisy_ids) <= 180


def test_planted_labels_are_distant():
    h = balanced_hierarchy()
    bundle = synth_corpus(
        h, random.Random(7), size=200, models=1, noise_rate=0.4, plant_min_distance=4
    )
    for iid in bundle.pool.ids():
        label = bundle.pool.label_of(iid)
        truth = bundle.true_labels[iid]
        if label != truth:
            assert h.tree_distance(label, truth) >= 4
    # no leaf is 4 edges from another: planted labels fall back to the farthest leaves
    narrow = balanced_hierarchy(1, 1, 3, negative_label=None)
    bundle = synth_corpus(narrow, random.Random(7), size=50, models=1, noise_rate=0.4)
    truths = bundle.true_labels.items()
    assert {narrow.tree_distance(bundle.pool.label_of(iid), t) for iid, t in truths} == {0, 2}


def test_prediction_flips_stay_close():
    # no negative label: every leaf has siblings within the flip radius,
    # so the any-other-leaf fallback never kicks in
    h = balanced_hierarchy(negative_label=None)
    bundle = synth_corpus(
        h, random.Random(8), size=200, models=2, flip_rate=0.5, flip_max_distance=2
    )
    for m in bundle.predictions.model_ids:
        for rec in bundle.predictions.records_for_model(m):
            truth = bundle.true_labels[rec.instance_id]
            assert h.tree_distance(rec.label, truth) <= 2
            if rec.label == truth:
                assert rec.confidence >= 0.7
            else:
                assert rec.confidence <= 0.7


def test_leaf_only_predictions_by_default():
    h = balanced_hierarchy()
    leaves = set(h.leaves())
    bundle = synth_corpus(h, random.Random(9), size=100, models=2, flip_rate=0.6)
    assert bundle.predictions.labels() <= leaves
    wide = synth_corpus(
        h, random.Random(9), size=100, models=2, flip_rate=0.6,
        allow_internal_predictions=True,
    )
    assert not wide.predictions.labels() <= leaves


def test_rate_validation():
    h = balanced_hierarchy()
    rng = random.Random(1)
    with pytest.raises(ValidationError):
        synth_corpus(h, rng, size=10, models=1, noise_rate=0.9, eliminate_rate=0.2)
    with pytest.raises(ValidationError):
        synth_corpus(h, rng, size=0, models=1)
    one_leaf = balanced_hierarchy(1, 1, 1, negative_label=None)
    with pytest.raises(ValidationError, match="^hierarchy needs at least two leaf labels$"):
        synth_corpus(one_leaf, rng, size=10, models=1)
    nan = float("nan")
    for rates in ({"flip_rate": 1.5}, {"flip_rate": -0.1}, {"flip_rate": nan},
                  {"noise_rate": nan}, {"eliminate_rate": nan}, {"noise_rate": float("inf")}):
        with pytest.raises(ValidationError, match=r"must each lie within \[0, 1\]"):
            synth_corpus(h, rng, size=10, models=1, **rates)


def test_bundle_round_trips_through_loaders(tmp_path):
    h = balanced_hierarchy(groups=2, subgroups=2, labels=2)
    bundle = synth_corpus(h, random.Random(12), size=50, models=2, eliminate_rate=0.1)

    dump_hierarchy(h, tmp_path / "hierarchy.json")
    from reannotate import write_gold, write_pool, write_predictions

    write_pool(bundle.pool, tmp_path / "pool.jsonl")
    write_gold(bundle.gold, tmp_path / "gold.jsonl")
    for m in bundle.predictions.model_ids:
        write_predictions(bundle.predictions, m, tmp_path / f"preds_{m}.jsonl")

    h2 = load_hierarchy(tmp_path / "hierarchy.json")
    pool = load_pool(tmp_path / "pool.jsonl")
    gold = load_gold(tmp_path / "gold.jsonl", pool)
    preds = load_predictions(
        [tmp_path / f"preds_{m}.jsonl" for m in bundle.predictions.model_ids], pool
    )
    assert h2.records() == h.records()
    assert pool == bundle.pool
    assert gold.noisy_ids == bundle.gold.noisy_ids
    assert preds.model_ids == bundle.predictions.model_ids
    for m in preds.model_ids:
        assert preds.records_for_model(m) == bundle.predictions.records_for_model(m)
