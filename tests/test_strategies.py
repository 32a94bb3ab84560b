import random
from fractions import Fraction

import pytest

from helpers import make_pool, make_predictions
from reannotate import (
    StrategyKind,
    ValidationError,
    confidence_score,
    graph_distance_score,
    lca_distance_score,
    rank,
)
from reannotate.synth import balanced_hierarchy, random_tree, synth_corpus


@pytest.fixture
def worked_pool(excerpt):
    pool = make_pool({"s1": "per:parent", "s2": "per:parent", "s3": "per:parent"})
    preds = make_predictions(
        pool,
        {
            "m1": {"s1": "per:age", "s2": "per:parent", "s3": "per:parent"},
            "m2": {"s1": "per:age", "s2": "per:age", "s3": "per:parent"},
        },
    )
    return pool, preds


def test_graph_distance_examples(excerpt, worked_pool):
    pool, preds = worked_pool
    assert graph_distance_score(pool.get("s1"), preds, excerpt) == 5
    assert graph_distance_score(pool.get("s2"), preds, excerpt) == Fraction(5, 2)
    assert graph_distance_score(pool.get("s3"), preds, excerpt) == 0


def test_lca_distance_examples(excerpt, worked_pool):
    pool, preds = worked_pool
    assert lca_distance_score(pool.get("s1"), preds, excerpt) == 3
    assert lca_distance_score(pool.get("s2"), preds, excerpt) == Fraction(3, 2)
    assert lca_distance_score(pool.get("s3"), preds, excerpt) == 0


def test_confidence_both_disagree():
    pool = make_pool({"s1": "a"})
    preds = make_predictions(pool, {"m1": {"s1": ("b", 0.9)}, "m2": {"s1": ("c", 0.7)}})
    score = confidence_score(pool.get("s1"), preds)
    assert score == (Fraction(0.9) + Fraction(0.7)) / 2
    assert float(score) == pytest.approx(0.8)


def test_confidence_all_agree_scores_zero():
    pool = make_pool({"s1": "a"})
    preds = make_predictions(pool, {"m1": {"s1": ("a", 0.99)}, "m2": {"s1": ("a", 0.01)}})
    assert confidence_score(pool.get("s1"), preds) == 0


def test_confidence_single_disagreement():
    pool = make_pool({"s1": "a"})
    preds = make_predictions(pool, {"m1": {"s1": ("a", 0.9)}, "m2": {"s1": ("b", 0.6)}})
    assert confidence_score(pool.get("s1"), preds) == Fraction(0.6)


def test_unresolvable_label_raises(excerpt):
    pool = make_pool({"s1": "mystery"})
    preds = make_predictions(pool, {"m1": {"s1": "per:age"}})
    with pytest.raises(ValidationError):
        graph_distance_score(pool.get("s1"), preds, excerpt)


# -- ranking -------------------------------------------------------------


def test_rank_descending_scores(excerpt, worked_pool):
    pool, preds = worked_pool
    ranked = rank(pool, preds, excerpt, StrategyKind.GD)
    assert ranked.ids == ("s1", "s2", "s3")
    assert ranked.name == "gd"
    assert [float(e.score) for e in ranked.entries] == [5.0, 2.5, 0.0]


def test_rank_ties_break_by_ascending_id(excerpt):
    pool = make_pool({"s2": "per:parent", "s1": "per:parent"})
    preds = make_predictions(pool, {"m1": {"s1": "per:age", "s2": "per:age"}})
    ranked = rank(pool, preds, excerpt, StrategyKind.GD)
    assert ranked.ids == ("s1", "s2")


def test_rank_random_deterministic():
    pool = make_pool({f"e{i}": "a" for i in range(30)})
    first = rank(pool, None, None, StrategyKind.RANDOM, seed=42)
    second = rank(pool, None, None, StrategyKind.RANDOM, seed=42)
    assert first.ids == second.ids
    other = rank(pool, None, None, StrategyKind.RANDOM, seed=43)
    assert other.ids != first.ids
    assert sorted(other.ids) == sorted(first.ids)


def test_rank_random_ignores_pool_order():
    forward = make_pool({f"e{i}": "a" for i in range(20)})
    backward = make_pool({f"e{i}": "a" for i in reversed(range(20))})
    assert rank(forward, None, None, StrategyKind.RANDOM, seed=9).ids == rank(
        backward, None, None, StrategyKind.RANDOM, seed=9
    ).ids


def test_rank_random_requires_seed():
    pool = make_pool({"e1": "a"})
    with pytest.raises(ValidationError, match="seed"):
        rank(pool, None, None, StrategyKind.RANDOM)


def test_rank_seed_range():
    pool = make_pool({"e1": "a"})
    with pytest.raises(ValidationError, match="seed"):
        rank(pool, None, None, StrategyKind.RANDOM, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        rank(pool, None, None, StrategyKind.RANDOM, seed=2**64)


@pytest.mark.parametrize("seed", [True, 1.5])
def test_rank_seed_must_be_an_int(seed):
    pool = make_pool({"e1": "a"})
    with pytest.raises(ValidationError, match="seed must be an integer"):
        rank(pool, None, None, StrategyKind.RANDOM, seed=seed)


@pytest.mark.parametrize("kind", [StrategyKind.GD, StrategyKind.LD, StrategyKind.CONFIDENCE])
def test_rank_pool_not_covered_by_predictions(excerpt, worked_pool, kind):
    pool, preds = worked_pool
    bigger = make_pool({iid: "per:parent" for iid in ("s1", "s2", "s3", "e3")})
    with pytest.raises(ValidationError, match="no predictions for instance 'e3'"):
        rank(bigger, preds, excerpt, kind)


@pytest.mark.parametrize("kind", [StrategyKind.GD, StrategyKind.LD, StrategyKind.CONFIDENCE])
def test_rank_reordered_pool_keeps_each_score(excerpt, kind):
    labels = {"s1": "per:parent", "s2": "per:age", "s3": "per:parent"}
    pool = make_pool(labels)
    preds = make_predictions(
        pool,
        {
            "m1": {"s1": ("per:age", 0.5), "s2": ("per:parent", 0.25), "s3": ("per:parent", 0.9)},
            "m2": {"s1": ("per:age", 0.75), "s2": ("per:age", 0.1), "s3": ("per:parent", 0.6)},
        },
    )
    reordered = make_pool({iid: labels[iid] for iid in ("s3", "s1", "s2")})
    in_order = {e.instance_id: e.score for e in rank(pool, preds, excerpt, kind).entries}
    shuffled = {e.instance_id: e.score for e in rank(reordered, preds, excerpt, kind).entries}
    assert shuffled == in_order
    assert len(set(in_order.values())) == 3


def test_rank_requires_predictions():
    pool = make_pool({"e1": "a"})
    with pytest.raises(ValidationError, match="predictions"):
        rank(pool, None, None, StrategyKind.GD)


def test_top_prefix():
    pool = make_pool({f"e{i}": "a" for i in range(5)})
    ranked = rank(pool, None, None, StrategyKind.RANDOM, seed=1)
    assert ranked.top(0) == ()
    assert ranked.top(3) == ranked.ids[:3]
    with pytest.raises(ValidationError):
        ranked.top(6)
    with pytest.raises(ValidationError):
        ranked.top(-1)


def test_ranked_csv_format(tmp_path, excerpt, worked_pool):
    pool, preds = worked_pool
    ranked = rank(pool, preds, excerpt, StrategyKind.GD)
    target = tmp_path / "ranked.csv"
    ranked.write_csv(target)
    assert target.read_text() == (
        "rank,instance_id,score\n1,s1,5.0\n2,s2,2.5\n3,s3,0.0\n"
    )


def test_ranked_csv_reproducible(tmp_path, excerpt, worked_pool):
    pool, preds = worked_pool
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    rank(pool, preds, excerpt, StrategyKind.LD).write_csv(one)
    rank(pool, preds, excerpt, StrategyKind.LD).write_csv(two)
    assert one.read_bytes() == two.read_bytes()


def test_strategy_from_name():
    assert StrategyKind.from_name("GD") is StrategyKind.GD
    assert StrategyKind.from_name("random") is StrategyKind.RANDOM
    with pytest.raises(ValidationError, match="unknown strategy"):
        StrategyKind.from_name("alphabetical")


# -- properties on synthetic corpora ------------------------------------------


def _corpora(n_seeds, **kwargs):
    for seed in range(n_seeds):
        rng = random.Random(1000 + seed)
        hierarchy = balanced_hierarchy(
            groups=rng.randint(2, 3), subgroups=rng.randint(1, 3), labels=rng.randint(2, 4)
        )
        yield synth_corpus(
            hierarchy, rng, size=rng.randint(5, 40), models=rng.randint(1, 5), **kwargs
        )


def test_ld_never_exceeds_gd_and_zero_iff_agree():
    for bundle in _corpora(15, allow_internal_predictions=True, flip_max_distance=3):
        h = bundle.hierarchy
        for inst in bundle.pool:
            gd = graph_distance_score(inst, bundle.predictions, h)
            ld = lca_distance_score(inst, bundle.predictions, h)
            assert 0 <= ld <= gd
            records = bundle.predictions.for_instance(inst.id)
            all_agree = all(rec.label == inst.label for rec in records)
            assert (gd == 0) == all_agree
            assert (ld == 0) == all(
                h.lca(inst.label, rec.label) == inst.label for rec in records
            )
            # scores coincide exactly when every prediction sits on the
            # dataset label's root path (the LCA segment is the whole path)
            prediction_is_ancestor = all(
                h.lca(inst.label, rec.label) == rec.label for rec in records
            )
            assert (gd == ld) == prediction_is_ancestor


def test_scores_invariant_to_model_order():
    for bundle in _corpora(5):
        reordered = make_predictions(
            bundle.pool,
            {
                m: {
                    rec.instance_id: (rec.label, rec.confidence)
                    for rec in bundle.predictions.records_for_model(m)
                }
                for m in reversed(bundle.predictions.model_ids)
            },
        )
        h = bundle.hierarchy
        for inst in bundle.pool:
            assert graph_distance_score(inst, bundle.predictions, h) == graph_distance_score(
                inst, reordered, h
            )
            assert confidence_score(inst, bundle.predictions) == confidence_score(
                inst, reordered
            )


def test_rank_is_permutation_for_all_strategies():
    for bundle in _corpora(5):
        for kind in StrategyKind:
            ranked = rank(bundle.pool, bundle.predictions, bundle.hierarchy, kind, seed=3)
            assert sorted(ranked.ids) == sorted(bundle.pool.ids())
            assert len(set(ranked.ids)) == len(ranked.ids)


def _bruteforce_top(entries, budget):
    """Repeated max-extraction with the (score desc, id asc) comparator."""
    remaining = list(entries)
    chosen = []
    for _ in range(budget):
        best = remaining[0]
        for entry in remaining[1:]:
            if entry.score > best.score or (
                entry.score == best.score and entry.instance_id < best.instance_id
            ):
                best = entry
        chosen.append(best.instance_id)
        remaining.remove(best)
    return chosen


def test_top_budget_matches_bruteforce_selection(excerpt):
    rng = random.Random(77)
    labels = ["per:parent", "per:age", "per:family", "no_relation"]
    pool = make_pool({f"e{i}": rng.choice(labels) for i in range(20)})
    preds = make_predictions(
        pool,
        {
            m: {iid: (rng.choice(labels), round(rng.random(), 3)) for iid in pool.ids()}
            for m in ("m1", "m2", "m3")
        },
    )
    for kind in (StrategyKind.GD, StrategyKind.LD, StrategyKind.CONFIDENCE):
        ranked = rank(pool, preds, excerpt, kind)
        for budget in (0, 1, 5, 20):
            assert list(ranked.top(budget)) == _bruteforce_top(ranked.entries, budget)


def test_scores_nonnegative_on_random_trees():
    rng = random.Random(4)
    for _ in range(5):
        h = random_tree(rng, 30)
        bundle = synth_corpus(h, rng, size=20, models=3, plant_min_distance=2)
        for inst in bundle.pool:
            assert graph_distance_score(inst, bundle.predictions, h) >= 0
            assert confidence_score(inst, bundle.predictions) >= 0
