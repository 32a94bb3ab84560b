import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from helpers import (
    adjacency,
    ancestor_chain,
    bfs_distance,
    lca_by_ancestor_sets,
    make_gold,
    make_pool,
    make_predictions,
    random_tree,
)
from reannotate import (
    BudgetSchedule,
    Instance,
    LabelHierarchy,
    RankedList,
    StrategyKind,
    UnknownLabelError,
    ValidationError,
    apply_label_map,
    confidence_score,
    f1_curve,
    graph_distance_score,
    lca_distance_score,
    rank,
)
from reannotate.synth import balanced_hierarchy, synth_corpus


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


@pytest.mark.parametrize("instance, message", [
    (
        Instance("s1", "per:parent", "TRAIN"),
        "instance 's1' has partition 'TRAIN', expected one of ('train', 'dev', 'test')",
    ),
    (
        Instance("s1", "per:parent", metadata={"id": "s9"}),
        "instance 's1' has pool field 'id' in its metadata",
    ),
])
def test_single_instance_scores_check_the_instance_like_a_pool(
    excerpt, worked_pool, instance, message
):
    _, preds = worked_pool
    for score in (lambda: graph_distance_score(instance, preds, excerpt),
                  lambda: confidence_score(instance, preds)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            score()


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
    assert [Fraction(k, ranked.denominator) for k in ranked.keys] == [5, Fraction(5, 2), 0]


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
    in_order, shuffled = (
        {iid: Fraction(k, r.denominator) for iid, k in zip(r.ids, r.keys)}
        for r in (rank(pool, preds, excerpt, kind), rank(reordered, preds, excerpt, kind))
    )
    assert shuffled == in_order
    assert len(set(in_order.values())) == 3


@pytest.mark.parametrize("kind", [StrategyKind.GD, StrategyKind.LD, StrategyKind.CONFIDENCE])
def test_rank_gathers_predictions_built_over_another_pool(excerpt, kind):
    # the columns are read in place only over the pool they were built over
    rng = random.Random(5)
    labels = ["per:parent", "per:age", "per:family", "no_relation"]
    dataset = {f"e{i}": rng.choice(labels) for i in range(12)}
    pool = make_pool(dataset)
    preds = make_predictions(pool, {
        m: {iid: (rng.choice(labels), rng.random()) for iid in dataset} for m in ("m1", "m2", "m3")
    })
    shuffled = rng.sample(sorted(dataset), len(dataset))
    other = make_pool({iid: dataset[iid] for iid in shuffled})
    own, moved = rank(pool, preds, excerpt, kind), rank(other, preds, excerpt, kind)
    assert moved.ids == own.ids
    assert [Fraction(k, moved.denominator) for k in moved.keys] == [
        Fraction(k, own.denominator) for k in own.keys
    ]
    larger = make_pool({**{iid: dataset[iid] for iid in shuffled}, "x1": "per:age"})
    with pytest.raises(ValidationError, match="no predictions for instance 'x1'"):
        rank(larger, preds, excerpt, kind)


def test_rank_requires_predictions():
    pool = make_pool({"e1": "a"})
    with pytest.raises(ValidationError, match="predictions"):
        rank(pool, None, None, StrategyKind.GD)
    preds = make_predictions(pool, {"m1": {"e1": "b"}})
    for kind in (StrategyKind.GD, StrategyKind.LD):
        with pytest.raises(ValidationError, match=f"^{kind.value} strategy requires a hierarchy$"):
            rank(pool, preds, None, kind)


def test_top_prefix():
    pool = make_pool({f"e{i}": "a" for i in range(5)})
    ranked = rank(pool, None, None, StrategyKind.RANDOM, seed=1)
    assert ranked.top(0) == ()
    assert ranked.top(3) == ranked.ids[:3]
    with pytest.raises(ValidationError):
        ranked.top(6)
    with pytest.raises(ValidationError):
        ranked.top(-1)


@pytest.mark.parametrize("budget", [True, False, 2.5, 3.0, "3", None])
def test_top_refuses_a_budget_that_is_not_an_integer(budget):
    pool = make_pool({f"e{i}": "a" for i in range(5)})
    for ranked in (
        rank(pool, None, None, StrategyKind.RANDOM, seed=1),
        RankedList(StrategyKind.RANDOM, ("e1", "e2"), (1, 0), 1),
    ):
        with pytest.raises(ValidationError, match=f"^budget {re.escape(repr(budget))} is not an "):
            ranked.top(budget)


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


def _bruteforce_top(scores, budget):
    """Repeated max-extraction with the (score desc, id asc) comparator over {id: score}."""
    remaining = dict(scores)
    chosen = []
    for _ in range(budget):
        best = None
        for iid, score in remaining.items():
            if best is None or score > remaining[best] or (
                score == remaining[best] and iid < best
            ):
                best = iid
        chosen.append(best)
        del remaining[best]
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
        scores = {iid: Fraction(k, ranked.denominator) for iid, k in zip(ranked.ids, ranked.keys)}
        for budget in (0, 1, 5, 20):
            assert list(ranked.top(budget)) == _bruteforce_top(scores, budget)


def test_scores_nonnegative_on_random_trees():
    rng = random.Random(4)
    for _ in range(5):
        h = random_tree(rng, 30)
        bundle = synth_corpus(h, rng, size=20, models=3, plant_min_distance=2)
        for inst in bundle.pool:
            assert graph_distance_score(inst, bundle.predictions, h) >= 0
            assert confidence_score(inst, bundle.predictions) >= 0


# -- GD and LD from one walk per distinct pair ---------------------------------

GD, LD = StrategyKind.GD, StrategyKind.LD


def _random_tree_bundle(rng, nodes, size, models):
    """A random tree, a pool over its nodes and {model: {id: label}}; a model
    agrees with the dataset label about a third of the time."""
    h = random_tree(rng, nodes)
    names = h.names()
    dataset = {f"e{i:03d}": rng.choice(names) for i in range(size)}
    by_model = {
        f"m{j}": {
            iid: label if rng.random() < 0.3 else rng.choice(names)
            for iid, label in dataset.items()
        }
        for j in range(models)
    }
    return h, make_pool(dataset), by_model


def _oracle_scores(h, pool, by_model):
    """{kind: {id: score}} from BFS distances and ancestor-set LCAs."""
    records = h.records()
    adj, parents = adjacency(records), dict(records)

    def depth(name):
        return len(ancestor_chain(parents, name)) - 1

    scores = {GD: {}, LD: {}}
    for iid in pool.ids():
        a = pool.label_of(iid)
        predicted = [labels[iid] for labels in by_model.values()]
        gd = [bfs_distance(adj, a, b) for b in predicted]
        ld = [depth(a) - depth(lca_by_ancestor_sets(parents, a, b)) for b in predicted]
        scores[GD][iid] = Fraction(sum(gd), len(gd))
        scores[LD][iid] = Fraction(sum(ld), len(ld))
    return scores


def _scores_of(ranked):
    return {iid: Fraction(key, ranked.denominator) for iid, key in zip(ranked.ids, ranked.keys)}


def test_gd_and_ld_in_either_order_equal_each_alone_on_random_trees():
    # the second of the two strategies over one prediction set reads what the
    # first one kept; either order gives each strategy's list on a fresh set
    rng = random.Random(24)
    for _ in range(30):
        h, pool, by_model = _random_tree_bundle(
            rng, rng.randint(1, 40), rng.randint(1, 30), rng.randint(1, 6)
        )
        alone = {kind: rank(pool, make_predictions(pool, by_model), h, kind) for kind in (GD, LD)}
        for first, second in ((GD, LD), (LD, GD)):
            predictions = make_predictions(pool, by_model)
            assert rank(pool, predictions, h, first) == alone[first]
            assert rank(pool, predictions, h, second) == alone[second]
        oracle = _oracle_scores(h, pool, by_model)
        for kind, ranked in alone.items():
            assert ranked.denominator == len(by_model)
            assert _scores_of(ranked) == oracle[kind]


class _CountingHierarchy(LabelHierarchy):
    """Counts LCA walks: `rank` makes one per distinct pair it has not kept."""

    walks = 0

    def _lca(self, a, b):
        self.walks += 1
        return super()._lca(a, b)


def test_kept_walks_serve_only_their_own_pool_and_hierarchy():
    rng = random.Random(9)
    h, pool, by_model = _random_tree_bundle(rng, 30, 25, 4)
    counted = _CountingHierarchy(h.records())
    other = random_tree(rng, 30)  # the same names in another shape
    predictions = make_predictions(pool, by_model)

    def fresh(p, hierarchy, kind):  # on a fresh set, over an uncounted hierarchy
        return rank(p, make_predictions(pool, by_model), hierarchy, kind)

    assert rank(pool, predictions, counted, GD) == fresh(pool, h, GD)
    walks = counted.walks
    pairs = {
        (pool.label_of(iid), label) for labels in by_model.values() for iid, label in labels.items()
    }
    assert walks == len(pairs)  # one walk per distinct (dataset label, prediction) pair
    assert rank(pool, predictions, counted, LD) == fresh(pool, h, LD)
    assert counted.walks == walks  # the second strategy walks nothing

    assert fresh(pool, other, LD) != fresh(pool, h, LD)
    assert rank(pool, predictions, other, LD) == fresh(pool, other, LD)
    again = _CountingHierarchy(h.records())  # an equal hierarchy, but another object
    assert rank(pool, predictions, again, GD) == fresh(pool, h, GD)
    assert again.walks == walks

    mapped = apply_label_map(pool, {label: label for label in pool.labels()})
    reordered = make_pool({iid: pool.label_of(iid) for iid in reversed(pool.ids())})
    for p in (mapped, reordered):
        rank(pool, predictions, counted, GD)  # kept for `pool` again
        counted.walks = 0
        assert rank(p, predictions, counted, LD) == fresh(p, h, LD)
        assert counted.walks == walks


def test_each_builder_keeps_its_own_value():
    # an f1_curve between GD and LD keeps its state beside the kept walks,
    # not in their place
    rng = random.Random(12)
    h, pool, by_model = _random_tree_bundle(rng, 30, 25, 3)
    counted = _CountingHierarchy(h.records())
    predictions = make_predictions(pool, by_model)
    ranked = rank(pool, predictions, counted, GD)
    walks = counted.walks
    gold = make_gold(pool, {iid: rng.choice(h.names()) for iid in pool.ids()[::3]})
    negative = h.names()[0]
    schedule = BudgetSchedule((0, len(pool) // 2, len(pool)))
    assert f1_curve(predictions, pool, ranked, gold, schedule, negative) == f1_curve(
        make_predictions(pool, by_model), pool, ranked, gold, schedule, negative
    )
    assert rank(pool, predictions, counted, LD) == rank(
        pool, make_predictions(pool, by_model), h, LD
    )
    assert counted.walks == walks  # LD reads the walks GD kept


def test_single_instance_scorers_keep_the_ranked_walks():
    # a scorer keeps its one-instance sums on a copy, not in place of rank's
    rng = random.Random(9)
    h, pool, by_model = _random_tree_bundle(rng, 30, 25, 4)
    counted = _CountingHierarchy(h.records())
    predictions = make_predictions(pool, by_model)
    rank(pool, predictions, counted, GD)
    instance = pool.get(pool.ids()[0])
    graph_distance_score(instance, predictions, counted)
    lca_distance_score(instance, predictions, counted)
    counted.walks = 0
    assert rank(pool, predictions, counted, LD) == rank(
        pool, make_predictions(pool, by_model), h, LD
    )
    assert counted.walks == 0  # LD reads the walks GD kept


def test_unknown_label_keeps_nothing():
    small = LabelHierarchy([("root", None), ("a", "root")])
    large = LabelHierarchy([("root", None), ("a", "root"), ("b", "root"), ("c", "b")])
    pool = make_pool({"e1": "a", "e2": "c"})
    predictions = make_predictions(
        pool, {"m1": {"e1": "b", "e2": "a"}, "m2": {"e1": "a", "e2": "c"}}
    )
    for kind in (GD, LD, GD):  # a call that raised kept nothing a later call could read
        with pytest.raises(UnknownLabelError, match="label not in hierarchy: 'b'"):
            rank(pool, predictions, small, kind)
    # e1: (a, b) 2 edges, 1 up to the LCA; e2: (c, a) 3 edges, 2 up to the LCA
    assert _scores_of(rank(pool, predictions, large, LD)) == {"e1": Fraction(1, 2), "e2": 1}
    assert _scores_of(rank(pool, predictions, large, GD)) == {"e1": 1, "e2": Fraction(3, 2)}


# -- ids and keys of a list from rank, built from its rows on first read -------


def test_a_rank_output_equals_its_checked_copy_for_every_strategy():
    for bundle in _corpora(3):
        for kind in StrategyKind:
            ranked = rank(bundle.pool, bundle.predictions, bundle.hierarchy, kind, seed=5)
            assert "ids" not in vars(ranked) and "keys" not in vars(ranked)
            assert len(ranked) == len(bundle.pool)
            checked = RankedList(ranked.strategy, ranked.ids, ranked.keys, ranked.denominator)
            assert (ranked, hash(ranked), repr(ranked)) == (checked, hash(checked), repr(checked))
            assert ranked.ids is ranked.ids and ranked.keys is ranked.keys  # built once, then kept
            assert {type(key) for key in ranked.keys} == {int}
            assert checked._sorted_by is None and not hasattr(ranked, "scores")


def test_threads_racing_on_a_rankings_first_read_get_equal_tuples():
    # ids and keys are each kept in one store of a finished tuple: threads
    # racing on a fresh list's first read, in either order, all get equal tuples
    h, pool, by_model = _random_tree_bundle(random.Random(6), 200, 300, 5)
    predictions = make_predictions(pool, by_model)

    def read(ranked, i):  # odd threads read keys first
        if i % 2:
            keys = ranked.keys
            return ranked.ids, keys
        return ranked.ids, ranked.keys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind in StrategyKind:
            expected = read(rank(pool, predictions, h, kind, seed=4), 0)
            for _ in range(4):
                fresh = rank(pool, predictions, h, kind, seed=4)
                with ThreadPoolExecutor(max_workers=8) as pool_of_threads:
                    futures = [pool_of_threads.submit(read, fresh, i) for i in range(8)]
                    assert all(future.result(timeout=60) == expected for future in futures)
    finally:
        sys.setswitchinterval(interval)


def test_gd_and_ld_from_many_threads_read_whole_walks():
    # the walks are kept on the predictions in one store of a finished tuple:
    # threads racing on fresh sets, in either order, all get one thread's lists
    h, pool, by_model = _random_tree_bundle(random.Random(8), 200, 300, 5)

    def both(predictions, i):
        return {kind: rank(pool, predictions, h, kind) for kind in ((GD, LD), (LD, GD))[i % 2]}

    expected = both(make_predictions(pool, by_model), 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            fresh = make_predictions(pool, by_model)
            with ThreadPoolExecutor(max_workers=8) as pool_of_threads:
                futures = [pool_of_threads.submit(both, fresh, i) for i in range(8)]
                assert all(future.result(timeout=60) == expected for future in futures)
    finally:
        sys.setswitchinterval(interval)
