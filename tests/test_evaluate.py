import copy
import dataclasses
import pickle
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from helpers import make_gold, make_pool, make_predictions, oracle_micro_f1, ordered_ranking
from reannotate import (
    BudgetSchedule,
    CurvePoint,
    CurveSeries,
    GoldSet,
    Instance,
    PredictionSet,
    RankedList,
    StrategyKind,
    ValidationError,
    apply_label_map,
    apply_reannotation,
    efficiency_curve,
    f1_curve,
    jaccard_curve,
    load_gold,
    load_hierarchy,
    load_pool,
    load_predictions,
    micro_f1,
    rank,
    write_curves_csv,
    write_gold,
    write_predictions,
)
from reannotate import evaluate
from reannotate.cli import main

NEG = "no_relation"


# -- budget schedules ---------------------------------------------------------


def test_schedule_evenly():
    assert BudgetSchedule.evenly(6, 50).budgets == (0, 10, 20, 30, 40, 50)
    assert BudgetSchedule.evenly(50, 3).budgets == (0, 1, 2, 3)
    with pytest.raises(ValidationError):
        BudgetSchedule.evenly(1, 50)


def test_schedule_strided():
    assert BudgetSchedule.strided(4, 10).budgets == (0, 4, 8, 10)
    assert BudgetSchedule.strided(5, 10).budgets == (0, 5, 10)
    with pytest.raises(ValidationError):
        BudgetSchedule.strided(0, 10)


def test_schedule_explicit_validation():
    assert BudgetSchedule.explicit([0, 3, 7], 10).budgets == (0, 3, 7)
    with pytest.raises(ValidationError, match="exceeds pool size"):
        BudgetSchedule.explicit([0, 11], 10)
    with pytest.raises(ValidationError, match="increasing"):
        BudgetSchedule((3, 3))
    with pytest.raises(ValidationError, match="increasing"):
        BudgetSchedule((5, 2))
    with pytest.raises(ValidationError, match="negative"):
        BudgetSchedule((-1, 2))
    with pytest.raises(ValidationError, match="empty"):
        BudgetSchedule(())
    assert BudgetSchedule([0, 5]).budgets == (0, 5)
    for budgets in ((0, 1.5), (True,)):
        with pytest.raises(ValidationError, match="is not an integer"):
            BudgetSchedule(budgets)


def test_curve_series_guards():
    with pytest.raises(ValidationError, match="metric"):
        CurveSeries("accuracy", "gd", (CurvePoint(0, Fraction(1)),))
    series = CurveSeries("jaccard", "gd", (CurvePoint(0, Fraction(1)),))
    assert series.value_at(0) == 1
    with pytest.raises(ValidationError):
        series.value_at(5)


# -- jaccard -------------------------------------------------------------


def test_jaccard_of_ranking_with_itself():
    ranking = ordered_ranking(["a", "b", "c", "d"])
    curve = jaccard_curve(ranking, ranking, BudgetSchedule((0, 1, 2, 3, 4)))
    assert all(value == 1 for value in curve.values())


def test_jaccard_worked_example():
    one = ordered_ranking(["a", "b", "c"])
    two = ordered_ranking(["b", "c", "a"])
    curve = jaccard_curve(one, two, BudgetSchedule((0, 1, 2, 3)))
    assert curve.values() == (Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1))
    assert curve.budgets() == (0, 1, 2, 3)
    assert curve.metric == "jaccard"
    assert curve.series == "gd"


def test_jaccard_symmetric():
    rng = random.Random(11)
    ids = [f"e{i}" for i in range(40)]
    one = ordered_ranking(sorted(ids, key=lambda _: rng.random()))
    two = ordered_ranking(sorted(ids, key=lambda _: rng.random()))
    schedule = BudgetSchedule.evenly(9, 40)
    assert jaccard_curve(one, two, schedule).values() == jaccard_curve(
        two, one, schedule
    ).values()


def test_jaccard_full_budget_is_one():
    one = ordered_ranking(["a", "b", "c"])
    two = ordered_ranking(["c", "b", "a"])
    assert jaccard_curve(one, two, BudgetSchedule((3,))).values() == (Fraction(1),)


def test_jaccard_mismatched_pools():
    one = ordered_ranking(["a", "b"])
    two = ordered_ranking(["a", "c"])
    with pytest.raises(ValidationError, match="different pools"):
        jaccard_curve(one, two, BudgetSchedule((0, 1)))


def test_jaccard_mismatched_pools_of_one_size_past_the_budget():
    # the pool check comes first, even with a budget beyond both pools
    one = ordered_ranking(["a", "b"])
    two = ordered_ranking(["a", "c"])
    with pytest.raises(ValidationError, match="different pools"):
        jaccard_curve(one, two, BudgetSchedule((0, 1, 3)))


def test_jaccard_budget_beyond_pool():
    one = ordered_ranking(["a", "b"])
    with pytest.raises(ValidationError, match="exceeds pool size"):
        jaccard_curve(one, one, BudgetSchedule((0, 3)))


# -- efficiency ----------------------------------------------------------


@pytest.fixture
def ten_pool():
    pool = make_pool({f"e{i}": "x" for i in range(10)})
    gold = make_gold(pool, {"e2": "y", "e5": "y", "e7": "y"})
    return pool, gold


def test_efficiency_hand_counted(ten_pool):
    pool, gold = ten_pool
    ranking = ordered_ranking(["e5", "e0", "e7", "e1", "e2", "e3", "e4", "e6", "e8", "e9"])
    curve = efficiency_curve(ranking, gold, BudgetSchedule((0, 2, 4, 10)))
    assert curve.values() == (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
    assert curve.metric == "efficiency"


def test_efficiency_endpoints_and_monotonicity(ten_pool):
    pool, gold = ten_pool
    ranking = rank(pool, None, None, StrategyKind.RANDOM, seed=5)
    curve = efficiency_curve(ranking, gold, BudgetSchedule(tuple(range(11))))
    values = curve.values()
    assert values[0] == 0
    assert values[-1] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_efficiency_empty_noisy_set(ten_pool):
    pool, _ = ten_pool
    clean = make_gold(pool, {"e1": "x"})
    ranking = ordered_ranking(list(pool.ids()))
    with pytest.raises(ValidationError, match="noisy set is empty"):
        efficiency_curve(ranking, clean, BudgetSchedule((0, 10)))


def test_efficiency_mismatched_pool(ten_pool):
    _, gold = ten_pool
    ranking = ordered_ranking(["e1", "e2"])
    with pytest.raises(ValidationError, match="different pools"):
        efficiency_curve(ranking, gold, BudgetSchedule((0, 2)))


# -- apply_reannotation ------------------------------------------------------


@pytest.fixture
def trace_case():
    pool = make_pool({"e1": "A", "e2": "B", "e3": "A"})
    gold = make_gold(pool, {"e1": "B", "e3": None})
    ranking = ordered_ranking(["e3", "e1", "e2"])
    return pool, gold, ranking


def test_apply_budget_zero_is_identity(trace_case):
    pool, gold, ranking = trace_case
    result = apply_reannotation(pool, ranking, gold, 0)
    assert result.labels_by_id() == {"e1": "A", "e2": "B", "e3": "A"}
    assert result.eliminated_ids == ()


def test_apply_worked_trace(trace_case):
    pool, gold, ranking = trace_case
    result = apply_reannotation(pool, ranking, gold, 2)
    assert result.labels_by_id() == {"e1": "B", "e2": "B"}
    assert result.eliminated_ids == ("e3",)
    assert len(result) == 2


def test_apply_full_budget(trace_case):
    pool, gold, ranking = trace_case
    result = apply_reannotation(pool, ranking, gold, 3)
    assert result.labels_by_id() == {"e1": "B", "e2": "B"}


def test_apply_keep_eliminated(trace_case):
    pool, gold, ranking = trace_case
    result = apply_reannotation(pool, ranking, gold, 2, drop_eliminated=False)
    assert result.labels_by_id() == {"e1": "B", "e2": "B", "e3": "A"}
    assert result.eliminated_ids == ()


def test_apply_is_idempotent(trace_case):
    pool, gold, ranking = trace_case
    once = apply_reannotation(pool, ranking, gold, 2)
    twice = apply_reannotation(once, ranking, gold, 2)
    assert twice.labels_by_id() == once.labels_by_id()
    assert twice.eliminated_ids == ()


@pytest.mark.parametrize("budget", [True, 1.0, "2"])
def test_apply_refuses_a_budget_that_is_not_an_integer(trace_case, budget):
    pool, gold, ranking = trace_case
    with pytest.raises(ValidationError, match=f"^budget {re.escape(repr(budget))} is not an "):
        apply_reannotation(pool, ranking, gold, budget)


def test_apply_preserves_untouched_metadata():
    pool = make_pool({"e1": "A", "e2": "B"})
    gold = make_gold(pool, {"e1": "C"})
    ranking = ordered_ranking(["e1", "e2"])
    result = apply_reannotation(pool, ranking, gold, 1)
    relabeled = {inst.id: inst for inst in result}
    assert relabeled["e1"].label == "C"
    assert relabeled["e2"] == pool.get("e2")


# -- micro F1 -----------------------------------------------------------------


def test_micro_f1_hand_fixture():
    labels = {"e1": "A", "e2": "A", "e3": "B", "e4": NEG, "e5": "B"}
    preds = {"e1": "A", "e2": "B", "e3": "B", "e4": "A", "e5": NEG}
    scores = micro_f1(preds, labels, NEG)
    assert scores == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_micro_f1_perfect():
    labels = {"e1": "A", "e2": NEG}
    assert micro_f1(dict(labels), labels, NEG).f1 == 1


def test_micro_f1_all_negative_predictions():
    labels = {"e1": "A", "e2": "B"}
    preds = {"e1": NEG, "e2": NEG}
    scores = micro_f1(preds, labels, NEG)
    assert scores.recall == 0
    assert scores.f1 == 0


def test_micro_f1_no_positives_anywhere():
    labels = {"e1": NEG}
    assert micro_f1({"e1": NEG}, labels, NEG) == (0, 0, 0)


def test_micro_f1_missing_prediction():
    with pytest.raises(ValidationError, match="no prediction for instance 'e2'"):
        micro_f1({"e1": "A"}, {"e1": "A", "e2": "B"}, NEG)


def test_micro_f1_matches_confusion_matrix_oracle():
    rng = random.Random(321)
    labels_universe = ["A", "B", "C", "D", NEG]
    for _ in range(100):
        n = rng.randint(1, 50)
        labels = {f"e{i}": rng.choice(labels_universe) for i in range(n)}
        preds = {f"e{i}": rng.choice(labels_universe) for i in range(n)}
        assert micro_f1(preds, labels, NEG) == oracle_micro_f1(preds, labels, NEG)


# -- f1 curves -----------------------------------------------------------


@pytest.fixture
def six_case():
    pool = make_pool(
        {"e1": "A", "e2": "A", "e3": "B", "e4": NEG, "e5": "B", "e6": "A"}
    )
    preds = make_predictions(
        pool,
        {"m": {"e1": "A", "e2": "B", "e3": "B", "e4": "A", "e5": NEG, "e6": "A"}},
    )
    return pool, preds


def test_f1_curve_six_instance_fixture(six_case):
    pool, preds = six_case
    gold = make_gold(pool, {"e2": "B"})
    ranking = ordered_ranking(["e2", "e1", "e3", "e4", "e5", "e6"])
    series = f1_curve(preds, pool, ranking, gold, BudgetSchedule((0, 1, 6)), NEG)
    by_metric = {s.metric: s for s in series}
    assert by_metric["f1"].values() == (Fraction(3, 5), Fraction(4, 5), Fraction(4, 5))
    assert by_metric["precision"].values() == (Fraction(3, 5), Fraction(4, 5), Fraction(4, 5))
    assert by_metric["recall"].values() == (Fraction(3, 5), Fraction(4, 5), Fraction(4, 5))


def test_f1_curve_with_elimination(six_case):
    pool, preds = six_case
    gold = make_gold(pool, {"e2": "B", "e5": None})
    ranking = ordered_ranking(["e5", "e2", "e1", "e3", "e4", "e6"])
    schedule = BudgetSchedule((0, 1))
    dropped = {s.metric: s for s in f1_curve(preds, pool, ranking, gold, schedule, NEG)}
    assert dropped["precision"].value_at(1) == Fraction(3, 5)
    assert dropped["recall"].value_at(1) == Fraction(3, 4)
    assert dropped["f1"].value_at(1) == Fraction(2, 3)
    kept = {
        s.metric: s
        for s in f1_curve(
            preds, pool, ranking, gold, schedule, NEG, drop_eliminated=False
        )
    }
    assert kept["f1"].value_at(1) == Fraction(3, 5)


def test_f1_curve_budget_zero_equals_direct_micro(six_case):
    pool, preds = six_case
    gold = make_gold(pool, {"e2": "B", "e5": None})
    ranking = ordered_ranking(list(pool.ids()))
    series = f1_curve(preds, pool, ranking, gold, BudgetSchedule((0, 6)), NEG)
    direct = micro_f1(
        {r.instance_id: r.label for r in preds.records_for_model("m")},
        {inst.id: inst.label for inst in pool},
        NEG,
    )
    by_metric = {s.metric: s for s in series}
    assert by_metric["f1"].value_at(0) == direct.f1
    assert by_metric["precision"].value_at(0) == direct.precision
    assert by_metric["recall"].value_at(0) == direct.recall


def test_f1_curve_matches_apply_then_micro_on_random_pools():
    rng = random.Random(99)
    labels_universe = ["A", "B", "C", NEG]
    for trial in range(25):
        n = rng.randint(2, 30)
        pool = make_pool({f"e{i:03d}": rng.choice(labels_universe) for i in range(n)})
        models = [f"m{j}" for j in range(rng.randint(1, 3))]
        preds = make_predictions(
            pool,
            {
                m: {iid: rng.choice(labels_universe) for iid in pool.ids()}
                for m in models
            },
        )
        relabels = {}
        for iid in pool.ids():
            rolled = rng.random()
            if rolled < 0.2:
                relabels[iid] = None
            elif rolled < 0.5:
                relabels[iid] = rng.choice(labels_universe)
        gold = make_gold(pool, relabels)
        ranking = rank(pool, None, None, StrategyKind.RANDOM, seed=trial)
        schedule = BudgetSchedule.evenly(min(6, n + 1), n)
        drop = trial % 2 == 0
        series = f1_curve(
            preds, pool, ranking, gold, schedule, NEG, drop_eliminated=drop
        )
        by_key = {(s.series, s.metric): s for s in series}
        for budget in schedule:
            relabeled = apply_reannotation(
                pool, ranking, gold, budget, drop_eliminated=drop
            )
            labels_now = relabeled.labels_by_id()
            for m in models:
                expected = micro_f1(
                    {r.instance_id: r.label for r in preds.records_for_model(m)},
                    labels_now,
                    NEG,
                )
                assert by_key[(m, "precision")].value_at(budget) == expected.precision
                assert by_key[(m, "recall")].value_at(budget) == expected.recall
                assert by_key[(m, "f1")].value_at(budget) == expected.f1


def _recounted(preds, pool, ranking, gold, schedule, negative, drop):
    """f1_curve's series, each checked against relabeling and recounting at every budget."""
    series = f1_curve(preds, pool, ranking, gold, schedule, negative, drop_eliminated=drop)
    by_key = {(s.series, s.metric): s for s in series}
    for budget in schedule:
        labels_now = apply_reannotation(
            pool, ranking, gold, budget, drop_eliminated=drop
        ).labels_by_id()
        for m in preds.model_ids:
            pred_map = {r.instance_id: r.label for r in preds.records_for_model(m)}
            expected = micro_f1(pred_map, labels_now, negative)
            got = tuple(by_key[(m, metric)].value_at(budget) for metric in expected._fields)
            assert got == expected
    return series


def test_f1_curve_reused_state_follows_every_input():
    # one PredictionSet keeps f1_curve's state between calls; each call that
    # changes the ranking, drop, negative label, gold set or pool still recounts
    rng = random.Random(7)
    universe = ["A", "B", "C", NEG]
    pool = make_pool({f"e{i:02d}": rng.choice(universe) for i in range(40)})
    preds = make_predictions(
        pool, {m: {iid: rng.choice(universe) for iid in pool.ids()} for m in ("m1", "m2")}
    )

    def drawn_gold():
        return make_gold(pool, {
            iid: rng.choice([*universe, None]) for iid in pool.ids() if rng.random() < 0.5
        })

    gold, other_gold = drawn_gold(), drawn_gold()
    relabeled = apply_label_map(pool, {"A": "B", "B": "C", "C": "A", NEG: NEG})
    first = rank(pool, None, None, StrategyKind.RANDOM, seed=1)
    second = rank(pool, None, None, StrategyKind.RANDOM, seed=2)
    schedule = BudgetSchedule.evenly(9, len(pool))
    calls = [
        (pool, first, gold, NEG, True),
        (pool, second, gold, NEG, True),
        (pool, second, gold, NEG, False),
        (pool, second, gold, "A", False),
        (list(relabeled), second, gold, "A", False),  # a plain list's state replaces the pool's
        (pool, second, other_gold, "A", False),
        (relabeled, second, other_gold, "A", False),
        (pool, first, gold, NEG, True),
    ]
    for pool_now, ranking, gold_now, negative, drop in calls:
        _recounted(preds, pool_now, ranking, gold_now, schedule, negative, drop)


def test_f1_curve_counts_the_pool_once_per_state(monkeypatch):
    pool = make_pool({"e1": "A", "e2": "B", "e3": NEG, "e4": "A"})
    preds = make_predictions(
        pool, {m: {"e1": "A", "e2": "A", "e3": "B", "e4": NEG} for m in ("m1", "m2", "m3")}
    )
    gold = make_gold(pool, {"e2": "A", "e3": None})
    schedule = BudgetSchedule((0, 2, 4))
    first = ordered_ranking(["e2", "e3", "e1", "e4"])
    second = ordered_ranking(["e4", "e1", "e3", "e2"])
    relabeled = apply_label_map(pool, {"A": "B", "B": NEG, NEG: "A"})  # a pool of its own
    calls = [
        (pool, first, True), (pool, first, True), (pool, second, True), (pool, second, False),
        (relabeled, first, False), (relabeled, second, False), (pool, second, False),
    ]
    counts, counted, seen = evaluate._counts, [], []
    monkeypatch.setattr(evaluate, "_counts", lambda *args: counted.append(args) or counts(*args))
    for pool_now, ranking, drop in calls:
        series = f1_curve(preds, pool_now, ranking, gold, schedule, NEG, drop_eliminated=drop)
        seen.append((series, len(counted)))
    # the pool-wide pass runs once per model, and again only for another drop or
    # pool, also one the predictions were not built over
    assert [n for _, n in seen] == [3, 3, 3, 6, 9, 9, 12]
    monkeypatch.undo()
    for (pool_now, ranking, drop), (series, _) in zip(calls, seen):
        assert series == _recounted(preds, pool_now, ranking, gold, schedule, NEG, drop)


def test_f1_curve_mismatched_ranking(six_case):
    pool, preds = six_case
    gold = make_gold(pool, {})
    ranking = ordered_ranking(["e1", "e2"])
    with pytest.raises(ValidationError, match="different instances"):
        f1_curve(preds, pool, ranking, gold, BudgetSchedule((0,)), NEG)


def test_f1_curve_missing_prediction(six_case):
    _, preds = six_case
    pool = make_pool({"e1": "A", "e2": "A", "e3": "B", "e4": NEG, "e5": "B", "e7": "A"})
    ranking = ordered_ranking(list(pool.ids()))
    with pytest.raises(ValidationError, match="no predictions for instance 'e7'"):
        f1_curve(preds, pool, ranking, make_gold(pool, {}), BudgetSchedule((0,)), NEG)


@pytest.mark.parametrize("plain, message", [
    (
        [Instance("e1", "A"), Instance("e2", "A"), Instance("e1", "B")],
        "duplicate instance id: 'e1'",
    ),
    ([], "pool is empty"),
    ([Instance("e1", "A"), Instance("e2", "")], "instance 'e2' has an empty label"),
    (
        [Instance("e1", "A", "TRAIN")],
        "instance 'e1' has partition 'TRAIN', expected one of ('train', 'dev', 'test')",
    ),
    (
        [Instance("e1", "A", metadata={"id": "e9"})],
        "instance 'e1' has pool field 'id' in its metadata",
    ),
])
def test_f1_curve_checks_a_plain_pool_like_a_pool(six_case, plain, message):
    # a plain list of instances is made a ReannotationPool, with that constructor's checks
    pool, preds = six_case
    ranking = ordered_ranking(list(pool.ids()))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        f1_curve(preds, plain, ranking, make_gold(pool, {}), BudgetSchedule((0,)), NEG)


# -- coverage: every curve needs a ranking of exactly its pool's ids ------------

# rankings that miss a pool: the same size over another id, an id fewer, an id more
MISMATCHES = {
    "other ids": lambda ids: [*ids[:-1], "x"],
    "an id fewer": lambda ids: ids[:-1],
    "an id more": lambda ids: [*ids, "x"],
}
PAST_EVERY_POOL = BudgetSchedule((0, 1, 20))  # coverage is checked before the budgets


@pytest.mark.parametrize("mismatch", MISMATCHES.values(), ids=MISMATCHES)
def test_efficiency_refuses_a_ranking_of_other_instances(ten_pool, mismatch):
    pool, gold = ten_pool
    ranking = ordered_ranking(mismatch(list(pool.ids())))
    for schedule in (BudgetSchedule((0, 2)), PAST_EVERY_POOL):
        with pytest.raises(ValidationError, match="^gold and ranking cover different pools$"):
            efficiency_curve(ranking, gold, schedule)
    clean = make_gold(pool, {"e1": "x"})  # the empty noisy set is checked first
    with pytest.raises(ValidationError, match="noisy set is empty"):
        efficiency_curve(ranking, clean, PAST_EVERY_POOL)


@pytest.mark.parametrize("mismatch", MISMATCHES.values(), ids=MISMATCHES)
def test_f1_curve_refuses_a_ranking_of_other_instances(six_case, mismatch):
    pool, preds = six_case
    gold = make_gold(pool, {"e2": "B"})
    ranking = ordered_ranking(mismatch(list(pool.ids())))
    for schedule in (BudgetSchedule((0, 2)), PAST_EVERY_POOL):
        with pytest.raises(ValidationError, match="^pool and ranking cover different instances$"):
            f1_curve(preds, pool, ranking, gold, schedule, NEG)
    # a pool id without predictions is found first
    unpredicted = make_pool({"e1": "A", "e2": "A", "e3": "B", "e4": NEG, "e5": "B", "e7": "A"})
    with pytest.raises(ValidationError, match="no predictions for instance 'e7'"):
        f1_curve(preds, unpredicted, ranking, make_gold(unpredicted, {}), PAST_EVERY_POOL, NEG)


@pytest.mark.parametrize("mismatch", MISMATCHES.values(), ids=MISMATCHES)
def test_jaccard_refuses_rankings_of_other_instances(mismatch):
    ids = ["a", "b", "c", "d"]
    one, two = ordered_ranking(ids), ordered_ranking(mismatch(ids))
    for schedule in (BudgetSchedule((0, 2)), PAST_EVERY_POOL):
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ValidationError, match="^rankings cover different pools$"):
                jaccard_curve(a, b, schedule)


def _bundle(ids, seed):
    """A pool over `ids` with two models' predictions and noisy gold, all drawn from `seed`."""
    rng = random.Random(seed)
    universe = ["A", "B", NEG]
    pool = make_pool({iid: rng.choice(universe) for iid in ids})
    preds = make_predictions(
        pool, {m: {iid: rng.choice(universe) for iid in ids} for m in ("m1", "m2")}
    )
    relabels = {iid: rng.choice([*universe, None]) for iid in ids if rng.random() < 0.5}
    relabels[ids[0]] = "C"  # never a pool label, so the noisy set is not empty
    return pool, preds, relabels


SAME_IDS = {
    "relabeled": lambda pool: apply_label_map(pool, {label: label for label in pool.labels()}),
    "rows reversed": lambda pool: make_pool({inst.id: inst.label for inst in [*pool][::-1]}),
}


@pytest.mark.parametrize("same_ids", SAME_IDS.values(), ids=SAME_IDS)
def test_curves_of_a_rank_output_over_a_pool_with_the_same_ids(same_ids):
    # scored against gold, predictions or a ranking over another pool of the
    # same ids, a rank output is gathered by id and gives the same curves
    ids = [f"e{i:02d}" for i in range(30)]
    pool, preds, relabels = _bundle(ids, 5)
    same = same_ids(pool)
    gold, same_gold = make_gold(pool, relabels), make_gold(same, relabels)
    same_preds = make_predictions(
        same, {m: {r.instance_id: r.label for r in preds.records_for_model(m)}
               for m in preds.model_ids}
    )
    ranking = rank(pool, None, None, StrategyKind.RANDOM, seed=3)
    other, same_other = (rank(p, None, None, StrategyKind.RANDOM, seed=4) for p in (pool, same))
    schedule = BudgetSchedule.evenly(7, len(pool))
    assert efficiency_curve(ranking, same_gold, schedule) == efficiency_curve(
        ranking, gold, schedule
    )
    assert jaccard_curve(ranking, same_other, schedule) == jaccard_curve(ranking, other, schedule)
    assert jaccard_curve(same_other, ranking, schedule) == jaccard_curve(other, ranking, schedule)
    expected = f1_curve(preds, pool, ranking, gold, schedule, NEG)
    assert f1_curve(same_preds, same, ranking, same_gold, schedule, NEG) == expected
    assert f1_curve(preds, same, ranking, gold, schedule, NEG) == expected


@pytest.mark.parametrize("mismatch", MISMATCHES.values(), ids=MISMATCHES)
@pytest.mark.parametrize("built", ["by rank", "by hand"])
def test_a_ranking_over_another_pool_is_refused(mismatch, built):
    # a rank output over one pool is refused on another, as a hand-built list is
    ids = [f"e{i:02d}" for i in range(10)]
    pool = make_pool({iid: "A" for iid in ids})
    other_pool, preds, relabels = _bundle(mismatch(ids), 6)
    gold = make_gold(other_pool, relabels)
    ranking = rank(pool, None, None, StrategyKind.RANDOM, seed=1)
    if built == "by hand":
        ranking = RankedList(ranking.strategy, ranking.ids, ranking.keys, ranking.denominator)
    other = rank(other_pool, None, None, StrategyKind.RANDOM, seed=1)
    with pytest.raises(ValidationError, match="^gold and ranking cover different pools$"):
        efficiency_curve(ranking, gold, PAST_EVERY_POOL)
    with pytest.raises(ValidationError, match="^pool and ranking cover different instances$"):
        f1_curve(preds, other_pool, ranking, gold, PAST_EVERY_POOL, NEG)
    for a, b in ((ranking, other), (other, ranking)):
        with pytest.raises(ValidationError, match="^rankings cover different pools$"):
            jaccard_curve(a, b, PAST_EVERY_POOL)


def test_a_copied_ranking_gathers_its_rows_and_gives_the_same_curves():
    # a pickled, copied or replaced list equals its original but keeps none of
    # the pool rows that rank keeps, so the curves gather its rows by id
    ids = [f"e{i:02d}" for i in range(30)]
    pool, preds, relabels = _bundle(ids, 7)
    gold = make_gold(pool, relabels)
    ranking = rank(pool, preds, None, StrategyKind.CONFIDENCE)
    other = rank(pool, None, None, StrategyKind.RANDOM, seed=2)
    schedule = BudgetSchedule.evenly(7, len(pool))
    assert ranking._position is pool._position
    copies = [
        pickle.loads(pickle.dumps(ranking)), copy.copy(ranking), copy.deepcopy(ranking),
        dataclasses.replace(ranking),
    ]
    for copied in copies:
        assert (copied, hash(copied), repr(copied)) == (ranking, hash(ranking), repr(ranking))
        assert copied._rows is None and copied._position is None
        assert efficiency_curve(copied, gold, schedule) == efficiency_curve(
            ranking, gold, schedule
        )
        assert jaccard_curve(copied, other, schedule) == jaccard_curve(ranking, other, schedule)
        assert jaccard_curve(other, copied, schedule) == jaccard_curve(other, ranking, schedule)
        assert f1_curve(preds, pool, copied, gold, schedule, NEG) == f1_curve(
            preds, pool, ranking, gold, schedule, NEG
        )


def _written(path, write, *args):
    write(*args, path)
    return path


# each builds one container over `pool` from predictions and gold over another
LINKED = {
    "load_predictions": lambda pool, preds, gold, hierarchy, tmp_path: load_predictions(
        [_written(tmp_path / f"{m}.jsonl", write_predictions, preds, m) for m in preds.model_ids],
        pool,
    ),
    "PredictionSet": lambda pool, preds, gold, hierarchy, tmp_path: PredictionSet(
        [rec for m in preds.model_ids for rec in preds.records_for_model(m)], pool
    ),
    "load_gold": lambda pool, preds, gold, hierarchy, tmp_path: load_gold(
        _written(tmp_path / "gold.jsonl", write_gold, gold), pool
    ),
    "GoldSet": lambda pool, preds, gold, hierarchy, tmp_path: GoldSet(gold.records(), pool),
    **{
        f"rank {kind.value}": lambda pool, preds, gold, hierarchy, tmp_path, kind=kind: rank(
            pool, preds, hierarchy, kind, seed=1
        )
        for kind in StrategyKind
    },
}


@pytest.mark.parametrize("build", LINKED.values(), ids=LINKED)
def test_every_container_links_to_its_pool_by_its_own_map(build, excerpt, tmp_path):
    # every constructor keeps the map of the pool it was given as `_position`,
    # so it is read in place over that pool; over an equal pool with a map of
    # its own it links to that map, not to the first pool's
    rng = random.Random(4)
    labels = [NEG, "per:parent", "per:spouse", "per:age", "org:founded_by"]
    ids = [f"e{i:02d}" for i in range(20)]
    pool = make_pool({iid: rng.choice(labels) for iid in ids})
    by_model = {m: {iid: (rng.choice(labels), rng.random()) for iid in ids} for m in ("m1", "m2")}
    preds = make_predictions(pool, by_model)
    gold = make_gold(pool, {iid: rng.choice([*labels, None]) for iid in ids[::2]})
    same = apply_label_map(pool, {label: label for label in pool.labels()})
    assert build(pool, preds, gold, excerpt, tmp_path)._position is pool._position
    linked = build(same, preds, gold, excerpt, tmp_path)._position
    assert linked is same._position and linked is not pool._position


def test_curves_from_many_threads_read_whole_caches():
    # f1_curve's state on the predictions is one store of a finished value, and
    # a gold set builds its noisy flags when it is made: threads racing on
    # fresh sets all get the curves of a single thread
    ids = [f"e{i:03d}" for i in range(300)]
    pool, preds, relabels = _bundle(ids, 8)
    by_model = {
        m: {r.instance_id: r.label for r in preds.records_for_model(m)} for m in preds.model_ids
    }
    ranking = rank(pool, None, None, StrategyKind.RANDOM, seed=1)
    schedule = BudgetSchedule.evenly(11, len(pool))

    def curves(preds, gold):
        return efficiency_curve(ranking, gold, schedule), f1_curve(
            preds, pool, ranking, gold, schedule, NEG
        )

    expected = curves(preds, make_gold(pool, relabels))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            fresh = make_predictions(pool, by_model), make_gold(pool, relabels)
            with ThreadPoolExecutor(max_workers=8) as pool_of_threads:
                futures = [pool_of_threads.submit(curves, *fresh) for _ in range(8)]
                assert all(future.result(timeout=60) == expected for future in futures)
    finally:
        sys.setswitchinterval(interval)


def test_ranking_with_repeated_id_is_rejected():
    # a repeated id would let a budget pass the pool size and efficiency exceed 1
    with pytest.raises(ValidationError, match="instance 'e1' appears twice"):
        ordered_ranking(["e1", "e1", "e2"])


@pytest.mark.parametrize("keys", [(2,), (3, 2, 1)])
def test_ranking_with_keys_of_another_length_is_rejected(keys):
    # write_csv zips ids with keys, so a short column would drop rows silently
    with pytest.raises(ValidationError, match=f"{len(keys)} scores for 2 instances"):
        RankedList(StrategyKind.GD, ("e1", "e2"), keys, 1)


@pytest.mark.parametrize("denominator", [0, -1])
def test_ranking_with_non_positive_denominator_is_rejected(denominator):
    # write_csv divides by it: 0 was a ZeroDivisionError, -1 a flipped order
    with pytest.raises(ValidationError, match=f"score denominator {denominator} is not positive"):
        RankedList(StrategyKind.GD, ("e1", "e2"), (2, 1), denominator)


@pytest.mark.parametrize("ids, keys, position", [
    (("e1", "e2", "e3"), (3, 1, 2), "rank 3 ('e3')"),  # a score rises down the list
    (("e2", "e1"), (1, 1), "rank 2 ('e1')"),  # a tie out of ascending id order
])
def test_ranking_out_of_order_is_rejected(ids, keys, position):
    # write_csv would write scores that rise, and budgets would select the wrong prefix
    with pytest.raises(ValidationError, match=rf"ranking out of order at {re.escape(position)}"):
        RankedList(StrategyKind.GD, ids, keys, 1)


# -- CSV ------------------------------------------------------------------


def test_write_curves_csv_sorted(tmp_path):
    series = [
        CurveSeries("recall", "m1", (CurvePoint(0, Fraction(1, 2)),)),
        CurveSeries("f1", "m2", (CurvePoint(5, Fraction(1)), )),
        CurveSeries("f1", "m1", (CurvePoint(5, Fraction(1, 4)), CurvePoint(0, Fraction(0)))),
    ]
    target = tmp_path / "curves.csv"
    write_curves_csv(series, target)
    assert target.read_text() == (
        "metric,series,budget,value\n"
        "f1,m1,0,0.0\n"
        "f1,m1,5,0.25\n"
        "f1,m2,5,1.0\n"
        "recall,m1,0,0.5\n"
    )


def test_ranking_and_curves_build_no_instance(tmp_path, monkeypatch):
    # the pool is held as columns: scoring and the curves read them in place
    assert main(["synth", "--out", str(tmp_path), "--seed", "4", "--pool-size", "300"]) == 0
    hierarchy = load_hierarchy(tmp_path / "hierarchy.json")
    pool = load_pool(tmp_path / "pool.jsonl")
    preds = load_predictions(sorted(tmp_path.glob("predictions_*.jsonl")), pool)
    gold = load_gold(tmp_path / "gold.jsonl", pool)
    schedule = BudgetSchedule.strided(40, len(pool))
    built = []
    init = Instance.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting_init)
    ranked = [rank(pool, preds, hierarchy, kind, seed=1) for kind in StrategyKind]
    efficiency_curve(ranked[0], gold, schedule)
    jaccard_curve(ranked[0], ranked[1], schedule)
    f1_curve(preds, pool, ranked[2], gold, schedule, NEG)
    assert built == []
    pool.get(pool.ids()[0])  # the counter counts
    assert len(built) == 1


def test_curves_never_build_the_ids_or_keys_of_a_rank_output(tmp_path):
    # the curves read only the pool rows a list from rank keeps; its ids and
    # keys tuples are built on their first read, here by `top`
    assert main(["synth", "--out", str(tmp_path), "--seed", "5", "--pool-size", "200"]) == 0
    hierarchy = load_hierarchy(tmp_path / "hierarchy.json")
    pool = load_pool(tmp_path / "pool.jsonl")
    preds = load_predictions(sorted(tmp_path.glob("predictions_*.jsonl")), pool)
    gold = load_gold(tmp_path / "gold.jsonl", pool)
    schedule = BudgetSchedule.strided(30, len(pool))
    ranked = [rank(pool, preds, hierarchy, kind, seed=2) for kind in StrategyKind]
    for ranking, other in zip(ranked, ranked[1:] + ranked[:1]):
        efficiency_curve(ranking, gold, schedule)
        jaccard_curve(ranking, other, schedule)
        f1_curve(preds, pool, ranking, gold, schedule, NEG)
        assert len(ranking) == len(pool)
    assert all("ids" not in vars(r) and "keys" not in vars(r) for r in ranked)
    assert ranked[0].top(3) == ranked[0].ids[:3]
    assert "ids" in vars(ranked[0]) and "keys" not in vars(ranked[0])
