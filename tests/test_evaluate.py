import random
from fractions import Fraction

import pytest

from helpers import make_gold, make_pool, make_predictions, oracle_micro_f1, ordered_ranking
from reannotate import (
    BudgetSchedule,
    CurvePoint,
    CurveSeries,
    RankedList,
    StrategyKind,
    ValidationError,
    apply_reannotation,
    efficiency_curve,
    f1_curve,
    jaccard_curve,
    micro_f1,
    rank,
    write_curves_csv,
)

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
    with pytest.raises(ValidationError, match="no prediction for instance 'e7'"):
        f1_curve(preds, pool, ranking, make_gold(pool, {}), BudgetSchedule((0,)), NEG)


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
