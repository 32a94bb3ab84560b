"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The final test needs a real licensed corpus bundle and skips
unless REANNOTATE_TACRED_DIR is set (see README).
"""

import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    adjacency,
    ancestor_chain,
    bfs_distance,
    chain_hierarchy,
    lca_by_ancestor_sets,
    make_gold,
    make_pool,
    make_predictions,
    oracle_micro_f1,
    random_tree,
)
from reannotate import (
    BudgetSchedule,
    StrategyKind,
    efficiency_curve,
    f1_curve,
    graph_distance_score,
    jaccard_curve,
    lca_distance_score,
    load_gold,
    load_hierarchy,
    load_pool,
    load_predictions,
    micro_f1,
    rank,
)
from reannotate.cli import main as cli_main
from reannotate.synth import balanced_hierarchy, synth_corpus

NEG = "no_relation"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_metric_axioms_against_bruteforce_oracles():
    with criterion("metric axioms on 1000 random trees"):
        started = time.perf_counter()
        rng = random.Random(20260810)
        for i in range(1000):
            size = rng.randint(2, 500)
            h = chain_hierarchy(size) if i % 25 == 0 else random_tree(rng, size)
            records = h.records()
            adj = adjacency(records)
            parents = dict(records)
            names = h.names()
            for _ in range(5):
                a, b = rng.choice(names), rng.choice(names)
                oracle_lca = lca_by_ancestor_sets(parents, a, b)
                assert h.lca(a, b) == oracle_lca
                distance = h.tree_distance(a, b)
                assert distance == bfs_distance(adj, a, b)
                assert h.distance_to_lca(a, b) == len(ancestor_chain(parents, a)) - len(
                    ancestor_chain(parents, oracle_lca)
                )
                # metric axioms
                assert distance == h.tree_distance(b, a)
                assert h.tree_distance(a, a) == 0
                c = rng.choice(names)
                assert h.tree_distance(a, c) <= distance + h.tree_distance(b, c)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"metric-axiom sweep took {elapsed:.1f}s"


def test_worked_example(excerpt):
    with criterion("hierarchy worked example and GD/LD scores"):
        assert excerpt.tree_distance("per:parent", "per:age") == 5
        assert excerpt.lca("per:parent", "per:age") == "per"
        assert excerpt.distance_to_lca("per:parent", "per:age") == 3

        pool = make_pool({"s1": "per:parent", "s2": "per:parent", "s3": "per:parent"})
        preds = make_predictions(
            pool,
            {
                "m1": {"s1": "per:age", "s2": "per:parent", "s3": "per:parent"},
                "m2": {"s1": "per:age", "s2": "per:age", "s3": "per:parent"},
            },
        )
        assert graph_distance_score(pool.get("s1"), preds, excerpt) == 5
        assert graph_distance_score(pool.get("s2"), preds, excerpt) == Fraction(5, 2)
        assert graph_distance_score(pool.get("s3"), preds, excerpt) == 0
        assert lca_distance_score(pool.get("s1"), preds, excerpt) == 3
        assert lca_distance_score(pool.get("s2"), preds, excerpt) == Fraction(3, 2)
        assert lca_distance_score(pool.get("s3"), preds, excerpt) == 0


def test_lca_score_dominance():
    with criterion("LD <= GD dominance across 100 synthetic corpora"):
        for seed in range(100):
            rng = random.Random(seed)
            if seed % 2:
                h = balanced_hierarchy(
                    groups=rng.randint(2, 4),
                    subgroups=rng.randint(1, 3),
                    labels=rng.randint(2, 4),
                )
            else:
                h = random_tree(rng, rng.randint(8, 60))
            bundle = synth_corpus(
                h,
                rng,
                size=rng.randint(5, 40),
                models=rng.randint(1, 5),
                flip_rate=rng.uniform(0.0, 0.6),
                plant_min_distance=rng.choice([2, 4]),
                flip_max_distance=rng.choice([2, 3]),
                allow_internal_predictions=bool(seed % 3),
            )
            for inst in bundle.pool:
                gd = graph_distance_score(inst, bundle.predictions, h)
                ld = lca_distance_score(inst, bundle.predictions, h)
                assert ld <= gd
                records = bundle.predictions.for_instance(inst.id)
                all_agree = all(rec.label == inst.label for rec in records)
                # dataset labels are leaves, so either score is 0 exactly
                # when every model predicts the dataset label
                assert (gd == 0) == all_agree
                assert (ld == 0) == all_agree
                covers_full_path = all(
                    h.lca(inst.label, rec.label) == rec.label for rec in records
                )
                assert (gd == ld) == covers_full_path


def test_permutation_integrity(tmp_path):
    with criterion("ranked lists are reproducible pool permutations"):
        h = balanced_hierarchy()
        bundle = synth_corpus(h, random.Random(77), size=200, models=3)
        for kind in StrategyKind:
            ranked = rank(bundle.pool, bundle.predictions, h, kind, seed=123)
            assert sorted(ranked.ids) == sorted(bundle.pool.ids())

        from reannotate.hierarchy import dump_hierarchy
        from reannotate.corpus import write_gold, write_pool, write_predictions

        dump_hierarchy(h, tmp_path / "hierarchy.json")
        write_pool(bundle.pool, tmp_path / "pool.jsonl")
        write_gold(bundle.gold, tmp_path / "gold.jsonl")
        flags = [
            "--hierarchy", str(tmp_path / "hierarchy.json"),
            "--dataset", str(tmp_path / "pool.jsonl"),
        ]
        for m in bundle.predictions.model_ids:
            write_predictions(bundle.predictions, m, tmp_path / f"p_{m}.jsonl")
            flags += ["--predictions", str(tmp_path / f"p_{m}.jsonl")]
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli_main([
                "rank", *flags, "--strategy", "gd", "--strategy", "ld",
                "--strategy", "confidence", "--strategy", "random",
                "--seed", "123", "--out", str(out),
            ])
            assert code == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1]


def test_curve_endpoints():
    with criterion("curve endpoints are exact"):
        h = balanced_hierarchy()
        bundle = synth_corpus(h, random.Random(31), size=120, models=3, eliminate_rate=0.05)
        size = len(bundle.pool)
        schedule = BudgetSchedule.evenly(7, size)
        rankings = {
            kind: rank(bundle.pool, bundle.predictions, h, kind, seed=5)
            for kind in StrategyKind
        }
        reference = rankings[StrategyKind.CONFIDENCE]
        full_budget_scores = {}
        for kind, ranked in rankings.items():
            efficiency = efficiency_curve(ranked, bundle.gold, schedule)
            assert efficiency.value_at(0) == 0
            assert efficiency.value_at(size) == 1
            self_overlap = jaccard_curve(ranked, ranked, schedule)
            assert all(value == 1 for value in self_overlap.values())
            overlap = jaccard_curve(ranked, reference, schedule)
            assert overlap.value_at(size) == 1
            series = f1_curve(
                bundle.predictions, bundle.pool, ranked, bundle.gold, schedule, NEG
            )
            full_budget_scores[kind] = sorted(
                (s.series, s.metric, s.value_at(size)) for s in series
            )
        baseline = full_budget_scores[StrategyKind.GD]
        for kind in StrategyKind:
            assert full_budget_scores[kind] == baseline


def test_random_baseline_linearity():
    with criterion("mean RANDOM efficiency tracks B/|D| within 0.03"):
        started = time.perf_counter()
        pool_size, noisy_size, seeds = 2000, 400, 100
        pool = make_pool({f"e{i:05d}": "x" for i in range(pool_size)})
        picker = random.Random(404)
        noisy = picker.sample(sorted(pool.ids()), noisy_size)
        gold = make_gold(pool, {iid: "y" for iid in noisy})
        budgets = [200 * i for i in range(1, 11)]
        schedule = BudgetSchedule.explicit(budgets, pool_size)
        totals = {budget: 0.0 for budget in budgets}
        for seed in range(seeds):
            ranked = rank(pool, None, None, StrategyKind.RANDOM, seed=seed)
            curve = efficiency_curve(ranked, gold, schedule)
            for point in curve.points:
                totals[point.budget] += float(point.value)
        for budget in budgets:
            mean = totals[budget] / seeds
            assert abs(mean - budget / pool_size) <= 0.03, (budget, mean)
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"linearity sweep took {elapsed:.1f}s"


def test_micro_f1_oracle():
    with criterion("micro-F1 equals confusion-matrix oracle on 500 pools"):
        labels = {"e1": "A", "e2": "A", "e3": "B", "e4": NEG, "e5": "B"}
        preds = {"e1": "A", "e2": "B", "e3": "B", "e4": "A", "e5": NEG}
        assert micro_f1(preds, labels, NEG) == (
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
        )
        rng = random.Random(2024)
        universe = ["A", "B", "C", "D", NEG]
        for _ in range(500):
            n = rng.randint(1, 50)
            k = rng.randint(2, len(universe))
            choices = universe[:k]
            pool_labels = {f"e{i}": rng.choice(choices) for i in range(n)}
            pool_preds = {f"e{i}": rng.choice(choices) for i in range(n)}
            assert micro_f1(pool_preds, pool_labels, NEG) == oracle_micro_f1(
                pool_preds, pool_labels, NEG
            )


def test_planted_noise_recovery():
    with criterion("GD/LD efficiency dominates RANDOM on planted noise"):
        h = balanced_hierarchy()
        pool_size, seeds = 400, 20
        schedule = BudgetSchedule.evenly(12, pool_size)
        interior = [b for b in schedule if 0 < b < pool_size]
        curves = {kind: {b: [] for b in interior} for kind in
                  (StrategyKind.GD, StrategyKind.LD, StrategyKind.RANDOM)}
        for seed in range(seeds):
            bundle = synth_corpus(
                h, random.Random(9000 + seed), size=pool_size, models=3,
                noise_rate=0.15, eliminate_rate=0.05, flip_rate=0.15,
            )
            for kind in curves:
                ranked = rank(bundle.pool, bundle.predictions, h, kind, seed=seed)
                curve = efficiency_curve(ranked, bundle.gold, schedule)
                for budget in interior:
                    curves[kind][budget].append(float(curve.value_at(budget)))
        for budget in interior:
            random_median = statistics.median(curves[StrategyKind.RANDOM][budget])
            for kind in (StrategyKind.GD, StrategyKind.LD):
                assert statistics.median(curves[kind][budget]) > random_median, (
                    kind, budget,
                )


def test_scale():
    with criterion("40k-instance sweep under 10s and 1GB"):
        h = balanced_hierarchy(groups=4, subgroups=3, labels=4)
        bundle = synth_corpus(h, random.Random(1), size=40000, models=5)
        schedule = BudgetSchedule.evenly(50, len(bundle.pool))

        started = time.perf_counter()
        rankings = {
            kind: rank(bundle.pool, bundle.predictions, h, kind, seed=11)
            for kind in StrategyKind
        }
        reference = rankings[StrategyKind.CONFIDENCE]
        for kind, ranked in rankings.items():
            efficiency_curve(ranked, bundle.gold, schedule)
            jaccard_curve(ranked, reference, schedule)
            f1_curve(bundle.predictions, bundle.pool, ranked, bundle.gold, schedule, NEG)
        elapsed = time.perf_counter() - started

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert elapsed < 10, f"sweep took {elapsed:.1f}s"
        assert peak_kb < 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MiB"


# -- optional, data-dependent --------------------------------------------


@pytest.mark.skipif(
    "REANNOTATE_TACRED_DIR" not in os.environ,
    reason="set REANNOTATE_TACRED_DIR to a bundle directory to run the "
    "corpus-dependent checks (see README)",
)
def test_real_corpus_checks():
    with criterion("real-corpus reference points"):
        root = Path(os.environ["REANNOTATE_TACRED_DIR"])
        hierarchy = load_hierarchy(root / "hierarchy.json")
        pool = load_pool(root / "pool.jsonl")
        prediction_files = sorted(root.glob("predictions_*.jsonl"))
        assert prediction_files, "no predictions_*.jsonl in the bundle"
        predictions = load_predictions(prediction_files, pool)
        gold = load_gold(root / "gold.jsonl", pool)

        ld = rank(pool, predictions, hierarchy, StrategyKind.LD)
        at_1000 = efficiency_curve(
            ld, gold, BudgetSchedule.explicit([1000], len(pool))
        ).value_at(1000)
        assert abs(float(at_1000) - 0.144) <= 0.01

        schedule = BudgetSchedule.strided(100, len(pool))
        for kind in (StrategyKind.GD, StrategyKind.LD, StrategyKind.CONFIDENCE):
            ranked = rank(pool, predictions, hierarchy, kind)
            series = f1_curve(predictions, pool, ranked, gold, schedule, NEG)
            for model_series in series:
                if model_series.metric != "f1":
                    continue
                values = model_series.values()
                budgets = model_series.budgets()
                peak_budget = budgets[values.index(max(values))]
                assert abs(peak_budget - 2300) <= 500, (kind, model_series.series)
                # fully cleaned test data scores below the noisy baseline
                assert values[-1] < values[0], (kind, model_series.series)
