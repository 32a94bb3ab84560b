"""Property tests on generated inputs (Hypothesis, MacIver et al., JOSS 2019).

Loader fuzz: whatever the bytes of an input file, a loader either returns
or raises ParseError / ValidationError. Recount: f1_curve agrees at every
budget with relabeling the pool from scratch and recounting through the
confusion-matrix oracle in helpers, which shares no code with evaluate.
Ranking: on random trees, every strategy orders the pool by (score
descending, id ascending), with scores recomputed from the BFS and
ancestor-set oracles in helpers; efficiency and Jaccard curves keep their
bounds, endpoints, monotonicity and symmetry.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    adjacency,
    ancestor_chain,
    bfs_distance,
    lca_by_ancestor_sets,
    make_gold,
    make_pool,
    make_predictions,
    oracle_micro_f1,
    ordered_ranking,
)
from reannotate import (
    BudgetSchedule,
    ParseError,
    StrategyKind,
    ValidationError,
    apply_reannotation,
    efficiency_curve,
    f1_curve,
    jaccard_curve,
    load_gold,
    load_hierarchy,
    load_label_map,
    load_pool,
    load_predictions,
    rank,
)
from reannotate.synth import random_tree

NEG = "no_relation"
LABELS = ["A", "B", NEG]
FIELDS = ["id", "relation", "partition", "model", "label", "confidence", "gold",
          "nodes", "name", "parent"]
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# -- generated JSON text ------------------------------------------------------

# Numbers as JSON text: ints past the float range (2**1024 and up) and past
# Python's 4300-digit conversion limit cannot go through json.dumps.
numbers = st.one_of(
    st.integers().map(str),
    st.integers(min_value=2**1024, max_value=10**1000).map(str),
    st.integers(min_value=4290, max_value=4400).map(lambda n: "9" * n),
    st.floats().map(json.dumps),
)
names = st.sampled_from(["s1", "s2", "s3", "A", "B", NEG, ""]) | st.text(max_size=5)
scalars = st.one_of(
    numbers,
    names.map(json.dumps),
    st.sampled_from(["null", "true", "false"]),
)
keys = st.sampled_from(FIELDS) | st.text(max_size=5)


def _obj(pairs):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs.items()) + "}"


json_text = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
    | st.dictionaries(keys, inner, max_size=5).map(_obj),
    max_leaves=12,
)


def _record(fields, optional=None):
    """Well-formed object text whose field values come from `fields`."""
    return st.fixed_dictionaries(fields, optional=optional).map(_obj)


labels = st.sampled_from(LABELS).map(json.dumps)
ids = st.sampled_from(["s1", "s2", "s3", "s4"]).map(json.dumps)
pool_record = _record({"id": ids, "relation": labels}, {"partition": names.map(json.dumps)})
prediction_record = _record(
    {"model": st.sampled_from(['"m1"', '"m2"']), "id": ids, "label": labels,
     "confidence": numbers}
)
gold_record = _record({"id": ids, "gold": labels | st.just("null")})
node_record = _record(
    {"name": labels | st.just('"root"'), "parent": labels | st.sampled_from(['"root"', "null"])}
)
raw_line = st.text(max_size=20).filter(lambda t: "\n" not in t and "\r" not in t)


padding = st.sampled_from(["", " ", "\t", " \t  "])


def jsonl(records):
    line = st.tuples(padding, st.one_of(records, json_text, raw_line), padding).map("".join)
    return st.lists(line, max_size=5).map("\n".join)


hierarchy_doc = st.one_of(
    json_text,
    st.lists(node_record, max_size=5).map(lambda xs: '{"nodes": [' + ", ".join(xs) + "]}"),
)
label_map_doc = json_text | st.dictionaries(names, names.map(json.dumps), max_size=4).map(_obj)

# -- loader fuzz --------------------------------------------------------------


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _loads_or_rejects(load, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        load(path)
    except (ParseError, ValidationError):
        pass


@SETTINGS
@given(text=jsonl(pool_record))
def test_load_pool_fuzz(scratch, text):
    _loads_or_rejects(load_pool, scratch, text)


tacred_doc = st.lists(json_text | pool_record, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]")


@SETTINGS
@given(text=tacred_doc | json_text)
def test_load_tacred_pool_fuzz(scratch, text):
    _loads_or_rejects(lambda p: load_pool(p, format="tacred"), scratch, text)


POOL = make_pool({"s1": "A", "s2": "B", "s3": NEG})


@SETTINGS
@given(text=jsonl(prediction_record))
def test_load_predictions_fuzz(scratch, text):
    _loads_or_rejects(lambda p: load_predictions([p], POOL), scratch, text)


@SETTINGS
@given(text=jsonl(gold_record))
def test_load_gold_fuzz(scratch, text):
    _loads_or_rejects(lambda p: load_gold(p, POOL), scratch, text)


@SETTINGS
@given(text=hierarchy_doc)
def test_load_hierarchy_fuzz(scratch, text):
    _loads_or_rejects(load_hierarchy, scratch, text)


@SETTINGS
@given(text=label_map_doc)
def test_load_label_map_fuzz(scratch, text):
    _loads_or_rejects(load_label_map, scratch, text)


# -- recount ------------------------------------------------------------------


@st.composite
def relabel_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pool_labels = {f"e{i}": draw(st.sampled_from(LABELS)) for i in range(n)}
    pool = make_pool(pool_labels)
    models = [f"m{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
    preds = make_predictions(
        pool, {m: {iid: draw(st.sampled_from(LABELS)) for iid in pool_labels} for m in models}
    )
    relabels = draw(
        st.dictionaries(st.sampled_from(sorted(pool_labels)), st.sampled_from([*LABELS, None]))
    )
    order = draw(st.permutations(sorted(pool_labels)))
    budgets = draw(st.sets(st.integers(min_value=0, max_value=n), min_size=1))
    return pool, preds, make_gold(pool, relabels), ordered_ranking(order), budgets


@SETTINGS
@given(case=relabel_cases(), drop=st.booleans())
def test_f1_curve_matches_recount(case, drop):
    pool, preds, gold, ranking, budgets = case
    schedule = BudgetSchedule(tuple(sorted(budgets)))
    series = f1_curve(preds, pool, ranking, gold, schedule, NEG, drop_eliminated=drop)
    by_key = {(s.series, s.metric): s for s in series}
    for budget in schedule:
        labels_now = apply_reannotation(
            pool, ranking, gold, budget, drop_eliminated=drop
        ).labels_by_id()
        for m in preds.model_ids:
            pred_map = {rec.instance_id: rec.label for rec in preds.records_for_model(m)}
            expected = oracle_micro_f1(pred_map, labels_now, NEG)
            got = tuple(by_key[(m, metric)].value_at(budget)
                        for metric in ("precision", "recall", "f1"))
            assert got == expected


# -- ranking and curves -------------------------------------------------------


@st.composite
def ranking_cases(draw):
    """A random_tree hierarchy, a pool labeled from it, K models and gold with noise."""
    hierarchy = random_tree(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 12)))
    nodes = st.sampled_from(hierarchy.names())
    pool_labels = {f"e{i}": draw(nodes) for i in range(draw(st.integers(1, 12)))}
    pool = make_pool(pool_labels)
    confidences = st.floats(min_value=0, max_value=1)
    preds = make_predictions(pool, {
        f"m{j}": {iid: (draw(nodes), draw(confidences)) for iid in pool_labels}
        for j in range(draw(st.integers(1, 3)))
    })
    relabels = draw(st.dictionaries(st.sampled_from(sorted(pool_labels)), nodes | st.none()))
    gold = make_gold(pool, relabels)
    assume(gold.noisy_ids)
    return hierarchy, pool, preds, gold, draw(st.integers(0, 2**64 - 1))


def oracle_scores(kind, hierarchy, pool, preds, seed):
    """Each instance's score, from the helpers' oracles and the documented formulas."""
    if kind is StrategyKind.RANDOM:  # one draw per instance, in sorted-id order
        rng = random.Random(seed)
        return {iid: Fraction(rng.random()) for iid in sorted(pool.ids())}
    records = hierarchy.records()
    adj, parents = adjacency(records), dict(records)
    depth = lambda node: len(ancestor_chain(parents, node)) - 1
    distance = {
        StrategyKind.GD: lambda a, b: bfs_distance(adj, a, b),
        StrategyKind.LD: lambda a, b: depth(a) - depth(lca_by_ancestor_sets(parents, a, b)),
    }
    scores = {}
    for inst in pool:
        found = [(rec.label, rec.confidence) for rec in preds.for_instance(inst.id)]
        if kind is StrategyKind.CONFIDENCE:
            disagreeing = [Fraction(conf) for label, conf in found if label != inst.label]
            scores[inst.id] = sum(disagreeing) / len(disagreeing) if disagreeing else Fraction(0)
        else:
            total = sum(distance[kind](inst.label, label) for label, _ in found)
            scores[inst.id] = Fraction(total, len(found))
    return scores


@SETTINGS
@given(case=ranking_cases())
def test_rank_and_curves_on_random_trees(case):
    hierarchy, pool, preds, gold, seed = case
    n = len(pool)
    schedule = BudgetSchedule(tuple(range(n + 1)))
    ranked = {kind: rank(pool, preds, hierarchy, kind, seed=seed) for kind in StrategyKind}
    for kind, ranking in ranked.items():
        scores = oracle_scores(kind, hierarchy, pool, preds, seed)
        expected = sorted(scores, key=lambda iid: (-scores[iid], iid))
        assert list(ranking.ids) == expected
        assert [Fraction(k, ranking.denominator) for k in ranking.keys] == [
            scores[iid] for iid in expected
        ]

        efficiency = efficiency_curve(ranking, gold, schedule).values()
        assert efficiency[0] == 0 and efficiency[-1] == 1
        assert all(a <= b for a, b in zip(efficiency, efficiency[1:]))

        for other in ranked.values():
            overlap = jaccard_curve(ranking, other, schedule).values()
            assert overlap == jaccard_curve(other, ranking, schedule).values()
            assert overlap[0] == 1 and overlap[-1] == 1
            assert all(0 <= value <= 1 for value in overlap)
