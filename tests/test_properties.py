"""Property tests on generated inputs (Hypothesis, MacIver et al., JOSS 2019).

Loader fuzz: whatever the bytes of an input file, a loader either returns
or raises ParseError / ValidationError. Loaders agree with a reference: on
flat files with drawn defects and layouts, each JSON Lines loader accepts the
values that the reference loader in helpers accepts (it reads one line at a
time and shares no code with corpus), or raises the error class that the
reference gives, at the location that the reference gives. Flat chunks:
on generated chunks of lines, the one-parse gate either refuses a chunk or
gives the records its non-blank lines decode to one by one. Recount:
f1_curve agrees at every budget with relabeling the pool from scratch and
recounting through the confusion-matrix oracle in helpers, which shares no
code with evaluate.
Ranking: on random trees, every strategy orders the pool by (score
descending, id ascending), with scores recomputed from the BFS and
ancestor-set oracles in helpers; efficiency and Jaccard curves keep their
bounds, endpoints, monotonicity and symmetry, equal at every budget a
recount from the sets of each list's `top(B)`, and every curve of a
hand-built copy of a ranking equals that curve of `rank`'s own list.
f1_curve with no changed label is flat at the pool's own scores.
Confidence keys: over confidences down to subnormals, each key over the
ranking's denominator is exactly the mean of the disagreeing models'
confidences. CLI fuzz: command lines
drawn from the CLI grammar, each flag left out or given a valid or a hostile
value, run in process on a tiny synth bundle.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    adjacency,
    against_reference,
    ancestor_chain,
    bfs_distance,
    lca_by_ancestor_sets,
    make_gold,
    make_pool,
    make_predictions,
    oracle_micro_f1,
    ordered_ranking,
    random_tree,
    reference_gold,
    reference_pool,
    reference_predictions,
)
from reannotate import (
    BudgetSchedule,
    Instance,
    ParseError,
    RankedList,
    StrategyKind,
    ValidationError,
    apply_reannotation,
    confidence_score,
    efficiency_curve,
    f1_curve,
    jaccard_curve,
    load_gold,
    load_hierarchy,
    load_label_map,
    load_pool,
    load_predictions,
    micro_f1,
    rank,
)
from reannotate import corpus
from reannotate.cli import _build_parser, main as cli_main

NEG = "no_relation"
LABELS = ["A", "B", NEG]
ABSENT = "unused"  # a label that no instance, prediction or gold record carries
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


# -- loaders agree with the reference loaders ---------------------------------

# Files start clean: flat, complete, one record per line, which the bulk path
# takes. Then up to two defects are drawn, each a field set to a messy value, a
# key removed or a record dropped, and the layout may split records across
# lines, merge them onto one, or add blank lines.
clean_labels = st.sampled_from(["A", "B", NEG])
EQ_POOL_IDS = ["s1", "s2", "s3", "s4", "s5"]
EQ_POOL = make_pool({iid: "A" for iid in EQ_POOL_IDS})
REMOVE, DROP = "remove key", "drop record"
BRACES = ["{", "}", "[", "]", "a{b}", ""]  # "" is an empty label
UNHASHABLE = [["m2"], {"x": 1}, [1]]
POOL_DEFECTS = [
    *[("relation", v) for v in BRACES], *[("text", v) for v in BRACES],
    ("id", "s1"), ("id", ""), ("partition", "val"), ("partition", ""), ("partition", 3),
    ("text", [1, {"a": 2}]), ("id", REMOVE), ("relation", REMOVE), ("id", DROP),
    *[("id", v) for v in UNHASHABLE],
]
PREDICTION_DEFECTS = [
    *[("confidence", v) for v in (0, 1, True, float("nan"), float("inf"), 1.5, "0.5", None)],
    *[("label", v) for v in BRACES],
    ("model", "m9"), ("id", "s1"), ("id", "ghost"), ("confidence", REMOVE), ("id", DROP),
    *[(key, v) for key in ("model", "id") for v in UNHASHABLE],
]
GOLD_DEFECTS = [
    *[("gold", v) for v in BRACES],
    ("gold", 3), ("id", "s1"), ("id", "ghost"), ("gold", REMOVE), ("id", DROP),
    *[("id", v) for v in UNHASHABLE],
]


@st.composite
def with_defects(draw, records, defects):
    """`records` with up to two (key, value) defects; a dropped record is left empty."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        if not records:
            break
        record = draw(st.sampled_from(records))
        key, value = draw(st.sampled_from(defects))
        if value == DROP:
            record.clear()
        elif value == REMOVE:
            record.pop(key, None)
        else:
            record[key] = value
    return records


@st.composite
def layout(draw, records):
    """JSON Lines text of the non-empty `records`, one per line or with some split
    across two lines (keeping or dropping the comma) or merged onto one, padded,
    with blank lines between."""
    ways = draw(st.sampled_from([["line"], ["line"], ["line"] * 3 + ["split", "merge", "blank"]]))
    texts = [json.dumps(r) for r in records if r]
    lines = []
    i = 0
    while i < len(texts):
        text = texts[i]
        how = draw(st.sampled_from(ways))
        if how == "split":
            text = text.replace(", ", draw(st.sampled_from([",\n", "\n"])), 1)
        elif how == "merge" and i + 1 < len(texts):
            i += 1
            text += draw(st.sampled_from([" ", ", ", ""])) + texts[i]
        elif how == "blank":
            lines.append(draw(padding))
        lines.append(draw(padding) + text + draw(padding))
        i += 1
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def pool_files(draw):
    records = []
    for iid in draw(st.permutations(EQ_POOL_IDS)):
        record = {"id": iid, "relation": draw(clean_labels)}
        partition = draw(st.sampled_from([None, "test", "TEST", "Dev", "absent"]))
        if partition != "absent":
            record["partition"] = partition
        if draw(st.booleans()):  # a nested object without "[", a brace in its string
            record["text"] = draw(clean_labels | st.just({"m": {"k": "}"}}))
        records.append(record)
    return draw(layout(draw(with_defects(records, POOL_DEFECTS))))


@st.composite
def prediction_files(draw):
    files = [
        [
            {"model": model, "id": iid, "label": draw(clean_labels),
             "confidence": draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]))}
            for iid in draw(st.permutations(EQ_POOL_IDS))
        ]
        for model in draw(st.sampled_from([["m1", "m2"], ["m1", "m2"], ["m1", "m1"], ["m1"]]))
    ]
    draw(with_defects([r for records in files for r in records], PREDICTION_DEFECTS))
    return [draw(layout(records)) for records in files]


@st.composite
def gold_files(draw):
    ids = draw(st.permutations(EQ_POOL_IDS))[: draw(st.integers(0, len(EQ_POOL_IDS)))]
    records = [{"id": iid, "gold": draw(clean_labels | st.none())} for iid in ids]
    return draw(layout(draw(with_defects(records, GOLD_DEFECTS))))


def _write(directory, texts):
    paths = []
    for i, text in enumerate(texts):
        paths.append(directory / f"input{i}.jsonl")
        paths[-1].write_text(text, encoding="utf-8")
    return paths


@SETTINGS
@given(text=pool_files())
def test_load_pool_agrees_with_per_line_path(scratch, text):
    (path,) = _write(scratch.parent, [text])
    actual, expected = against_reference(load_pool, reference_pool, path)
    assert actual == expected


@SETTINGS
@given(texts=prediction_files())
def test_load_predictions_agrees_with_per_line_path(scratch, texts):
    paths = _write(scratch.parent, texts)
    actual, expected = against_reference(load_predictions, reference_predictions, paths, EQ_POOL)
    assert actual == expected


@SETTINGS
@given(text=gold_files())
def test_load_gold_agrees_with_per_line_path(scratch, text):
    (path,) = _write(scratch.parent, [text])
    actual, expected = against_reference(load_gold, reference_gold, path, EQ_POOL)
    assert actual == expected


# -- the flat-chunk gate --------------------------------------------------------

# Strings that look like the gate's marks: braces, brackets, and the "\n,{" that
# joins two lines, which a JSON string holds only escaped.
lookalikes = st.sampled_from(["{", "}", "[", "]", "\n,{", "}\n,{", '"}, {"', ", {"])
flat_values = st.one_of(scalars, lookalikes.map(json.dumps), json_text)
chunk_records = st.recursive(
    st.dictionaries(keys, flat_values, max_size=4).map(_obj),
    lambda inner: st.dictionaries(keys, flat_values | inner, max_size=3).map(_obj),
    max_leaves=8,
)
one_record = chunk_records.map(lambda text: [text])


@st.composite
def split_record(draw):
    """One record's text over two lines."""
    text = draw(chunk_records)
    at = draw(st.integers(min_value=1, max_value=len(text) - 1))
    return [text[:at], text[at:]]


chunk_pieces = st.one_of(  # each a list of lines; most are one record a line
    one_record, one_record, one_record, one_record,
    st.sampled_from(["", " ", "\t ", "\x0b"]).map(lambda text: [text]),  # blank
    st.tuples(padding, chunk_records, padding).map(lambda parts: ["".join(parts)]),  # padded
    st.tuples(chunk_records, st.sampled_from(["", " ", ", ", ","]), chunk_records).map(
        lambda parts: ["".join(parts)]  # two records on one line
    ),
    split_record(),
    json_text.map(lambda text: [text]),  # an array or a scalar, too
    raw_line.map(lambda text: [text]),
)


@st.composite
def chunks(draw):
    """Lines as a file yields them: each ends in "\\n", but the last may not."""
    lines = [line + "\n" for piece in draw(st.lists(chunk_pieces, max_size=8)) for line in piece]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1][:-1]
    return lines


@settings(SETTINGS, max_examples=300)
@given(chunk=chunks())
def test_flat_chunk_is_its_lines_decoded_or_refused(chunk):
    try:
        expected = [json.loads(line) for line in chunk if line.strip()]
    except ValueError:
        expected = None
    if expected is not None and not all(type(record) is dict for record in expected):
        expected = None
    flat = corpus._flat(chunk)
    assert flat is None or repr(flat) == repr(expected)


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


@st.composite
def moved_pool_cases(draw):
    """Gold over one pool, scored on a plain list of Instances whose labels
    differ from that pool's on drawn ids; gold also repeats pool labels."""
    n = draw(st.integers(min_value=1, max_value=12))
    loaded = {f"e{i}": draw(st.sampled_from(LABELS)) for i in range(n)}
    ids = sorted(loaded)
    gold_pool = make_pool(loaded)
    relabels = draw(st.dictionaries(st.sampled_from(ids), st.sampled_from([*LABELS, None])))
    relabels.update({iid: loaded[iid] for iid in draw(st.sets(st.sampled_from(ids)))})
    shifts = st.integers(min_value=1, max_value=2)
    moved = {iid: draw(shifts) for iid in draw(st.sets(st.sampled_from(ids)))}
    pool = [
        Instance(iid, LABELS[(LABELS.index(label) + moved.get(iid, 0)) % len(LABELS)])
        for iid, label in loaded.items()
    ]
    models = [f"m{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
    preds = make_predictions(
        gold_pool, {m: {iid: draw(st.sampled_from(LABELS)) for iid in ids} for m in models}
    )
    order = draw(st.permutations(ids))
    budgets = draw(st.sets(st.integers(min_value=0, max_value=n), min_size=1))
    return pool, preds, make_gold(gold_pool, relabels), ordered_ranking(order), budgets


@SETTINGS
@given(case=moved_pool_cases(), drop=st.booleans(), negative=st.sampled_from([*LABELS, ABSENT]))
def test_f1_curve_on_a_relabeled_plain_pool_matches_recount(case, drop, negative):
    # the changed ids come from the passed pool's labels, not the gold set's noisy ids
    pool, preds, gold, ranking, budgets = case
    schedule = BudgetSchedule(tuple(sorted(budgets)))
    series = f1_curve(preds, pool, ranking, gold, schedule, negative, drop_eliminated=drop)
    by_key = {(s.series, s.metric): s for s in series}
    for budget in schedule:
        labels_now = apply_reannotation(
            pool, ranking, gold, budget, drop_eliminated=drop
        ).labels_by_id()
        for m in preds.model_ids:
            pred_map = {rec.instance_id: rec.label for rec in preds.records_for_model(m)}
            expected = oracle_micro_f1(pred_map, labels_now, negative)
            got = tuple(by_key[(m, metric)].value_at(budget)
                        for metric in ("precision", "recall", "f1"))
            assert got == expected


@SETTINGS
@given(data=st.data(), negative=st.sampled_from([*LABELS, ABSENT]))
def test_micro_f1_matches_oracle(data, negative):
    # one alphabet of the negative label alone gives cases with no positives
    alphabet = st.sampled_from(data.draw(st.sampled_from([LABELS, [negative]])))
    ids = st.sampled_from([f"e{i}" for i in range(8)])
    labels = data.draw(st.dictionaries(ids, alphabet))
    preds = {iid: data.draw(alphabet) for iid in labels}
    preds.update(data.draw(st.dictionaries(ids, alphabet)))  # predictions may cover more
    assert micro_f1(preds, labels, negative) == oracle_micro_f1(preds, labels, negative)
    if labels:
        missing = data.draw(st.sampled_from(sorted(labels)))
        del preds[missing]
        with pytest.raises(ValidationError, match=f"^no prediction for instance '{missing}'$"):
            micro_f1(preds, labels, negative)


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
        # rank builds its list without the constructor's checks, which accept it
        RankedList(ranking.strategy, ranking.ids, ranking.keys, ranking.denominator)

        efficiency = efficiency_curve(ranking, gold, schedule).values()
        assert efficiency[0] == 0 and efficiency[-1] == 1
        assert all(a <= b for a, b in zip(efficiency, efficiency[1:]))

        for other in ranked.values():
            overlap = jaccard_curve(ranking, other, schedule).values()
            assert overlap == jaccard_curve(other, ranking, schedule).values()
            assert overlap[0] == 1 and overlap[-1] == 1
            assert all(0 <= value <= 1 for value in overlap)


@SETTINGS
@given(case=ranking_cases())
def test_curves_of_a_hand_built_copy_equal_those_of_the_rank_output(case):
    # rank's list reads its pool rows in place, a hand-built copy gathers them
    # by id: the two compare, hash and print alike and give the same curves
    hierarchy, pool, preds, gold, seed = case
    schedule = BudgetSchedule(tuple(range(len(pool) + 1)))
    ranked = [rank(pool, preds, hierarchy, kind, seed=seed) for kind in StrategyKind]
    for ranking in ranked:
        built = RankedList(ranking.strategy, ranking.ids, ranking.keys, ranking.denominator)
        assert (built, hash(built), repr(built)) == (ranking, hash(ranking), repr(ranking))
        assert efficiency_curve(built, gold, schedule) == efficiency_curve(
            ranking, gold, schedule
        )
        assert f1_curve(preds, pool, built, gold, schedule, NEG) == f1_curve(
            preds, pool, ranking, gold, schedule, NEG
        )
        for other in ranked:
            assert jaccard_curve(built, other, schedule) == jaccard_curve(
                ranking, other, schedule
            )
            assert jaccard_curve(other, built, schedule) == jaccard_curve(
                other, ranking, schedule
            )


def _schedules(n):
    """Every budget from 0 to n, or a sparse drawn set of them: segments of
    one row, of several and (at B = 0) of none."""
    sparse = st.sets(st.integers(0, n), min_size=1).map(lambda budgets: tuple(sorted(budgets)))
    return (st.just(tuple(range(n + 1))) | sparse).map(BudgetSchedule)


@SETTINGS
@given(case=ranking_cases(), data=st.data())
def test_jaccard_and_efficiency_match_a_recount_from_prefix_sets(case, data):
    # rank's lists, hand-built copies of them and drawn orders of the pool
    hierarchy, pool, preds, gold, seed = case
    schedule = data.draw(_schedules(len(pool)))
    ranked = [rank(pool, preds, hierarchy, kind, seed=seed) for kind in StrategyKind]
    lists = [*ranked, *(RankedList(r.strategy, r.ids, r.keys, r.denominator) for r in ranked)]
    lists.append(ordered_ranking(data.draw(st.permutations(sorted(pool.ids())))))
    noisy = gold.noisy_ids
    for ranking in lists:
        expected = tuple(Fraction(len(noisy & set(ranking.top(b))), len(noisy)) for b in schedule)
        assert efficiency_curve(ranking, gold, schedule).values() == expected
        for other in lists:
            prefixes = [(set(ranking.top(b)), set(other.top(b))) for b in schedule]
            expected = tuple(
                Fraction(len(one & two), len(one | two)) if one | two else Fraction(1)
                for one, two in prefixes
            )
            assert jaccard_curve(ranking, other, schedule).values() == expected


@SETTINGS
@given(case=relabel_cases(), drop=st.booleans(), data=st.data())
def test_f1_curve_with_no_changed_label_is_flat_and_matches_recount(case, drop, data):
    # gold repeats pool labels, and with drop off also eliminates: nothing changes
    pool, preds, _, ranking, budgets = case
    ids = sorted(pool.ids())
    relabels = {iid: pool.label_of(iid) for iid in data.draw(st.sets(st.sampled_from(ids)))}
    if not drop:
        relabels.update(dict.fromkeys(data.draw(st.sets(st.sampled_from(ids))), None))
    gold = make_gold(pool, relabels)
    schedule = BudgetSchedule(tuple(sorted(budgets)))
    series = f1_curve(preds, pool, ranking, gold, schedule, NEG, drop_eliminated=drop)
    labels = {inst.id: inst.label for inst in pool}
    for m in preds.model_ids:
        pred_map = {rec.instance_id: rec.label for rec in preds.records_for_model(m)}
        expected = oracle_micro_f1(pred_map, labels, NEG)
        for s in series:
            if s.series == m:
                metric = ("precision", "recall", "f1").index(s.metric)
                assert s.values() == (expected[metric],) * len(schedule)


# -- exact confidence keys ----------------------------------------------------

# 0.0 and -0.0 leave the shift alone, 1.0 is the largest confidence, and the
# rest (a subnormal, the smallest normal, 1e-300) need a shift past 1023
EDGE_CONFIDENCES = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300]
SUBNORMALS = st.floats(min_value=5e-324, max_value=2.2250738585072014e-308, exclude_max=True)


@st.composite
def confidence_cases(draw):
    """A pool labeled A or B and K models predicting A, B or C with edge confidences."""
    spread = draw(st.booleans())  # one column holds both 1.0 and a subnormal
    n, k = draw(st.integers(2 if spread else 1, 8)), draw(st.integers(1, 4))
    pool_labels = {f"e{i}": draw(st.sampled_from("AB")) for i in range(n)}
    confidence = st.floats(0, 1) | st.sampled_from(EDGE_CONFIDENCES)
    columns = [
        {iid: (draw(st.sampled_from("ABC")), draw(confidence)) for iid in pool_labels}
        for _ in range(k)
    ]
    if spread:  # C never equals a dataset label, so both values count in their means
        column = columns[draw(st.integers(0, k - 1))]
        top, tiny = draw(st.permutations(sorted(pool_labels)))[:2]
        column[top], column[tiny] = ("C", 1.0), ("C", draw(SUBNORMALS))
    pool = make_pool(pool_labels)
    return pool, make_predictions(pool, {f"m{j}": c for j, c in enumerate(columns)})


@SETTINGS
@given(case=confidence_cases())
def test_confidence_keys_are_exact_means(case):
    pool, preds = case
    ranking = rank(pool, preds, None, StrategyKind.CONFIDENCE)
    for iid, key in zip(ranking.ids, ranking.keys):
        instance = pool.get(iid)
        found = preds.for_instance(iid)
        disagreeing = [Fraction(rec.confidence) for rec in found if rec.label != instance.label]
        mean = sum(disagreeing) / len(disagreeing) if disagreeing else Fraction(0)
        assert Fraction(key, ranking.denominator) == mean == confidence_score(instance, preds)


# -- CLI fuzz -----------------------------------------------------------------

COMMANDS = ["validate", "rank", "sweep", "f1curve", "synth"]
STRATEGY_NAMES = [kind.value for kind in StrategyKind]
HOSTILE = ["nan", "-1", "", str(10**30)]
# synth sizes and shapes are small or fail fast, so no draw starts unbounded work
SMALL_OR_FAILING = ["0", "-3", "nan", ""]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A tiny synth bundle with an identity label map, and a parent for one dir per run."""
    data = tmp_path_factory.mktemp("bundle")
    argv = ["synth", "--out", str(data), "--seed", "2", "--pool-size", "12", "--models", "2"]
    assert cli_main(argv) == 0
    labels = load_pool(data / "pool.jsonl").labels()
    (data / "label_map.json").write_text(json.dumps({label: label for label in labels}))
    return data, tmp_path_factory.mktemp("runs")


def _cli_grammar(command, data, run):
    """(flag, valid values, hostile values, required, most repeats) for each flag of a command."""
    files = [str(path) for path in sorted(data.iterdir())]
    directory = str(data)

    def input_file(flag, *names, most=1):
        valid = [str(data / name) for name in names]
        wrong = [path for path in files if path not in valid]
        required = flag in ("--hierarchy", "--dataset")
        return flag, valid, [*HOSTILE, directory, *wrong], required, most

    out = ("--out", [str(run / "out"), str(run)], [*HOSTILE, files[0], str(Path(files[0], "x"))],
           True, 1)
    if command == "synth":
        rate = (["0", "0.3", "1"], [*HOSTILE, "inf", "1e308", directory], False, 1)
        shape = (["1", "2", "3"], [*SMALL_OR_FAILING, directory], False, 1)
        return [
            out,
            ("--seed", ["0", "5"], [*HOSTILE, directory], False, 1),
            ("--pool-size", ["1", "12", "50"], [*SMALL_OR_FAILING, directory], False, 1),
            ("--models", ["1", "3", "50"], [*SMALL_OR_FAILING, directory], False, 1),
            *((name, *rate) for name in ("--noise-rate", "--eliminate-rate", "--flip-rate")),
            *((name, *shape) for name in ("--groups", "--subgroups", "--labels")),
        ]
    grammar = [
        input_file("--hierarchy", "hierarchy.json"),
        input_file("--dataset", "pool.jsonl"),
        input_file("--predictions", "predictions_m1.jsonl", "predictions_m2.jsonl", most=2),
        input_file("--gold", "gold.jsonl"),
        input_file("--label-map", "label_map.json"),
        ("--format", ["jsonl"], ["tacred", *HOSTILE], False, 1),
        out,
        ("--strategy", STRATEGY_NAMES, HOSTILE, False, 3),
        ("--seed", ["0", "7"], [*HOSTILE, directory], False, 1),
        ("--budgets", ["0,5,12", "stride:4", "12"], ["0,99", "stride:0", "stride:x", *HOSTILE],
         False, 1),
        ("--negative-label", [NEG, "g0s0x0"], [*HOSTILE, directory], False, 1),
        ("--reference-strategy", STRATEGY_NAMES, HOSTILE, False, 1),
    ]
    # each command gets only the flags its own subparser has
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    parsed = {flag for action in subparsers[command]._actions for flag in action.option_strings}
    return [entry for entry in grammar if entry[0] in parsed]


def _cli_argv(draw, data, run):
    """A command line in which at most two flags are left out or given a hostile value."""
    command = draw(st.sampled_from(COMMANDS))
    grammar = _cli_grammar(command, data, run)
    broken = draw(st.sets(st.sampled_from([flag for flag, *_ in grammar]), max_size=2))
    argv = [command]
    for flag, valid, hostile, required, most in grammar:
        if flag in broken:
            repeats, values = draw(st.integers(0, 1)), hostile
        else:
            repeats = draw(st.integers(1 if required else 0, most))
            values = valid
        for _ in range(repeats):
            argv += [flag, draw(st.sampled_from(values))]
    if command == "f1curve" and draw(st.booleans()):
        argv.append("--keep-eliminated")
    return command, argv


@SETTINGS
@given(data=st.data())
def test_cli_fuzz(cli_inputs, data):
    # each command line exits 0, 1 or 2 with at most one error line, and a manifest only on 0
    bundle, runs = cli_inputs
    run = Path(tempfile.mkdtemp(dir=runs))
    command, argv = _cli_argv(data.draw, bundle, run)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run)  # relative --out values ("", "nan") land in this run's dir
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
    manifests = list(run.rglob("manifest.json"))
    assert len(manifests) == (code == 0 and command != "validate"), (argv, code, manifests)
