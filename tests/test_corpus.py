import ast
import builtins
import gc
import io
import json
import os
import random
import threading
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    against_reference,
    loader_outcome,
    make_gold,
    make_pool,
    make_predictions,
    reference_gold,
    reference_pool,
    reference_predictions,
)
from reannotate import (
    ELIMINATED,
    GoldRecord,
    GoldSet,
    Instance,
    ParseError,
    PredictionRecord,
    PredictionSet,
    ReannotationPool,
    ValidationError,
    apply_label_map,
    load_gold,
    load_label_map,
    load_pool,
    load_predictions,
    validate_bundle,
    write_gold,
    write_pool,
    write_predictions,
)
from reannotate import corpus
from reannotate.cli import main
from reannotate.synth import balanced_hierarchy, synth_corpus


def jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


# -- pool --------------------------------------------------------------------


def test_load_pool_jsonl(tmp_path):
    path = jsonl(
        tmp_path / "pool.jsonl",
        [
            {"id": "e1", "relation": "a", "partition": "dev", "text": "hello", "subj_type": "PER"},
            {"id": "e2", "relation": "b"},
        ],
    )
    pool = load_pool(path)
    assert len(pool) == 2
    assert pool.label_of("e1") == "a"
    inst = pool.get("e1")
    assert inst.partition == "dev"
    assert inst.metadata == {"text": "hello", "subj_type": "PER"}
    assert pool.get("e2").partition is None


def test_load_pool_duplicate_id(tmp_path):
    path = jsonl(
        tmp_path / "p.jsonl",
        [{"id": "e1", "relation": "a"}, {"id": "e1", "relation": "b"}],
    )
    with pytest.raises(ValidationError, match="duplicate instance id"):
        load_pool(path)


def test_load_pool_missing_label(tmp_path):
    path = jsonl(tmp_path / "p.jsonl", [{"id": "e1"}])
    with pytest.raises(ParseError, match="relation"):
        load_pool(path)


def test_load_pool_missing_id(tmp_path):
    path = jsonl(tmp_path / "p.jsonl", [{"relation": "a"}])
    with pytest.raises(ParseError, match="id"):
        load_pool(path)


def test_load_pool_bad_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "e1", "relation": "a"}\nnot json\n')
    with pytest.raises(ParseError, match=":2"):
        load_pool(path)


def test_load_pool_non_object_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="not an object"):
        load_pool(path)


def test_load_pool_blank_lines_skipped(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "e1", "relation": "a"}\n\n{"id": "e2", "relation": "b"}\n')
    assert len(load_pool(path)) == 2


def test_load_pool_bad_partition(tmp_path):
    path = jsonl(tmp_path / "p.jsonl", [{"id": "e1", "relation": "a", "partition": "val"}])
    with pytest.raises(ValidationError, match="partition"):
        load_pool(path)


def test_load_pool_tacred_format(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([
        {"id": "e1", "relation": "a", "token": ["x"], "stanford_pos": ["NN"]},
        {"id": "e2", "relation": "b"},
    ]))
    pool = load_pool(path, format="tacred")
    assert len(pool) == 2
    assert pool.get("e1").metadata["token"] == ["x"]


def test_load_pool_tacred_not_array(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({"id": "e1"}))
    with pytest.raises(ParseError, match="array"):
        load_pool(path, format="tacred")


def test_load_pool_unknown_format(tmp_path):
    path = jsonl(tmp_path / "p.jsonl", [{"id": "e1", "relation": "a"}])
    with pytest.raises(ValidationError, match="format"):
        load_pool(path, format="csv")


def test_empty_pool_rejected():
    with pytest.raises(ValidationError, match="empty"):
        ReannotationPool([])


@pytest.mark.parametrize("label", ["", None])  # a label that is no str is not interned
def test_empty_label_rejected(label):
    with pytest.raises(ValidationError, match="^instance 'e1' has an empty label$"):
        ReannotationPool([Instance("e1", label)])


def test_pool_round_trip(tmp_path):
    pool = ReannotationPool([
        Instance("e1", "a", partition="test", metadata={"text": "x", "n": 3}),
        Instance("e2", "b"),
    ])
    target = tmp_path / "out.jsonl"
    write_pool(pool, target)
    assert load_pool(target) == pool


# -- predictions ---------------------------------------------------------


@pytest.fixture
def pool3():
    return make_pool({"e1": "a", "e2": "b", "e3": "a"})


def test_load_predictions_two_models(tmp_path, pool3):
    paths = []
    for model in ("m1", "m2"):
        paths.append(jsonl(
            tmp_path / f"{model}.jsonl",
            [{"model": model, "id": i, "label": "a", "confidence": 0.5} for i in ("e1", "e2", "e3")],
        ))
    preds = load_predictions(paths, pool3)
    assert preds.k == 2
    assert preds.model_ids == ("m1", "m2")
    assert preds.record("m1", "e2").label == "a"
    assert [r.model_id for r in preds.for_instance("e1")] == ["m1", "m2"]


def test_predictions_confidence_out_of_range(pool3):
    with pytest.raises(ValidationError, match="confidence"):
        PredictionSet(
            [PredictionRecord("m1", i, "a", c) for i, c in (("e1", 1.3), ("e2", 0.5), ("e3", 0.5))],
            pool3,
        )


def test_predictions_unknown_instance(pool3):
    with pytest.raises(ValidationError, match="unknown instance"):
        PredictionSet([PredictionRecord("m1", "ghost", "a", 0.5)], pool3)


@pytest.mark.parametrize("build", [load_predictions, PredictionSet])
def test_predictions_from_no_source_are_rejected(pool3, build):
    with pytest.raises(ValidationError, match="^no prediction records$"):
        build([], pool3)


def test_predictions_incomplete(pool3):
    records = [PredictionRecord("m1", i, "a", 0.5) for i in ("e1", "e3")]
    with pytest.raises(ValidationError, match="incomplete"):
        PredictionSet(records, pool3)


def test_predictions_incomplete_reports_count_and_first_gap(pool3):
    records = [PredictionRecord("m1", i, "a", 0.5) for i in ("e1", "e2", "e3")]
    records += [PredictionRecord("m2", "e3", "a", 0.5)]
    with pytest.raises(ValidationError) as info:
        PredictionSet(records, pool3)
    assert str(info.value) == (
        "incomplete predictions: 2 missing (model, instance) pairs, first ('m2', 'e1')"
    )


def test_predictions_duplicate_pair(pool3):
    records = [PredictionRecord("m1", "e1", "a", 0.5)] * 2
    with pytest.raises(ValidationError, match="duplicate prediction"):
        PredictionSet(records, pool3)


def test_predictions_file_mixing_models(tmp_path, pool3):
    path = jsonl(
        tmp_path / "mixed.jsonl",
        [
            {"model": "m1", "id": "e1", "label": "a", "confidence": 0.5},
            {"model": "m2", "id": "e2", "label": "a", "confidence": 0.5},
        ],
    )
    with pytest.raises(ValidationError, match="mixes model ids"):
        load_predictions([path], pool3)


def test_predictions_non_numeric_confidence(tmp_path, pool3):
    path = jsonl(
        tmp_path / "m.jsonl",
        [{"model": "m1", "id": "e1", "label": "a", "confidence": "high"}],
    )
    with pytest.raises(ParseError, match="confidence"):
        load_predictions([path], pool3)


def test_predictions_round_trip(tmp_path, pool3):
    preds = make_predictions(
        pool3,
        {"m1": {"e1": ("a", 0.25), "e2": ("b", 1.0), "e3": ("a", 0.0)}},
    )
    target = tmp_path / "m1.jsonl"
    write_predictions(preds, "m1", target)
    again = load_predictions([target], pool3)
    assert [again.record("m1", i) for i in ("e1", "e2", "e3")] == [
        preds.record("m1", i) for i in ("e1", "e2", "e3")
    ]


# -- gold ---------------------------------------------------------------


def test_gold_all_clean(pool3):
    gold = make_gold(pool3, {"e1": "a", "e2": "b"})
    assert gold.noisy_ids == frozenset()


def test_gold_flip_is_noisy(pool3):
    gold = make_gold(pool3, {"e1": "b"})
    assert gold.noisy_ids == frozenset({"e1"})


def test_gold_eliminated_is_noisy(pool3):
    gold = make_gold(pool3, {"e2": None})
    assert gold.noisy_ids == frozenset({"e2"})
    assert gold.get("e2").is_eliminated
    assert gold.get("e1") is None


def test_gold_unknown_instance(pool3):
    with pytest.raises(ValidationError, match="unknown instance"):
        make_gold(pool3, {"ghost": "a"})


def test_gold_duplicate_record(pool3):
    with pytest.raises(ValidationError, match="duplicate gold"):
        GoldSet([GoldRecord("e1", "b"), GoldRecord("e1", "a")], pool3)


@pytest.mark.parametrize("value", ["", None])  # a None gold value is neither a label nor ELIMINATED
def test_gold_empty_label(pool3, value):
    with pytest.raises(ValidationError, match="^empty gold label for 'e1'$"):
        GoldSet([GoldRecord("e1", value)], pool3)


def test_load_gold_file(tmp_path, pool3):
    path = jsonl(tmp_path / "gold.jsonl", [{"id": "e1", "gold": "b"}, {"id": "e2", "gold": None}])
    gold = load_gold(path, pool3)
    assert gold.noisy_ids == frozenset({"e1", "e2"})
    # recomputing from the same file is idempotent
    assert load_gold(path, pool3).noisy_ids == gold.noisy_ids


def test_load_gold_missing_field(tmp_path, pool3):
    path = jsonl(tmp_path / "gold.jsonl", [{"id": "e1"}])
    with pytest.raises(ParseError, match="gold"):
        load_gold(path, pool3)


def test_load_gold_bad_type(tmp_path, pool3):
    path = jsonl(tmp_path / "gold.jsonl", [{"id": "e1", "gold": 4}])
    with pytest.raises(ParseError, match="string or null"):
        load_gold(path, pool3)


def test_gold_round_trip(tmp_path, pool3):
    gold = make_gold(pool3, {"e1": "b", "e3": None})
    target = tmp_path / "gold.jsonl"
    write_gold(gold, target)
    again = load_gold(target, pool3)
    assert again.noisy_ids == gold.noisy_ids
    assert again.records() == gold.records()


def test_eliminated_repr():
    assert repr(ELIMINATED) == "ELIMINATED"


# -- label map -----------------------------------------------------------


def test_apply_label_map_identity(pool3):
    mapped = apply_label_map(pool3, {"a": "a", "b": "b"})
    assert mapped == pool3


def test_apply_label_map_rename():
    pool = make_pool({"e1": "a"})
    mapped = apply_label_map(pool, {"a": "a2"})
    assert mapped.label_of("e1") == "a2"
    assert mapped.get("e1").id == "e1"


def test_apply_label_map_missing_entry(pool3):
    with pytest.raises(ValidationError, match="no entry for: b"):
        apply_label_map(pool3, {"a": "a"})


def test_apply_label_map_preserves_metadata():
    pool = ReannotationPool([Instance("e1", "a", partition="dev", metadata={"x": 1})])
    mapped = apply_label_map(pool, {"a": "c"})
    assert mapped.get("e1").metadata == {"x": 1}
    assert mapped.get("e1").partition == "dev"


def test_load_label_map(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"a": "a2", "b": "b"}))
    assert load_label_map(path) == {"a": "a2", "b": "b"}


def test_load_label_map_bad_value(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"a": 3}))
    with pytest.raises(ParseError):
        load_label_map(path)


def test_load_label_map_not_object(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(["a"]))
    with pytest.raises(ParseError, match="object"):
        load_label_map(path)


# -- bundle validation ----------------------------------------------------


def test_validate_bundle_clean(excerpt):
    pool = make_pool({"e1": "per:parent", "e2": "no_relation"})
    preds = make_predictions(pool, {"m1": {"e1": "per:age", "e2": "no_relation"}})
    gold = make_gold(pool, {"e1": "per:family"})
    assert validate_bundle(excerpt, pool, preds, gold) == []


def test_validate_bundle_reports_each_source(excerpt):
    pool = make_pool({"e1": "mystery"})
    preds = make_predictions(pool, {"m1": {"e1": "weird"}})
    gold = make_gold(pool, {"e1": "odd"})
    problems = validate_bundle(excerpt, pool, preds, gold, {"x": "ghost"})
    text = "\n".join(problems)
    for label in ("mystery", "weird", "odd", "ghost"):
        assert label in text
    assert len(problems) == 4


def test_load_pool_non_utf8_is_parse_error(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_bytes(b'\xff\xfe{"id": "e1"}\n')
    with pytest.raises(ParseError, match="UTF-8"):
        load_pool(path)


def test_predictions_lookup_errors(pool3):
    preds = make_predictions(pool3, {"m1": {"e1": "a", "e2": "a", "e3": "a"}})
    with pytest.raises(ValidationError, match="no predictions"):
        preds.for_instance("ghost")
    with pytest.raises(ValidationError, match="unknown model"):
        preds.records_for_model("m9")
    with pytest.raises(ValidationError, match="unknown model 'm9'"):
        preds.record("m9", "e1")
    with pytest.raises(ValidationError, match="no predictions for instance 'ghost'"):
        preds.record("m1", "ghost")


def test_loaded_predictions_hold_few_tracked_objects(tmp_path):
    # one label and one confidence column per model, not one object per record
    bundle = synth_corpus(balanced_hierarchy(), random.Random(5), size=2000, models=5)
    paths = []
    for model in bundle.predictions.model_ids:
        paths.append(tmp_path / f"{model}.jsonl")
        write_predictions(bundle.predictions, model, paths[-1])
    gc.collect()
    before = len(gc.get_objects())
    preds = load_predictions(paths, bundle.pool)
    gc.collect()
    assert len(gc.get_objects()) - before < len(bundle.pool)
    assert preds.k == 5


def test_loading_predictions_peaks_under_twice_what_the_set_keeps(tmp_path):
    # records stream from each file into the columns; no N x K record list sits beside them
    assert main(["synth", "--out", str(tmp_path), "--seed", "7", "--pool-size", "2000"]) == 0
    pool = load_pool(tmp_path / "pool.jsonl")
    paths = sorted(tmp_path.glob("predictions_*.jsonl"))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        preds = load_predictions(paths, pool)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.k == 5
    assert peak - base < 2 * (kept - base)


def test_loaders_keep_unicode_line_breaks_inside_strings(tmp_path):
    # str.splitlines() also breaks at these; json.dumps(ensure_ascii=False) writes them raw
    breaks = ["\u2028", "\u2029", "\x85"]
    ids = [f"e{c}{i}" for i, c in enumerate(breaks)]

    def write(name, records):
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path / name

    pool = load_pool(write("pool.jsonl", [
        {"id": iid, "relation": "a", "text": f"x{c}y"} for iid, c in zip(ids, breaks)
    ]))
    assert pool.ids() == tuple(ids)
    assert [inst.metadata for inst in pool] == [{"text": f"x{c}y"} for c in breaks]
    preds = load_predictions([write("m.jsonl", [
        {"model": "m", "id": iid, "label": f"b{c}", "confidence": 0.5}
        for iid, c in zip(ids, breaks)
    ])], pool)
    assert [rec.label for rec in preds.records_for_model("m")] == [f"b{c}" for c in breaks]
    gold = load_gold(write("gold.jsonl", [
        {"id": iid, "gold": f"g{c}"} for iid, c in zip(ids, breaks)
    ]), pool)
    assert [(rec.instance_id, rec.gold) for rec in gold.records()] == [
        (iid, f"g{c}") for iid, c in zip(ids, breaks)
    ]


@pytest.mark.parametrize("padded", [
    '  {"id": "e1", "relation": "a"}',
    '{"id": "e1", "relation": "a"}   ',
    '\t{"id": "e1", "relation": "a"}\t',
])
def test_load_pool_padded_lines(tmp_path, padded):
    path = tmp_path / "p.jsonl"
    path.write_text(padded + "\n \t \n" + '{"id": "e2", "relation": "b"}\n')
    pool = load_pool(path)
    assert pool.ids() == ("e1", "e2")
    assert pool.label_of("e1") == "a"


@pytest.mark.parametrize("line, message", [
    ("{} {}", "Extra data"),
    ("[" * 200000, "invalid JSON"),
    ('{"id": ' + "7" * 5000 + "}", "invalid JSON"),
])
def test_load_pool_bad_json_line_names_path_and_line(tmp_path, line, message):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "e1", "relation": "a"}\n\n' + line + "\n")
    with pytest.raises(ParseError, match=message) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:3: invalid JSON: ")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_jsonl_line_numbers_hold_for_crlf_and_cr(tmp_path, newline):
    # only "\n" ends a record, and reading turns "\r\n" and "\r" into it first
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "e1", "relation": "a"}\n\n{bad\n', newline=newline)
    with pytest.raises(ParseError) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:3: invalid JSON: ")


# -- bulk parse of flat files ------------------------------------------------

# A bulk parse of "[" + ",".join(lines) + "]" reads each of these without
# error, but not as one record a line; the per-line path rejects line 1. Each
# line ends in "\n", as a file's lines do, which the gate's "\n,{" count reads.
TRAPS = [
    ['{"a": [{"b": 1}', '{"c": 2}]}', "{}, {}"],  # every line starts with "{"
    ['{"a":1', '"b":2}', '{"c":1}, {"d":2}'],
    [
        '{"id": "e1", "relation": "a", "x": [{"b": 1}',
        '{"c": 2}]}',
        '{"id": "e2", "relation": "a"}, {"id": "e3", "relation": "a"}',
    ],
    [
        '{"id": "e1"',
        '"relation": "a"}',
        '{"id": "e2", "relation": "a"}, {"id": "e3", "relation": "a"}',
    ],
    ['{"a":1}, {"b":2', '"c": {"d": 3}}', '{"e":1}'],  # nested objects without "["
    ['{"id": "}"', '"relation": "{"}'],  # one brace of each kind a line, but one record
    # two of each brace over two lines, but line 2 holds no "{" (or line 1 no "}")
    ['{"x":1}, {"a": 1', '"b": 2}'],
    ['{"a": 1', '"b": 2}, {"x":1}'],
    # each line ends with "}", but each kind of brace is twice the lines
    ['{"a": {"b": 1}', '"c": 2}, {"d": {}}'],
    # ... or as many as the lines, but in two records
    ['{"x": {"y": 1}', '"z": 2}', '{"w": 3}'],
    # every line starts with "{" and the chunk holds no "[", but three records in two lines
    ['{"id": "e1", "relation": "a"}, {"id": "e2", "relation": "a"}', '{"id": "e3"}'],
]


@pytest.mark.parametrize("lines", TRAPS)
def test_bulk_parse_refuses_records_that_are_not_one_per_line(tmp_path, lines):
    lines = [line + "\n" for line in lines]
    path = tmp_path / "p.jsonl"
    path.write_text("".join(lines))
    assert corpus._flat(lines) is None
    with pytest.raises(ParseError) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:1: invalid JSON: ")


def test_an_object_nested_too_deep_for_the_decoder_is_refused_on_its_line(tmp_path):
    # every line starts with "{" and the chunk holds no "[", so the bulk parse meets it
    path = tmp_path / "p.jsonl"
    deep = '{"a": ' * 100_000 + "1" + "}" * 100_000
    path.write_text('{"id": "e1", "relation": "a"}\n' + deep + "\n")
    with pytest.raises(ParseError) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:2: invalid JSON: ")


def _flat_bundle(tmp_path, shuffled):
    """A pool, two complete predictions files and gold, all flat. The predictions
    and gold list their ids shuffled, or in pool order, whose chunks
    load_predictions places by slice."""
    ids = [f"e{i}" for i in range(600)]  # more than one bulk chunk
    pool = jsonl(tmp_path / "pool.jsonl", [
        {"id": iid, "relation": "ab"[i % 2], "partition": "TEST", **({"n": i} if i % 7 else {})}
        for i, iid in enumerate(ids)
    ])
    order = random.Random(3).sample(ids, len(ids)) if shuffled else ids
    predictions = [
        jsonl(tmp_path / f"{model}.jsonl", [
            {"model": model, "id": iid, "label": "ba"[i % 2], "confidence": i / 600}
            for i, iid in enumerate(order)
        ])
        for model in ("m1", "m2")
    ]
    gold = jsonl(tmp_path / "gold.jsonl", [
        {"id": iid, "gold": None if i % 5 else "b"} for i, iid in enumerate(order[:300])
    ])
    return pool, predictions, gold


@pytest.fixture(params=["shuffled", "pool-order"])
def flat_bundle(request, tmp_path):
    """_flat_bundle's paths, once for each order of the predictions and gold."""
    return _flat_bundle(tmp_path, shuffled=request.param == "shuffled")


def test_complete_flat_files_take_the_bulk_path(flat_bundle, monkeypatch):
    pool_path, prediction_paths, gold_path = flat_bundle
    pool = load_pool(pool_path)

    def refuse(obj, fields, where):
        raise AssertionError(f"{where} was checked record by record")

    def flat(chunk):
        records = real_flat(chunk)
        assert records is not None, "a flat chunk was decoded line by line"
        parsed.extend(records)
        return records

    real_flat = corpus._flat
    parsed = []
    monkeypatch.setattr(corpus, "_checked", refuse)
    monkeypatch.setattr(corpus, "_flat", flat)
    outcomes = [
        against_reference(load_pool, reference_pool, pool_path),
        against_reference(load_predictions, reference_predictions, prediction_paths, pool),
        against_reference(load_gold, reference_gold, gold_path, pool),
    ]
    for actual, expected in outcomes:
        assert isinstance(expected, str)  # accepted
        assert actual == expected
    assert len(parsed) == 600 + 2 * 600 + 300  # every record came from the flat parse


# Defects at the edges of the 256-line chunks: the last row of the first chunk,
# the first of the second and the last of the file (gold holds 300 rows).
CHUNK_EDGES = [
    *(
        (kind, row, key, value)
        for row in (255, 256, 599)
        for kind, key, value in [
            ("pool", "id", "repeat"),
            ("predictions", "id", "repeat"),
            ("predictions", "id", "ghost"),
            ("predictions", "confidence", 1.5),
            ("predictions", "confidence", 1),
        ]
    ),
    *(
        ("gold", row, key, value)
        for row in (255, 256, 299)
        for key, value in [("id", "repeat"), ("id", "ghost"), ("gold", "")]
    ),
]


def test_reference_loaders_name_nothing_private_of_corpus():
    # a reference that shared the loaders' checks could not catch a defect in them
    private = {
        name for name in vars(corpus) if name.startswith("_") and not name.startswith("__")
    }
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)  # getattr(corpus, "_flat")
    assert {"_checked", "_flat", "_columns", "_jsonl_chunks", "_place_gold"} <= private
    assert named & private == set()


def _against_reference(kind, path, pool_path, prediction_paths):
    """load_* on the edited `path` of a _flat_bundle and the reference loader, as
    helpers.against_reference gives them."""
    if kind == "pool":
        return against_reference(load_pool, reference_pool, path)
    pool = load_pool(pool_path)
    if kind == "gold":
        return against_reference(load_gold, reference_gold, path, pool)
    return against_reference(load_predictions, reference_predictions, prediction_paths, pool)


# One defect on an otherwise flat, complete file. load_* answers as the reference
# loader does, and where that raises, the bulk path only gives up.
@pytest.mark.parametrize("kind, row, key, value", [
    ("pool", 5, "id", "repeat"),
    ("pool", 5, "id", ""),
    ("pool", 5, "id", 7),
    ("pool", 5, "relation", ""),
    ("pool", 5, "partition", "val"),
    ("pool", 5, "partition", 3),
    ("pool", 5, "relation", None),
    ("pool", 5, "x", [1]),
    ("predictions", 5, "confidence", 1),
    ("predictions", 5, "confidence", True),
    ("predictions", 5, "confidence", float("nan")),
    ("predictions", 5, "confidence", float("inf")),
    ("predictions", 5, "confidence", 1.5),
    ("predictions", 5, "confidence", None),
    ("predictions", 5, "id", "ghost"),
    ("predictions", 5, "id", "repeat"),
    ("predictions", 5, "model", "m1"),
    ("predictions", 0, "model", "m1"),
    ("predictions", 5, "label", 3),
    ("predictions", 5, None, None),
    ("gold", 5, "id", "ghost"),
    ("gold", 5, "id", "repeat"),
    ("gold", 5, "gold", ""),
    ("gold", 5, "gold", 3),
    ("gold", 5, None, None),
    *CHUNK_EDGES,
    # unhashable values, which the column checks must refuse before any set or dict sees them
    *(
        (kind, 5, key, value)
        for kind, key in [("predictions", "model"), ("predictions", "id"), ("pool", "id"),
                          ("gold", "id")]
        for value in (["m2"], {"x": 1}, [1])
    ),
])
def test_bulk_path_leaves_each_defect_to_the_per_line_path(flat_bundle, kind, row, key, value):
    pool_path, prediction_paths, gold_path = flat_bundle
    path = {"pool": pool_path, "predictions": prediction_paths[1], "gold": gold_path}[kind]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    if key is None:  # drop the record
        del records[row]
    else:
        records[row][key] = records[0][key] if value == "repeat" else value
    jsonl(path, records)
    actual, expected = _against_reference(kind, path, pool_path, prediction_paths)
    assert actual == expected


# The same defects with an invalid JSON line three rows below. Its chunk is
# decoded line by line, and a defect above it still decides, except in the
# pool, whose ids and labels are checked once every line is read.
@pytest.mark.parametrize("kind, row, key, value", CHUNK_EDGES)
def test_a_defect_decides_before_an_invalid_line_below_it(flat_bundle, kind, row, key, value):
    pool_path, prediction_paths, gold_path = flat_bundle
    path = {"pool": pool_path, "predictions": prediction_paths[1], "gold": gold_path}[kind]
    lines = path.read_text().splitlines()
    record = json.loads(lines[row])
    record[key] = json.loads(lines[0])[key] if value == "repeat" else value
    lines[row] = json.dumps(record)
    lines.insert(row + 3, "{bad")
    path.write_text("\n".join(lines) + "\n")
    actual, expected = _against_reference(kind, path, pool_path, prediction_paths)
    at_bad_line = (ParseError, (f"{path}:{lines.index('{bad') + 1}",))
    assert (expected == at_bad_line) == (kind == "pool" or value == 1)
    assert actual == expected


def _resend(row, of, n):
    """Edits that give rows row to row + n - 1 the ids of rows of to of + n - 1."""
    return {row + i: {"id": ("row", of + i)} for i in range(n)}


# Chunks of m2's file in pool order (rows 0-255, 256-511 and 512-599) that are no
# fresh run of pool rows, as {row: {key: value}} (("row", n) copies row n's
# value). A chunk that re-sends placed rows matches the pool by slice, so only
# the test that its slots are empty sends it record by record; a swap that keeps
# the chunk's first id in place shows only to a compare of every id.
NOT_A_FRESH_RUN = [
    _resend(256, 0, 256),  # the second chunk re-sends the first
    _resend(256, 100, 256),  # the first's last 156 rows, then 100 of its own
    _resend(512, 256, 88),  # the last chunk re-sends part of the second
    {**_resend(256, 0, 256), 400: {"id": "ghost"}},
    {300: {"id": ("row", 301)}, 301: {"id": ("row", 300)}},  # two ids swapped in a chunk
    {256: {"id": ("row", 511)}, 511: {"id": ("row", 256)}},  # its first and last
    {300: {"id": ("row", 301)}, 301: {"id": ("row", 300)}, 400: {"confidence": 2.0}},
    {300: {"id": ("row", 301)}, 301: {"id": ("row", 300)}, 400: {"id": ("row", 256)}},
]


@pytest.mark.parametrize("edits", NOT_A_FRESH_RUN)
def test_pool_order_chunks_that_are_no_fresh_run_load_as_the_reference(tmp_path, edits):
    pool_path, prediction_paths, _ = _flat_bundle(tmp_path, shuffled=False)
    path = prediction_paths[1]
    originals = [json.loads(line) for line in path.read_text().splitlines()]
    records = [dict(record) for record in originals]
    for row, changes in edits.items():
        for key, value in changes.items():
            records[row][key] = originals[value[1]][key] if isinstance(value, tuple) else value
    jsonl(path, records)
    actual, expected = _against_reference("predictions", path, pool_path, prediction_paths)
    assert actual == expected


# Read order, pinned by message rather than against the per-line loaders: the
# first defect in read order decides, whether its chunk (rows 0-255, 256-511,
# ...) took the column checks or was placed record by record. Each case: the
# kind, {row: {key: value}} (("row", n) copies row n's value, BAD_BYTE is
# written as an invalid UTF-8 byte), blank lines put before the file's records,
# and the error with {path}, {other} (the m1 file) and {ids[n]} (row n's id)
# filled in.
BAD_BYTE = "<0xff>"
NOT_UTF8 = (ParseError, "{path}: not valid UTF-8: invalid start byte")
READ_ORDER = [
    ("predictions", {300: {"id": "ghost"}, 400: {"confidence": "x"}}, 0,
     (ValidationError, "prediction for unknown instance 'ghost' (model 'm2')")),
    ("predictions", {300: {"confidence": "x"}, 400: {"id": "ghost"}}, 0,
     (ParseError, "{path}:301: field 'confidence' must be a number")),
    ("predictions", {300: {"id": ("row", 0)}}, 0,
     (ValidationError, "duplicate prediction for model 'm2', instance '{ids[0]}'")),
    # an int in row 3 sends the first chunk record by record; row 300 repeats row 3
    ("predictions", {3: {"confidence": 1}, 300: {"id": ("row", 3)}}, 0,
     (ValidationError, "duplicate prediction for model 'm2', instance '{ids[3]}'")),
    ("predictions", {300: {"confidence": float("nan")}, 310: {"id": "ghost"}}, 0,
     (ValidationError, "confidence nan out of [0, 1] (model 'm2', instance '{ids[300]}')")),
    ("predictions", {300: {"model": "m9"}, 301: {"id": "ghost"}}, 0,
     (ValidationError, "{path}: mixes model ids 'm2' and 'm9'; one predictions file per model")),
    ("predictions", {0: {"model": "m1"}}, 0,
     (ValidationError, "{path}: model 'm1' was already read from {other}")),
    # the first chunk holds no record, so the second one names the model
    ("predictions", {0: {"model": "m1"}}, 300,
     (ValidationError, "{path}: model 'm1' was already read from {other}")),
    ("predictions", {100: {"confidence": "x"}, 200: {"id": "ghost"}}, 300,
     (ParseError, "{path}:401: field 'confidence' must be a number")),
    ("predictions", {0: {"label": None}, 1: {"model": "m1"}}, 0,
     (ParseError, "{path}:1: missing field 'label'")),
    ("gold", {280: {"id": ("row", 0)}, 290: {"gold": ""}}, 0,
     (ValidationError, "duplicate gold record for '{ids[0]}'")),
    ("gold", {270: {"gold": ""}, 280: {"id": "ghost"}}, 0,
     (ValidationError, "empty gold label for '{ids[270]}'")),
    ("gold", {3: {"gold": 3}, 260: {"id": "ghost"}}, 0,
     (ParseError, "{path}:4: field 'gold' must be a string or null")),
    ("gold", {260: {"id": "ghost"}, 290: {"gold": 3}}, 0,
     (ValidationError, "gold record for unknown instance 'ghost'")),
    # the pool checks ids and labels once every line is read
    ("pool", {300: {"id": ("row", 0)}, 500: {"relation": 3}}, 0,
     (ParseError, "{path}:501: field 'relation' must be a string")),
    ("pool", {300: {"id": ("row", 0)}}, 0,
     (ValidationError, "duplicate instance id: 'e0'")),
    ("predictions", {300: {"confidence": True}}, 0,
     (ParseError, "{path}:301: field 'confidence' must be a number")),
    # An invalid byte anywhere in a file decides before any record defect of
    # the file, also one raised from a chunk read long before the byte: files
    # are decoded in 8 KiB blocks, and each such chunk below ends more than
    # 8 KiB above the byte (in the gold file a long label makes the gap). The
    # pool's repeated id is found once every line is read.
    ("predictions", {100: {"id": "ghost"}, 550: {"label": BAD_BYTE}}, 0, NOT_UTF8),
    ("predictions", {100: {"confidence": "x"}, 550: {"label": BAD_BYTE}}, 0, NOT_UTF8),
    ("predictions", {0: {"model": "m1"}, 550: {"label": BAD_BYTE}}, 0, NOT_UTF8),
    ("pool", {100: {"relation": 3}, 550: {"relation": BAD_BYTE}}, 0, NOT_UTF8),
    ("pool", {300: {"id": ("row", 0)}, 550: {"relation": BAD_BYTE}}, 0, NOT_UTF8),
    ("gold", {3: {"id": "ghost"}, 270: {"gold": "x" * 20_000}, 299: {"gold": BAD_BYTE}}, 0,
     NOT_UTF8),
    ("gold", {3: {"gold": 3}, 270: {"gold": "x" * 20_000}, 299: {"gold": BAD_BYTE}}, 0,
     NOT_UTF8),
]


@pytest.mark.parametrize("kind, edits, blank, error", READ_ORDER)
def test_the_first_defect_in_read_order_decides(flat_bundle, kind, edits, blank, error):
    pool_path, prediction_paths, gold_path = flat_bundle
    path = {"pool": pool_path, "predictions": prediction_paths[1], "gold": gold_path}[kind]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    ids = [record["id"] for record in records]
    for row, changes in edits.items():
        for key, value in changes.items():
            if value is None:
                del records[row][key]
            else:
                records[row][key] = records[value[1]][key] if isinstance(value, tuple) else value
    text = "\n" * blank + "".join(json.dumps(r) + "\n" for r in records)
    path.write_bytes(text.encode("utf-8").replace(BAD_BYTE.encode(), b"\xff"))
    pool = load_pool(pool_path) if kind != "pool" else None
    load, args = {
        "pool": (load_pool, [path]),
        "predictions": (load_predictions, [prediction_paths, pool]),
        "gold": (load_gold, [path, pool]),
    }[kind]
    kind_of_error, message = error
    assert loader_outcome(load, *args) == (
        kind_of_error, message.format(path=path, other=prediction_paths[0], ids=ids)
    )


def test_each_input_file_is_opened_once(tmp_path, flat_bundle, monkeypatch):
    pool_path, prediction_paths, _ = flat_bundle
    records = [json.loads(line) for line in prediction_paths[1].read_text().splitlines()]
    records[5]["id"] = "ghost"
    jsonl(prediction_paths[1], records)
    # token arrays, as in TACRED, keep the whole file from the flat parse
    tokens_path = jsonl(tmp_path / "tokens.jsonl", [
        {"id": f"e{i}", "relation": "a", "token": ["x", str(i)]} for i in range(600)
    ])
    pool = load_pool(pool_path)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    real_open = io.open
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    with pytest.raises(ValidationError, match="unknown instance 'ghost'"):
        load_predictions(prediction_paths, pool)
    assert len(load_pool(tokens_path)) == 600
    monkeypatch.undo()
    assert opened == [*map(str, prediction_paths), str(tokens_path)]


def _piped(path, data):
    """`path` made a named pipe, and a started thread that writes `data` into it
    once a reader opens it."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_loaders_read_named_pipes(tmp_path, flat_bundle):
    # each file is read in one pass that never seeks, so `--dataset <(cat pool.jsonl)` works
    pool_path, prediction_paths, gold_path = flat_bundle
    pool = load_pool(pool_path)
    expected = [
        loader_outcome(load_pool, pool_path),
        loader_outcome(load_predictions, prediction_paths, pool),
        loader_outcome(load_gold, gold_path, pool),
    ]
    pipes = tmp_path / "pipes"
    pipes.mkdir()
    piped = {path.name: pipes / path.name for path in [pool_path, *prediction_paths, gold_path]}
    writers = [_piped(piped[name], (tmp_path / name).read_bytes()) for name in piped]
    actual = [
        loader_outcome(load_pool, piped["pool.jsonl"]),
        loader_outcome(load_predictions, [piped["m1.jsonl"], piped["m2.jsonl"]], pool),
        loader_outcome(load_gold, piped["gold.jsonl"], pool),
    ]
    for writer in writers:
        writer.join(timeout=10)
    assert actual == expected
    assert not any(writer.is_alive() for writer in writers)


def _one_object_per_label(labels):
    labels = list(labels)
    return len({id(label) for label in labels}) == len(set(labels))


def test_equal_labels_share_one_object(tmp_path):
    # labels of more than one character: CPython keeps one object per 1-character str
    names = ["per:title", "org:founded_by", "no_relation"]
    ids = [f"e{i}" for i in range(600)]
    pool = load_pool(jsonl(tmp_path / "pool.jsonl", [
        {"id": iid, "relation": names[i % 3]} for i, iid in enumerate(ids)
    ]))
    assert _one_object_per_label(inst.label for inst in pool)
    assert load_pool(tmp_path / "pool.jsonl").label_of("e0") is pool.label_of("e0")  # across loads
    # "per:age" is no dataset label; in m2 an int confidence sends the first chunk
    # record by record
    predicted = [*names, "per:age"]
    paths = [
        jsonl(tmp_path / f"{model}.jsonl", [
            {"model": model, "id": iid, "label": predicted[(i + shift) % 4],
             "confidence": 1 if (model, i) == ("m2", 3) else 0.5}
            for i, iid in enumerate(ids)
        ])
        for shift, model in enumerate(["m1", "m2"])
    ]
    preds = load_predictions(paths, pool)
    assert preds.record("m2", "e3").confidence == 1.0
    assert _one_object_per_label([
        *(inst.label for inst in pool),
        *(rec.label for model in preds.model_ids for rec in preds.records_for_model(model)),
    ])
    gold = load_gold(jsonl(tmp_path / "gold.jsonl", [
        {"id": iid, "gold": None if i % 5 == 0 else predicted[i % 4]}
        for i, iid in enumerate(ids)
    ]), pool)
    assert _one_object_per_label([
        *(inst.label for inst in pool),
        *(rec.gold for rec in gold.records() if not rec.is_eliminated),
    ])
    # two keys whose images are equal but distinct objects
    mapping = json.loads('{"per:title": "per:other", "org:founded_by": "per:other", '
                         '"no_relation": "no_relation"}')
    assert mapping["per:title"] is not mapping["org:founded_by"]
    mapped = apply_label_map(pool, mapping)
    assert mapped.labels() == {"per:other", "no_relation"}
    assert _one_object_per_label(inst.label for inst in mapped)
    built = ReannotationPool(
        Instance(iid, "".join(["per:", "title"])) for iid in ids
    )
    assert _one_object_per_label(inst.label for inst in built)


def test_pool_rejects_metadata_that_names_a_pool_field(tmp_path):
    # write_pool would write the extra over the field: e1 as id e2, a as label zzz
    for key in ("id", "relation", "partition"):
        with pytest.raises(ValidationError, match=f"instance 'e1' has pool field '{key}'"):
            ReannotationPool([Instance("e1", "a", metadata={key: "zzz"})])
    pool = ReannotationPool([Instance("e1", "a", "dev", metadata={"ids": "e2", "text": "t"})])
    write_pool(pool, tmp_path / "p.jsonl")
    assert load_pool(tmp_path / "p.jsonl") == pool
