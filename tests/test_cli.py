import csv
import json
import random

import pytest

from helpers import make_gold, make_pool, make_predictions
from reannotate import micro_f1, write_gold, write_pool, write_predictions
from reannotate.cli import _build_parser, main
from reannotate.hierarchy import dump_hierarchy
from reannotate.synth import balanced_hierarchy, synth_corpus

NEG = "no_relation"


def write_bundle(tmp_path, hierarchy, pool, predictions=None, gold=None):
    """Write a bundle to disk; returns the common CLI flags."""
    dump_hierarchy(hierarchy, tmp_path / "hierarchy.json")
    write_pool(pool, tmp_path / "pool.jsonl")
    flags = [
        "--hierarchy", str(tmp_path / "hierarchy.json"),
        "--dataset", str(tmp_path / "pool.jsonl"),
    ]
    if predictions is not None:
        for m in predictions.model_ids:
            path = tmp_path / f"preds_{m}.jsonl"
            write_predictions(predictions, m, path)
            flags += ["--predictions", str(path)]
    if gold is not None:
        write_gold(gold, tmp_path / "gold.jsonl")
        flags += ["--gold", str(tmp_path / "gold.jsonl")]
    return flags


@pytest.fixture
def worked_bundle(tmp_path, excerpt):
    pool = make_pool({"s1": "per:parent", "s2": "per:parent", "s3": "per:parent"})
    preds = make_predictions(
        pool,
        {
            "m1": {"s1": ("per:age", 0.9), "s2": ("per:parent", 0.8), "s3": ("per:parent", 0.9)},
            "m2": {"s1": ("per:age", 0.7), "s2": ("per:age", 0.6), "s3": ("per:parent", 0.5)},
        },
    )
    gold = make_gold(pool, {"s1": "per:age", "s2": None})
    flags = write_bundle(tmp_path, excerpt, pool, preds, gold)
    return tmp_path, flags


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- validate ------------------------------------------------------------


def test_validate_ok(worked_bundle, capsys):
    _, flags = worked_bundle
    assert main(["validate", *flags]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_reports_bad_label(tmp_path, excerpt, capsys):
    pool = make_pool({"s1": "per:parent"})
    preds = make_predictions(pool, {"m1": {"s1": "made_up_label"}})
    flags = write_bundle(tmp_path, excerpt, pool, preds)
    assert main(["validate", *flags]) == 1
    assert "made_up_label" in capsys.readouterr().out


def test_validate_missing_file_exits_2(tmp_path):
    code = main([
        "validate",
        "--hierarchy", str(tmp_path / "nope.json"),
        "--dataset", str(tmp_path / "nope.jsonl"),
    ])
    assert code == 2


def test_validate_unparseable_file_exits_2(tmp_path, excerpt):
    dump_hierarchy(excerpt, tmp_path / "hierarchy.json")
    bad = tmp_path / "pool.jsonl"
    bad.write_text("{broken\n")
    code = main([
        "validate",
        "--hierarchy", str(tmp_path / "hierarchy.json"),
        "--dataset", str(bad),
    ])
    assert code == 2


DEEP_JSON = "[" * 200000


@pytest.mark.parametrize("target", ["hierarchy", "tacred", "label_map", "jsonl_line"])
def test_deeply_nested_json_exits_2(tmp_path, excerpt, capsys, target):
    write_bundle(tmp_path, excerpt, make_pool({"s1": "per:parent"}))
    inputs = {"--hierarchy": tmp_path / "hierarchy.json", "--dataset": tmp_path / "pool.jsonl"}
    extra = []
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    if target == "hierarchy":
        inputs["--hierarchy"] = deep
    elif target == "tacred":
        inputs["--dataset"] = deep
        extra = ["--format", "tacred"]
    elif target == "label_map":
        extra = ["--label-map", str(deep)]
    else:
        deep.write_text('{"id": "s1", "relation": "per:parent"}\n' + DEEP_JSON + "\n")
        inputs["--dataset"] = deep
    flags = [str(part) for pair in inputs.items() for part in pair]
    assert main(["validate", *flags, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid JSON" in err
    assert err.count("\n") == 1


def test_validate_rejects_empty_predictions_file(worked_bundle, capsys):
    tmp_path, flags = worked_bundle
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    assert main(["validate", *flags, "--predictions", str(empty)]) == 1
    assert "empty.jsonl: no prediction records" in capsys.readouterr().err


def test_validate_rejects_model_read_twice(worked_bundle, capsys):
    tmp_path, flags = worked_bundle
    again = tmp_path / "again.jsonl"
    again.write_bytes((tmp_path / "preds_m1.jsonl").read_bytes())
    assert main(["validate", *flags, "--predictions", str(again)]) == 1
    err = capsys.readouterr().err
    assert "again.jsonl: model 'm1' was already read from" in err


HUGE_INT = "7" * 5000  # past Python's 4300-digit int conversion limit


@pytest.mark.parametrize("target", ["pool", "predictions", "gold", "hierarchy", "label_map"])
def test_over_long_json_integer_exits_2(worked_bundle, capsys, target):
    tmp_path, flags = worked_bundle
    (tmp_path / "map.json").write_text(json.dumps({"per:parent": "per:parent"}))
    files = {
        "pool": "pool.jsonl", "predictions": "preds_m1.jsonl", "gold": "gold.jsonl",
        "hierarchy": "hierarchy.json", "label_map": "map.json",
    }
    path = tmp_path / files[target]
    path.write_text(path.read_text().replace("{", '{"big": ' + HUGE_INT + ", ", 1))
    assert main(["validate", *flags, "--label-map", str(tmp_path / "map.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "invalid JSON" in err
    assert err.count("\n") == 1


def test_integer_confidence_past_float_range_exits_1(worked_bundle, capsys):
    tmp_path, flags = worked_bundle
    path = tmp_path / "preds_m1.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["confidence"] = 10**400
    path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    assert main(["validate", *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:1: confidence out of [0, 1]\n"


def test_validate_applies_label_map(tmp_path, excerpt):
    pool = make_pool({"s1": "old_name"})
    flags = write_bundle(tmp_path, excerpt, pool)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"old_name": "per:parent"}))
    assert main(["validate", *flags, "--label-map", str(map_path)]) == 0
    # without the map the label cannot resolve
    assert main(["validate", *flags]) == 1


# -- rank ----------------------------------------------------------------


def test_rank_gd_orders_disagreement_first(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "out"
    assert main(["rank", *flags, "--strategy", "gd", "--out", str(out)]) == 0
    rows = read_csv(out / "ranked_gd.csv")
    assert [row["instance_id"] for row in rows] == ["s1", "s2", "s3"]
    assert rows[0]["rank"] == "1"
    assert [row["score"] for row in rows] == ["5.0", "2.5", "0.0"]


def test_rank_two_strategies_two_files(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "out"
    code = main(["rank", *flags, "--strategy", "gd", "--strategy", "ld", "--out", str(out)])
    assert code == 0
    assert (out / "ranked_gd.csv").exists()
    assert (out / "ranked_ld.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["ranked_gd.csv", "ranked_ld.csv"]
    assert manifest["command"] == "rank"
    assert manifest["config"]["strategies"] == ["gd", "ld"]


def test_rank_random_same_seed_identical_bytes(worked_bundle):
    tmp_path, flags = worked_bundle
    one, two = tmp_path / "one", tmp_path / "two"
    for out in (one, two):
        code = main(["rank", *flags, "--strategy", "random", "--seed", "99", "--out", str(out)])
        assert code == 0
    assert (one / "ranked_random.csv").read_bytes() == (two / "ranked_random.csv").read_bytes()
    assert (one / "manifest.json").read_bytes() == (two / "manifest.json").read_bytes()


def test_rank_random_without_seed_fails(worked_bundle):
    tmp_path, flags = worked_bundle
    code = main(["rank", *flags, "--strategy", "random", "--out", str(tmp_path / "x")])
    assert code == 1


def test_rank_without_strategy_fails(worked_bundle):
    tmp_path, flags = worked_bundle
    assert main(["rank", *flags, "--out", str(tmp_path / "x")]) == 1


def test_rank_does_not_mutate_inputs(worked_bundle):
    tmp_path, flags = worked_bundle
    before = {
        p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
    }
    main(["rank", *flags, "--strategy", "gd", "--out", str(tmp_path / "out")])
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert before == after


def test_failed_rerun_leaves_no_manifest(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "o"
    assert main(["rank", *flags, "--strategy", "gd", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    # random without --seed fails after ranked_gd.csv was rewritten
    code = main([
        "rank", *flags, "--strategy", "gd", "--strategy", "random", "--out", str(out),
    ])
    assert code == 1
    assert (out / "ranked_gd.csv").exists()
    assert not (out / "manifest.json").exists()


def test_unwritable_output_leaves_no_manifest(worked_bundle, capsys):
    tmp_path, flags = worked_bundle
    out = tmp_path / "o"
    run = ["rank", *flags, "--strategy", "gd", "--strategy", "ld", "--out", str(out)]
    assert main(run) == 0
    (out / "ranked_ld.csv").unlink()
    (out / "ranked_ld.csv").mkdir()
    assert main(run) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()


# -- sweep ---------------------------------------------------------------


def test_sweep_requires_gold(tmp_path, excerpt):
    pool = make_pool({"s1": "per:parent"})
    preds = make_predictions(pool, {"m1": {"s1": "per:age"}})
    flags = write_bundle(tmp_path, excerpt, pool, preds)
    code = main(["sweep", *flags, "--strategy", "gd", "--out", str(tmp_path / "x")])
    assert code == 1


def test_sweep_curves(worked_bundle, capsys):
    tmp_path, flags = worked_bundle
    out = tmp_path / "curves"
    code = main([
        "sweep", *flags,
        "--strategy", "gd", "--strategy", "confidence",
        "--budgets", "0,1,2,3",
        "--out", str(out),
    ])
    assert code == 0
    # console summary shows efficiency as a percentage at the mid budget
    console = capsys.readouterr().out
    assert "gd: 100.0% of noisy instances at budget 2" in console
    eff = read_csv(out / "efficiency_gd.csv")
    assert eff[0]["value"] == "0.0"          # budget 0
    assert eff[-1]["value"] == "1.0"         # full budget
    assert eff[0]["metric"] == "efficiency"
    # self-reference Jaccard is constant 1 (confidence vs confidence default)
    self_rows = read_csv(out / "jaccard_confidence.csv")
    assert all(row["value"] == "1.0" for row in self_rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["reference_strategy"] == "confidence"
    assert manifest["config"]["resolved_budgets"] == [0, 1, 2, 3]


def test_sweep_efficiency_matches_independent_prefix_count(tmp_path):
    hierarchy = balanced_hierarchy(groups=2, subgroups=2, labels=2)
    bundle = synth_corpus(hierarchy, random.Random(21), size=10, models=2)
    flags = write_bundle(tmp_path, hierarchy, bundle.pool, bundle.predictions, bundle.gold)
    out = tmp_path / "curves"
    code = main([
        "sweep", *flags, "--strategy", "gd", "--strategy", "random",
        "--seed", "4", "--budgets", "0,2,4,6,8,10", "--out", str(out),
    ])
    assert code == 0
    gold_rows = [json.loads(line) for line in (tmp_path / "gold.jsonl").read_text().splitlines()]
    pool_rows = [json.loads(line) for line in (tmp_path / "pool.jsonl").read_text().splitlines()]
    dataset_label = {row["id"]: row["relation"] for row in pool_rows}
    noisy = {
        row["id"]
        for row in gold_rows
        if row["gold"] is None or row["gold"] != dataset_label[row["id"]]
    }
    for strategy in ("gd", "random"):
        # sweep does not write ranked lists; recover the order via the rank command
        rank_out = tmp_path / f"rank_{strategy}"
        main(["rank", *flags, "--strategy", strategy, "--seed", "4", "--out", str(rank_out)])
        order = [row["instance_id"] for row in read_csv(rank_out / f"ranked_{strategy}.csv")]
        for row in read_csv(out / f"efficiency_{strategy}.csv"):
            budget = int(row["budget"])
            expected = len(set(order[:budget]) & noisy) / len(noisy)
            assert float(row["value"]) == pytest.approx(expected)


def test_sweep_deterministic(worked_bundle):
    tmp_path, flags = worked_bundle
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main([
            "sweep", *flags, "--strategy", "ld", "--strategy", "random",
            "--seed", "17", "--out", str(out),
        ])
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


# -- f1curve -------------------------------------------------------------


def test_f1curve_outputs(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "f1"
    code = main([
        "f1curve", *flags, "--strategy", "gd", "--budgets", "0,3", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out / "f1_gd.csv")
    metrics = {row["metric"] for row in rows}
    assert metrics == {"f1", "precision", "recall"}
    assert {row["series"] for row in rows} == {"m1", "m2"}


def test_f1curve_negative_label_outside_hierarchy(worked_bundle, capsys):
    # a label no instance can carry would give every class F1 credit without a word
    tmp_path, flags = worked_bundle
    out = tmp_path / "f1"
    argv = ["f1curve", *flags, "--strategy", "gd", "--negative-label", "nope", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: negative label 'nope' is not a hierarchy node\n"
    assert not (out / "manifest.json").exists()


def test_f1curve_budget_zero_matches_direct_micro(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "f1"
    main(["f1curve", *flags, "--strategy", "ld", "--budgets", "0,3", "--out", str(out)])
    pool_rows = [json.loads(line) for line in (tmp_path / "pool.jsonl").read_text().splitlines()]
    labels = {row["id"]: row["relation"] for row in pool_rows}
    for model in ("m1", "m2"):
        pred_rows = [
            json.loads(line)
            for line in (tmp_path / f"preds_{model}.jsonl").read_text().splitlines()
        ]
        preds = {row["id"]: row["label"] for row in pred_rows}
        expected = micro_f1(preds, labels, NEG)
        got = {
            row["metric"]: row["value"]
            for row in read_csv(out / "f1_ld.csv")
            if row["series"] == model and row["budget"] == "0"
        }
        assert float(got["f1"]) == pytest.approx(float(expected.f1))
        assert float(got["precision"]) == pytest.approx(float(expected.precision))
        assert float(got["recall"]) == pytest.approx(float(expected.recall))


def test_f1curve_full_budget_strategy_independent(worked_bundle):
    tmp_path, flags = worked_bundle
    results = {}
    for strategy in ("gd", "confidence", "random"):
        out = tmp_path / f"f1_{strategy}"
        main([
            "f1curve", *flags, "--strategy", strategy, "--seed", "3",
            "--budgets", "0,3", "--out", str(out),
        ])
        rows = read_csv(out / f"f1_{strategy}.csv")
        results[strategy] = sorted(
            (row["metric"], row["series"], row["value"])
            for row in rows
            if row["budget"] == "3"
        )
    assert results["gd"] == results["confidence"] == results["random"]


def test_f1curve_requires_predictions(tmp_path, excerpt):
    pool = make_pool({"s1": "per:parent"})
    gold = make_gold(pool, {"s1": "per:age"})
    flags = write_bundle(tmp_path, excerpt, pool, gold=gold)
    code = main(["f1curve", *flags, "--strategy", "random", "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_keep_eliminated_flag_changes_output(worked_bundle):
    tmp_path, flags = worked_bundle
    drop_out, keep_out = tmp_path / "drop", tmp_path / "keep"
    base = ["f1curve", *flags, "--strategy", "gd", "--budgets", "0,3"]
    assert main([*base, "--out", str(drop_out)]) == 0
    assert main([*base, "--keep-eliminated", "--out", str(keep_out)]) == 0
    assert (drop_out / "f1_gd.csv").read_text() != (keep_out / "f1_gd.csv").read_text()


# -- budgets flag ----------------------------------------------------------


def test_budgets_stride(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "stride"
    main(["sweep", *flags, "--strategy", "gd", "--budgets", "stride:2", "--out", str(out)])
    rows = read_csv(out / "efficiency_gd.csv")
    assert [row["budget"] for row in rows] == ["0", "2", "3"]


def test_budgets_bad_spec(worked_bundle):
    tmp_path, flags = worked_bundle
    out = tmp_path / "bad"
    code = main(["sweep", *flags, "--strategy", "gd", "--budgets", "0,x,2", "--out", str(out)])
    assert code == 1
    code = main(["sweep", *flags, "--strategy", "gd", "--budgets", "stride:zz", "--out", str(out)])
    assert code == 1


# -- synth ----------------------------------------------------------------


def test_synth_then_full_pipeline(tmp_path):
    data = tmp_path / "data"
    code = main([
        "synth", "--out", str(data), "--seed", "6", "--pool-size", "80",
        "--models", "3", "--noise-rate", "0.2", "--eliminate-rate", "0.05",
    ])
    assert code == 0
    manifest = json.loads((data / "manifest.json").read_text())
    flags = [
        "--hierarchy", str(data / "hierarchy.json"),
        "--dataset", str(data / "pool.jsonl"),
        "--gold", str(data / "gold.jsonl"),
    ]
    for name in manifest["outputs"]:
        assert (data / name).exists()
        if name.startswith("predictions_"):
            flags += ["--predictions", str(data / name)]
    assert main(["validate", *flags]) == 0
    out = tmp_path / "curves"
    code = main([
        "sweep", *flags, "--strategy", "gd", "--strategy", "ld",
        "--strategy", "confidence", "--strategy", "random", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "efficiency_random.csv").exists()


@pytest.mark.parametrize("flag", [["--noise-rate", "nan"], ["--flip-rate", "5"]])
def test_synth_rate_outside_unit_interval(tmp_path, capsys, flag):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--pool-size", "10", *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_synth_seed_outside_range(tmp_path, capsys, seed):
    # random.Random takes a negative seed's absolute value: -1 would repeat seed 1
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--pool-size", "10", "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err == f"error: seed {seed} outside [0, 2^64)\n"
    assert not (out / "manifest.json").exists()


def test_manifest_config_is_every_parsed_flag_but_out(worked_bundle):
    tmp_path, flags = worked_bundle
    commands = {
        "rank": [*flags, "--strategy", "gd"],
        "sweep": [*flags, "--strategy", "gd", "--budgets", "0,3"],
        "f1curve": [*flags, "--strategy", "gd", "--budgets", "0,3"],
        "synth": ["--pool-size", "10"],
    }
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    for command, argv in commands.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        dests = {a.dest for a in subparsers[command]._actions} - {"help", "out"}
        if command in ("sweep", "f1curve"):
            dests.add("resolved_budgets")
        assert set(config) == dests


def test_synth_deterministic(tmp_path):
    bundles = []
    for name in ("d1", "d2"):
        data = tmp_path / name
        main(["synth", "--out", str(data), "--seed", "42", "--pool-size", "30", "--models", "2"])
        bundles.append({p.name: p.read_bytes() for p in data.iterdir()})
    assert bundles[0] == bundles[1]
