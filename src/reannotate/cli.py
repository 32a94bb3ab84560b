"""Command-line interface: validate inputs, rank a pool, and emit budget-sweep CSVs.

Exit codes: 0 success, 1 semantic/validation failure, 2 I/O or parse
failure. Every command is a pure function of its input files and flags;
re-running with the same config produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import corpus, evaluate, synth
from .errors import ParseError, ValidationError
from .hierarchy import dump_hierarchy, load_hierarchy
from .strategies import StrategyKind, _check_seed, rank

_STRATEGY_NAMES = [kind.value for kind in StrategyKind]


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hierarchy", required=True, help="hierarchy JSON file")
    parser.add_argument("--dataset", required=True, help="reannotation pool file")
    parser.add_argument(
        "--format", choices=corpus.POOL_FORMATS, default="jsonl",
        help="pool file format (default: jsonl)",
    )
    parser.add_argument(
        "--predictions", action="append", default=[], metavar="FILE",
        help="per-model predictions file (repeat once per model)",
    )
    parser.add_argument("--gold", help="gold relabels file")
    parser.add_argument("--label-map", help="JSON label transformation map")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy", action="append", default=[], choices=_STRATEGY_NAMES,
        dest="strategies", help="strategy to run (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="seed for the random strategy")
    parser.add_argument(
        "--budgets", metavar="LIST|stride:N",
        help="comma-separated budgets or stride:N (default: 50 evenly spaced)",
    )
    parser.add_argument(
        "--negative-label", default="no_relation",
        help="label excluded from F1 credit (default: no_relation)",
    )
    parser.add_argument("--out", required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reannotate",
        description="Rank labeled instances for budgeted reannotation and "
        "simulate relabeling strategies against gold labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that all inputs load and every label resolves")
    _add_input_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rank", help="write a ranked-list CSV per strategy")
    _add_input_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("sweep", help="write efficiency and Jaccard curve CSVs per strategy")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument(
        "--reference-strategy", default="confidence", choices=_STRATEGY_NAMES,
        help="ranking that Jaccard curves compare against (default: confidence)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("f1curve", help="write per-model F1/precision/recall curves per strategy")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument(
        "--keep-eliminated", action="store_true",
        help="keep eliminated instances (with their current labels) instead of dropping them",
    )
    p.set_defaults(func=cmd_f1curve)

    p = sub.add_parser("synth", help="generate a synthetic corpus bundle with planted noise")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--pool-size", type=int, default=1000, help="number of instances")
    p.add_argument("--models", type=int, default=5, help="ensemble size K")
    p.add_argument("--noise-rate", type=float, default=0.15, help="mislabeled fraction")
    p.add_argument("--eliminate-rate", type=float, default=0.03, help="eliminated fraction")
    p.add_argument("--flip-rate", type=float, default=0.15, help="per-model prediction flip rate")
    p.add_argument("--groups", type=int, default=3, help="top-level hierarchy groups")
    p.add_argument("--subgroups", type=int, default=3, help="subgroups per group")
    p.add_argument("--labels", type=int, default=4, help="leaf labels per subgroup")
    p.set_defaults(func=cmd_synth)

    return parser


# -- shared plumbing -------------------------------------------------------


def _load_bundle(args, *, need_predictions: bool = False, need_gold: bool = False):
    hierarchy = load_hierarchy(args.hierarchy)
    pool = corpus.load_pool(args.dataset, format=args.format)
    label_map = corpus.load_label_map(args.label_map) if args.label_map else None
    if label_map is not None:
        pool = corpus.apply_label_map(pool, label_map)
    predictions = None
    if args.predictions:
        predictions = corpus.load_predictions(args.predictions, pool)
    if need_predictions and predictions is None:
        raise ValidationError("this command needs --predictions")
    gold = corpus.load_gold(args.gold, pool) if args.gold else None
    if need_gold and gold is None:
        raise ValidationError("this command needs --gold")
    problems = corpus.validate_bundle(hierarchy, pool, predictions, gold, label_map)
    return hierarchy, pool, predictions, gold, problems


def _strategies(args) -> list[StrategyKind]:
    if not args.strategies:
        raise ValidationError("no strategy selected; pass --strategy at least once")
    return [StrategyKind(name) for name in dict.fromkeys(args.strategies)]


def _schedule(args, pool_size: int) -> evaluate.BudgetSchedule:
    spec = args.budgets
    if spec is None:
        return evaluate.BudgetSchedule.evenly(50, pool_size)
    if spec.startswith("stride:"):
        try:
            step = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad stride in --budgets: {spec!r}") from None
        return evaluate.BudgetSchedule.strided(step, pool_size)
    try:
        budgets = sorted({int(part) for part in spec.split(",")})
    except ValueError:
        raise ValidationError(f"bad budget list: {spec!r}") from None
    return evaluate.BudgetSchedule.explicit(budgets, pool_size)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # manifests are written last, so a run that fails leaves none behind
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> None:
    doc = {"command": command, "config": config, "outputs": sorted(outputs)}
    (out / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


_NOT_CONFIG = frozenset({"out", "command", "func"})  # output dir and argparse's own entries


def _config(args, schedule: evaluate.BudgetSchedule | None = None) -> dict:
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    if schedule is not None:
        config["resolved_budgets"] = list(schedule.budgets)
    return config


def _abort_on_problems(problems: list[str]) -> None:
    if problems:
        raise ValidationError("\n".join(problems))


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    _, pool, predictions, gold, problems = _load_bundle(args)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    models = len(predictions.model_ids) if predictions else 0
    noisy = len(gold.noisy_ids) if gold else 0
    print(f"ok: {len(pool)} instances, {models} models, {noisy} known-noisy")
    return 0


def cmd_rank(args) -> int:
    hierarchy, pool, predictions, _, problems = _load_bundle(args)
    _abort_on_problems(problems)
    kinds = _strategies(args)
    out = _out_dir(args)
    outputs = []
    for kind in kinds:
        ranked = rank(pool, predictions, hierarchy, kind, seed=args.seed)
        name = f"ranked_{kind.value}.csv"
        ranked.write_csv(out / name)
        outputs.append(name)
    _write_manifest(out, "rank", _config(args), outputs)
    return 0


def cmd_sweep(args) -> int:
    hierarchy, pool, predictions, gold, problems = _load_bundle(args, need_gold=True)
    _abort_on_problems(problems)
    kinds = _strategies(args)
    reference = StrategyKind(args.reference_strategy)
    schedule = _schedule(args, len(pool))
    out = _out_dir(args)

    ranked = {}
    for kind in dict.fromkeys([*kinds, reference]):
        ranked[kind] = rank(pool, predictions, hierarchy, kind, seed=args.seed)

    outputs = []
    midpoint = schedule.budgets[len(schedule) // 2]
    for kind in kinds:
        efficiency = evaluate.efficiency_curve(ranked[kind], gold, schedule)
        name = f"efficiency_{kind.value}.csv"
        evaluate.write_curves_csv([efficiency], out / name)
        outputs.append(name)
        # CSVs carry fractions; the console shows the percent view
        caught = float(efficiency.value_at(midpoint)) * 100
        print(f"{kind.value}: {caught:.1f}% of noisy instances at budget {midpoint}")
    for kind in kinds:
        overlap = evaluate.jaccard_curve(ranked[kind], ranked[reference], schedule)
        name = f"jaccard_{kind.value}.csv"
        evaluate.write_curves_csv([overlap], out / name)
        outputs.append(name)

    _write_manifest(out, "sweep", _config(args, schedule), outputs)
    return 0


def cmd_f1curve(args) -> int:
    hierarchy, pool, predictions, gold, problems = _load_bundle(
        args, need_predictions=True, need_gold=True
    )
    _abort_on_problems(problems)
    if args.negative_label not in hierarchy:
        raise ValidationError(f"negative label {args.negative_label!r} is not a hierarchy node")
    kinds = _strategies(args)
    schedule = _schedule(args, len(pool))
    out = _out_dir(args)
    outputs = []
    for kind in kinds:
        ranked = rank(pool, predictions, hierarchy, kind, seed=args.seed)
        series = evaluate.f1_curve(
            predictions, pool, ranked, gold, schedule, args.negative_label,
            drop_eliminated=not args.keep_eliminated,
        )
        name = f"f1_{kind.value}.csv"
        evaluate.write_curves_csv(series, out / name)
        outputs.append(name)
    _write_manifest(out, "f1curve", _config(args, schedule), outputs)
    return 0


def cmd_synth(args) -> int:
    _check_seed(args.seed)
    rng = random.Random(args.seed)
    hierarchy = synth.balanced_hierarchy(args.groups, args.subgroups, args.labels)
    bundle = synth.synth_corpus(
        hierarchy, rng,
        size=args.pool_size,
        models=args.models,
        noise_rate=args.noise_rate,
        eliminate_rate=args.eliminate_rate,
        flip_rate=args.flip_rate,
    )
    out = _out_dir(args)
    outputs = ["hierarchy.json", "pool.jsonl", "gold.jsonl"]
    dump_hierarchy(bundle.hierarchy, out / "hierarchy.json")
    corpus.write_pool(bundle.pool, out / "pool.jsonl")
    corpus.write_gold(bundle.gold, out / "gold.jsonl")
    for model_id in bundle.predictions.model_ids:
        name = f"predictions_{model_id}.jsonl"
        corpus.write_predictions(bundle.predictions, model_id, out / name)
        outputs.append(name)
    _write_manifest(out, "synth", _config(args), outputs)
    print(
        f"wrote {len(bundle.pool)} instances, {bundle.predictions.k} models, "
        f"{len(bundle.gold.noisy_ids)} noisy to {out}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
