"""Self-tests for the benchmark's checker: tiny runs pass, corrupted outputs are flagged.

    python3 perfbench/selftest.py

Exits 0 when every case passes. Without these, an error_rate of 0 could
mean a checker that never fails.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from dataclasses import replace

import run

WORK = run.WORK / "selftest"
TINY = {
    "cli-sweep": replace(run.WORKLOADS["cli-sweep"], shape={**run.SWEEP_SHAPE, "size": 600}),
    "taxonomy-30k": replace(
        run.WORKLOADS["taxonomy-30k"], shape=dict(nodes=300, size=400, models=4, noise=0.15)
    ),
    "seed-study": replace(
        run.WORKLOADS["seed-study"], shape={**run.SWEEP_SHAPE, "size": 1200, "models": 3}
    ),
}
results: list[tuple[str, bool]] = []


def case(name: str, ok: bool) -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)


def rewrite_csv(path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def swap_rows(rows) -> None:
    """Swap the id and score of two data rows whose scores differ."""
    first = rows[1]
    other = next(row for row in rows[2:] if row[2] != first[2])
    first[1:], other[1:] = other[1:], first[1:]


def bump_efficiency(rows) -> None:
    row = next(r for r in rows[1:] if r[0] == "efficiency" and float(r[3]) != 0)
    row[3] = repr(float(row[3]) / 2)


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    case("BENCHMARK.json metric names and units match run.py",
         end_to_end == run.END_TO_END and per_layer == run.PER_LAYER)
    case("BENCHMARK.json workloads match run.py",
         sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS))


def tiny_runs() -> None:
    for name, workload in TINY.items():
        for trace in (False, True):
            line, _ = run.run(name, workload, 3, 1, trace, WORK)
            expected = run.PER_LAYER if trace else run.END_TO_END
            case(f"tiny {name} trace={int(trace)} passes its checks",
                 line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
                 and line["metrics"].keys() == expected.keys())
            if trace and workload.kind != "study":
                shape = workload.shape
                queries = shape["size"] * shape["models"] * 2  # gd and ld, one query per prediction
                case(f"tiny {name} counts {queries} hierarchy queries",
                     line["metrics"]["hierarchy.queries"]["value"] == queries)


def corrupted_cli() -> None:
    for name, target, corrupt, label in (
        ("taxonomy-30k", "ranked_gd.csv", swap_rows, "two ranked rows swapped"),
        ("cli-sweep", "efficiency_gd.csv", bump_efficiency, "one efficiency value changed"),
        ("cli-sweep", "jaccard_ld.csv", None, "one output file missing"),
    ):
        job = run.Run(name, TINY[name], 5, 1, WORK)
        job.generate()
        first = job.cli_op(traced=False)
        case(f"{name}: untouched outputs pass", first["problems"] == [])
        path = job.out / target
        if corrupt is None:
            path.unlink()
        else:
            rewrite_csv(path, corrupt)
        case(f"{name}: {label} is flagged", job.full_check() != [])
        case(f"{name}: {label} differs from the run's first digests", job.check_cli() != [])
    job = run.Run("taxonomy-30k", TINY["taxonomy-30k"], 5, 1, WORK)
    job.generate()
    (job.data / "pool.jsonl").unlink()
    case("taxonomy-30k: a failing command is counted", job.cli_op(traced=False)["problems"] != [])


def corrupted_study() -> None:
    job = run.Run("seed-study", TINY["seed-study"], 5, 1, WORK)
    job.generate()
    worker = run.StudyWorker(job.data)
    try:
        worker.ask({"cmd": "setup"})
        job.digests["ops"] = {}
        op = job.study_op(worker, traced=False)
        seed = op["seed"]
        case("seed-study: untouched outputs pass", op["problems"] == [])
        pristine = {p.name: p.read_bytes() for p in job.out.iterdir()}
        for target, corrupt, label in (
            ("ranked_random.csv", swap_rows, "two ranked rows swapped"),
            ("curves.csv", bump_efficiency, "one efficiency value changed"),
            ("curves.csv", None, "one output file missing"),
        ):
            path = job.out / target
            if corrupt is None:
                path.unlink()
            else:
                rewrite_csv(path, corrupt)
            case(f"seed-study: {label} is flagged", job.check_study(seed) != [])
            for file_name, data in pristine.items():
                (job.out / file_name).write_bytes(data)
        worker.ask({"cmd": "end"})
    finally:
        worker.close()


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_names()
        tiny_runs()
        corrupted_cli()
        corrupted_study()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    if not (run.ROOT / "src" / "reannotate" / "cli.py").is_file():
        sys.exit("error: src/reannotate is missing")
    raise SystemExit(main())
