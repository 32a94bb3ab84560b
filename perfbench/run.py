"""Benchmark for reannotate: run one workload for a while, check every output, print metrics.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds src/reannotate; the program
is measured only from outside, as a child process (the CLI workloads) or
through the public library API in one worker process (seed-study). Inputs
come from the benchmark's own generator (gen.py), seeded by --seed. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). Details of the run (environment, input descriptors, each
operation, output digests, spans) go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle
import spans
from worker import STUDY_STRIDE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_MIN_REPEATS = 3  # set-up runs at least this often
SETUP_MIN_S = 3.0  # and until this much set-up time is measured,
SETUP_MAX_REPEATS = 10  # but no more often than this
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "hierarchy.load_hierarchy_s": "s",
    "hierarchy.queries": "count",
    "hierarchy.query_s": "s",
    "corpus.load_pool_s": "s",
    "corpus.load_predictions_s": "s",
    "corpus.load_gold_s": "s",
    "corpus.validate_bundle_s": "s",
    "corpus.rows_per_s": "1/s",
    "corpus.rss_mib": "MiB",
    "strategies.rank_s.gd": "s",
    "strategies.rank_s.ld": "s",
    "strategies.rank_s.confidence": "s",
    "strategies.rank_s.random": "s",
    "strategies.write_csv_s": "s",
    "strategies.rss_mib": "MiB",
    "evaluate.efficiency_curve_s": "s",
    "evaluate.jaccard_curve_s": "s",
    "evaluate.f1_curve_s": "s",
    "evaluate.write_curves_csv_s": "s",
    "evaluate.rss_mib": "MiB",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "rank": one CLI process per op; "study": library worker
    generator: Callable[..., gen.Bundle]
    shape: dict


SWEEP_SHAPE = dict(
    groups=4, subgroups=3, leaves=4, size=40_000, models=5, noise=0.15, eliminate=0.03, flip=0.15
)
WORKLOADS = {
    # today's scale-gate shape; parsing and ranking all four strategies dominate
    "cli-sweep": Workload("sweep", gen.balanced_bundle, SWEEP_SHAPE),
    # the one large hierarchy: deep walks, ~14.6k distinct labels, labels^2 would not fit
    "taxonomy-30k": Workload(
        "rank", gen.random_tree_bundle, dict(nodes=30_000, size=20_000, models=8, noise=0.15)
    ),
    # library use without parsing in the timed region: random baseline over many seeds
    "seed-study": Workload("study", gen.balanced_bundle, SWEEP_SHAPE),
}


def median(values):
    return statistics.median(values) if values else 0.0


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file in ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def spawn(argv: list[str], stderr_path: Path) -> dict:
    """Run one child to exit; wall from spawn to exit, CPU and peak RSS from wait4."""
    with open(stderr_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().strip().splitlines()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "code": proc.returncode,
        "problems": [] if proc.returncode == 0 else [f"exit {proc.returncode}: {message[-1:]}"],
    }


class Run:
    """One invocation: set-up, a closed loop of operations, checks, metrics."""

    def __init__(self, name: str, workload: Workload, seed: int, seconds: int, work: Path):
        self.name, self.workload, self.seed, self.seconds = name, workload, seed, seconds
        self.data = work / "data" / name
        self.out = work / "out" / name
        self.work = work
        self.ops: list[dict] = []
        self.setup_s: list[float] = []
        self.layer_ops: dict[str, dict[str, float]] = {}
        self.raw_traces: list[dict] = []
        self.digests: dict = {}
        self._checked: dict[tuple, list[str]] = {}
        self._oracle: oracle.Oracle | None = None
        self.cli_startup_s = 0.0  # measured in traced CLI runs only
        self.study_rss_kib = 0  # the seed-study worker's high-water
        self.program_seed = seed % 2**63
        seeds = random.Random(f"study:{seed}")
        self.study_seeds = iter(lambda: seeds.getrandbits(63), None)

    # -- inputs ------------------------------------------------------------

    def more_setup(self, trace: bool) -> bool:
        """Set up once for a traced run; otherwise often enough for a steady median."""
        if trace:
            return not self.setup_s
        done = len(self.setup_s)
        if done < SETUP_MIN_REPEATS:
            return True
        return sum(self.setup_s) < SETUP_MIN_S and done < SETUP_MAX_REPEATS

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.bundle = self.workload.generator(rng, **self.workload.shape)
        self.inputs = gen.write_bundle(self.bundle, fresh_dir(self.data))
        self._oracle = None

    def oracle(self) -> oracle.Oracle:
        if self._oracle is None:
            self._oracle = oracle.Oracle(self.bundle)
        return self._oracle

    # -- CLI workloads -------------------------------------------------------

    def argv(self) -> list[str]:
        data, out = self.data.relative_to(ROOT), self.out.relative_to(ROOT)
        flags = [
            "--hierarchy", f"{data}/hierarchy.json", "--dataset", f"{data}/pool.jsonl",
            "--gold", f"{data}/gold.jsonl",
        ]
        for name in self.inputs["predictions"]:
            flags += ["--predictions", f"{data}/{name}"]
        if self.workload.kind == "sweep":
            return [
                "sweep", *flags, "--strategy", "gd", "--strategy", "ld", "--strategy", "random",
                "--reference-strategy", "confidence", "--seed", str(self.program_seed),
                "--out", str(out),
            ]
        return ["rank", *flags, "--strategy", "gd", "--strategy", "ld", "--out", str(out)]

    def cli_op(self, traced: bool) -> dict:
        fresh_dir(self.out)
        op_id = f"op{len(self.ops)}"
        if traced:
            trace_file = self.work / "spans.json"
            trace_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "worker.py"), "cli", str(trace_file), op_id, "--"]
        else:
            argv = [sys.executable, "-m", "reannotate.cli"]
        result = spawn(argv + self.argv(), self.work / "stderr.txt")
        result.update(op=op_id, traced=traced)
        if traced and trace_file.exists():
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
            self.raw_traces.append(trace)
            self.layer_ops.update(spans.per_operation(trace))
        if result["code"] == 0:
            result["problems"] += self.check_cli()
        return result

    def check_cli(self) -> list[str]:
        """Full oracle check of the first output set; later ops must write the same bytes."""
        found = digests(self.out)
        key = tuple(sorted(found.items()))
        if "files" not in self.digests:
            self.digests["files"] = found
        elif found != self.digests["files"]:
            changed = sorted(n for n in found.keys() | self.digests["files"].keys()
                             if found.get(n) != self.digests["files"].get(n))
            return [f"outputs differ from the run's first operation: {changed}"]
        if key not in self._checked:
            self._checked[key] = self.full_check()
        return self._checked[key]

    def full_check(self) -> list[str]:
        out, o = self.out, self.oracle()
        problems = oracle.check_manifest(out)
        if self.workload.kind == "rank":
            for kind in ("gd", "ld"):
                problems += oracle.check_ranked(out / f"ranked_{kind}.csv", o.scores(kind))
            return problems
        budgets = oracle.even_budgets(50, len(self.bundle.ids))
        reference = o.ranking("confidence")
        for kind in ("gd", "ld", "random"):
            ranking = o.ranking(kind, self.program_seed)
            problems += oracle.check_efficiency(
                out / f"efficiency_{kind}.csv", kind, ranking, o.noisy, budgets
            )
            problems += oracle.check_jaccard(
                out / f"jaccard_{kind}.csv", kind, ranking, reference, budgets
            )
        return problems

    def startup(self) -> float:
        argv = [sys.executable, "-c", "import reannotate.cli"]
        return median([
            spawn(argv, self.work / "stderr.txt")["wall"] for _ in range(STARTUP_REPEATS)
        ])

    def run_cli(self, trace: bool) -> None:
        while self.more_setup(trace):
            start = time.perf_counter()
            self.generate()
            self.setup_s.append(time.perf_counter() - start)
        if trace:
            self.cli_startup_s = self.startup()
        start = time.perf_counter()
        while not self.ops or time.perf_counter() - start < self.seconds:
            self.ops.append(self.cli_op(traced=False))
            if trace:
                self.ops.append(self.cli_op(traced=True))

    # -- library study -------------------------------------------------------

    def run_study(self, trace: bool) -> None:
        worker = None
        try:
            while self.more_setup(trace):
                if worker is not None:
                    worker.close()
                start = time.perf_counter()
                self.generate()
                worker = StudyWorker(self.data)
                setup = worker.ask({"cmd": "setup", "trace": trace})
                self.setup_s.append(time.perf_counter() - start)
                if "error" in setup:
                    raise RuntimeError(f"seed-study set-up failed: {setup['error']}")
            fresh_dir(self.out)
            worker.ask({"cmd": "dump_setup", "out": str(self.out)})
            setup_problems = oracle.check_ranked(
                self.out / "ranked_gd.csv", self.oracle().scores("gd")
            )
            self.digests["setup"] = digests(self.out)
            self.digests["ops"] = {}
            start = time.perf_counter()
            while not self.ops or time.perf_counter() - start < self.seconds:
                for traced in (False, True) if trace else (False,):
                    self.ops.append(self.study_op(worker, traced))
            self.ops[0]["problems"] += setup_problems
            end = worker.ask({"cmd": "end"})
            self.study_rss_kib = end["rss_kib"]
            if trace:
                self.raw_traces.append(end["trace"])
                self.layer_ops.update(spans.per_operation(end["trace"]))
        finally:
            if worker is not None:
                worker.close()

    def study_op(self, worker: StudyWorker, traced: bool) -> dict:
        seed = next(self.study_seeds)
        op_id = f"op{len(self.ops)}"
        fresh_dir(self.out)
        reply = worker.ask(
            {"cmd": "op", "seed": seed, "trace": traced, "op": op_id, "out": str(self.out)}
        )
        result = {"op": op_id, "traced": traced, "seed": seed}
        if "error" in reply:
            result.update(wall=0.0, cpu=0.0, problems=[reply["error"]])
            return result
        result.update(wall=reply["wall"], cpu=reply["cpu"], problems=self.check_study(seed))
        self.digests["ops"][str(seed)] = digests(self.out)
        return result

    def check_study(self, seed: int) -> list[str]:
        o, out = self.oracle(), self.out
        budgets = oracle.strided_budgets(STUDY_STRIDE, len(self.bundle.ids))
        scores = o.scores("random", seed)
        problems = oracle.check_ranked(out / "ranked_random.csv", scores)
        if problems:
            return problems
        ranking = oracle.order(scores)  # equals the program's ranking, as checked
        curves = out / "curves.csv"
        return (
            oracle.check_efficiency(curves, "random", ranking, o.noisy, budgets)
            + oracle.check_jaccard(curves, "random", ranking, o.ranking("gd"), budgets)
            + oracle.check_f1(curves, o, budgets)
        )

    # -- metrics -------------------------------------------------------------

    def metrics(self, trace: bool) -> dict[str, float]:
        plain = [op for op in self.ops if not op["traced"] and not op["problems"]]
        if not trace:
            if self.workload.kind == "study":
                peak = self.study_rss_kib
            else:
                peak = median([op["rss_kib"] for op in plain])
            return {
                "wall_s": median([op["wall"] for op in plain]),
                "cpu_s": median([op["cpu"] for op in plain]),
                "peak_rss_mib": peak / 1024,
                "setup_s": median(self.setup_s),
            }
        layers = spans.layer_medians(self.layer_ops)
        load_s = sum(layers.get(f"corpus.load_{k}_s", 0.0) for k in ("pool", "predictions", "gold"))
        layers["corpus.rows_per_s"] = self.inputs["records"] / load_s if load_s else 0.0
        layers["cli.startup_s"] = self.cli_startup_s
        traced = [op["wall"] for op in self.ops if op["traced"] and not op["problems"]]
        layers["trace.overhead_s"] = median(traced) - median([op["wall"] for op in plain])
        return {name: layers.get(name, 0.0) for name in PER_LAYER}


class StudyWorker:
    """The seed-study worker process and its request/reply pipe."""

    def __init__(self, data: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "study", str(data)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def ask(self, request: dict) -> dict:
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"seed-study worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)  # an idle worker exits at end of input
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg": list(os.getloadavg()),
    }


def run(
    name: str, workload: Workload, seed: int, seconds: int, trace: bool, work: Path
) -> tuple[dict, Path]:
    """Run one workload; return the result line and write the detailed record."""
    env_before = environment()
    job = Run(name, workload, seed, seconds, work)
    try:
        if workload.kind == "study":
            job.run_study(trace)
        else:
            job.run_cli(trace)
    finally:
        shutil.rmtree(job.data, ignore_errors=True)
        shutil.rmtree(job.out, ignore_errors=True)
    failed = sum(1 for op in job.ops if op["problems"])
    metrics = job.metrics(trace)
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": len(job.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {"before": env_before, "after_loadavg": list(os.getloadavg())},
        "inputs": {k: v for k, v in job.inputs.items() if k != "predictions"},
        "setup_s": job.setup_s,
        "error_rate": {"failed": failed, "attempted": len(job.ops)},
        "operations": job.ops,
        "digests": job.digests,
        "result": line,
        "traces": job.raw_traces,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return line, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "reannotate" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'reannotate'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    line, path = run(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK
    )
    print(
        f"{args.workload} seed {args.seed}: {line['attempted']} operations, "
        f"{line['failed']} failed; details in {path.relative_to(ROOT)}"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
