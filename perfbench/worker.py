"""Child process of the benchmark; run.py starts it with src/ on PYTHONPATH.

    worker.py cli SPANS_JSON OP_ID -- ARGV...
        Call reannotate.cli.main(ARGV) in-process with tracing installed,
        write the spans to SPANS_JSON and exit with main's exit code.

    worker.py study DATA_DIR
        The seed-study library worker. Reads one JSON request per line on
        stdin and answers one JSON line on stdout:
        {"cmd": "setup", "trace": bool}          load the bundle, rank GD once
        {"cmd": "dump_setup", "out": DIR}        write the GD ranking
        {"cmd": "op", "seed": S, "trace": bool, "op": ID, "out": DIR}
            rank RANDOM with seed S, then the efficiency, Jaccard (against GD)
            and F1 curves; reply with the op's wall and CPU seconds and,
            after the clock stops, write the outputs to DIR with the
            library's own CSV writers
        {"cmd": "end"}                           reply with peak RSS and spans
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from gen import NEGATIVE
from spans import Tracer

STUDY_STRIDE = 400


def traced_cli(spans_path: str, op: str, argv: list[str]) -> int:
    import reannotate.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.begin(op)
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")


class Study:
    def __init__(self, data: Path) -> None:
        import reannotate

        self.api = reannotate
        self.data = data
        self.tracer = Tracer()

    def setup(self) -> None:
        api, data = self.api, self.data
        self.hierarchy = api.load_hierarchy(data / "hierarchy.json")
        self.pool = api.load_pool(data / "pool.jsonl")
        files = sorted(data.glob("predictions_*.jsonl"))
        self.predictions = api.load_predictions(files, self.pool)
        self.gold = api.load_gold(data / "gold.jsonl", self.pool)
        problems = api.validate_bundle(self.hierarchy, self.pool, self.predictions, self.gold)
        if problems:
            raise ValueError(problems[0])
        self.gd = api.rank(self.pool, self.predictions, self.hierarchy, api.StrategyKind.GD)
        self.schedule = api.BudgetSchedule.strided(STUDY_STRIDE, len(self.pool))

    def op(self, seed: int):
        api = self.api
        ranked = api.rank(
            self.pool, self.predictions, self.hierarchy, api.StrategyKind.RANDOM, seed=seed
        )
        efficiency = api.efficiency_curve(ranked, self.gold, self.schedule)
        jaccard = api.jaccard_curve(ranked, self.gd, self.schedule)
        f1 = api.f1_curve(
            self.predictions, self.pool, ranked, self.gold, self.schedule, NEGATIVE
        )
        return ranked, [efficiency, jaccard, *f1]

    def traced(self, trace: bool, op: str, fn, *args):
        if not trace:
            return fn(*args)
        self.tracer.install()
        self.tracer.begin(op)
        try:
            return fn(*args)
        finally:
            self.tracer.uninstall()

    def handle(self, req: dict) -> dict:
        cmd = req["cmd"]
        if cmd == "setup":
            self.traced(req.get("trace", False), "setup", self.setup)
            return {}
        if cmd == "dump_setup":
            self.gd.write_csv(Path(req["out"]) / "ranked_gd.csv")
            return {}
        if cmd == "op":
            cpu0, wall0 = time.process_time(), time.perf_counter()
            ranked, series = self.traced(req["trace"], req["op"], self.op, req["seed"])
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            out = Path(req["out"])
            ranked.write_csv(out / "ranked_random.csv")
            self.api.write_curves_csv(series, out / "curves.csv")
            return {"wall": wall, "cpu": cpu}
        if cmd == "end":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return {"rss_kib": peak, "trace": self.tracer.dump()}
        raise ValueError(f"unknown request {cmd!r}")


def serve(data: Path) -> None:
    study = Study(data)
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = study.handle(req)
        except Exception as exc:  # reported to run.py, which counts the op as failed
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if req["cmd"] == "end":
            return


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        raise SystemExit(traced_cli(sys.argv[2], sys.argv[3], sys.argv[5:]))
    serve(Path(sys.argv[2]))
