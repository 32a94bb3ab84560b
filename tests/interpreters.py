"""Run the stdlib-only checks under each given Python interpreter.

    python tests/interpreters.py PYTHON [PYTHON ...]

Under each interpreter it runs the commands of tests/test_golden.py in a
temporary directory and compares every output's sha256 with that file's
GOLDEN table, which it imports rather than copies. It then runs one
`perfbench/run.py --seconds 1` smoke run per benchmark workload at
`--trace 0` and at `--trace 1`, and reads `attempted` and `failed` from
each result line. It prints one line per interpreter. Exit status: 0 when
every interpreter passes; 1 when any digest differs, a command or run
fails, a run attempts no operation, an operation fails, or an interpreter
does not start. Stdlib only; pytest's file pattern does not collect this
file. CI runs it as its benchmark smoke step.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
from run import WORKLOADS  # noqa: E402  (perfbench/run.py)
from test_golden import GOLDEN  # noqa: E402

# Runs in the interpreter under test, from the temporary directory: every
# golden command's exit code, the digests of what they wrote, and which
# `reannotate` wrote it. Its last stdout line is that JSON object.
GOLDEN_RUN = """
import json
from pathlib import Path
import reannotate
from test_golden import COMMANDS, _digests
from reannotate.cli import main
codes = {name: main(argv) for name, argv in COMMANDS.items()}
print(json.dumps({"codes": codes, "digests": _digests(Path.cwd()), "module": reannotate.__file__}))
"""
VERSION = "import json, platform; print(json.dumps(platform.python_version()))"
TIMEOUT_S = 900


def _last_json(argv, cwd, env):
    """The JSON object on the last stdout line of `argv`, or a one-line reason it has none."""
    try:
        done = subprocess.run(
            argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {done.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, f"no JSON result line: {lines[-1][:80]}"


def check(python, env):
    """One line saying how `python` did, and whether it passed."""
    version, error = _last_json([python, "-c", VERSION], ROOT, env)
    if error:
        return f"{python}: does not start ({error})", False
    problems = []
    with tempfile.TemporaryDirectory(prefix="interpreters-") as scratch:
        result, error = _last_json([python, "-c", GOLDEN_RUN], scratch, env)
    if error:
        golden = "not run"
        problems.append(f"golden commands: {error}")
    else:
        if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"golden commands imported {result['module']}")
        problems += [f"{name} exited {code}" for name, code in result["codes"].items() if code]
        digests = result["digests"]
        differ = sorted(k for k in GOLDEN | digests if GOLDEN.get(k) != digests.get(k))
        problems += [f"{name} differs" for name in differ]
        golden = f"{len(differ)} of {len(GOLDEN | digests)} differ" if differ else "identical"
    operations = failed = 0
    for workload, trace in product(sorted(WORKLOADS), ("0", "1")):
        argv = [python, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", trace]
        run = f"perfbench {workload} --trace {trace}"
        line, error = _last_json(argv, ROOT, env)
        if error:
            problems.append(f"{run}: {error}")
            continue
        operations += line["attempted"]
        failed += line["failed"]
        if not line["attempted"]:
            problems.append(f"{run}: no operation attempted")
        if line["failed"]:
            problems.append(f"{run}: {line['failed']} failed")
    summary = (
        f"{python} (Python {version}): golden digests {golden}, "
        f"perfbench {operations} operations, {failed} failed"
    )
    if problems:
        return f"{summary}: FAIL: " + "; ".join(problems), False
    return f"{summary}: ok", True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="an interpreter to run")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    passed = True
    for python in args.pythons:
        line, ok = check(python, env)
        print(line, flush=True)
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
