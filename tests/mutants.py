"""Mutation smoke test for the JSON Lines readers' checks, label interning
(`sys.intern` on every path that places a label, and the guard that passes a
non-str label on to the checks), the hierarchy walk, the GD/LD fast path,
CONFIDENCE over the disagreeing rows, the kept-value rule
(`PredictionSet._keep`: identity keys, one value per builder, and the
single-instance scorers' copy that leaves `rank`'s sums kept), the pool rows
and first-read ids and keys of a list from `rank`, and the curves' fast paths
(the one-gather helper, Jaccard's union count and f1_curve's packed deltas).

Each mutant below is applied alone to a copy of src/, tests/ and
pyproject.toml in a temporary directory, and the tests in TESTS run there:

    python tests/mutants.py

Each mutant must make the tests fail. Exit status: 0 when every mutant fails
the tests, 1 naming each one that survives, 2 when a patch's anchor text does
not occur exactly once in its file, when the unmutated copy does not pass, or
when the tests did not import the copy's `reannotate`. Stdlib only; pytest's
file pattern does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "src/reannotate/corpus.py"
EVALUATE = "src/reannotate/evaluate.py"
HIERARCHY = "src/reannotate/hierarchy.py"
STRATEGIES = "src/reannotate/strategies.py"
TESTS = [
    "tests/test_corpus.py", "tests/test_evaluate.py", "tests/test_hierarchy.py",
    "tests/test_properties.py", "tests/test_strategies.py",
]
PYTEST = ["-q", "-x", "-p", "no:cacheprovider", *TESTS]
# `python -m pytest`, but only once the `reannotate` that the tests will use is
# known to be the copy's: `pythonpath = ["src"]` and an editable install of
# the checkout could each put another one first.
PROBED = """
import sys
from pathlib import Path
import pytest
try:
    import reannotate
except Exception as exc:  # a mutant that breaks the import decides nothing
    print(f"cannot import reannotate: {exc!r}", file=sys.stderr)
    sys.exit(99)
if not Path(reannotate.__file__).resolve().is_relative_to(Path.cwd().resolve()):
    print(f"the tests import {reannotate.__file__}, not the copy's", file=sys.stderr)
    sys.exit(99)
sys.exit(pytest.main(sys.argv[1:]))
"""

# (name, file, anchor, replacement)
MUTANTS = [
    (
        "(a) _flat takes a chunk that holds a '['",
        CORPUS,
        '    if "[" in text:\n        return None\n',
        "",
    ),
    (
        "(b) _columns skips the confidence type check",
        CORPUS,
        "            elif not types.issuperset(map(type, column)):\n",
        '            elif key != "confidence" and not types.issuperset(map(type, column)):\n',
    ),
    (
        "(b') load_predictions' column path takes int confidences",
        CORPUS,
        '("confidence", frozenset({float}), "a float", True)',
        '("confidence", frozenset({int, float}), "a float", True)',
    ),
    (
        "(c) _checked passes a bool confidence",
        CORPUS,
        "        if type(value) not in types:\n",
        "        if type(value) not in types"
        ' and not (key == "confidence" and type(value) is bool):\n',
    ),
    (
        "(d) _place_gold accepts a repeated id",
        CORPUS,
        "    if iid in gold:\n"
        '        raise ValidationError(f"duplicate gold record for {iid!r}")\n',
        "",
    ),
    (
        "(e) _columns skips the model and id type checks of predictions",
        CORPUS,
        'text = "".join(column)',
        "text = '' if fields is _PREDICTION_COLUMNS and key in ('model', 'id') else ''.join(column)",
    ),
    (
        "(f) _flat takes a chunk whose records are more than its lines",
        CORPUS,
        "    return records if len(records) == len(lines) else None\n",
        "    return records if len(records) >= len(lines) else None\n",
    ),
    (
        "(f') _flat lets the decoder's RecursionError through",
        CORPUS,
        "    except (ValueError, RecursionError):  # incl. over-long ints, and objects nested too deep\n",
        "    except ValueError:\n",
    ),
    (
        "(g) a record error re-raises without decoding the rest of the file",
        CORPUS,
        "                while fh.read(1 << 16):  # an invalid byte further down decides first\n"
        "                    pass\n",
        "",
    ),
    (
        "(h) _place_prediction stores the record's label un-interned",
        CORPUS,
        "    column[0][slot] = _interned(label)\n",
        "    column[0][slot] = label\n",
    ),
    (
        "(i) the slice path skips the test that the chunk's slots are still empty",
        CORPUS,
        "        if column_confs[start:stop].count(None) != len(ids):"
        "  # a slot an earlier chunk filled\n"
        "            return False\n",
        "",
    ),
    (
        "(j) the slice path compares only the chunk's first id with the pool",
        CORPUS,
        "    if pool._ids[start:stop] == tuple(ids):",
        "    if pool._ids[start:start + 1] == tuple(ids[:1]):",
    ),
    (
        "(k) a kept value serves a call whose key differs after its first item"
        " (the walks serve another hierarchy)",
        CORPUS,
        "        if kept is not None and all(map(is_, kept[0], key)):\n",
        "        if kept is not None and kept[0][0] is key[0]:\n",
    ),
    (
        "(l) LD counts the edges from the LCA down to the prediction",
        STRATEGIES,
        "        return (up + down) << shift | up  # tree_distance, distance_to_lca\n",
        "        return (up + down) << shift | down  # tree_distance, distance_to_lca\n",
    ),
    (
        "(m) GD and LD swap their keys",
        STRATEGIES,
        "    if kind is StrategyKind.GD:\n        return list(map(rshift,",
        "    if kind is StrategyKind.LD:\n        return list(map(rshift,",
    ),
    (
        "(n) a row's LD sum may carry into its GD part: the shift leaves out K",
        STRATEGIES,
        "    shift = (len(columns) * hierarchy.height).bit_length()\n",
        "    shift = hierarchy.height.bit_length()\n",
    ),
    (
        "(o) GD and LD walk each (dataset label, prediction) pair once per row, not once",
        STRATEGIES,
        "    @cache\n    def pair(a: str, b: str) -> int:",
        "    def pair(a: str, b: str) -> int:",
    ),
    (
        "(p) RANDOM's keys, built on first read, skip the 2^53 scaling of the draws",
        STRATEGIES,
        "            values = map(int, map(mul, values, repeat(2.0**53)))\n",
        "            values = map(int, values)\n",
    ),
    (
        "(q) _rows_of reads a list's kept rows without asking whose pool they are",
        EVALUATE,
        "    rows = _gather(lambda: ranking.ids, position, ranking._position, message)\n",
        "    rows = None if ranking._rows is not None else _gather(\n"
        "        lambda: ranking.ids, position, ranking._position, message)\n",
    ),
    (
        "(r) the hierarchy walk's meeting test compares names by identity",
        HIERARCHY,
        "        while a != b:  # equal names need not be one object\n",
        "        while a is not b:  # equal names need not be one object\n",
    ),
    (
        "(s) only the first name of the walk climbs to equal depth",
        HIERARCHY,
        "        while e > d:\n            b, e = parent[b], e - 1\n",
        "",
    ),
    (
        "(t) parent() answers None for an unknown name",
        HIERARCHY,
        "        self.depth(name)  # an unknown name raises\n        return self._parent[name]\n",
        "        return self._parent.get(name)\n",
    ),
    (
        "(u) the one-gather helper returns a bare value for one row",
        CORPUS,
        "    if len(rows) == 1:\n        return (values[rows[0]],)\n",
        "",
    ),
    (
        "(v) f1_curve's packed fields are one bit short and carry into each other",
        EVALUATE,
        "    width = (2 * len(walk)).bit_length()",
        "    width = (2 * len(walk)).bit_length() - 1",
    ),
    (
        "(w) Jaccard reads the union's size before adding b's segment",
        EVALUATE,
        "        union.update(rows_a[previous:budget], rows_b[previous:budget])\n"
        "        previous = budget\n"
        "        size = len(union)\n",
        "        union.update(rows_a[previous:budget])\n"
        "        size = len(union)\n"
        "        union.update(rows_b[previous:budget])\n"
        "        previous = budget\n",
    ),
    (
        "(x) a kept value serves a call whose key is equal, not the same objects",
        CORPUS,
        "        if kept is not None and all(map(is_, kept[0], key)):\n",
        "        if kept is not None and kept[0] == key:\n",
    ),
    (
        "(y) one kept value for every builder: each store drops the others",
        CORPUS,
        "        self._kept = {**self._kept, build: (key, value)}\n",
        "        self._kept = {build: (key, value)}\n",
    ),
    (
        "(z) _fill's slice path stores the chunk's fresh labels",
        CORPUS,
        "        column_labels[start:stop] = map(intern, labels)\n",
        "        column_labels[start:stop] = labels\n",
    ),
    (
        "(z') load_pool adds its chunk labels un-interned",
        CORPUS,
        "            labels += map(intern, chunk_labels)\n",
        "            labels += chunk_labels\n",
    ),
    (
        "(z'') the constructors and record paths intern a label that is no str",
        CORPUS,
        "    return intern(value) if type(value) is str else value\n",
        "    return intern(value)\n",
    ),
    (
        "(aa) a single-instance scorer keeps its sums on the prediction set, not a copy",
        STRATEGIES,
        "copy(predictions), hierarchy, kind)",
        "predictions, hierarchy, kind)",
    ),
    (
        "(ab) CONFIDENCE adds a disagreeing model's confidence but does not count the model",
        STRATEGIES,
        "                count[row] += 1\n",
        "",
    ),
    (
        "(ac) CONFIDENCE pairs the disagreeing rows with the column's first confidences",
        STRATEGIES,
        "            confs = _take(confs, rows)\n",
        "",
    ),
]


def copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def run_tests(target: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(target / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", PROBED, *PYTEST],
        cwd=target, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
        print(f"pytest exited {done.returncode} in {target}:\n{done.stderr}", file=sys.stderr)
        sys.exit(2)
    return done.returncode


def main() -> int:
    for name, file, anchor, _ in MUTANTS:
        found = (ROOT / file).read_text(encoding="utf-8").count(anchor)
        if found != 1:
            print(f"{name}: anchor occurs {found} times in {file}; update tests/mutants.py")
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        copy_tree(baseline)
        if run_tests(baseline) != 0:
            print("the unmutated copy fails the tests; no mutant can be judged")
            return 2
        survivors = []
        for i, (name, file, anchor, replacement) in enumerate(MUTANTS):
            target = Path(scratch) / f"mutant{i}"
            copy_tree(target)
            path = target / file
            path.write_text(
                path.read_text(encoding="utf-8").replace(anchor, replacement), encoding="utf-8"
            )
            caught = run_tests(target) == 1
            if not caught:
                survivors.append(name)
            print(f"{name}: {'caught' if caught else 'SURVIVES'}", flush=True)
    if survivors:
        print("surviving mutants: " + "; ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
