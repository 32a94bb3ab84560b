"""Shared test utilities: brute-force oracles, reference loaders and small
fixture builders.

The oracles work from raw (name, parent) records via BFS / ancestor-set
enumeration, independently of the package's depth-walk query path. The
reference loaders read JSON Lines inputs one line at a time from the README's
input spec, independently of `reannotate.corpus`.
"""

import json
from collections import deque
from functools import wraps
from pathlib import Path

from reannotate import (
    ELIMINATED,
    GoldRecord,
    GoldSet,
    Instance,
    LabelHierarchy,
    ParseError,
    PredictionRecord,
    PredictionSet,
    RankedList,
    ReannotationPool,
    StrategyKind,
    ValidationError,
)

# -- brute-force oracles -----------------------------------------------------


def adjacency(records):
    adj = {name: [] for name, _ in records}
    for name, parent in records:
        if parent is not None:
            adj[name].append(parent)
            adj[parent].append(name)
    return adj


def bfs_distance(adj, start, goal):
    """Shortest-path edge count by breadth-first search."""
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adj[node]:
            if neighbor in dist:
                continue
            dist[neighbor] = dist[node] + 1
            if neighbor == goal:
                return dist[neighbor]
            queue.append(neighbor)
    raise AssertionError(f"no path from {start} to {goal}")


def ancestor_chain(parents, node):
    """node, parent(node), ..., root."""
    chain = [node]
    while parents[node] is not None:
        node = parents[node]
        chain.append(node)
    return chain


def lca_by_ancestor_sets(parents, a, b):
    """Deepest common member of the two root-paths (ancestor-set intersection)."""
    ancestors_of_a = set(ancestor_chain(parents, a))
    best = None
    best_depth = -1
    for node in ancestor_chain(parents, b):
        if node in ancestors_of_a:
            depth = len(ancestor_chain(parents, node)) - 1
            if depth > best_depth:
                best, best_depth = node, depth
    assert best is not None
    return best


def oracle_micro_f1(predictions, labels, negative_label):
    """Micro P/R/F1 from an explicit confusion matrix (independent of evaluate.micro_f1)."""
    from fractions import Fraction

    matrix = {}
    for iid, gold in labels.items():
        key = (gold, predictions[iid])
        matrix[key] = matrix.get(key, 0) + 1
    tp = sum(n for (g, p), n in matrix.items() if g == p and p != negative_label)
    fp = sum(n for (g, p), n in matrix.items() if p != negative_label and p != g)
    fn = sum(n for (g, p), n in matrix.items() if g != negative_label and p != g)
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else Fraction(0)
    )
    return precision, recall, f1


# -- fixture builders --------------------------------------------------------


def random_tree(rng, size):
    """Uniform random recursive tree: node n{i} attaches below a random earlier node."""
    if size < 1:
        raise ValidationError("tree needs at least one node")
    records = [("n0", None)]
    records += [(f"n{i}", f"n{rng.randrange(i)}") for i in range(1, size)]
    return LabelHierarchy(records)


def chain_hierarchy(size):
    """Path graph of the given size: n0 -> n1 -> ... (height = size - 1)."""
    records = [("n0", None)]
    records += [(f"n{i}", f"n{i - 1}") for i in range(1, size)]
    return LabelHierarchy(records)


def make_pool(labels, partition=None):
    """Pool from an {id: label} mapping."""
    return ReannotationPool(
        Instance(iid, label, partition=partition) for iid, label in labels.items()
    )


def make_predictions(pool, by_model):
    """PredictionSet from {model: {id: label}} or {model: {id: (label, confidence)}}."""
    records = []
    for model, preds in by_model.items():
        for iid, value in preds.items():
            label, confidence = value if isinstance(value, tuple) else (value, 0.9)
            records.append(PredictionRecord(model, iid, label, confidence))
    return PredictionSet(records, pool)


def make_gold(pool, relabels):
    """GoldSet from {id: gold_label_or_None}; None marks elimination."""
    records = [
        GoldRecord(iid, ELIMINATED if value is None else value)
        for iid, value in relabels.items()
    ]
    return GoldSet(records, pool)


def ordered_ranking(ids, kind=StrategyKind.GD):
    """A RankedList with the given order (fabricated strictly descending scores)."""
    return RankedList(kind, tuple(ids), tuple(range(len(ids), 0, -1)), 1)


def loader_outcome(load, *args):
    """What a loader returned, as the repr of plain values (it tells 1 from 1.0),
    or the error it raised."""
    try:
        loaded = load(*args)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    if isinstance(loaded, ReannotationPool):
        return repr([
            {"id": inst.id, "relation": inst.label, "partition": inst.partition,
             "metadata": dict(inst.metadata)}
            for inst in loaded
        ])
    if isinstance(loaded, PredictionSet):
        return repr({
            model: [(rec.instance_id, rec.label, rec.confidence)
                    for rec in loaded.records_for_model(model)]
            for model in loaded.model_ids
        })
    return repr({
        "gold": {rec.instance_id: None if rec.is_eliminated else rec.gold
                 for rec in loaded.records()},
        "noisy": sorted(loaded.noisy_ids),
    })


def against_reference(load, reference, *args):
    """(what `load` gave, what `reference` gave) for the same arguments, in the
    reference's terms: the repr of the accepted values, or the error class with
    the location its message names. A ParseError's location is the head of its
    message ("path:line", or the path); a ValidationError's is the part of the
    path, model and instance id the reference expects that its message names."""
    expected = reference(*args)
    actual = loader_outcome(load, *args)
    if isinstance(actual, tuple):
        kind, message = actual
        if kind is ParseError:
            names = (message.split(": ", 1)[0],)
        else:
            expected_names = expected[1] if isinstance(expected, tuple) else ()
            names = tuple(name for name in expected_names if name in message)
        actual = kind, names
    return actual, expected if isinstance(expected, tuple) else repr(expected)


# -- reference loaders -------------------------------------------------------
#
# JSON Lines as the README's "Input files" section has it: UTF-8, one object
# per line, only "\n" ends a line, blank lines are skipped, and each record is
# checked as it is read, in read order. Each loader returns the accepted values
# as plain lists and dicts, or on the first defect (error class, names): the
# "path:line" a ParseError names, or the path, model and instance id (models
# and ids as reprs) that a ValidationError names.


class _Defect(Exception):
    """The first defect: (error class, names)."""


def _refuse(kind, *names):
    raise _Defect(kind, names)


def _reference(read):
    @wraps(read)
    def outcome(*args):
        try:
            return read(*args)
        except _Defect as defect:
            return defect.args
    return outcome


def _objects(path):
    """("path:line", object) per non-blank line, after the whole file decodes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        _refuse(ParseError, str(path))
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # incl. over-long ints
            _refuse(ParseError, where)
        if not isinstance(obj, dict):
            _refuse(ParseError, where)
        yield where, obj


def _is_string(obj, key, null_too=False):
    return type(obj.get(key)) is str or (null_too and obj.get(key) is None)


@_reference
def reference_pool(path):
    """Instances as dicts in file order; ids, labels and partitions are checked
    once every line is read."""
    rows = []
    for where, obj in _objects(path):
        if not (
            _is_string(obj, "id") and _is_string(obj, "relation")
            and _is_string(obj, "partition", null_too=True)
        ):
            _refuse(ParseError, where)
        partition = obj.get("partition")
        rows.append({
            "id": obj["id"], "relation": obj["relation"],
            "partition": partition and partition.lower(),
            "metadata": {k: v for k, v in obj.items() if k not in ("id", "relation", "partition")},
        })
    if not rows:
        _refuse(ValidationError)
    seen = set()
    for row in rows:
        iid = row["id"]
        if not iid:
            _refuse(ValidationError)
        if not row["relation"] or row["partition"] not in (None, "train", "dev", "test"):
            _refuse(ValidationError, repr(iid))
        if iid in seen:
            _refuse(ValidationError, repr(iid))
        seen.add(iid)
    return rows


@_reference
def reference_predictions(paths, pool):
    """Per model, in file order, its (id, label, confidence) rows in pool order;
    completeness is checked after the last file."""
    known = set(pool.ids())
    table = {}  # model -> {id: (label, confidence)}
    read_from = {}
    for path in paths:
        model = None
        for where, obj in _objects(path):
            if not (
                all(_is_string(obj, key) for key in ("model", "id", "label"))
                and type(obj.get("confidence")) in (int, float)  # a bool is no number
            ):
                _refuse(ParseError, where)
            if model is None:
                model = obj["model"]
                if model in read_from:
                    _refuse(ValidationError, str(path), repr(model), str(read_from[model]))
                read_from[model] = path
                table[model] = {}
            elif obj["model"] != model:
                _refuse(ValidationError, str(path), repr(model), repr(obj["model"]))
            iid = obj["id"]
            try:
                confidence = float(obj["confidence"])
            except OverflowError:
                _refuse(ValidationError, where)
            if not 0 <= confidence <= 1 or iid not in known or iid in table[model]:
                _refuse(ValidationError, repr(model), repr(iid))
            table[model][iid] = (obj["label"], confidence)
        if model is None:
            _refuse(ValidationError, str(path))
    if not table:
        _refuse(ValidationError)
    for model, rows in table.items():
        for iid in pool.ids():
            if iid not in rows:
                _refuse(ValidationError, repr(model), repr(iid))
    return {
        model: [(iid, *rows[iid]) for iid in pool.ids()] for model, rows in table.items()
    }


@_reference
def reference_gold(path, pool):
    """The id -> gold map in file order (None: eliminated) and the sorted noisy ids."""
    gold = {}
    for where, obj in _objects(path):
        if not (_is_string(obj, "id") and "gold" in obj and _is_string(obj, "gold", null_too=True)):
            _refuse(ParseError, where)
        iid, value = obj["id"], obj["gold"]
        if iid not in pool or iid in gold or value == "":
            _refuse(ValidationError, repr(iid))
        gold[iid] = value
    noisy = sorted(iid for iid, value in gold.items() if value != pool.label_of(iid))
    return {"gold": gold, "noisy": noisy}
