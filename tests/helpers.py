"""Shared test utilities: brute-force oracles and small fixture builders.

The oracles work from raw (name, parent) records via BFS / ancestor-set
enumeration, independently of the package's depth-walk query path.
"""

from collections import deque

from reannotate import (
    ELIMINATED,
    GoldRecord,
    GoldSet,
    Instance,
    LabelHierarchy,
    PredictionRecord,
    PredictionSet,
    RankedList,
    ReannotationPool,
    StrategyKind,
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
