"""Seeded input bundles for the benchmark workloads.

The generator belongs to the benchmark, not to ``reannotate.synth``, so a
change to the program cannot change a workload's inputs. A bundle is built
in memory from one ``random.Random`` and written as the files the
``reannotate`` CLI reads; the in-memory copy is what the oracles check
against, so no check ever trusts the program's own loaders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NEGATIVE = "no_relation"


@dataclass
class Bundle:
    """One generated workload input: hierarchy, pool, predictions and gold."""

    parent: dict[str, str | None]  # node -> parent, parents before children
    ids: list[str]  # pool ids, in file order (ascending)
    labels: list[str]  # dataset label per pool id
    gold: dict[str, str | None]  # id -> gold label, None = eliminated; absent = clean
    models: list[str]
    preds: list[list[tuple[str, float]]]  # per model: (label, confidence) per pool id

    def noisy_ids(self) -> set[str]:
        label_of = dict(zip(self.ids, self.labels))
        return {i for i, g in self.gold.items() if g is None or g != label_of[i]}

    def depths(self) -> dict[str, int]:
        depth: dict[str, int] = {}
        for node, parent in self.parent.items():
            depth[node] = 0 if parent is None else depth[parent] + 1
        return depth


def _ids(size: int) -> list[str]:
    width = len(str(size - 1))
    return [f"i{n:0{width}d}" for n in range(size)]


def balanced_bundle(
    rng: random.Random,
    *,
    groups: int,
    subgroups: int,
    leaves: int,
    size: int,
    models: int,
    noise: float,
    eliminate: float,
    flip: float,
) -> Bundle:
    """root -> groups -> subgroups -> leaf labels, plus the negative label under root.

    Every instance has a true leaf label. Noisy and eliminated instances
    carry a leaf from another group (or the negative label) as dataset
    label; gold holds the truth, or null when eliminated, and covers half
    the clean instances. Each model predicts the truth, or with
    probability ``flip`` a sibling leaf with lower confidence.
    """
    parent: dict[str, str | None] = {"root": None, NEGATIVE: "root"}
    siblings: dict[str, list[str]] = {}
    group_of: dict[str, int] = {NEGATIVE: -1}
    for g in range(groups):
        parent[f"g{g}"] = "root"
        for s in range(subgroups):
            parent[f"g{g}s{s}"] = f"g{g}"
            names = [f"g{g}s{s}x{x}" for x in range(leaves)]
            for name in names:
                parent[name] = f"g{g}s{s}"
                group_of[name] = g
                siblings[name] = [n for n in names if n != name]
    truths = list(group_of)
    far = {t: [o for o in truths if group_of[o] != group_of[t]] for t in truths}
    near = {t: siblings.get(t) or [o for o in truths if o != t] for t in truths}

    ids = _ids(size)
    labels: list[str] = []
    gold: dict[str, str | None] = {}
    preds: list[list[tuple[str, float]]] = [[] for _ in range(models)]
    for iid in ids:
        truth = rng.choice(truths)
        draw = rng.random()
        if draw < eliminate + noise:
            labels.append(rng.choice(far[truth]))
            gold[iid] = None if draw < eliminate else truth
        else:
            labels.append(truth)
            if rng.random() < 0.5:
                gold[iid] = truth
        for column in preds:
            if rng.random() < flip:
                column.append((rng.choice(near[truth]), rng.uniform(0.3, 0.7)))
            else:
                column.append((truth, rng.uniform(0.7, 1.0)))
    return Bundle(parent, ids, labels, gold, [f"m{j + 1}" for j in range(models)], preds)


def random_tree_bundle(
    rng: random.Random, *, nodes: int, size: int, models: int, noise: float
) -> Bundle:
    """Uniform random recursive tree: node n{i} hangs below a uniformly drawn earlier node.

    True labels are drawn from every non-root node. A noisy instance gets
    another non-root node as dataset label and the truth as gold; gold
    covers half the clean instances. Each model predicts the truth 60% of
    the time, its parent 20% and a uniformly drawn node 20%.
    """
    names = [f"n{i}" for i in range(nodes)]
    parent: dict[str, str | None] = {"n0": None}
    for i in range(1, nodes):
        parent[names[i]] = names[rng.randrange(i)]
    ids = _ids(size)
    labels: list[str] = []
    gold: dict[str, str | None] = {}
    preds: list[list[tuple[str, float]]] = [[] for _ in range(models)]
    for iid in ids:
        truth = names[rng.randrange(1, nodes)]
        if rng.random() < noise:
            label = truth
            while label == truth:
                label = names[rng.randrange(1, nodes)]
            labels.append(label)
            gold[iid] = truth
        else:
            labels.append(truth)
            if rng.random() < 0.5:
                gold[iid] = truth
        for column in preds:
            draw = rng.random()
            if draw < 0.6:
                column.append((truth, rng.uniform(0.6, 1.0)))
            elif draw < 0.8:
                column.append((parent[truth], rng.uniform(0.2, 0.6)))
            else:
                column.append((rng.choice(names), rng.uniform(0.2, 0.6)))
    return Bundle(parent, ids, labels, gold, [f"m{j + 1}" for j in range(models)], preds)


def write_bundle(bundle: Bundle, directory: Path) -> dict:
    """Write the bundle's files; return CLI-relative file names and input descriptors.

    Node names, ids and model ids are generated ASCII without quotes or
    backslashes, so records are formatted directly; confidences use
    ``repr``, which JSON reads back to the identical float.
    """
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"nodes": [{"name": n, "parent": p} for n, p in bundle.parent.items()]}
    (directory / "hierarchy.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with open(directory / "pool.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"id": "{i}", "relation": "{label}", "partition": "test"}}\n'
            for i, label in zip(bundle.ids, bundle.labels)
        )
    prediction_files = []
    for model, column in zip(bundle.models, bundle.preds):
        name = f"predictions_{model}.jsonl"
        with open(directory / name, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'{{"model": "{model}", "id": "{i}", "label": "{label}", '
                f'"confidence": {conf!r}}}\n'
                for i, (label, conf) in zip(bundle.ids, column)
            )
        prediction_files.append(name)
    with open(directory / "gold.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"id": "{i}", "gold": {json.dumps(g)}}}\n' for i, g in bundle.gold.items()
        )
    files = ["hierarchy.json", "pool.jsonl", "gold.jsonl", *prediction_files]
    return {
        "predictions": prediction_files,
        "bytes": sum((directory / f).stat().st_size for f in files),
        "records": len(bundle.ids) * (1 + len(bundle.models)) + len(bundle.gold),
        "pool": len(bundle.ids),
        "models": len(bundle.models),
        "nodes": len(bundle.parent),
        "height": max(bundle.depths().values()),
        "distinct_labels": len(set(bundle.labels)),
        "noisy": len(bundle.noisy_ids()),
    }
