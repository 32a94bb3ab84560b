"""Rooted label hierarchy with shortest-path distance and LCA queries."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ParseError, ValidationError


class UnknownLabelError(ValidationError):
    """Raised when a queried label is not a node of the hierarchy."""


class LabelHierarchy:
    """Immutable rooted tree over label names.

    Built once from (name, parent-or-None) records, it keeps two maps: each
    name's parent (None for the root), in record order, and each name's
    depth. ``lca``, ``tree_distance`` and ``distance_to_lca`` each climb at
    most O(h) parent links, h being the tree height; ``children`` and
    ``leaves`` scan the parent map. Nothing mutates after construction;
    unrestricted concurrent reads are safe.

    Grouping nodes and relation labels are both ordinary nodes: any node
    name may occur as a dataset or predicted label.
    """

    def __init__(self, records: Iterable[tuple[str, str | None]]) -> None:
        parent: dict[str, str | None] = {}
        for name, up in records:
            if name in parent:
                raise ValidationError(f"duplicate node name: {name!r}")
            parent[name] = up
        if not parent:
            raise ValidationError("hierarchy has no nodes")

        roots = [name for name, up in parent.items() if up is None]
        if not roots:
            raise ValidationError("no root: every node declares a parent")
        if len(roots) > 1:
            raise ValidationError("multiple roots: " + ", ".join(sorted(roots)))

        children: dict[str, list[str]] = {name: [] for name in parent}
        for name, up in parent.items():
            if up is None:
                continue
            if up not in children:
                raise ValidationError(f"node {name!r} references unknown parent {up!r}")
            children[up].append(name)

        depth, level, height = {roots[0]: 0}, roots, 0
        while level := {child: name for name in level for child in children[name]}:
            # each parent becomes the very object that is its node's key: a climb step
            # then finds its key by identity, and the records' parent strings are freed
            parent.update(level)
            height += 1
            depth.update(dict.fromkeys(level, height))
        if len(depth) != len(parent):
            stranded = sorted(parent.keys() - depth.keys())
            raise ValidationError("cycle detected among nodes: " + ", ".join(stranded))

        self._parent = parent
        self._depth = depth
        self._root = roots[0]
        self._height = height

    # -- structure accessors -------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def height(self) -> int:
        """Maximum node depth (root = 0)."""
        return self._height

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, name: object) -> bool:
        return name in self._parent

    def __iter__(self) -> Iterator[str]:
        return iter(self._parent)

    def names(self) -> tuple[str, ...]:
        return tuple(self._parent)

    def depth(self, name: str) -> int:
        try:
            return self._depth[name]
        except KeyError:
            raise UnknownLabelError(f"label not in hierarchy: {name!r}") from None

    def parent(self, name: str) -> str | None:
        self.depth(name)  # an unknown name raises
        return self._parent[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.depth(name)  # an unknown name raises
        return tuple(child for child, up in self._parent.items() if up == name)

    def leaves(self) -> tuple[str, ...]:
        """Names of all childless nodes, in insertion order."""
        parents = set(self._parent.values())
        return tuple(name for name in self._parent if name not in parents)

    def records(self) -> list[tuple[str, str | None]]:
        """(name, parent) pairs in insertion order; rebuilds an equal hierarchy."""
        return list(self._parent.items())

    # -- queries -------------------------------------------------------------

    def _lca(self, a: str, b: str) -> tuple[str, int, int]:
        """lca(a, b) and the edges from ``a`` and from ``b`` up to it, by a
        depth-equalizing two-pointer walk of O(h) parent steps; the first
        unknown name raises."""
        parent, depth = self._parent, self._depth
        try:
            da, db = depth[a], depth[b]
        except KeyError:
            self.depth(a), self.depth(b)  # raises for the first unknown name
        d, e = da, db  # the depths of a and b as they climb
        while d > e:
            a, d = parent[a], d - 1
        while e > d:
            b, e = parent[b], e - 1
        while a != b:  # equal names need not be one object
            a, b, d = parent[a], parent[b], d - 1
        return a, da - d, db - d

    def lca(self, a: str, b: str) -> str:
        """Deepest node that is an ancestor-or-self of both ``a`` and ``b``."""
        return self._lca(a, b)[0]

    def tree_distance(self, a: str, b: str) -> int:
        """Number of edges on the unique simple path between ``a`` and ``b``."""
        _, up, down = self._lca(a, b)
        return up + down

    def distance_to_lca(self, a: str, b: str) -> int:
        """Edges from ``a`` up to lca(a, b). Not symmetric in general."""
        return self._lca(a, b)[1]

    def validate_labels(self, labels: Iterable[str]) -> list[str]:
        """Sorted list of the given labels that do not resolve to a node.

        An empty list means every label is resolvable.
        """
        return sorted(set(labels).difference(self._parent))


def _read_json(path: Path) -> Any:
    """Parse a whole file as one JSON document; any decoding failure is a ParseError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long ints
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def load_hierarchy(source: str | Path) -> LabelHierarchy:
    """Load a hierarchy document: {"nodes": [{"name": ..., "parent": ...}, ...]}.

    Exactly one node must have a null parent; record order does not matter.
    """
    path = Path(source)
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ParseError(f"{path}: expected an object with a 'nodes' array")
    records: list[tuple[str, str | None]] = []
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: nodes[{i}] is not an object")
        if "name" not in entry or "parent" not in entry:
            raise ParseError(f"{path}: nodes[{i}] needs 'name' and 'parent' fields")
        name, parent = entry["name"], entry["parent"]
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}: nodes[{i}] has a non-string or empty name")
        if parent is not None and not isinstance(parent, str):
            raise ParseError(f"{path}: nodes[{i}] parent must be a string or null")
        records.append((name, parent))
    return LabelHierarchy(records)


def dump_hierarchy(hierarchy: LabelHierarchy, target: str | Path) -> None:
    """Write a hierarchy document that round-trips through load_hierarchy."""
    doc = {"nodes": [{"name": n, "parent": p} for n, p in hierarchy.records()]}
    Path(target).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
