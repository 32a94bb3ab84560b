"""Rooted label hierarchy with shortest-path distance and LCA queries."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ParseError, ValidationError


class UnknownLabelError(ValidationError):
    """Raised when a queried label is not a node of the hierarchy."""


class HierarchyNode:
    """One hierarchy node, linked to its parent and children."""

    __slots__ = ("name", "parent", "children", "depth")

    def __init__(self, name: str) -> None:
        self.name = name
        self.parent: HierarchyNode | None = None
        self.children: list[HierarchyNode] = []
        self.depth = -1

    def __repr__(self) -> str:
        return f"HierarchyNode({self.name!r}, depth={self.depth})"


class LabelHierarchy:
    """Immutable rooted tree over label names.

    Built once from (name, parent-or-None) records. Depths are computed at
    construction, so ``lca``, ``tree_distance``, and ``distance_to_lca``
    each walk at most O(h) parent links, h being the tree height. Nothing
    mutates after construction; unrestricted concurrent reads are safe.

    Grouping nodes and relation labels are both ordinary nodes: any node
    name may occur as a dataset or predicted label.
    """

    def __init__(self, records: Iterable[tuple[str, str | None]]) -> None:
        nodes: dict[str, HierarchyNode] = {}
        parent_names: dict[str, str | None] = {}
        for name, parent in records:
            if name in nodes:
                raise ValidationError(f"duplicate node name: {name!r}")
            nodes[name] = HierarchyNode(name)
            parent_names[name] = parent
        if not nodes:
            raise ValidationError("hierarchy has no nodes")

        roots = [name for name, parent in parent_names.items() if parent is None]
        if not roots:
            raise ValidationError("no root: every node declares a parent")
        if len(roots) > 1:
            raise ValidationError("multiple roots: " + ", ".join(sorted(roots)))

        for name, parent in parent_names.items():
            if parent is None:
                continue
            if parent not in nodes:
                raise ValidationError(f"node {name!r} references unknown parent {parent!r}")
            node = nodes[name]
            node.parent = nodes[parent]
            nodes[parent].children.append(node)

        root = nodes[roots[0]]
        root.depth = 0
        reached = 1
        frontier = [root]
        while frontier:
            nxt: list[HierarchyNode] = []
            for node in frontier:
                for child in node.children:
                    child.depth = node.depth + 1
                    nxt.append(child)
            reached += len(nxt)
            frontier = nxt
        if reached != len(nodes):
            stranded = sorted(n.name for n in nodes.values() if n.depth < 0)
            raise ValidationError("cycle detected among nodes: " + ", ".join(stranded))

        self._nodes = nodes
        self._root = root
        self._height = max(node.depth for node in nodes.values())

    # -- structure accessors -------------------------------------------------

    @property
    def root(self) -> str:
        return self._root.name

    @property
    def height(self) -> int:
        """Maximum node depth (root = 0)."""
        return self._height

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def depth(self, name: str) -> int:
        return self._node(name).depth

    def parent(self, name: str) -> str | None:
        node = self._node(name).parent
        return None if node is None else node.name

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(child.name for child in self._node(name).children)

    def leaves(self) -> tuple[str, ...]:
        """Names of all childless nodes, in insertion order."""
        return tuple(name for name, node in self._nodes.items() if not node.children)

    def records(self) -> list[tuple[str, str | None]]:
        """(name, parent) pairs in insertion order; rebuilds an equal hierarchy."""
        return [
            (name, node.parent.name if node.parent else None)
            for name, node in self._nodes.items()
        ]

    # -- queries -------------------------------------------------------------

    def _node(self, name: str) -> HierarchyNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownLabelError(f"label not in hierarchy: {name!r}") from None

    @staticmethod
    def _lca_node(a: HierarchyNode, b: HierarchyNode) -> HierarchyNode:
        # depth-equalizing two-pointer walk; O(h) parent steps
        while a.depth > b.depth:
            a = a.parent
        while b.depth > a.depth:
            b = b.parent
        while a is not b:
            a = a.parent
            b = b.parent
        return a

    def lca(self, a: str, b: str) -> str:
        """Deepest node that is an ancestor-or-self of both ``a`` and ``b``."""
        return self._lca_node(self._node(a), self._node(b)).name

    def tree_distance(self, a: str, b: str) -> int:
        """Number of edges on the unique simple path between ``a`` and ``b``."""
        na, nb = self._node(a), self._node(b)
        return na.depth + nb.depth - 2 * self._lca_node(na, nb).depth

    def distance_to_lca(self, a: str, b: str) -> int:
        """Edges from ``a`` up to lca(a, b). Not symmetric in general."""
        na, nb = self._node(a), self._node(b)
        return na.depth - self._lca_node(na, nb).depth

    def validate_labels(self, labels: Iterable[str]) -> list[str]:
        """Sorted list of the given labels that do not resolve to a node.

        An empty list means every label is resolvable.
        """
        return sorted(set(labels).difference(self._nodes))


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
