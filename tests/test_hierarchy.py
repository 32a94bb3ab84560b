import json
import random

import pytest

from helpers import (
    adjacency, ancestor_chain, bfs_distance, chain_hierarchy, lca_by_ancestor_sets, random_tree,
)
from reannotate import LabelHierarchy, ParseError, UnknownLabelError, ValidationError
from reannotate.hierarchy import dump_hierarchy, load_hierarchy


def test_minimal_chain_depths():
    h = LabelHierarchy([("per", None), ("per-per", "per"), ("per:family", "per-per")])
    assert h.depth("per") == 0
    assert h.depth("per-per") == 1
    assert h.depth("per:family") == 2
    assert h.root == "per"
    assert h.height == 2
    assert len(h) == 3


def test_record_order_does_not_matter():
    records = [("per:family", "per-per"), ("per", None), ("per-per", "per")]
    h = LabelHierarchy(records)
    assert h.depth("per:family") == 2


def test_multiple_roots_rejected():
    with pytest.raises(ValidationError, match="multiple roots"):
        LabelHierarchy([("a", None), ("b", None)])


def test_two_cycle_has_no_root():
    with pytest.raises(ValidationError, match="no root"):
        LabelHierarchy([("a", "b"), ("b", "a")])


def test_cycle_off_the_root_detected():
    with pytest.raises(ValidationError, match="cycle"):
        LabelHierarchy([("r", None), ("a", "b"), ("b", "a")])


def test_duplicate_name_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        LabelHierarchy([("a", None), ("a", "a")])


def test_unknown_parent_rejected():
    with pytest.raises(ValidationError, match="unknown parent"):
        LabelHierarchy([("a", None), ("b", "ghost")])


def test_empty_rejected():
    with pytest.raises(ValidationError):
        LabelHierarchy([])


def test_children_follow_record_order():
    h = LabelHierarchy([("r", None), ("b", "r"), ("a", "r")])
    assert h.children("r") == ("b", "a")
    assert list(h) == list(h.names()) == ["r", "b", "a"]
    assert h.parent("a") == "r"
    assert h.parent("r") is None


@pytest.mark.parametrize(
    "records, message",
    [
        ([("a", None), ("b", "a"), ("b", "a")], "duplicate node name: 'b'"),
        ([], "hierarchy has no nodes"),
        ([("a", "b"), ("b", "a")], "no root: every node declares a parent"),
        ([("c", None), ("a", None), ("b", "a")], "multiple roots: a, c"),
        ([("a", None), ("b", "a"), ("c", "ghost")], "node 'c' references unknown parent 'ghost'"),
        # "d" hangs below the a <-> b cycle, so the root's tree does not reach it either
        (
            [("r", None), ("b", "a"), ("d", "b"), ("a", "b"), ("e", "r")],
            "cycle detected among nodes: a, b, d",
        ),
    ],
)
def test_construction_error_text(records, message):
    with pytest.raises(ValidationError) as raised:
        LabelHierarchy(records)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "records, message",
    [
        ([("a", None), ("b", None), ("a", "b")], "duplicate node name: 'a'"),
        ([("a", None), ("b", None), ("c", "ghost")], "multiple roots: a, b"),
        ([("a", "ghost"), ("b", "a")], "no root: every node declares a parent"),
        (
            [("r", None), ("a", "b"), ("b", "a"), ("c", "ghost")],
            "node 'c' references unknown parent 'ghost'",
        ),
        ([("r", None), ("x", "g1"), ("y", "g0")], "node 'x' references unknown parent 'g1'"),
    ],
)
def test_first_check_decides_between_two_defects(records, message):
    with pytest.raises(ValidationError) as raised:
        LabelHierarchy(records)
    assert str(raised.value) == message


def test_parent_and_children_of_unknown_name_raise(excerpt):
    for query in (excerpt.parent, excerpt.children):
        with pytest.raises(UnknownLabelError, match=r"^label not in hierarchy: 'bogus'$"):
            query("bogus")


def test_leaves_in_record_order():
    h = LabelHierarchy([("r", None), ("b", "r"), ("a", "r"), ("c", "b"), ("d", "b")])
    assert h.leaves() == ("a", "c", "d")
    assert h.children("b") == ("c", "d") and h.children("a") == ()
    assert LabelHierarchy([("r", None)]).leaves() == ("r",)


def _fresh(name):
    """A string equal to `name` that is another object."""
    copy = "".join([name[:1], name[1:]])
    assert copy == name and copy is not name
    return copy


def test_queries_on_equal_names_that_are_other_objects(excerpt):
    # records whose parents are other string objects than the names they equal,
    # queried with names that are yet other objects
    h = LabelHierarchy((n, p and _fresh(p)) for n, p in excerpt.records())
    for a, b in (("per:parent", "per:age"), ("per:parent", "per:children"), ("per:age", "root")):
        fa, fb = _fresh(a), _fresh(b)
        for hierarchy in (excerpt, h):
            assert hierarchy.lca(fa, fb) == excerpt.lca(a, b)
            assert hierarchy.tree_distance(fa, fb) == excerpt.tree_distance(a, b)
            assert hierarchy.distance_to_lca(fa, fb) == excerpt.distance_to_lca(a, b)
            assert hierarchy.distance_to_lca(fb, fa) == excerpt.distance_to_lca(b, a)
            assert hierarchy.lca(fa, a) == a and hierarchy.tree_distance(fa, a) == 0
    assert h.lca("per:parent", "per:children") == "per:family"
    assert h.depth(_fresh("per:age")) == 3 and h.parent(_fresh("per:age")) == "per-misc"
    assert h.children(_fresh("per:family")) == excerpt.children("per:family")
    assert h.records() == excerpt.records() and h.leaves() == excerpt.leaves()


# -- worked example ------------------------------------------------------


def test_excerpt_distance(excerpt):
    assert excerpt.tree_distance("per:parent", "per:age") == 5
    assert excerpt.tree_distance("per:age", "per:parent") == 5


def test_excerpt_distance_identity(excerpt):
    for name in excerpt.names():
        assert excerpt.tree_distance(name, name) == 0


def test_excerpt_distance_to_parent(excerpt):
    assert excerpt.tree_distance("per:parent", "per:family") == 1


def test_excerpt_lca(excerpt):
    assert excerpt.lca("per:parent", "per:age") == "per"
    assert excerpt.lca("per:parent", "per:parent") == "per:parent"
    assert excerpt.lca("per:parent", "per:family") == "per:family"


def test_excerpt_distance_to_lca(excerpt):
    assert excerpt.distance_to_lca("per:parent", "per:age") == 3
    assert excerpt.distance_to_lca("per:age", "per:parent") == 2
    assert excerpt.distance_to_lca("per:age", "per:age") == 0
    assert excerpt.distance_to_lca("per:family", "per:parent") == 0
    assert excerpt.distance_to_lca("per:parent", "per:family") == 1


def test_unknown_label_raises(excerpt):
    for query in (
        lambda: excerpt.tree_distance("per:parent", "bogus"),
        lambda: excerpt.lca("bogus", "per:parent"),
        lambda: excerpt.distance_to_lca("bogus", "bogus"),
        lambda: excerpt.depth("bogus"),
    ):
        with pytest.raises(UnknownLabelError):
            query()


def test_validate_labels(excerpt):
    assert excerpt.validate_labels(["per:parent", "per"]) == []
    assert excerpt.validate_labels(["per:parent", "bogus"]) == ["bogus"]
    assert excerpt.validate_labels([]) == []
    assert excerpt.validate_labels(["zz", "aa", "aa"]) == ["aa", "zz"]


# -- randomized properties -------------------------------------------------


def test_random_tree_shape():
    rng = random.Random(3)
    h = random_tree(rng, 100)
    assert len(h) == 100
    assert h.root == "n0"
    with pytest.raises(ValidationError):
        random_tree(rng, 0)


def test_queries_match_bruteforce_oracles():
    rng = random.Random(8231)
    for _ in range(60):
        size = rng.randint(2, 60)
        h = random_tree(rng, size)
        records = h.records()
        adj = adjacency(records)
        parents = dict(records)
        names = h.names()
        for _ in range(12):
            a, b = rng.choice(names), rng.choice(names)
            assert h.tree_distance(a, b) == bfs_distance(adj, a, b)
            assert h.lca(a, b) == lca_by_ancestor_sets(parents, a, b)
            assert h.distance_to_lca(a, b) == len(ancestor_chain(parents, a)) - len(
                ancestor_chain(parents, h.lca(a, b))
            )


def test_metric_axioms_random_trees():
    rng = random.Random(917)
    for _ in range(40):
        h = random_tree(rng, rng.randint(2, 80))
        names = h.names()
        for _ in range(10):
            a, b, c = (rng.choice(names) for _ in range(3))
            dab = h.tree_distance(a, b)
            assert dab == h.tree_distance(b, a)
            assert h.tree_distance(a, a) == 0
            assert h.tree_distance(a, c) <= dab + h.tree_distance(b, c)
            assert h.distance_to_lca(a, b) <= dab
            assert dab == h.distance_to_lca(a, b) + h.distance_to_lca(b, a)


def test_depth_invariant_random_trees():
    rng = random.Random(5)
    for _ in range(20):
        h = random_tree(rng, rng.randint(1, 50))
        for name in h.names():
            parent = h.parent(name)
            if parent is None:
                assert h.depth(name) == 0
            else:
                assert h.depth(name) == h.depth(parent) + 1


def test_deep_chain():
    h = chain_hierarchy(500)
    assert h.height == 499
    assert h.tree_distance("n0", "n499") == 499
    assert h.lca("n499", "n250") == "n250"
    assert h.distance_to_lca("n499", "n250") == 249


# -- file round trip ---------------------------------------------------------


def test_load_hierarchy_file(excerpt_path):
    h = load_hierarchy(excerpt_path)
    assert "per:age" in h
    assert "bogus" not in h


def test_dump_load_round_trip(excerpt, tmp_path):
    target = tmp_path / "h.json"
    dump_hierarchy(excerpt, target)
    again = load_hierarchy(target)
    assert again.records() == excerpt.records()


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_hierarchy(path)


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ParseError, match="nodes"):
        load_hierarchy(path)
    path.write_text(json.dumps({"nodes": [1]}))
    with pytest.raises(ParseError, match=r"nodes\[0\] is not an object$"):
        load_hierarchy(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"name": "a"}]}))
    with pytest.raises(ParseError, match="parent"):
        load_hierarchy(path)


def test_load_rejects_nonstring_name(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"name": 3, "parent": None}]}))
    with pytest.raises(ParseError):
        load_hierarchy(path)
    path.write_text(json.dumps({"nodes": [{"name": "a", "parent": 3}]}))
    with pytest.raises(ParseError, match=r"nodes\[0\] parent must be a string or null$"):
        load_hierarchy(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_hierarchy(tmp_path / "missing.json")
