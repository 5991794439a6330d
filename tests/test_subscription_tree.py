"""Unit tests for the subscription tree (paper §4.1)."""


from repro.covering.subscription_tree import SubscriptionTree
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


def build(*texts):
    tree = SubscriptionTree()
    outcomes = [tree.insert(x(t), t) for t in texts]
    return tree, outcomes


class TestInsertCases:
    def test_first_insert_is_top_level(self):
        tree, outcomes = build("/a/b")
        assert outcomes[0].is_new
        assert not outcomes[0].covered
        assert tree.top_level_size() == 1

    def test_case1_new_sibling(self):
        tree, outcomes = build("/a/b", "/c/d")
        assert not outcomes[1].covered
        assert tree.top_level_size() == 2

    def test_case3_descends_into_covering_node(self):
        tree, outcomes = build("/a", "/a/b")
        assert outcomes[1].covered
        assert tree.top_level_size() == 1
        node = tree.node_of(x("/a/b"))
        assert node.parent.expr == x("/a")

    def test_case2_captures_covered_siblings(self):
        tree, outcomes = build("/a/b", "/a/c", "/a")
        last = outcomes[2]
        assert not last.covered
        assert set(last.displaced) == {x("/a/b"), x("/a/c")}
        assert tree.top_level_size() == 1
        assert len(tree) == 3

    def test_deep_chain(self):
        tree, _ = build("/a", "/a/b", "/a/b/c", "/a/b/c/d")
        assert tree.top_level_size() == 1
        node = tree.node_of(x("/a/b/c/d"))
        assert node.depth() == 4

    def test_duplicate_insert_merges_keys(self):
        tree = SubscriptionTree()
        tree.insert(x("/a"), "k1")
        outcome = tree.insert(x("/a"), "k2")
        assert not outcome.is_new
        assert outcome.covered
        assert tree.node_of(x("/a")).keys == {"k1", "k2"}
        assert len(tree) == 1

    def test_paper_figure4_shape(self):
        """The tree of Figure 4 (subset): /a over /a/b, /a/c; /*/b over
        /*/b//c; relative d/a top-level."""
        tree, _ = build(
            "/a", "/a/b", "/a/b/a", "/a/c", "/*/b", "/*/b//c", "d/a", "/a/*/d"
        )
        tree.validate()
        assert x("/a") in tree
        a_node = tree.node_of(x("/a"))
        child_exprs = {child.expr for child in a_node.children}
        assert x("/a/b") in child_exprs
        # Relative expressions never sit under absolute ones.
        assert tree.node_of(x("d/a")).depth() == 1

    def test_covering_invariant_random_order(self):
        texts = ["/a/b/c", "/a", "/a/*", "/a/b", "/x//y", "/x/q/y", "b/c"]
        import itertools

        for perm in itertools.permutations(texts, 4):
            tree = SubscriptionTree()
            for t in perm:
                tree.insert(x(t), t)
            tree.validate()


class TestRemoval:
    def test_remove_leaf(self):
        tree, _ = build("/a", "/a/b")
        outcome = tree.remove(x("/a/b"), "/a/b")
        assert outcome.removed
        assert not outcome.was_top_level
        assert len(tree) == 1

    def test_remove_top_level_promotes_children(self):
        tree, _ = build("/a", "/a/b", "/a/c")
        outcome = tree.remove(x("/a"), "/a")
        assert outcome.removed
        assert outcome.was_top_level
        assert set(outcome.promoted) == {x("/a/b"), x("/a/c")}
        assert tree.top_level_size() == 2

    def test_remove_with_remaining_keys_keeps_node(self):
        tree = SubscriptionTree()
        tree.insert(x("/a"), "k1")
        tree.insert(x("/a"), "k2")
        outcome = tree.remove(x("/a"), "k1")
        assert not outcome.removed
        assert x("/a") in tree

    def test_remove_absent_is_noop(self):
        tree, _ = build("/a")
        outcome = tree.remove(x("/zzz"), "any")
        assert not outcome.removed


class TestMatching:
    def test_match_collects_all_matching_nodes(self):
        tree, _ = build("/a", "/a/b", "/a/c")
        matched = {node.expr for node in tree.match(("a", "b"))}
        assert matched == {x("/a"), x("/a/b")}

    def test_match_keys_unions(self):
        tree = SubscriptionTree()
        tree.insert(x("/a"), "k1")
        tree.insert(x("/a/b"), "k2")
        assert tree.match_keys(("a", "b")) == {"k1", "k2"}
        assert tree.match_keys(("a", "z")) == {"k1"}

    def test_pruning_never_loses_matches(self):
        """Tree matching equals flat matching on random-ish data."""
        texts = [
            "/a", "/a/b", "/a/b/c", "/a/*", "/a/*/c", "b/c", "//c",
            "/x/y", "/x//z", "*",
        ]
        tree = SubscriptionTree()
        for t in texts:
            tree.insert(x(t), t)
        from repro.covering.pathmatch import matches_path

        paths = [
            ("a",), ("a", "b"), ("a", "b", "c"), ("a", "q", "c"),
            ("x", "y"), ("x", "q", "z"), ("q", "b", "c"), ("z",),
        ]
        for path in paths:
            expected = {t for t in texts if matches_path(x(t), path)}
            actual = {str(node.expr) for node in tree.match(path)}
            assert actual == {str(x(t)) for t in expected}, path

    def test_matches_any(self):
        tree, _ = build("/a/b")
        assert tree.matches_any(("a", "b", "c"))
        assert not tree.matches_any(("b",))


class TestSuperPointers:
    def test_eager_super_pointers_record_cross_branch_covering(self):
        tree = SubscriptionTree(eager_super_pointers=True)
        tree.insert(x("/a"), 1)
        tree.insert(x("/a/b"), 2)  # child of /a
        tree.insert(x("/*/b"), 3)  # sibling of /a, covers /a/b
        node = tree.node_of(x("/*/b"))
        covered = tree.node_of(x("/a/b"))
        assert id(covered) in node.super_pointers

    def test_super_pointer_cleanup_on_removal(self):
        tree = SubscriptionTree(eager_super_pointers=True)
        tree.insert(x("/a"), 1)
        tree.insert(x("/a/b"), 2)
        tree.insert(x("/*/b"), 3)
        covered = tree.node_of(x("/a/b"))
        tree.remove(x("/a/b"), 2)
        node = tree.node_of(x("/*/b"))
        assert id(covered) not in node.super_pointers

    def test_lazy_tree_removal_does_not_sweep_every_node(self):
        """A lazy tree holds no super pointers, so retiring a node must
        not walk the whole table to clear them."""

        class NoFullScan(dict):
            def values(self):
                raise AssertionError("removal walked every stored node")

        tree, _ = build("/a", "/a/b", "/*/b", "/c")
        assert not any(node.super_pointers for node in tree.iter_nodes())
        tree._by_expr = NoFullScan(tree._by_expr)
        assert tree.remove(x("/a/b"), "/a/b").removed
        assert tree.node_of(x("/a/b")) is None


class TestDotExport:
    def test_dot_contains_nodes_and_edges(self):
        tree, _ = build("/a", "/a/b", "/c")
        dot = tree.to_dot()
        assert dot.startswith("digraph")
        assert '"ROOT"' in dot
        assert "/a/b" in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")

    def test_dot_truncates_long_labels(self):
        expr = "/" + "/".join(["verylongname%d" % i for i in range(6)])
        tree, _ = build(expr)
        dot = tree.to_dot(max_label=20)
        assert "..." in dot

    def test_dot_renders_super_pointers(self):
        tree = SubscriptionTree(eager_super_pointers=True)
        tree.insert(x("/a"), 1)
        tree.insert(x("/a/b"), 2)
        tree.insert(x("/*/b"), 3)
        assert "style=dashed" in tree.to_dot()
