"""The subscription tree (paper §4.1).

A broker stores its subscriptions in a tree ordered by the covering
relation: a node's XPE covers every XPE in its subtree.  Because
covering is only a partial order, a node may be covered by several
subscriptions; *super pointers* record covering relations that the tree
shape cannot (turning the structure into a DAG).  The tree serves three
purposes:

* **compact routing state** — only the top-level (maximal) subscriptions
  are forwarded to neighbours; everything deeper is redundant,
* **fast covering checks** — a new subscription descends from the root
  and needs comparisons only along its insertion path,
* **fast publication matching** — if a publication fails a node's XPE it
  cannot match anything in that node's subtree, so whole subtrees are
  pruned.

Insertion implements the paper's three cases: descend into a covering
child (case 3), capture covered siblings as children (case 2), or join
as a new sibling (case 1).  Multiple subscribers/last-hops may share one
XPE; the node keeps a reference count per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.covering.algorithms import covers
from repro.covering.pathmatch import path_matcher
from repro.xpath.ast import XPathExpr


@dataclass(eq=False)
class SubNode:
    """One subscription in the tree.

    Identity semantics (``eq=False``): nodes are mutable containers and
    list membership tests must not recurse into children/parents.
    """

    expr: XPathExpr
    parent: Optional["SubNode"] = None
    children: List["SubNode"] = field(default_factory=list)
    keys: Set[object] = field(default_factory=set)
    super_pointers: Set[int] = field(default_factory=set)

    def depth(self):
        """Root children are at depth 1."""
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def __repr__(self):
        return "SubNode(%s, keys=%r)" % (self.expr, sorted(map(str, self.keys)))


@dataclass(frozen=True)
class InsertOutcome:
    """Result of inserting an XPE.

    Attributes:
        node: the tree node now holding the XPE.
        is_new: False when the exact XPE was already present (the key
            was merged into the existing node).
        covered: True when an existing *different* subscription covers
            the new one — a covering-based router then suppresses
            forwarding.
        displaced: previously top-level XPEs that the new subscription
            covers; they moved under the new node and a covering-based
            router unsubscribes them from its neighbours.
    """

    node: SubNode
    is_new: bool
    covered: bool
    displaced: Tuple[XPathExpr, ...]


@dataclass(frozen=True)
class RemoveOutcome:
    """Result of removing an XPE.

    Attributes:
        removed: True when the XPE (for this key) left the tree.
        was_top_level: the removed node was top-level, i.e. had been
            forwarded, so an unsubscription must propagate.
        promoted: XPEs that became top-level because their covering
            parent vanished; a covering-based router forwards them now.
    """

    removed: bool
    was_top_level: bool
    promoted: Tuple[XPathExpr, ...]


class SubscriptionTree:
    """Covering-ordered subscription storage for one broker.

    Args:
        eager_super_pointers: maintain super pointers on every insert
            (an O(n) scan, exactly the cost the paper warns about and
            then postpones).  They are not needed for routing decisions
            — displacement is detected from sibling scans — so the
            default is lazy (off).
    """

    def __init__(self, eager_super_pointers: bool = False):
        self._root = SubNode(expr=None)  # sentinel
        self._by_expr: Dict[XPathExpr, SubNode] = {}
        self._eager_super_pointers = eager_super_pointers
        #: Lifetime count of covering comparisons made by descents; the
        #: instrumented entry points publish deltas of this as the
        #: ``covering.tree.cover_checks`` metric.
        self.cover_checks = 0

    # -- size metrics -----------------------------------------------------

    def __len__(self):
        """Number of distinct XPEs stored (covered ones included)."""
        return len(self._by_expr)

    def top_level_size(self):
        """Number of maximal (forwarded) XPEs — the routing-table size a
        downstream broker has to carry (Figure 6's metric)."""
        return len(self._root.children)

    def top_level_exprs(self):
        return [child.expr for child in self._root.children]

    def __contains__(self, expr):
        return expr in self._by_expr

    def exprs(self):
        return list(self._by_expr)

    def node_of(self, expr):
        return self._by_expr.get(expr)

    # -- insertion ---------------------------------------------------------

    def insert(self, expr: XPathExpr, key: object = None) -> InsertOutcome:
        """Insert *expr* for subscriber/last-hop *key* (paper's three
        cases; breadth-first descent from the root)."""
        registry = obs.get_registry()
        if not registry.enabled:
            return self._insert(expr, key)
        checks_before = self.cover_checks
        with registry.timer("covering.tree.insert"):
            outcome = self._insert(expr, key)
        registry.counter("covering.tree.cover_checks").inc(
            self.cover_checks - checks_before
        )
        return outcome

    def _insert(self, expr: XPathExpr, key: object = None) -> InsertOutcome:
        existing = self._by_expr.get(expr)
        if existing is not None:
            existing.keys.add(key)
            return InsertOutcome(
                node=existing,
                is_new=False,
                covered=True,
                displaced=(),
            )

        parent = self._descend(self._root, expr)

        covered_siblings = [
            child for child in parent.children if covers(expr, child.expr)
        ]
        node = SubNode(expr=expr, parent=parent, keys={key})
        for child in covered_siblings:
            parent.children.remove(child)
            child.parent = node
            node.children.append(child)
        parent.children.append(node)
        self._by_expr[expr] = node

        if self._eager_super_pointers:
            self._update_super_pointers(node)

        top_level = parent is self._root
        displaced = (
            tuple(child.expr for child in covered_siblings)
            if top_level
            else ()
        )
        return InsertOutcome(
            node=node,
            is_new=True,
            covered=not top_level,
            displaced=displaced,
        )

    def _update_super_pointers(self, node: SubNode):
        """Record covering relations the tree shape cannot express: the
        new node covers nodes outside its subtree, and existing nodes
        outside the new node's ancestor chain cover it."""
        subtree = set()
        stack = [node]
        while stack:
            current = stack.pop()
            subtree.add(id(current))
            stack.extend(current.children)
        ancestors = set()
        current = node.parent
        while current is not None:
            ancestors.add(id(current))
            current = current.parent
        for other in self._by_expr.values():
            if id(other) in subtree or id(other) in ancestors:
                continue
            if covers(node.expr, other.expr):
                node.super_pointers.add(id(other))
            if covers(other.expr, node.expr):
                other.super_pointers.add(id(node))

    # -- removal -----------------------------------------------------------

    def remove(self, expr: XPathExpr, key: object = None) -> RemoveOutcome:
        """Remove *expr* for *key*.  The node disappears only when its
        last key is gone.  Its children are *re-placed* from the old
        parent — a child may be covered by a different node (the
        multi-coverer case the paper's super pointers track), in which
        case it descends there instead of joining the parent's level.
        Only children that end up top-level are reported as promoted
        (they are the ones a covering-based router must now forward)."""
        node = self._by_expr.get(expr)
        if node is None:
            return RemoveOutcome(removed=False, was_top_level=False, promoted=())
        node.keys.discard(key)
        if node.keys:
            return RemoveOutcome(removed=False, was_top_level=False, promoted=())

        parent = node.parent
        was_top_level = parent is self._root
        parent.children.remove(node)
        del self._by_expr[expr]
        promoted = []
        for child in node.children:
            target = self._descend(parent, child.expr)
            child.parent = target
            target.children.append(child)
            if was_top_level and target is self._root:
                promoted.append(child.expr)
        for other in self._by_expr.values():
            other.super_pointers.discard(id(node))
        return RemoveOutcome(
            removed=True,
            was_top_level=was_top_level,
            promoted=tuple(promoted),
        )

    def _descend(self, start: SubNode, expr: XPathExpr) -> SubNode:
        """Walk from *start* into covering children until none covers
        *expr* (the insertion descent, reused by child re-placement).

        The sibling scans apply the paper's §4.1 search properties as
        O(1) prechecks before the covering algorithms run:

        * a coverer is never longer than the covered expression
          (the *absolute XPE node* property generalised to the whole
          language — every covering algorithm requires ``|s1| <= |s2|``);
        * an absolute node never covers a relative expression unless it
          is all-wildcards (the *relative XPE node* property: relative
          XPEs never live inside absolute subtrees).
        """
        expr_len = len(expr.steps)
        relative = expr.is_relative
        current = start
        while True:
            covering_child = None
            for child in current.children:
                child_expr = child.expr
                if len(child_expr.steps) > expr_len:
                    continue
                if (
                    relative
                    and child_expr.rooted
                    and not all(s.is_wildcard for s in child_expr.steps)
                ):
                    continue
                self.cover_checks += 1
                if covers(child_expr, expr):
                    covering_child = child
                    break
            if covering_child is None:
                return current
            current = covering_child

    # -- matching ----------------------------------------------------------

    def match(self, path: Sequence[str], attributes=None) -> List[SubNode]:
        """All nodes whose XPE matches the publication *path*.

        Failing a node prunes its whole subtree: the node covers its
        descendants, so a path it rejects cannot match them either.
        """
        registry = obs.get_registry()
        if not registry.enabled:
            return self._match(path, attributes)
        with registry.timer("covering.tree.match"):
            matched, visited = self._match(path, attributes, count=True)
        registry.counter("covering.tree.nodes_visited").inc(visited)
        registry.counter("covering.tree.nodes_pruned").inc(
            len(self._by_expr) - visited
        )
        return matched

    def _match(self, path, attributes=None, count=False):
        # One path probed against many XPEs: render the compiled path
        # string once and reuse it down the whole descent.
        wants = path_matcher(path, attributes)
        matched: List[SubNode] = []
        visited = 0
        stack = list(self._root.children)
        while stack:
            node = stack.pop()
            visited += 1
            if wants(node.expr):
                matched.append(node)
                stack.extend(node.children)
        if count:
            return matched, visited
        return matched

    def match_keys(self, path: Sequence[str], attributes=None) -> Set[object]:
        """Union of the subscriber keys of all matching nodes."""
        keys: Set[object] = set()
        for node in self.match(path, attributes):
            keys |= node.keys
        return keys

    def matches_any(self, path: Sequence[str], attributes=None) -> bool:
        """True when some stored XPE matches *path* (top-level check
        only — by covering, a match anywhere implies one at top level)."""
        wants = path_matcher(path, attributes)
        return any(wants(child.expr) for child in self._root.children)

    # -- introspection -----------------------------------------------------

    def iter_nodes(self) -> Iterable[SubNode]:
        stack = list(self._root.children)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def validate(self):
        """Check the covering invariant everywhere (test support)."""
        for node in self.iter_nodes():
            for child in node.children:
                if not covers(node.expr, child.expr):
                    raise AssertionError(
                        "covering invariant violated: %s !>= %s"
                        % (node.expr, child.expr)
                    )

    def to_dot(self, max_label: int = 40) -> str:
        """Graphviz DOT rendering of the tree (debugging aid).

        Solid edges are parent/child covering edges; dashed edges are
        super pointers (present only in eager mode).
        """
        lines = ["digraph subscription_tree {", "  rankdir=TB;"]
        ids = {}

        def node_id(node):
            if id(node) not in ids:
                ids[id(node)] = "n%d" % len(ids)
            return ids[id(node)]

        index = {id(n): n for n in self.iter_nodes()}
        lines.append('  %s [label="ROOT", shape=box];' % node_id(self._root))
        for node in self.iter_nodes():
            label = str(node.expr)
            if len(label) > max_label:
                label = label[: max_label - 3] + "..."
            label = label.replace('"', "'")
            lines.append(
                '  %s [label="%s (%d)"];'
                % (node_id(node), label, len(node.keys))
            )
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children:
                lines.append(
                    "  %s -> %s;" % (node_id(node), node_id(child))
                )
                stack.append(child)
        for node in self.iter_nodes():
            for pointer in node.super_pointers:
                target = index.get(pointer)
                if target is not None:
                    lines.append(
                        "  %s -> %s [style=dashed];"
                        % (node_id(node), node_id(target))
                    )
        lines.append("}")
        return "\n".join(lines)

    @property
    def root(self):
        return self._root
