"""Witness search for I-spherical elements.

An element w with I contained in its left descent set J(w) is I-spherical
when some reduced word R of w satisfies both letter bounds:

  (S.1) every generator outside I occurs at most once in R;
  (S.2) for each connected component C of the subdiagram induced by I, the
        letters from C occur at most l(w0 of W_C) + #vertices(C) times.

(S.1) is (S.2) for a one-node group of budget 1, so `_allowances` writes both
bounds as one table of letter groups and budgets: a singleton (j,) for each
node j outside I, then the components of I. The search, the recount of a
witness and the certificate all read that table. The search walks reduced
words right-to-left over right descents, spending one unit of each peeled
letter's group, and memoizes failed (element, remaining allowances) states.
`verify_witness` recounts a word against the table without the search's
prune or memo.

What the walk learns about an element does not depend on I: its support,
its right descents and its down-steps w s_i. A `NodeTable` keeps them, one
`WeakOrderNode` record per element, for every searcher it is given. Every
record has one form: `down[k]` is the record of w s_i for i =
`descents[k]`, and the search reads both by index. A census's table is the
list of records that the one walk enumerating the group builds
(`CoxeterSystem.weak_order`), which steps each edge of the right weak order
once; `census` hands each record to the searcher of its descent set, so the
search makes no step and looks no element up. A single query
(`find_witness`) fills a table lazily instead: a record gets its descents
and empty slots when a search first admits it, and a slot is stepped the
first time a search tries that edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .coxeter import CoxeterError, CoxeterSystem, Element, WeakOrderNode
from . import words as _words


@dataclass(frozen=True)
class WitnessCertificate:
    """The word `find_witness` found and its letter counts, per node and per
    component of I. Nothing rechecks them here: `verify_witness` (or
    `check --paranoid`) recounts a word independently of the search."""

    word: tuple[int, ...]
    per_node_counts: dict
    per_component_counts: dict

    def __str__(self):
        return _words.format_word(self.word)


def _allowances(system: CoxeterSystem, I: frozenset):
    """The letter groups of (S.1)/(S.2) for I and their budgets: a budget-1
    singleton per node outside I, then the components of I."""
    decomp = system.decompose_subset(I)
    outside = [(j,) for j in range(1, system.rank + 1) if j not in I]
    return (*outside, *decomp.components), (1,) * len(outside) + decomp.budgets


def _descent_subset(system: CoxeterSystem, w: Element, I) -> frozenset:
    """I as a frozenset; raises unless it lies in the left descents of w."""
    I = frozenset(I)
    if not I <= system.left_descents(w):
        raise CoxeterError("I is not a subset of the left descent set of w")
    return I


def verify_witness(system: CoxeterSystem, w: Element, I, letters) -> bool:
    """Recount a candidate word against (S.1)/(S.2); independent of any search."""
    I = _descent_subset(system, w, I)
    if len(letters) != w.length or _words.evaluate(system, letters) != w:
        return False
    counts = Counter(letters)
    return all(
        sum(counts[j] for j in group) <= budget
        for group, budget in zip(*_allowances(system, I))
    )


class NodeTable:
    """The part of the right weak order that searches of one system walk:
    one `WeakOrderNode` per element.

    Nothing in a record depends on I, so any number of searchers may share
    a table. `NodeTable.weak_order(system)` holds the whole group, the
    records of one `CoxeterSystem.weak_order` walk, so a record's id is its
    enumeration index and its searches make no step. A table made with
    `NodeTable(system)` (`find_witness`, `run_check`, groups too large to
    enumerate) makes a record on first sight of an element, with
    `descents` and `down` None; `open` gives it its descents and a list of
    empty down-edge slots when a search first admits it, and `step` fills
    slot k the first time some searcher peels that letter off that element.
    Both kinds then hold the same form: `down` aligned with `descents`.
    Either kind indexes its records by rep only once `node` is first asked.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self.records: list[WeakOrderNode] = []  # by id
        self._nodes: dict[tuple, WeakOrderNode] | None = None  # by rep

    @classmethod
    def weak_order(cls, system: CoxeterSystem) -> "NodeTable":
        """The table of every element: the records of `system.weak_order()`."""
        table = cls(system)
        table.records = system.weak_order()
        return table

    def node(self, w: Element) -> WeakOrderNode:
        """The record of w, made on first sight."""
        if self._nodes is None:
            self._nodes = {node.element.rep: node for node in self.records}
        node = self._nodes.get(w.rep)
        if node is None:
            node = self._nodes[w.rep] = WeakOrderNode(
                len(self.records), w, self.system.support(w), None, None
            )
            self.records.append(node)
        return node

    def open(self, node: WeakOrderNode) -> None:
        """Fill the right descents of a lazily made record, ascending, and
        give it one empty down-edge slot per descent."""
        node.descents = tuple(sorted(self.system.right_descents(node.element)))
        node.down = [None] * len(node.descents)

    def step(self, node: WeakOrderNode, k: int) -> WeakOrderNode:
        """Fill slot k of an open record: the record of w s_i, i = descents[k]."""
        w = self.system.step(node.element, node.descents[k])
        child = node.down[k] = self.node(w)
        return child


class WitnessSearcher:
    """Budgeted DFS over reduced words, reusable across queries with one I.

    Group g of `groups` (the `_allowances` table) has budget `budgets[g]`;
    `slot[i]` is the group of node i. The failure memo `_fail` is keyed by
    (element id, remaining allowance per group), valid for any element of the
    system with this I, so censuses share one searcher per descent set.
    `_seen` holds the ids of the elements this searcher visited. Supports,
    descents and down-steps come from `nodes`, a `NodeTable` that other
    searchers of the same system may share (a fresh one by default).
    """

    def __init__(self, system: CoxeterSystem, I, nodes: NodeTable | None = None):
        self.nodes = NodeTable(system) if nodes is None else nodes
        self.I = frozenset(I)
        self.groups, self.budgets = _allowances(system, self.I)
        self.slot = {i: g for g, group in enumerate(self.groups) for i in group}
        self._fail: set = set()
        self._seen: set[int] = set()
        # support -> the groups whose letters it contains
        self._touched: dict[frozenset, tuple[int, ...]] = {}

    def search(self, w) -> tuple[int, ...] | None:
        """An I-witness for w, or None if every reduced word violates a bound.
        w is an Element or its record in `self.nodes`.

        A depth-first walk with an explicit stack, so l(w) sets no recursion
        limit. `frames` holds, for each open node of the current path, a
        list [failure key, record, index of the next down-edge to try]; the
        edges go in ascending order of their letters, `descents[k]` and
        `down[k]`, and an empty slot of a lazy table is stepped
        (`NodeTable.step`) when the frame reaches it. `letters` holds the
        descents peeled so far, whose units are spent from `rem` and given
        back on backtrack. A node whose edges are all exhausted goes into
        the failure memo.
        """
        nodes, slot = self.nodes, self.slot
        node = w if type(w) is WeakOrderNode else nodes.node(w)
        rem, frames, letters = list(self.budgets), [], []
        while True:
            if node.length == 0:
                return tuple(reversed(letters))
            key = self._admit(node, rem)
            if key is not None:
                if node.descents is None:
                    nodes.open(node)
                frames.append([key, node, 0])
            elif letters:
                rem[slot[letters.pop()]] += 1
            # each right descent i of an admitted node lies in its support,
            # so the prune left rem[slot[i]] >= 1; backtracking restores rem
            # before a frame tries its next edge
            while frames:
                key, parent, k = frame = frames[-1]
                if k < len(parent.descents):
                    frame[2] = k + 1
                    i = parent.descents[k]
                    node = parent.down[k] or nodes.step(parent, k)
                    rem[slot[i]] -= 1
                    letters.append(i)
                    break
                self._fail.add(key)
                frames.pop()
                if letters:
                    rem[slot[letters.pop()]] += 1
            else:
                return None

    def _admit(self, node: WeakOrderNode, rem: list):
        """The failure key of (node, rem), or None if the prune or the memo
        rules it out. Records the node in `_seen` first, either way."""
        self._seen.add(node.id)
        touched = self._touched.get(node.support)
        if touched is None:
            touched = self._touched[node.support] = tuple(
                g for g, group in enumerate(self.groups)
                if not node.support.isdisjoint(group)
            )
        allowance = 0
        for g in touched:
            if rem[g] == 0:
                return None
            allowance += rem[g]
        if node.length > allowance:
            return None
        key = (node.id, tuple(rem))
        return None if key in self._fail else key


def find_witness(system: CoxeterSystem, w: Element, I) -> WitnessCertificate | None:
    """Search for an I-witness; raises unless I is within the left descents."""
    searcher = WitnessSearcher(system, _descent_subset(system, w, I))
    word = searcher.search(w)
    if word is None:
        return None
    counts = Counter(word)
    per_comp = {
        g: sum(counts[j] for j in g) for g in searcher.groups if g[0] in searcher.I
    }
    return WitnessCertificate(word, dict(counts), per_comp)


def is_I_spherical(system: CoxeterSystem, w: Element, I) -> bool:
    return find_witness(system, w, I) is not None


def is_maximally_spherical(system: CoxeterSystem, w: Element) -> bool:
    return is_I_spherical(system, w, system.left_descents(w))


def census(system: CoxeterSystem):
    """Yield (record of w, J(w), J(w)-witness word or None) for each element,
    in enumeration order: the records of `system.weak_order()`, so the
    census makes one step per edge of the weak order and its searches make
    none.

    One searcher per descent set is built on first use and shared by every
    later element with that set, so its failure memo carries across them;
    each is handed the record itself, so no element is looked up.
    """
    nodes = NodeTable.weak_order(system)
    searchers: dict[frozenset, WitnessSearcher] = {}
    for node in nodes.records:
        J = system.left_descents(node.element)
        searcher = searchers.get(J)
        if searcher is None:
            searcher = searchers[J] = WitnessSearcher(system, J, nodes)
        yield node, J, searcher.search(node)


def nonspherical_census(system: CoxeterSystem) -> list[Element]:
    """Every element that is not J(w)-spherical, in enumeration order."""
    return [node.element for node, _, word in census(system) if word is None]


def w0_sphericality_closed_form(system: CoxeterSystem, I) -> bool:
    """I-sphericality of the longest element without running the search.

    Type A_{n-1} with n >= 5 admits exactly the three descent intervals
    [1,n-1], [2,n-1], [1,n-2]; the other irreducible types admit only I = S.
    Small groups fall back to the search.
    """
    I = frozenset(I)
    t = system.cartan_type
    full = frozenset(range(1, system.rank + 1))
    if t.family == "A":
        n = t.rank + 1
        if n < 5:
            return is_I_spherical(system, system.longest_element(), I)
        choices = (
            full,
            frozenset(range(2, n)),
            frozenset(range(1, n - 1)),
        )
        return I in choices
    if t.family == "D" and t.rank < 4:
        return is_I_spherical(system, system.longest_element(), I)
    return I == full


def dihedral_classification(system: CoxeterSystem, w: Element) -> bool:
    """Closed-form maximal sphericality for rank-2 groups: l(w) <= 3 or w = w0."""
    if system.rank != 2:
        raise CoxeterError("dihedral classification needs a rank-2 system")
    return w.length <= 3 or w == system.longest_element()
