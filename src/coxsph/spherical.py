"""Witness search for I-spherical elements.

An element w with I contained in its left descent set J(w) is I-spherical
when some reduced word R of w satisfies both letter bounds:

  (S.1) every generator outside I occurs at most once in R;
  (S.2) for each connected component C of the subdiagram induced by I, the
        letters from C occur at most l(w0 of W_C) + #vertices(C) times.

(S.1) is (S.2) for a one-node group of budget 1, so both bounds are one
table of letter groups and budgets: a singleton (j,) for each node j outside
I, then the components of I. `CoxeterSystem.decompose_subset` builds it once
per I and system, and the search, the recount of a witness and the
certificate all read it. The search walks reduced words right-to-left over
right descents, spending one unit of each peeled letter's group, and
memoizes failed (element, remaining allowances) states.
`verify_witness` recounts a word against the table without the search's
prune or memo, and `has_distinct_letter_word` decides I = {} without it.

What the walk learns about an element does not depend on I: its support,
its right descents, its down-steps w s_i and its left descents J(w), one
`WeakOrderNode` record per element. Every record has one form: `down[k]`
is the record of w s_i for i = `descents[k]`, and the search reads both by
index. A census or a consistency sweep iterates the records of the one
walk that enumerates the group (`CoxeterSystem.weak_order`), which steps
each edge of the right weak order once, by code, and hands each record
to the searcher of its descent set, so the search makes no step and looks
no element up. A searcher handed a bare `Element` (`find_witness`,
`run_check`) makes its own records instead, lazily, on the images of the
simple roots, the element's rep: a record is keyed by its images and holds
no `Element`, gets its support off them when it is made, its descents and
empty slots when the search first admits it, and a slot is stepped the
first time the search tries that edge, by one image step
(`CoxeterSystem._right_images`, O(degree)) that carries the length l(w) - 1.
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


def _descent_subset(system: CoxeterSystem, w: Element, I) -> frozenset:
    """I as a frozenset; raises unless its nodes are in range and it lies in
    the left descents of w."""
    I = frozenset(I)
    system._check_nodes(I)
    if not I <= system.left_descents(w):
        raise CoxeterError("I is not a subset of the left descent set of w")
    return I


def verify_witness(system: CoxeterSystem, w: Element, I, letters) -> bool:
    """Recount a candidate word against (S.1)/(S.2); independent of any search."""
    I = _descent_subset(system, w, I)
    if len(letters) != w.length or _words.evaluate(system, letters) != w:
        return False
    counts = Counter(letters)
    decomp = system.decompose_subset(I)
    return all(
        sum(counts[j] for j in group) <= budget
        for group, budget in zip(decomp.groups, decomp.allowances)
    )


class WitnessSearcher:
    """Budgeted DFS over reduced words, reusable across queries with one I.

    Group g of `groups` has budget `budgets[g]`, and `slot[i]` is the group
    of node i: the table of I's `ComponentDecomposition`, shared by every
    searcher of the system with this I. The failure memo `_fail` is keyed by
    (record, remaining allowance per group), valid for any element of the
    system with this I, so censuses share one searcher per descent set.
    `_seen` holds the records this searcher visited. Supports, descents and
    down-steps come from the records it is handed (a census's walk records)
    or, for an element handed in bare, from the records it makes itself:
    `_records` holds those by their images. Both memos key on the record
    object, so a walk record and a record made here for the same element
    are two keys, never one key for two elements. `_touched` maps each
    support to the groups it meets, a table of the decomposition that
    every searcher of the subset shares.
    """

    def __init__(self, system: CoxeterSystem, I):
        self.system = system
        self.I = frozenset(I)
        decomp = system.decompose_subset(self.I)
        self.groups, self.budgets, self.slot = decomp.groups, decomp.allowances, decomp.slot
        self._touched: dict[frozenset, tuple[int, ...]] = decomp.touched
        self._fail: set = set()
        self._seen: set[WeakOrderNode] = set()
        self._records: dict[tuple, WeakOrderNode] = {}

    def _record(self, w: Element) -> WeakOrderNode:
        """This searcher's record of w: that of its images (`_lazy`)."""
        return self._lazy(w.rep, w.length)

    def _lazy(self, images: tuple, length: int) -> WeakOrderNode:
        """This searcher's record of the element with these images of the
        simple roots and this length, made on first sight with its support
        read off the images (`WeakOrderNode.lazy`)."""
        node = self._records.get(images)
        if node is None:
            node = self._records[images] = WeakOrderNode.lazy(
                images, length, self.system._image_support(images)
            )
        return node

    def _open(self, node: WeakOrderNode) -> None:
        """Fill the right descents of a record made here, ascending, read
        off its images, and give it one empty down-edge slot per descent."""
        node.descents = self.system._image_descents(node.images)
        node.down = [None] * len(node.descents)

    def _step(self, node: WeakOrderNode, k: int) -> WeakOrderNode:
        """Fill slot k of an open record: the record of w s_i, i =
        descents[k], one image step (`_right_images`, O(degree)) with its
        length l(w) - 1, since i is a descent."""
        images = self.system._right_images(node.images, node.descents[k])
        node.down[k] = child = self._lazy(images, node.length - 1)
        return child

    def search(self, w) -> tuple[int, ...] | None:
        """An I-witness for w, or None if every reduced word violates a bound.
        w is an Element or its `WeakOrderNode` record.

        A depth-first walk with an explicit stack, so l(w) sets no recursion
        limit. Each record the walk reaches goes into `_seen`, then is
        admitted unless the prune or the failure memo rules it out: the
        prune rejects it when a group its support touches has no allowance
        left, or when l(w) exceeds the allowance those groups have left
        (`_touched` caches the groups per support); the memo rejects a
        failure key (record, remaining allowances) that already failed. A
        record made here is opened (`_open`) when first admitted.
        `frames` holds, for each admitted node of the current path, a list
        [failure key, record, index of the next down-edge to try]; the
        edges go in ascending order of their letters, `descents[k]` and
        `down[k]`, and an empty slot is stepped (`_step`) when the frame
        reaches it. `letters` holds the descents peeled so far, whose units
        are spent from `rem` and given back on backtrack. A node whose edges
        are all exhausted goes into the failure memo.
        """
        slot, groups = self.slot, self.groups
        seen, fail, touched_by = self._seen, self._fail, self._touched
        node = w if type(w) is WeakOrderNode else self._record(w)
        rem, frames, letters = list(self.budgets), [], []
        while True:
            if node.length == 0:
                return tuple(reversed(letters))
            seen.add(node)
            support = node.support
            touched = touched_by.get(support)
            if touched is None:
                touched = touched_by[support] = tuple(
                    g for g, group in enumerate(groups)
                    if not support.isdisjoint(group)
                )
            allowance = 0
            for g in touched:
                if rem[g] == 0:
                    allowance = -1  # below every length the walk reaches
                    break
                allowance += rem[g]
            key = (node, tuple(rem)) if node.length <= allowance else None
            if key is not None and key not in fail:
                if node.descents is None:
                    self._open(node)
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
                    node = parent.down[k] or self._step(parent, k)
                    rem[slot[i]] -= 1
                    letters.append(i)
                    break
                fail.add(key)
                frames.pop()
                if letters:
                    rem[slot[letters.pop()]] += 1
            else:
                return None


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


def has_distinct_letter_word(system: CoxeterSystem, w: Element) -> bool:
    """The I = {} verdict without the search: with I empty every letter has
    budget 1, so a witness is a reduced word of distinct letters, and w has
    one iff l(w) = |supp(w)| (Tenner's boolean elements)."""
    return w.length == len(system.support(w))


def is_maximally_spherical(system: CoxeterSystem, w: Element) -> bool:
    return is_I_spherical(system, w, system.left_descents(w))


def census(system: CoxeterSystem):
    """Yield (record of w, J(w), J(w)-witness word or None) for each element,
    in enumeration order: the records of `system.weak_order()`, so the
    census steps one code (`_right_code`) per weak-order edge and one
    rep per element, all in the walk, and its searches none. J(w) is the
    record's `left_descents`, which the walk fills: no `left_descents` call.

    One searcher per descent set is built on first use and shared by every
    later element with that set, so its failure memo carries across them;
    each is handed the walk's record itself, so no searcher looks an element
    up or makes a record of its own, and every `_seen` entry is a walk
    record.
    """
    searchers: dict[frozenset, WitnessSearcher] = {}
    for node in system.weak_order():
        J = node.left_descents
        searcher = searchers.get(J)
        if searcher is None:
            searcher = searchers[J] = WitnessSearcher(system, J)
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
