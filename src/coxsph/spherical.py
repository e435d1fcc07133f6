"""Witness search for I-spherical elements.

An element w with I contained in its left descent set J(w) is I-spherical
when some reduced word R of w satisfies both letter bounds:

  (S.1) every generator outside I occurs at most once in R;
  (S.2) for each connected component C of the subdiagram induced by I, the
        letters from C occur at most l(w0 of W_C) + #vertices(C) times.

The search walks reduced words right-to-left over right descents, carrying
the remaining allowance per outside node and per component, and memoizes
failed (element, allowance) states so exhausted branches are never re-walked.
Verification of a produced witness is an independent recount over the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import ComponentDecomposition, CoxeterError, CoxeterSystem, Element
from . import words as _words


@dataclass(frozen=True)
class WitnessCertificate:
    """A checked I-witness: the word plus the letter counts that passed."""

    word: tuple[int, ...]
    per_node_counts: dict
    per_component_counts: dict

    def __str__(self):
        return _words.format_word(self.word)


def _letter_counts(letters) -> dict:
    counts: dict[int, int] = {}
    for i in letters:
        counts[i] = counts.get(i, 0) + 1
    return counts


def verify_witness(system: CoxeterSystem, w: Element, I, letters) -> bool:
    """Recount a candidate word against (S.1)/(S.2); independent of any search."""
    I = frozenset(I)
    if not I <= system.left_descents(w):
        raise CoxeterError("I is not a subset of the left descent set of w")
    if len(letters) != w.length or _words.evaluate(system, letters) != w:
        return False
    decomp = system.decompose_subset(I)
    counts = _letter_counts(letters)
    for j in range(1, system.rank + 1):
        if j not in I and counts.get(j, 0) > 1:
            return False
    for comp, budget in zip(decomp.components, decomp.budgets):
        if sum(counts.get(j, 0) for j in comp) > budget:
            return False
    return True


def certificate_from_word(system, I, letters) -> WitnessCertificate:
    decomp = system.decompose_subset(I)
    counts = _letter_counts(letters)
    per_comp = {
        comp: sum(counts.get(j, 0) for j in comp) for comp in decomp.components
    }
    return WitnessCertificate(tuple(letters), counts, per_comp)


class WitnessSearcher:
    """Budgeted DFS over reduced words, reusable across queries with one I.

    The failure memo is keyed by (element, remaining allowances) and is valid
    for any query element in the same system with the same I, so censuses
    share one searcher per descent set.
    """

    def __init__(self, system: CoxeterSystem, I):
        self.system = system
        self.I = frozenset(I)
        self.decomp: ComponentDecomposition = system.decompose_subset(self.I)
        self.comp_of = self.decomp.component_of()
        self.outside = tuple(
            j for j in range(1, system.rank + 1) if j not in self.I
        )
        self.out_index = {j: k for k, j in enumerate(self.outside)}
        self._fail: set = set()
        self._ids: dict[tuple, int] = {}
        self._supp: dict[tuple, frozenset] = {}

    def search(self, w: Element) -> tuple[int, ...] | None:
        """An I-witness for w, or None if every reduced word violates a bound."""
        rem1 = [1] * len(self.outside)
        rem2 = list(self.decomp.budgets)
        got = self._dfs(w, rem1, rem2)
        return None if got is None else tuple(got)

    def _support(self, w: Element) -> frozenset:
        supp = self._supp.get(w.rep)
        if supp is None:
            supp = self.system.support(w)
            self._supp[w.rep] = supp
        return supp

    def _down(self, w: Element, i: int) -> Element:
        """w s_i for a right descent i of w, with its length l(w) - 1 recorded."""
        sys_ = self.system
        v = sys_.multiply(w, sys_.generator(i))
        v._length = w.length - 1
        return v

    def _dfs(self, w: Element, rem1: list, rem2: list):
        if w.length == 0:
            return []
        supp = self._support(w)
        allowance = 0
        for k, j in enumerate(self.outside):
            if j in supp:
                if rem1[k] == 0:
                    return None
                allowance += rem1[k]
        for z, comp in enumerate(self.decomp.components):
            if any(j in supp for j in comp):
                if rem2[z] == 0:
                    return None
                allowance += rem2[z]
        if w.length > allowance:
            return None
        eid = self._ids.setdefault(w.rep, len(self._ids))
        key = (eid, tuple(rem1), tuple(rem2))
        if key in self._fail:
            return None
        for i in sorted(self.system.right_descents(w)):
            if i in self.I:
                z = self.comp_of[i]
                if rem2[z] == 0:
                    continue
                rem2[z] -= 1
                got = self._dfs(self._down(w, i), rem1, rem2)
                rem2[z] += 1
            else:
                k = self.out_index[i]
                if rem1[k] == 0:
                    continue
                rem1[k] = 0
                got = self._dfs(self._down(w, i), rem1, rem2)
                rem1[k] = 1
            if got is not None:
                got.append(i)
                return got
        self._fail.add(key)
        return None


def find_witness(system: CoxeterSystem, w: Element, I) -> WitnessCertificate | None:
    """Search for an I-witness; raises unless I is within the left descents."""
    I = frozenset(I)
    if not I <= system.left_descents(w):
        raise CoxeterError("I is not a subset of the left descent set of w")
    word = WitnessSearcher(system, I).search(w)
    if word is None:
        return None
    return certificate_from_word(system, I, word)


def is_I_spherical(system: CoxeterSystem, w: Element, I) -> bool:
    return find_witness(system, w, I) is not None


def is_maximally_spherical(system: CoxeterSystem, w: Element) -> bool:
    return is_I_spherical(system, w, system.left_descents(w))


def census(system: CoxeterSystem, elements):
    """Yield (w, J(w), J(w)-witness word or None) for each element in order.

    One searcher per descent set is built on first use and shared by every
    later element with that set, so its failure memo carries across them.
    """
    searchers: dict[frozenset, WitnessSearcher] = {}
    for w in elements:
        J = system.left_descents(w)
        searcher = searchers.get(J)
        if searcher is None:
            searcher = searchers[J] = WitnessSearcher(system, J)
        yield w, J, searcher.search(w)


def nonspherical_census(system: CoxeterSystem) -> list[Element]:
    """Every element that is not J(w)-spherical, in enumeration order."""
    return [
        w for w, _, word in census(system, system.elements()) if word is None
    ]


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
