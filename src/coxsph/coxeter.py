"""Exact arithmetic in finite Coxeter groups.

`CoxeterSystem` realizes types A, B, D, E, F, G through their action on
positive roots written in the simple-root basis: an element is stored as the
signed permutation it induces on the list of positive roots. This gives
O(#roots) multiplication, inversion-free length and descent queries, and a
canonical representation (two elements are equal iff their tuples are).
The roots and each generator's permutation of them come from one closure
that reflects each root by each generator once.

`_right_rep(rep, i)` is the one right-step formula: the rep of w s_i from
the rep of w. `step(w, i)` wraps it as an `Element`: it returns w s_i (s_i w
with `left=True`) with its length l(w) - 1 or l(w) + 1 recorded, so the
callers that walk reduced words one element at a time (the witness search
of single queries, words and Bruhat order) never recount a length or
multiply by a generator. A rep's first `rank` entries, the images of the
simple roots, fix the element. `weak_order()` enumerates the group by one
breadth-first walk of the right weak order that keeps every edge it steps:
one `_right_prefix` per edge, one `_right_rep` and `Element` per element.
It builds one `WeakOrderNode` per element: its support, its right
descents, the records of its down-steps w s_i and its left descents, each
read off a parent's record with no descent query.
`elements()` is the list of their elements, and a census hands the records
themselves to its searchers.
`multiply` is the general product. `word(w)`, the lex-first reduced word
that labels an element, steps no element: it walks the inversion set of
w^-1, at most l(w) roots, through the same per-generator tables as the left
step.

`DihedralSystem` handles I2(m), which has no integral root basis for general
m and whose root permutations would make every product O(m): it stores
w = (s1 s2)^r s1^f as the pair (r mod m, f), with O(1) closed forms for
products, lengths and descents. `CoxeterSystem.from_string` picks the class
once, from the Cartan type.

Node labels are 1-based and follow the diagram conventions used by the test
data: type A node i is the transposition (i, i+1); in E6/E7/E8 the chain is
1-3-4-5-6(-7-8) with node 2 hanging off node 4; D4 has branch node 3 with
leaves 1, 2, 4; B/F double bonds sit at the high-numbered end (B) and middle
(F) as usual.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, mul

ENUM_CAP_ENV = "COXSPH_ENUM_CAP"
DEFAULT_ENUM_CAP = 10**7

_TYPE_RE = re.compile(r"^([ABDEFG])(\d+)$|^I2\((\d+)\)$")


class CoxeterError(ValueError):
    """Invalid Cartan data, element data, or query."""


@dataclass(frozen=True)
class CartanType:
    """A family letter plus rank; dihedral types carry the bond order m."""

    family: str
    rank: int
    gonality: int | None = None

    def __post_init__(self):
        fam, rank = self.family, self.rank
        if fam == "A":
            ok = rank >= 1
        elif fam == "B":
            ok = rank >= 2
        elif fam == "D":
            ok = rank >= 2
        elif fam == "E":
            ok = rank in (6, 7, 8)
        elif fam == "F":
            ok = rank == 4
        elif fam == "G":
            ok = rank == 2
        elif fam == "I":
            ok = rank == 2 and self.gonality is not None and self.gonality >= 3
        else:
            ok = False
        if not ok:
            raise CoxeterError(f"invalid Cartan type {fam}{rank} (gonality={self.gonality})")
        if fam != "I" and self.gonality is not None:
            raise CoxeterError("gonality is only meaningful for I2(m)")

    @staticmethod
    def parse(text: str) -> "CartanType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise CoxeterError(f"cannot parse Cartan type {text!r}")
        if m.group(3) is not None:
            gon = int(m.group(3))
            if gon == 3:
                return CartanType("A", 2)  # I2(3) is A2
            return CartanType("I", 2, gon)
        return CartanType(m.group(1), int(m.group(2)))

    def __str__(self):
        if self.family == "I":
            return f"I2({self.gonality})"
        return f"{self.family}{self.rank}"


def _simply_laced_edges(t: CartanType) -> list[tuple[int, int]]:
    r = t.rank
    if t.family == "A":
        return [(i, i + 1) for i in range(1, r)]
    if t.family == "D":
        if r == 2:
            return []
        if r == 4:
            # branch node labelled 3, matching the D4 test data
            return [(1, 3), (2, 3), (3, 4)]
        return [(i, i + 1) for i in range(1, r - 1)] + [(r - 2, r)]
    if t.family == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if r >= 7:
            edges.append((6, 7))
        if r == 8:
            edges.append((7, 8))
        return edges
    raise CoxeterError(f"{t} is not simply laced")


def _cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = <alpha_j, alpha_i-check> (0-based)."""
    r = t.rank
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    if t.family in ("A", "D", "E"):
        for a, b in _simply_laced_edges(t):
            A[a - 1][b - 1] = A[b - 1][a - 1] = -1
    elif t.family == "B":
        for i in range(r - 1):
            A[i][i + 1] = A[i + 1][i] = -1
        # alpha_r short: s_r(alpha_{r-1}) = alpha_{r-1} + 2 alpha_r
        A[r - 1][r - 2] = -2
    elif t.family == "F":
        for i in range(3):
            A[i][i + 1] = A[i + 1][i] = -1
        A[2][1] = -2  # alpha_3 short
    elif t.family == "G":
        A[0][1] = -3
        A[1][0] = -1
    else:
        raise CoxeterError(f"no Cartan matrix for {t}")
    return tuple(tuple(row) for row in A)


_BOND_TO_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


class Element:
    """Canonical group element of a CoxeterSystem.

    `rep` is the signed root permutation (`CoxeterSystem`) or the rotation
    and reflection pair (r, f) (`DihedralSystem`). Immutable and hashable.
    """

    __slots__ = ("system", "rep", "_length")

    def __init__(self, system: "CoxeterSystem", rep: tuple):
        self.system = system
        self.rep = rep
        self._length = None

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.rep == other.rep
            and self.system.cartan_type == other.system.cartan_type
        )

    def __hash__(self):
        return hash(self.rep)

    def __mul__(self, other: "Element") -> "Element":
        return self.system.multiply(self, other)

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = self.system.length(self)
        return self._length

    def inverse(self) -> "Element":
        return self.system.inverse(self)

    def word(self) -> tuple[int, ...]:
        """The lex-first reduced word (always the smallest left descent)."""
        return self.system.word(self)

    def __repr__(self):
        word = self.word()
        return "<id>" if not word else " ".join(f"s{i}" for i in word)


class WeakOrderNode:
    """One element as a record of the right weak order: the element and its
    length, its support, its right descents in ascending order, its
    down-steps, the records of w s_i, and its left descent set J(w). A
    record is its own identity: it hashes and compares by object, so maps
    keyed by records need no index.

    `down` is always a sequence aligned with `descents`: `down[k]` is the
    record of w s_i for i = descents[k]. `CoxeterSystem.weak_order` fills
    every field at once, with `down` a tuple of records and `left_descents`
    the frozenset `left_descents(w)` returns. A record that a
    `spherical.WitnessSearcher` makes for an element it is handed bare
    leaves `left_descents` None, since the search never reads it, and
    leaves `descents` and `down` None until the search first admits it,
    then opens it with one empty slot per descent and fills a slot the
    first time the search takes that edge (most elements a search meets are
    never stepped from)."""

    __slots__ = ("element", "length", "support", "descents", "down", "left_descents")

    def __init__(
        self, element: Element, support: frozenset, descents, down, left_descents
    ):
        self.element = element
        self.length = element.length
        self.support = support
        self.descents = descents
        self.down = down
        self.left_descents = left_descents


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the subdiagram induced by a node subset.

    For each component C, `budgets` stores l(w0 of W_C) + #vertices(C), the
    letter allowance the witness condition grants that component.
    `CoxeterSystem.decompose_subset` keys them by their subset.
    """

    components: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]


class CoxeterSystem:
    """A finite Weyl group (types A-G) with exact element arithmetic.

    Elements are signed permutations of the positive roots; `from_string`
    returns a `DihedralSystem` for I2(m).
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = _cartan_matrix(cartan_type)
        self.positive_roots, generator_reps = self._roots_and_generators()
        self._root_index = {r: i for i, r in enumerate(self.positive_roots)}
        # the nodes each positive root involves, for `support` and budgets
        self._root_supports = tuple(
            frozenset(j + 1 for j, c in enumerate(root) if c)
            for root in self.positive_roots
        )
        self._negative_simple = frozenset(range(-self.rank, 0))
        self.coxeter_matrix = self._coxeter_from_cartan()
        self._set_elements(
            tuple(range(1, len(self.positive_roots) + 1)), generator_reps
        )
        # `step` tables, one per generator. w s_i lists w's entries in the
        # order of s_i's root permutation, then negates entry i; with a single
        # root (A1) that order is the identity, and `tuple` stands in for an
        # itemgetter of one index, which would return a scalar. s_i w maps
        # each entry q of w through s_i, and `word` maps root indices the
        # same way: a tuple with s_i's images at 1..N and their negatives at
        # -N..-1, read from its end.
        self._right_orders = tuple(
            itemgetter(*(abs(q) - 1 for q in s.rep)) if len(s.rep) > 1 else tuple
            for s in self._generators
        )
        self._left_images = tuple(
            (0, *s.rep, *(-q for q in reversed(s.rep))) for s in self._generators
        )
        self._prefix_orders = tuple(
            itemgetter(*(abs(q) - 1 for q in s.rep[: self.rank])) if self.rank > 1 else tuple
            for s in self._generators
        )

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_string(text: str) -> "CoxeterSystem":
        t = CartanType.parse(text)
        return DihedralSystem(t) if t.family == "I" else CoxeterSystem(t)

    def _set_elements(self, identity_rep: tuple, generator_reps) -> None:
        """The identity and generators, and empty caches for the longest
        element and the subset decompositions; both constructors call it."""
        self._identity = Element(self, identity_rep)
        self._identity._length = 0
        self._generators = tuple(Element(self, rep) for rep in generator_reps)
        for s in self._generators:
            s._length = 1
        self._longest = None
        self._decompositions: dict[frozenset, ComponentDecomposition] = {}

    def _roots_and_generators(self):
        """The positive roots, simple roots first and then by height and
        coordinates, and each generator's signed root permutation.

        One closure reflects every root by every generator once and keeps
        the image s_i(beta): a positive root, or -alpha_i for beta = alpha_i;
        CoxeterError for anything else.
        """
        r, A = self.rank, self.cartan_matrix
        simple = [tuple(int(j == i) for j in range(r)) for i in range(r)]
        images: dict = {}  # each positive root -> its images under s_1..s_r
        frontier, seen = simple, set(simple)
        while frontier:
            nxt = []
            for root in frontier:
                images[root] = row = []
                for i in range(r):
                    img = list(root)
                    img[i] -= sum(map(mul, A[i], root))
                    img = tuple(img)
                    row.append(img)
                    if min(img) >= 0 and img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        tail = sorted(seen.difference(simple), key=lambda v: (sum(v), v))
        roots = tuple(simple + tail)
        index = {root: k for k, root in enumerate(roots, start=1)}

        def label(img, i):
            if img in index:
                return index[img]
            if img == tuple(-c for c in simple[i]):
                return -(i + 1)
            raise CoxeterError(f"s{i + 1} maps a positive root to {img}, not a root")

        return roots, [
            tuple(label(images[root][i], i) for root in roots) for i in range(r)
        ]

    def _coxeter_from_cartan(self):
        r = self.rank
        A = self.cartan_matrix
        M = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(r):
                if i != j:
                    M[i][j] = _BOND_TO_ORDER[A[i][j] * A[j][i]]
        return tuple(tuple(row) for row in M)

    # -- basic queries ------------------------------------------------------

    @property
    def identity(self) -> Element:
        return self._identity

    def generator(self, i: int) -> Element:
        if not 1 <= i <= self.rank:
            raise CoxeterError(f"generator index {i} out of range 1..{self.rank}")
        return self._generators[i - 1]

    def order(self) -> int:
        """|W|, by closed form."""
        t = self.cartan_type
        r = t.rank
        if t.family == "A":
            return math.factorial(r + 1)
        if t.family == "B":
            return 2**r * math.factorial(r)
        if t.family == "D":
            return 2 ** (r - 1) * math.factorial(r)
        if t.family == "E":
            return {6: 51840, 7: 2903040, 8: 696729600}[r]
        if t.family == "F":
            return 1152
        return 12  # G2

    def _check_member(self, w: Element):
        if w.system is not self and w.system.cartan_type != self.cartan_type:
            raise CoxeterError("element belongs to a different Coxeter system")

    def multiply(self, u: Element, v: Element) -> Element:
        self._check_member(u)
        self._check_member(v)
        urep = u.rep
        out = []
        for q in v.rep:
            if q > 0:
                out.append(urep[q - 1])
            else:
                out.append(-urep[-q - 1])
        return Element(self, tuple(out))

    def step(self, w: Element, i: int, left: bool = False) -> Element:
        """w s_i, or s_i w when `left`, carrying its length l(w) +- 1.

        i is a right descent of w iff w sends alpha_i negative (entry i of
        rep is negative), and a left descent iff some root goes to -alpha_i
        (-i is in rep); the length drops by one exactly then.
        """
        self._check_member(w)
        if not 0 < i <= self.rank:
            raise CoxeterError(f"generator index {i} out of range 1..{self.rank}")
        rep = w.rep
        if left:
            down = -i in rep
            images = self._left_images[i - 1]
            out = itemgetter(*rep)(images) if len(rep) > 1 else (images[rep[0]],)
        else:
            down = rep[i - 1] < 0
            out = self._right_rep(rep, i)
        v = Element(self, out)
        v._length = w.length - 1 if down else w.length + 1
        return v

    def _right_rep(self, rep: tuple, i: int) -> tuple:
        """The rep of w s_i, given the rep of w and a valid i: w's entries
        in the order of s_i's root permutation, with entry i negated."""
        out = list(self._right_orders[i - 1](rep))
        out[i - 1] = -out[i - 1]
        return tuple(out)

    def _right_prefix(self, rep: tuple, i: int) -> tuple:
        """`_right_rep(rep, i)[:rank]` in `rank` steps: w s_i's images of the
        simple roots, which fix w s_i."""
        out = list(self._prefix_orders[i - 1](rep))
        out[i - 1] = -out[i - 1]
        return tuple(out)

    def _left_prefix(self, prefix: tuple, j: int) -> tuple:
        """The prefix of s_j w from the prefix of w: s_j maps each image."""
        images = self._left_images[j - 1]
        return tuple([images[q] for q in prefix])

    def _left_gain(self, node: WeakOrderNode, i: int) -> int:
        """The left descent that v s_i has and v lacks, 0 if none, for the
        record of v and a letter i that is not a right descent of v: j when
        v(alpha_i) = alpha_j is simple (entry i of rep is j <= rank), since
        then J(v s_i) = J(v) + {j}, and otherwise J(v s_i) = J(v)."""
        j = node.element.rep[i - 1]
        return j if j <= self.rank else 0

    def inverse(self, w: Element) -> Element:
        self._check_member(w)
        out = [0] * len(w.rep)
        for p, q in enumerate(w.rep):
            if q > 0:
                out[q - 1] = p + 1
            else:
                out[-q - 1] = -(p + 1)
        return Element(self, tuple(out))

    def length(self, w: Element) -> int:
        self._check_member(w)
        return sum(1 for q in w.rep if q < 0)

    def right_descents(self, w: Element) -> frozenset[int]:
        return frozenset(i for i in range(1, self.rank + 1) if w.rep[i - 1] < 0)

    def left_descents(self, w: Element) -> frozenset[int]:
        # i is a left descent iff w^-1 sends alpha_i negative, that is iff
        # some positive root goes to -alpha_i, whose entry in rep is -i; the
        # set intersection scans rep in C, faster than building the inverse
        return frozenset([-q for q in self._negative_simple.intersection(w.rep)])

    def word(self, w: Element) -> tuple[int, ...]:
        """The lex-first reduced word of w, read off the inversion set of w^-1.

        N(w^-1) = {beta > 0 : w^-1 beta < 0} holds the roots that w sends to
        negatives of positive roots, so it is {-q for q in rep if q < 0}, and
        its simple roots are the left descents of w. Its smallest root, when
        simple, is the smallest left descent i; then N((s_i w)^-1) =
        s_i(N(w^-1) minus alpha_i), read through the `step` table of s_i.
        Simple roots are the indices 1..rank, below every other root, so
        each letter costs one pass over at most l(w) roots, not two over all
        of them. Raises CoxeterError if a non-empty set has no simple root
        or the walk does not spend exactly l(w) letters.
        """
        self._check_member(w)
        roots = {-q for q in w.rep if q < 0}
        letters = []
        while roots:
            i = min(roots)
            if not 0 < i <= self.rank:
                raise CoxeterError(f"no left descent left after {len(letters)} letters")
            letters.append(i)
            roots.discard(i)
            images = self._left_images[i - 1]
            roots = {images[p] for p in roots}
        if len(letters) != w.length:
            raise CoxeterError(
                f"the walk spent {len(letters)} letters on an element of length {w.length}"
            )
        return tuple(letters)

    def longest_element(self) -> Element:
        # cached: the climb takes l(w0) products, which is m for I2(m)
        if self._longest is None:
            w, everything = self.identity, frozenset(range(1, self.rank + 1))
            while up := everything - self.right_descents(w):
                w = self.step(w, min(up))
            self._longest = w
        return self._longest

    def support(self, w: Element) -> frozenset[int]:
        """Nodes whose generator appears in every reduced word of w."""
        self._check_member(w)
        supp = set()
        for root_support, q in zip(self._root_supports, w.rep):
            if q < 0:
                supp |= root_support
        return frozenset(supp)

    # -- enumeration and subsets ---------------------------------------------

    def weak_order(self) -> list[WeakOrderNode]:
        """The right weak order, breadth first: one record per element.

        Records come by length, ties by representation. A record's
        `descents` are the right descents of w, ascending, and `down[k]` is
        the record of w s_i for i = descents[k]: the down-edges of w.

        Level k + 1 is built from the steps w s_i with w in level k and i
        not a right descent of w: each has length k + 1, so no element of
        an earlier level can recur and the level's own dict, keyed by
        `_right_prefix`, is the only dedupe: the images of the simple roots
        fix an element, the representation being faithful (Bjorner-Brenti,
        ch. 4), and lead its rep, so they sort as reps do. Every such step
        is a down-edge of its result, and the letters run in the outer
        loop, so each element collects its edges in ascending order and its
        right descents are their letters: no descent query. A new element's
        rep (`_right_rep` from its first down-edge) and `Element`, with its
        length k + 1, are made once, not once per edge. The support and the
        left descents come off the first parent's, v = w s_i with i =
        descents[0]: supp(w) = supp(v) + {i}, and J(w) is J(v) plus the
        letter `_left_gain` reads off v and i, if any (the lifting property
        of the weak order, Bjorner-Brenti, ch. 3), so no record pays a
        `left_descents` query. Equal sets are one frozenset, kept in one
        table for both: one support per record took 87 MB max RSS on the A7
        census, against 69 MB shared. Raises CoxeterError when |W| exceeds
        the cap (COXSPH_ENUM_CAP environment variable, default 10**7; a
        value `int()` does not read raises CoxeterError too).
        """
        raw = os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP)
        try:
            cap = int(raw)
        except ValueError:
            raise CoxeterError(
                f"{ENUM_CAP_ENV} must be an integer, not {raw!r}"
            ) from None
        if self.order() > cap:
            raise CoxeterError(
                f"group order {self.order()} exceeds enumeration cap {cap}"
            )
        out, right, gain, prefix = [], self._right_rep, self._left_gain, self._right_prefix
        empty = frozenset()
        level = [WeakOrderNode(self.identity, empty, (), (), empty)]
        # (a set, a letter) -> their union, for (supp(v), i) -> supp(w) and
        # (J(v), j) -> J(w) with w = v s_i; and each union -> itself, so
        # equal sets reached from different keys are one frozenset
        grown: dict = {}

        def grow(key):
            union = key[0] | {key[1]}
            union = grown[key] = grown.setdefault(union, union)
            return union
        length = 0
        while level:
            out.extend(level)
            length += 1
            # prefix of w s_i -> [i, then the record of w, per down-edge]
            nxt = {}
            for i in range(1, self.rank + 1):
                for node in level:
                    if i not in node.descents:
                        images = prefix(node.element.rep, i)
                        edges = nxt.get(images)
                        if edges is None:
                            nxt[images] = [i, node]
                        else:
                            edges += (i, node)
            level = []
            for images in sorted(nxt):
                e = nxt[images]
                descents, down = tuple(e[::2]), tuple(e[1::2])
                parent, i = down[0], descents[0]
                key = (parent.support, i)
                support = grown.get(key) or grow(key)
                J, j = parent.left_descents, gain(parent, i)
                if j:
                    key = (J, j)
                    J = grown.get(key) or grow(key)
                v = Element(self, right(parent.element.rep, i))
                v._length = length
                level.append(WeakOrderNode(v, support, descents, down, J))
        return out

    def elements(self) -> list[Element]:
        """All group elements in `weak_order` order: by length, ties by
        representation."""
        return [node.element for node in self.weak_order()]

    def adjacent(self, i: int, j: int) -> bool:
        return self.coxeter_matrix[i - 1][j - 1] >= 3

    def decompose_subset(self, subset) -> ComponentDecomposition:
        """The components of the subdiagram on `subset` and their budgets,
        worked out once per subset and system (at most 2^rank of them)."""
        I = frozenset(subset)
        decomp = self._decompositions.get(I)
        if decomp is None:
            decomp = self._decompositions[I] = self._decompose(I)
        return decomp

    def _check_nodes(self, nodes) -> None:
        """Raise CoxeterError naming the first node outside 1..rank."""
        for j in nodes:
            if not 1 <= j <= self.rank:
                raise CoxeterError(f"node {j} out of range 1..{self.rank}")

    def _decompose(self, I: frozenset) -> ComponentDecomposition:
        self._check_nodes(I)
        remaining = set(I)
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                a = frontier.pop()
                for b in remaining - comp:
                    if self.adjacent(a, b):
                        comp.add(b)
                        frontier.append(b)
            remaining -= comp
            comps.append(tuple(sorted(comp)))
        comps.sort()
        budgets = tuple(self._component_budget(c) for c in comps)
        return ComponentDecomposition(tuple(comps), budgets)

    def _component_budget(self, comp: tuple[int, ...]) -> int:
        # l(w0 of W_C) is the number of positive roots supported inside C
        cset = frozenset(comp)
        return sum(1 for s in self._root_supports if s <= cset) + len(comp)


_S1, _S2, _S12 = frozenset({1}), frozenset({2}), frozenset({1, 2})


class DihedralSystem(CoxeterSystem):
    """I2(m) with w = (s1 s2)^r s1^f stored as rep = (r mod m, f).

    At each length below m, tuple order on reps puts the element whose
    reduced word starts with s1 first; `elements()` sorts ties by rep, so
    this fixes the enumeration order.
    """

    cartan_matrix = None
    positive_roots = None

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = 2
        self.m = m = cartan_type.gonality
        self.coxeter_matrix = ((1, m), (m, 1))
        self._set_elements((0, 0), [(0, 1), (m - 1, 1)])  # s2 = (s1 s2)^-1 s1

    def order(self) -> int:
        return 2 * self.m

    def multiply(self, u: Element, v: Element) -> Element:
        self._check_member(u)
        self._check_member(v)
        (r1, f1), (r2, f2) = u.rep, v.rep
        # s1 (s1 s2)^r = (s1 s2)^-r s1
        return Element(self, ((r1 - r2 if f1 else r1 + r2) % self.m, f1 ^ f2))

    def inverse(self, w: Element) -> Element:
        self._check_member(w)
        r, f = w.rep
        return w if f else Element(self, (-r % self.m, 0))

    def length(self, w: Element) -> int:
        self._check_member(w)
        return self._rep_length(*w.rep)

    def _rep_length(self, r: int, f: int) -> int:
        return 2 * min(r, self.m - f - r) + f

    def step(self, w: Element, i: int, left: bool = False) -> Element:
        """Closed form of `CoxeterSystem.step`, with the closed-form length.

        Both generators flip f. With s2 = (s1 s2)^-1 s1: w s1 keeps r, w s2
        turns r by one (up when f = 1), s1 w negates r and s2 w sends r to
        -r - 1.
        """
        self._check_member(w)
        if not 0 < i <= 2:
            raise CoxeterError(f"generator index {i} out of range 1..2")
        rep = self._left_prefix(w.rep, i) if left else self._right_rep(w.rep, i)
        v = Element(self, rep)
        v._length = self._rep_length(*rep)
        return v

    def _right_rep(self, rep: tuple, i: int) -> tuple:
        """Closed form of `CoxeterSystem._right_rep`, as in `step`."""
        r, f = rep
        if i == 2:
            r = r + 1 if f else r - 1
        return (r % self.m, 1 - f)

    _right_prefix = _right_rep  # (r, f) has rank = 2 entries: its own prefix

    def _left_prefix(self, rep: tuple, j: int) -> tuple:
        """Closed form of `CoxeterSystem._left_prefix`: the rep of s_j w."""
        r, f = rep
        return ((-r - j + 1) % self.m, 1 - f)

    def _left_gain(self, node: WeakOrderNode, i: int) -> int:
        """Closed form of `CoxeterSystem._left_gain`. Below length m each
        element has one reduced word, so v s_i keeps the first letter of v:
        s_i gains i, and the other steps gain nothing, except the one to w0
        from length m - 1, which gains the letter J(v) lacks."""
        if node.length == 0:
            return i
        if node.length == self.m - 1:
            (a,) = node.left_descents
            return 3 - a
        return 0

    def left_descents(self, w: Element) -> frozenset[int]:
        # the reduced word starts with s1 when (s1 s2)^r s1^f is the shorter
        # spelling (r < m - f - r), with s2 when the other one is; both when
        # they tie, which happens only at w0
        r, f = w.rep
        other = self.m - f - r
        if r < other:
            return _S1 if r or f else frozenset()
        return _S2 if r > other else _S12

    def right_descents(self, w: Element) -> frozenset[int]:
        return self.left_descents(self.inverse(w))

    def word(self, w: Element) -> tuple[int, ...]:
        """Closed form of `CoxeterSystem.word`: l(w) letters that alternate,
        starting from min J(w) (both generators tie only at w0)."""
        n = self.length(w)
        if not n:
            return ()
        J = self.left_descents(w)
        if not J:
            raise CoxeterError(f"no left descent on an element of length {n}")
        a = min(J)
        return (a, 3 - a) * (n // 2) + (a,) * (n % 2)

    def support(self, w: Element) -> frozenset[int]:
        """Nodes whose generator appears in every reduced word of w."""
        return self.left_descents(w) if self.length(w) <= 1 else _S12

    def _component_budget(self, comp: tuple[int, ...]) -> int:
        return (self.m if len(comp) == 2 else 1) + len(comp)


@lru_cache(maxsize=None)
def coxeter_system(type_string: str) -> CoxeterSystem:
    """Shared, cached system for a Cartan type string such as 'B3' or 'I2(5)'."""
    return CoxeterSystem.from_string(type_string)
