"""Exact arithmetic in finite Coxeter groups.

`CoxeterSystem` realizes types A, B, D, E, F, G through their action on the
roots, written in the simple-root basis. An element w is stored as the images
of the simple roots, w(alpha_1), ..., w(alpha_rank), each a signed index
into the list of positive roots (-k for the negative of root k). The
geometric representation is faithful, so the images fix the element
(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4), and two elements
are equal iff their tuples are. The roots, each generator's action on them
and the pairings <beta, alpha_k-check> come from one closure that reflects
each root by each generator once.

s_i moves only the image of alpha_i and those of its diagram neighbours,
w s_i(alpha_j) = w(alpha_j) - A[i][j] w(alpha_i), so a right step
(`_right_images`), a word's evaluation (`product`) and `step` cost
O(degree); a left step maps each image through s_i (`_left_prefix`).
w(2 rho), 2 rho the sum of the positive roots, is read off the images in
fundamental-weight coordinates (`_weights`): k is a left descent of w iff
<w(2 rho), alpha_k-check> < 0, which gives `left_descents`, and `word()`
walks w(2 rho) to the dominant chamber, O(rank) per letter (Casselman,
Machine calculations in Weyl groups, 1994). `multiply` and `inverse`
evaluate words. The one place an element is expanded to all positive roots
is `length()` of an element that carries no length: the closure records
each non-simple root as beta = beta' + k alpha_i, so w(beta) = w(beta') + k
w(alpha_i), and l(w) counts the roots sent negative.

`weak_order()` enumerates the group by one breadth-first walk of the right
weak order that keeps every edge it steps. It keys each element by one int,
the code of w(2 rho): 2 rho is regular, so w -> w(2 rho) is one-to-one
(Humphreys, Reflection Groups and Coxeter Groups, 1.12), and its weight
coordinates lie in [-B, B], B = max_k sum_beta |<beta, alpha_k-check>|, so
reading them in base 2 B + 1 is one-to-one and linear. As s_i(2 rho) = 2
rho - 2 alpha_i, the code of w s_i is the code of w minus 2 code(w(alpha_i)):
one lookup (`_right_code`) per edge, and one image step and `Element` per
element. It builds one `WeakOrderNode` per element: its support, its right
descents, the records of its down-steps w s_i and its left descents, each
read off a parent's record with no descent query. `elements()` is the list
of their elements, and a census hands the records themselves to its
searchers. `support(w)` reads the images through one table of bit masks.

`DihedralSystem` handles I2(m), which has no integral root basis for general
m and whose root permutations would make every product O(m): it stores
w = (s1 s2)^r s1^f as the pair (r mod m, f), with O(1) closed forms for
products, lengths and descents; there the images are the pair itself.
`CoxeterSystem.from_string` picks the class once, from the Cartan type.

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
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import compress
from operator import getitem, mul, or_

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
            bond = f" (gonality={self.gonality})" if fam == "I" else ""
            raise CoxeterError(f"invalid Cartan type {fam}{rank}{bond}")
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

    `rep` is the images of the simple roots as signed root indices
    (`CoxeterSystem`), or the rotation and reflection pair (r, f)
    (`DihedralSystem`), which is its own images. Immutable and hashable.
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
    every field at once but `images`, which it leaves None, with `down` a
    tuple of records and `left_descents` the frozenset `left_descents(w)`
    returns. A record that a `spherical.WitnessSearcher` makes for an
    element it is handed bare (`lazy`) holds no `Element`: `element` is
    None and `images` holds the images of the simple roots, the rep the
    element would have (the pair (r, f) in I2(m)); its length is carried
    from the record it was stepped from. It leaves `left_descents` None,
    since the search never reads it, and leaves `descents` and `down` None
    until the search first admits it, then opens it with one empty slot per
    descent and fills a slot the first time the search takes that edge
    (most elements a search meets are never stepped from)."""

    __slots__ = (
        "element", "images", "length", "support", "descents", "down", "left_descents"
    )

    def __init__(
        self, element: Element, support: frozenset, descents, down, left_descents
    ):
        self.element = element
        self.images = None
        self.length = element.length
        self.support = support
        self.descents = descents
        self.down = down
        self.left_descents = left_descents

    @classmethod
    def lazy(cls, images: tuple, length: int, support: frozenset) -> "WeakOrderNode":
        """A record of the element with these images of the simple roots,
        with no `Element`, descents, down-steps or left descents yet."""
        node = cls.__new__(cls)
        node.element, node.images, node.length, node.support = None, images, length, support
        node.descents = node.down = node.left_descents = None
        return node


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the subdiagram induced by a node subset I.

    For each component C, `budgets` stores l(w0 of W_C) + #vertices(C), the
    letter allowance the witness condition grants that component. `groups`
    and `allowances` are the letter bounds (S.1)/(S.2) as one table: a
    budget-1 singleton per node outside I, then the components of I with
    their budgets; `slot[i]` is the group of node i. The witness search,
    its certificate and `verify_witness` all read this table.
    `CoxeterSystem.decompose_subset` keys the decompositions by their
    subset, so each table is built once per subset and system. `touched`
    is the searchers' cache of the groups each support meets, shared by
    every searcher of the subset.
    """

    components: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    allowances: tuple[int, ...]
    slot: dict = field(compare=False)  # derived from `groups`
    touched: dict = field(compare=False, default_factory=dict)


class CoxeterSystem:
    """A finite Weyl group (types A-G) with exact element arithmetic.

    Elements are the images of the simple roots; `from_string` returns a
    `DihedralSystem` for I2(m).
    """

    _twice_codes = None  # the code table of `_right_code` and `word`, built on first use

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = _cartan_matrix(cartan_type)
        # the pairings feed `_start_code`, the plan `_images_length`
        self.positive_roots, generator_reps, self._pairings, self._plan = (
            self._roots_and_generators()
        )
        # the nodes each positive root involves, for budgets and `typea`
        nodes = range(1, self.rank + 1)
        self._root_supports = tuple(
            frozenset(compress(nodes, root)) for root in self.positive_roots
        )
        self.coxeter_matrix = self._coxeter_from_cartan()
        self._set_elements(
            tuple(range(1, self.rank + 1)), [rep[: self.rank] for rep in generator_reps]
        )
        # `_left_prefix` tables, one per generator: s_i maps each signed root
        # q through a tuple with s_i's images at 1..N and their negatives at
        # -N..-1, read from its end.
        self._left_images = tuple(
            (0, *rep, *(-q for q in reversed(rep))) for rep in generator_reps
        )
        # `support` tables, one per node j, laid out as `_left_images`: the
        # bit mask of supp(q - alpha_j) for each signed root q. Coefficient
        # j turns c_j - 1 (0 iff c_j = 1) on a positive root, -c_j - 1 on a
        # negative one.
        roots, bits = self.positive_roots, [1 << j for j in range(self.rank)]
        masks = [sum(compress(bits, root)) for root in roots]
        self._image_supports = tuple(
            (0, *[m & ~bit if root[j] == 1 else m | bit for root, m in zip(roots, masks)],
             *[m | bit for m in reversed(masks)])
            for j, bit in enumerate(bits)
        )
        self._support_sets: dict[int, frozenset] = {}  # mask -> its node set
        # root codes, for `product`, `_right_images` and `_images_length`:
        # each root's simple-root coordinates in balanced base M = 2 c + 1, c
        # the largest coefficient of a root, so a code's sign is its root's.
        # `_root_codes` is laid out as `_left_images`; `_code_roots` maps
        # each signed root's code back to it.
        base = 2 * max(map(max, roots)) + 1
        powers = [base**j for j in range(self.rank)]
        codes = [sum(map(mul, root, powers)) for root in roots]
        self._root_codes = (0, *codes, *[-c for c in reversed(codes)])
        self._code_roots = {c: k for k, c in enumerate(codes, start=1)}
        self._code_roots.update({-c: -k for k, c in enumerate(codes, start=1)})
        self._simple_codes = codes[: self.rank]
        # per node i, the pairs (j, A[i][j]) over its diagram neighbours j
        # (0-based): w s_i(alpha_j) = w(alpha_j) - A[i][j] w(alpha_i)
        A, r = self.cartan_matrix, range(self.rank)
        self._right_moves = tuple(
            tuple((j, A[i][j]) for j in r if j != i and A[i][j]) for i in r
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
        coordinates, each generator's signed root permutation, the pairings
        <beta, alpha_k-check> of each root, and the expansion plan of
        `_images_length`.

        One closure reflects every root by every generator once and keeps
        the image s_i(beta) = beta - <beta, alpha_i-check> alpha_i: a
        positive root, or -alpha_i for beta = alpha_i; CoxeterError for
        anything else. Where it first reaches a root beta = beta' + k
        alpha_i, k = -<beta', alpha_i-check> > 0, the plan gets (index of
        beta', i, k), 0-based; beta' is lower, so it comes first.
        """
        r, A = self.rank, self.cartan_matrix
        simple = [tuple(int(j == i) for j in range(r)) for i in range(r)]
        images: dict = {}  # each positive root -> its images under s_1..s_r
        pairings: dict = {}  # each positive root -> <root, alpha_i-check> per i
        reached: dict = {}  # each non-simple positive root -> (beta', i, k)
        frontier, seen = simple, set(simple)
        while frontier:
            nxt = []
            for root in frontier:
                images[root] = row = []
                pairings[root] = pairs = tuple([sum(map(mul, a, root)) for a in A])
                for i, p in enumerate(pairs):
                    if not p:  # s_i fixes the root
                        row.append(root)
                        continue
                    img = list(root)
                    img[i] -= p
                    img = tuple(img)
                    row.append(img)
                    if min(img) >= 0 and img not in seen:
                        seen.add(img)
                        nxt.append(img)
                        reached[img] = (root, i, -p)
            frontier = nxt
        tail = sorted(seen.difference(simple), key=lambda v: (sum(v), v))
        roots = tuple(simple + tail)
        index = {root: k for k, root in enumerate(roots, start=1)}

        def label(img, i):  # an image that is not a positive root
            if img == tuple(-c for c in simple[i]):
                return -(i + 1)
            raise CoxeterError(f"s{i + 1} maps a positive root to {img}, not a root")

        rows = list(map(images.__getitem__, roots))
        reps = [
            tuple([index.get(row[i]) or label(row[i], i) for row in rows])
            for i in range(r)
        ]
        plan = tuple(
            (index[parent] - 1, i, k)
            for parent, i, k in map(reached.__getitem__, tail)
        )
        return roots, reps, tuple(map(pairings.__getitem__, roots)), plan

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
        """uv, by evaluating a reduced word of u followed by one of v."""
        return self.product(self.word(u) + self.word(v))

    def inverse(self, w: Element) -> Element:
        """w^-1, by evaluating a reduced word of w backwards."""
        return self.product(reversed(self.word(w)))

    def step(self, w: Element, i: int, left: bool = False) -> Element:
        """w s_i, or s_i w when `left`, by one image step (`_right_images`,
        `_left_prefix`), carrying its length l(w) - 1 if i is a right (left)
        descent of w and l(w) + 1 otherwise."""
        self._check_member(w)
        if not 0 < i <= self.rank:
            raise CoxeterError(f"generator index {i} out of range 1..{self.rank}")
        if left:
            down = self._left_descent(w.rep, i)
            v = Element(self, self._left_prefix(w.rep, i))
        else:
            down = i in self._image_descents(w.rep)
            v = Element(self, self._right_images(w.rep, i))
        v._length = w.length - 1 if down else w.length + 1
        return v

    def product(self, letters) -> Element:
        """s_{i1} ... s_{ik} for the letters i1, ..., ik, in one loop over
        the images of the simple roots, kept as root codes (`_root_codes`):
        w s_i(alpha_j) = w(alpha_j) - A[i][j] w(alpha_i). Per letter a
        range check (`step`'s CoxeterError), the descent test c_i < 0,
        which carries l(w), then c_i turns to -c_i and each diagram
        neighbour j of i loses A[i][j] c_i: O(degree), not O(#roots).
        `_code_roots` reads the codes back as signed roots, into one
        `Element`."""
        rank, moves = self.rank, self._right_moves
        codes, length = list(self._simple_codes), 0
        for i in letters:
            if not 0 < i <= rank:
                raise CoxeterError(f"generator index {i} out of range 1..{rank}")
            i -= 1
            x = codes[i]
            if x < 0:
                length -= 1
            else:
                length += 1
            codes[i] = -x
            for j, a in moves[i]:
                codes[j] -= a * x
        w = Element(self, tuple(map(self._code_roots.__getitem__, codes)))
        w._length = length
        return w

    def _right_images(self, images: tuple, i: int) -> tuple:
        """The images of the simple roots under w s_i, as signed roots, from
        those of w and a valid i. Entry i is negated and each diagram
        neighbour j of i becomes w(alpha_j) - A[i][j] w(alpha_i), read
        through the root codes: O(degree)."""
        out = list(images)
        q = images[i - 1]
        out[i - 1] = -q
        codes, roots = self._root_codes, self._code_roots
        x = codes[q]
        for j, a in self._right_moves[i - 1]:
            out[j] = roots[codes[out[j]] - a * x]
        return tuple(out)

    def _image_descents(self, images: tuple) -> tuple:
        """The right descents of w, ascending, from the images of the simple
        roots: i is one iff w(alpha_i) < 0."""
        return tuple([i for i, q in enumerate(images, start=1) if q < 0])

    def _start_code(self) -> int:
        """The code of the identity, where `weak_order` starts: code(2 rho).
        The first call builds the table `_right_code` and `_weights` read.

        code(v) = sum_k v_k M^k on the weight coordinates v_k = <v,
        alpha_k-check>, the pairings the root closure kept (`_pairings`),
        with M = 2 B + 1 and B = max_k sum_beta |<beta, alpha_k-check>|
        over the positive roots beta. code is linear, so
        the rule code(w s_i) = code(w) - 2 code(w(alpha_i)) holds in these
        coordinates as in any. w(2 rho) is the sum of w(beta) over the
        positive roots, a signed sum of all of them, so |v_k| <= B, where
        code is one-to-one and its balanced digits read v back; and 2 rho
        is regular (<2 rho, alpha_k-check> = 2), so w -> w(2 rho) is
        one-to-one (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
        Entry q of the table, laid out as `_left_images`, is 2 code(q) for
        the signed root q. Beside it, for `_weights` and `word`: M, the
        simple-root coordinates of 2 rho, and for each node k the pairs (j,
        A[j][k]) over its diagram neighbours j, the coordinates s_k moves.
        """
        if self._twice_codes is None:
            A, nodes, weights = self.cartan_matrix, range(self.rank), self._pairings
            bound = max(sum(map(abs, column)) for column in zip(*weights))
            base = 2 * bound + 1
            powers = [base**k for k in nodes]
            codes = [sum(map(mul, wt, powers)) for wt in weights]
            self._start = sum(codes)
            self._code_base = base
            self._two_rho = tuple(map(sum, zip(*self.positive_roots)))
            self._neighbours = tuple(
                tuple((j, A[j][k]) for j in nodes if j != k and A[j][k]) for k in nodes
            )
            self._twice_codes = (
                0, *[2 * c for c in codes], *[-2 * c for c in reversed(codes)]
            )
        return self._start

    def _right_code(self, rep: tuple, code: int, i: int) -> int:
        """The code of w s_i from the rep and code of w: s_i(2 rho) = 2 rho -
        2 alpha_i, so it is code(w) - 2 code(w(alpha_i)), and w(alpha_i) is
        entry i of rep. One lookup in the table `_start_code` builds."""
        return code - self._twice_codes[rep[i - 1]]

    def _weight_code(self, images: tuple) -> int:
        """code(w(2 rho)) from the images of the simple roots, plus B in
        every digit, so that its plain base-M digits are v_k + B for the
        weight coordinates v_k = <w(2 rho), alpha_k-check>: with 2 rho =
        sum_j c_j alpha_j, w(2 rho) = sum_j c_j w(alpha_j), so sum_j c_j
        times entry w(alpha_j) of the `_start_code` table is 2 code(w(2
        rho)). v_k = <2 rho, w^-1(alpha_k-check)> < 0 iff k is a left
        descent of w."""
        if self._twice_codes is None:
            self._start_code()
        twice = map(self._twice_codes.__getitem__, images)
        shift = self._code_base**self.rank // 2  # B in every digit
        return (sum(map(mul, self._two_rho, twice)) >> 1) + shift

    def _weights(self, images: tuple) -> list:
        """The weight coordinates of w(2 rho): `rank` divmods of
        `_weight_code`."""
        code, base = self._weight_code(images), self._code_base
        bound = base >> 1
        v = []
        for _ in range(self.rank):
            code, digit = divmod(code, base)
            v.append(digit - bound)
        return v

    def _left_descent(self, images: tuple, i: int) -> bool:
        """Whether i is a left descent of w: digit i of `_weight_code`."""
        code, base = self._weight_code(images), self._code_base
        return code // base ** (i - 1) % base < base >> 1

    def _left_prefix(self, rep: tuple, j: int) -> tuple:
        """The images of s_j w from those of w: s_j maps each image."""
        images = self._left_images[j - 1]
        return tuple([images[q] for q in rep])

    def _left_gain(self, node: WeakOrderNode, i: int) -> int:
        """The left descent that v s_i has and v lacks, 0 if none, for the
        record of v and a letter i that is not a right descent of v: j when
        v(alpha_i) = alpha_j is simple (entry i of rep is j <= rank), since
        then J(v s_i) = J(v) + {j}, and otherwise J(v s_i) = J(v)."""
        j = node.element.rep[i - 1]
        return j if j <= self.rank else 0

    def length(self, w: Element) -> int:
        """l(w), counted afresh from the rep (`_images_length`)."""
        self._check_member(w)
        return self._images_length(w.rep)

    def _images_length(self, images: tuple) -> int:
        """l(w), the number of positive roots w sends negative, from the
        images of the simple roots: the closure's plan gives each further
        positive root as beta = beta' + k alpha_i, so w(beta) = w(beta') +
        k w(alpha_i), one add of root codes per root, parents first, and a
        code's sign is its root's. The one place an element is expanded to
        all positive roots."""
        codes = list(map(self._root_codes.__getitem__, images))
        extend = codes.append
        for p, i, k in self._plan:
            extend(codes[p] + k * codes[i])
        return sum(c < 0 for c in codes)

    def right_descents(self, w: Element) -> frozenset[int]:
        return frozenset(self._image_descents(w.rep))

    def left_descents(self, w: Element) -> frozenset[int]:
        """J(w): the k with <w(2 rho), alpha_k-check> < 0 (`_weights`)."""
        self._check_member(w)
        return frozenset([k for k, x in enumerate(self._weights(w.rep), start=1) if x < 0])

    def word(self, w: Element) -> tuple[int, ...]:
        """The lex-first reduced word of w, by the chamber walk of w(2 rho).

        k is a left descent of w iff v_k = <w(2 rho), alpha_k-check> < 0
        (`_weights`), and v = 2 rho, dominant, only at the identity. So the
        walk takes the first k with v_k < 0, spells k and reflects: s_k(v) =
        v - v_k alpha_k, and alpha_k has weight coordinates A[j][k], so v_k
        turns to -v_k and only k's diagram neighbours j move, by -v_k
        A[j][k]; then it goes on from s_k w until v is dominant (Casselman,
        Machine calculations in Weyl groups, Invent. Math. 116, 1994). Each
        letter costs O(rank). Raises CoxeterError if the walk spends a
        number of letters other than l(w); it stops after l(w) + 1.
        """
        self._check_member(w)
        v, neighbours = self._weights(w.rep), self._neighbours
        letters, length = [], w.length
        for _ in range(length + 1):
            k = 0  # counted by hand: `enumerate` pairs cost more here
            for x in v:
                if x < 0:
                    break
                k += 1
            else:
                break
            letters.append(k + 1)
            v[k] = -x
            for j, a in neighbours[k]:
                v[j] -= x * a
        if len(letters) != length:
            raise CoxeterError(
                f"the walk spent {len(letters)} letters on an element of length {length}"
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
        """Nodes whose generator appears in every reduced word of w:
        the union over j of supp(w(alpha_j) - alpha_j), one table lookup
        per image.

        w is in W_K iff (w - 1)V lies in the span of alpha_K, since
        pointwise stabilizers are parabolic (Steinberg; Humphreys,
        Reflection Groups and Coxeter Groups, 1.12), and the alpha_j span V.
        """
        self._check_member(w)
        return self._image_support(w.rep)

    def _image_support(self, images: tuple) -> frozenset[int]:
        """`support` from the images of the simple roots."""
        mask = reduce(or_, map(getitem, self._image_supports, images), 0)
        supp = self._support_sets.get(mask)
        if supp is None:
            supp = self._support_sets[mask] = frozenset(
                j + 1 for j in range(self.rank) if mask >> j & 1
            )
        return supp

    # -- enumeration and subsets ---------------------------------------------

    def weak_order(self) -> list[WeakOrderNode]:
        """The right weak order, breadth first: one record per element.

        Records come by length, ties by representation. A record's
        `descents` are the right descents of w, ascending, and `down[k]` is
        the record of w s_i for i = descents[k]: the down-edges of w.

        Level k + 1 is built from the steps w s_i with w in level k and i
        not a right descent of w: each has length k + 1, so no element of
        an earlier level can recur and the level's own dict is the only
        dedupe. It is keyed by one int per element, the code of w(2 rho)
        (`_start_code`), kept in a list beside the level's records:
        s_i(2 rho) = 2 rho - 2 alpha_i, so the code of w s_i is that of w
        minus 2 code(w(alpha_i)), one lookup and one subtraction per edge
        (`_right_code`; in I2(m) the rep (r, f) is its own code). Every
        such step is a down-edge of its result, and the letters run in the
        outer loop, so each element collects its edges in ascending order
        and its right descents are their letters: no descent query. A new
        element's rep (one `_right_images` from its first down-edge) and
        `Element`, with its length k + 1, are made once, not once per
        edge, and the level is sorted by rep. The support and the left
        descents come off the first parent's, v = w s_i with i =
        descents[0]: supp(w) = supp(v) + {i}, and J(w) is J(v) plus the
        letter `_left_gain` reads off v and i, if any (the lifting property
        of the weak order, Bjorner-Brenti, ch. 3), so no record pays a
        `left_descents` query. Equal sets are one
        frozenset, kept in one table for both: one support per record took
        87 MB max RSS on the A7 census, against 69 MB shared. Raises
        CoxeterError when |W| exceeds the cap (COXSPH_ENUM_CAP environment
        variable, default 10**7; a value `int()` does not read raises
        CoxeterError too).
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
        out, right, gain, code_of = [], self._right_images, self._left_gain, self._right_code
        empty = frozenset()
        level = [WeakOrderNode(self.identity, empty, (), (), empty)]
        codes = [self._start_code()]  # codes[k] is the code of level[k]
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
            # code of w s_i -> [i, then the record of w, per down-edge]
            nxt = {}
            for i in range(1, self.rank + 1):
                for node, code in zip(level, codes):
                    if i not in node.descents:
                        key = code_of(node.element.rep, code, i)
                        edges = nxt.get(key)
                        if edges is None:
                            nxt[key] = [i, node]
                        else:
                            edges += (i, node)
            made = []
            for code, e in nxt.items():
                descents, down = tuple(e[::2]), tuple(e[1::2])
                made.append((right(down[0].element.rep, descents[0]), code, descents, down))
            made.sort()
            level, codes = [], []
            for rep, code, descents, down in made:
                parent, i = down[0], descents[0]
                key = (parent.support, i)
                support = grown.get(key) or grow(key)
                J, j = parent.left_descents, gain(parent, i)
                if j:
                    key = (J, j)
                    J = grown.get(key) or grow(key)
                v = Element(self, rep)
                v._length = length
                level.append(WeakOrderNode(v, support, descents, down, J))
                codes.append(code)
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
        outside = [(j,) for j in range(1, self.rank + 1) if j not in I]
        groups = (*outside, *comps)
        slot = {i: g for g, group in enumerate(groups) for i in group}
        return ComponentDecomposition(
            tuple(comps), budgets, groups, (1,) * len(outside) + budgets, slot
        )

    def _component_budget(self, comp: tuple[int, ...]) -> int:
        # l(w0 of W_C) is the number of positive roots supported inside C
        cset = frozenset(comp)
        return sum(1 for s in self._root_supports if s <= cset) + len(comp)


_S1, _S2, _S12 = frozenset({1}), frozenset({2}), frozenset({1, 2})


def _dihedral_right(rep: tuple, i: int, m: int) -> tuple:
    """The rep of w s_i in I2(m) from the rep (r, f) of w: both generators
    flip f; s1 keeps r, and s2 = (s1 s2)^-1 s1 turns it by one (up when f
    = 1)."""
    r, f = rep
    if i == 2:
        r = r + 1 if f else r - 1
    return (r % m, 1 - f)


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

    def _images_length(self, images: tuple) -> int:
        """Closed form of `CoxeterSystem._images_length`."""
        r, f = images
        return 2 * min(r, self.m - f - r) + f

    def product(self, letters) -> Element:
        """Closed form of `CoxeterSystem.product`: one `_dihedral_right` per
        letter, after the same range check, and the closed-form length."""
        rep, m = self._identity.rep, self.m
        for i in letters:
            if not 0 < i <= 2:
                raise CoxeterError(f"generator index {i} out of range 1..2")
            rep = _dihedral_right(rep, i, m)
        w = Element(self, rep)
        w._length = self._images_length(rep)
        return w

    def _right_images(self, images: tuple, i: int) -> tuple:
        """Closed form of `CoxeterSystem._right_images`: the images are the
        pair (r, f) itself."""
        return _dihedral_right(images, i, self.m)

    def _image_descents(self, images: tuple) -> tuple:
        """Closed form of `CoxeterSystem._image_descents`: the left descents
        of the inverse, ascending."""
        r, f = images
        return tuple(sorted(self._pair_left_descents(r if f else -r % self.m, f)))

    def _image_support(self, images: tuple) -> frozenset[int]:
        """Closed form of `CoxeterSystem._image_support`: J(w) up to length
        1, both nodes beyond."""
        if self._images_length(images) <= 1:
            return self._pair_left_descents(*images)
        return _S12

    def _start_code(self) -> tuple:
        """(r, f) is its own code in `weak_order`: the identity's rep."""
        return self._identity.rep

    def _right_code(self, rep: tuple, code: tuple, i: int) -> tuple:
        """Closed form of `CoxeterSystem._right_code`: the rep of w s_i, as
        `_right_images` gives it."""
        return _dihedral_right(code, i, self.m)

    def _left_prefix(self, rep: tuple, j: int) -> tuple:
        """Closed form of `CoxeterSystem._left_prefix`: the rep of s_j w.
        With s2 = (s1 s2)^-1 s1, s1 w negates r and s2 w sends r to -r - 1;
        both flip f."""
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
        return self._pair_left_descents(*w.rep)

    def _left_descent(self, images: tuple, i: int) -> bool:
        return i in self._pair_left_descents(*images)

    def _pair_left_descents(self, r: int, f: int) -> frozenset[int]:
        """`left_descents` of the element with rep (r, f)."""
        # the reduced word starts with s1 when (s1 s2)^r s1^f is the shorter
        # spelling (r < m - f - r), with s2 when the other one is; both when
        # they tie, which happens only at w0
        other = self.m - f - r
        if r < other:
            return _S1 if r or f else frozenset()
        return _S2 if r > other else _S12

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

    def _component_budget(self, comp: tuple[int, ...]) -> int:
        return (self.m if len(comp) == 2 else 1) + len(comp)


@lru_cache(maxsize=None)
def coxeter_system(type_string: str) -> CoxeterSystem:
    """Shared, cached system for a Cartan type string such as 'B3' or 'I2(5)'."""
    return CoxeterSystem.from_string(type_string)
