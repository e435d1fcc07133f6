"""Sparse integer polynomials, key polynomials, and split-Schur expansions.

A Poly is a map from monomials to nonzero integer coefficients, with a fixed
variable count. Everything is exact: Demazure operators use the
telescoping quotient term by term, Schur polynomials come from the branching
recursion, and expansions subtract basis elements until the remainder is 0.

A split set D = {d_1 < ... < d_k} inside [n-1] cuts x_1..x_n into consecutive
blocks. Polynomials symmetric within every block form the ring Pi_D, whose
basis is the products of one Schur polynomial per block ("D-Schur" products).
A D-Schur label (lam^(1), ..., lam^(k)), each block padded with zeros to its
size, laid side by side is the exponent vector of its product's lead
monomial, so a `SplitExpansion` keys each product by that monomial's packed
key, as `Poly.terms` does. Both expansions run one lazy peel loop, `_peel`:
it yields a picked key of the remainder, with its coefficient, and only
then subtracts the basis element that key leads. `split_expand` picks the
lexicographically largest monomial, whose per-block exponents are weakly
decreasing: its key is the label, and `_d_schur_terms` reads each block's
Schur terms through that block's field of it. `expand_in_keys` picks the
lexicographically smallest monomial, which names a key polynomial.

The module keeps two caches. `_schur_cached` holds one Schur polynomial
per (packed partition, variable count), for `schur` and the D-Schur
products.
`_alternant_shifts` holds one entry of read tables per split: the shifts
delta - sigma delta of Jacobi's bialternant formula for sigma != 1, split by
the sign of sigma.
`is_D_multiplicity_free` and `split_expand_via_solver` read coefficients off
those tables and build no Schur polynomial.

A Poly is never changed after it is built, so `Poly.is_symmetric_in`
remembers its answer per j on the Poly itself, not in a module cache.

Packed exponent vectors (after Monagan-Pearce, CASC 2007). `Poly.terms` keys
each monomial x^e by one int: one byte per variable, x_1 in the highest
byte, so int order is lex order on exponent tuples. A byte holds e_i in its
low 7 bits, so exponents lie in 0..127, and keeps its top bit, the guard
bit, clear. A shift by an integer vector t with |t_i| <= 127 is one add of
its offset sum t_i 2^(8(n-i)). If an entry of the sum leaves 0..127, the
lowest field that does so ends with its guard bit set, whether it carried
up or borrowed from its neighbour: the sum is no key, and its lookup misses
instead of aliasing another monomial, so the fields need no bias. Moving c
from x_j to x_(j+1) subtracts c (2^8 - 1) 2^(8(n-j-1)), and block
dominance of a whole key is one guarded subtract-and-mask (`_read_tables`).
Tuples live only at the edges: the `Poly` constructor, `monomial`, `coeff`,
`items`, `__str__`, the `SplitExpansion` constructor and its
`coefficients`, and the error messages. The edges raise ValueError for a
negative exponent, one above 127 or a tuple of the wrong length. Packed
ints leave this module only as the `terms` of a `Poly` or a
`SplitExpansion`, which `splitrule` and the cross-check compare as they are.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations, product as _iproduct
from math import prod
from operator import lt

from .typea import act_on_composition, left_descents


_W, _TOP = 8, 127  # bits per variable; the top exponent, below the guard bit


def _pack(exps, n: int) -> int:
    """The packed key of an exponent tuple; ValueError unless it has n entries
    in 0..127."""
    exps = tuple(exps)
    if len(exps) != n or exps and not 0 <= min(exps) <= max(exps) <= _TOP:
        raise ValueError(f"exponents {exps} must be {n} integers in 0..{_TOP}")
    return int.from_bytes(bytes(exps), "big")


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple(key.to_bytes(n, "big"))


def _guards(n: int) -> int:
    """The guard bits of n fields."""
    return int.from_bytes(b"\x80" * n, "big")


def _add_into(out: dict, terms, c: int) -> dict:
    """Add c * terms, (exponents, coefficient) pairs, to `out` in place.

    The one sparse accumulate: entries that cancel to 0 are dropped.
    """
    for e, cc in terms:
        nc = out.get(e, 0) + c * cc
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


class Poly:
    """Sparse polynomial with integer coefficients in nvars variables.

    `terms` maps each monomial's packed key to its coefficient; the
    constructor takes exponent tuples instead and packs them.
    Immutable by convention: nothing changes `terms` after construction, and
    every operation returns a new Poly. `is_symmetric_in` relies on this to
    keep its answers in the `_symmetric` slot, which it creates on first use.
    """

    __slots__ = ("nvars", "terms", "_symmetric")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {_pack(e, nvars): c for e, c in (terms or {}).items()}

    @staticmethod
    def _from_packed(nvars: int, terms: dict) -> "Poly":
        """A Poly on packed keys, taken as they are; no `__init__` runs."""
        f = object.__new__(Poly)
        f.nvars, f.terms = nvars, terms
        return f

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(exps, coeff: int = 1) -> "Poly":
        exps = tuple(exps)
        f = Poly(len(exps), {exps: coeff})  # checks exps even when coeff is 0
        return f if coeff else Poly(len(exps))

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        """x_i among x_1..x_nvars; ValueError unless 1 <= i <= nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return Poly(nvars, {exp: 1})

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_packed(
            self.nvars, _add_into(dict(self.terms), other.terms.items(), 1)
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_packed(
            self.nvars, _add_into(dict(self.terms), other.terms.items(), -1)
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        products = ((e1 + e2, c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())
        out, guards = _add_into({}, products, 1), _guards(self.nvars)
        if any(e & guards for e in out):
            raise ValueError(f"a product exponent is above {_TOP}")
        return Poly._from_packed(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly(self.nvars)
        return Poly._from_packed(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, exps) -> int:
        return self.terms.get(_pack(exps, self.nvars), 0)

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        """The (exponent tuple, coefficient) pairs, in `terms` order."""
        return [(_unpack(e, self.nvars), c) for e, c in self.terms.items()]

    def is_symmetric_in(self, j: int) -> bool:
        """True iff swapping x_j and x_(j+1) fixes self; scanned once per j.

        ValueError unless 1 <= j <= nvars - 1, before any answer is read.
        """
        if not 1 <= j <= self.nvars - 1:
            raise ValueError(f"operator index {j} out of range 1..{self.nvars - 1}")
        try:
            known = self._symmetric
        except AttributeError:
            known = self._symmetric = {}
        got = known.get(j)
        if got is None:
            got = known[j] = self._scan_symmetric(j)
        return got

    def _scan_symmetric(self, j: int) -> bool:
        """One pass: each key, with the fields of x_j and x_(j+1) exchanged,
        must look up its own coefficient. Coefficients are nonzero, so a
        missing partner (None) never compares equal. j must lie in
        1..nvars - 1."""
        low = _W * (self.nvars - 1 - j)
        high, step, terms = low + _W, 255 << low, self.terms
        get = terms.get
        for e, c in terms.items():
            if get(e - ((e >> high & 255) - (e >> low & 255)) * step) != c:
                return False
        return True

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.items(), reverse=True):
            mono = " ".join(
                f"x{i + 1}^{p}" if p > 1 else f"x{i + 1}"
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c} * {mono}" if mono else str(c))
        return "  +  ".join(bits)

    __repr__ = __str__


def demazure_pi(j: int, f: Poly) -> Poly:
    """Isobaric divided difference (x_j f - x_{j+1} s_j f) / (x_j - x_{j+1}).

    The quotient is exact and expands monomial by monomial:
    for p >= q the pair x_j^p x_{j+1}^q contributes the shuffle sum
    x^{p} y^{q} + x^{p-1} y^{q+1} + ... + x^{q} y^{p}; for p < q it
    contributes the negated interior sum. On packed keys each shuffle term
    is the previous one minus `step`, one unit moved from x_j to x_(j+1).
    """
    if not 1 <= j <= f.nvars - 1:
        raise ValueError(f"operator index {j} out of range 1..{f.nvars - 1}")
    low = _W * (f.nvars - 1 - j)  # x_(j+1)'s field; x_j's is above it
    high, step = low + _W, 255 << low
    out: dict = {}
    get = out.get
    for e, c in f.terms.items():
        d = (e >> high & 255) - (e >> low & 255)  # p - q
        if d < 0:  # start from x_j^(q-1) x_(j+1)^(p+1), negated
            e, c, d = e - (d + 1) * step, -c, -d - 2
        for _ in range(d + 1):
            nc = get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
            e -= step
    return Poly._from_packed(f.nvars, out)


def key_polynomial(alpha) -> Poly:
    """Key polynomial of a weak composition, by the sorting recursion.

    Weakly decreasing alpha gives the monomial x^alpha; otherwise swap the
    first ascent pair and apply the Demazure operator there. Each call
    builds its key afresh: nothing is kept between calls. ValueError for a
    part outside 0..127, named as given, before any sorting.
    """
    alpha = tuple(alpha)
    _pack(alpha, len(alpha))
    return _sorted_key(alpha)


def _sorted_key(a: tuple) -> Poly:
    # recursive on purpose: depth = sorting swaps, so a composition too long
    # to sort hits the recursion limit (exit 3) instead of exhausting memory
    j = next((i for i in range(len(a) - 1) if a[i] < a[i + 1]), None)
    if j is None:
        return Poly.monomial(a)
    hat = list(a)
    hat[j], hat[j + 1] = hat[j + 1], hat[j]
    return demazure_pi(j + 1, _sorted_key(tuple(hat)))


def key_via_kohnert(alpha) -> Poly:
    """Key polynomial by diagram moves, an independent route.

    Start from the left-justified diagram of alpha; a move takes the
    rightmost cell of a row to the nearest empty position above it in its
    column (smaller row index, jumping over filled cells). Sum x^(row
    weights) over all distinct reachable diagrams.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    start = frozenset(
        (r, c) for r, a in enumerate(alpha, start=1) for c in range(1, a + 1)
    )
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for diag in frontier:
            rows: dict[int, int] = {}
            for r, c in diag:
                if c > rows.get(r, 0):
                    rows[r] = c
            for r, c in rows.items():
                target = None
                for rr in range(r - 1, 0, -1):
                    if (rr, c) not in diag:
                        target = rr
                        break
                if target is not None:
                    moved = frozenset(diag - {(r, c)} | {(target, c)})
                    if moved not in seen:
                        seen.add(moved)
                        nxt.append(moved)
        frontier = nxt
    out: dict = {}
    for diag in seen:
        weight = [0] * n
        for r, _ in diag:
            weight[r - 1] += 1
        e = tuple(weight)
        out[e] = out.get(e, 0) + 1
    return Poly(n, out)


@lru_cache(maxsize=None)
def _schur_cached(lam: int, m: int) -> Poly:
    """s_lam(x_1..x_m) for a partition lam packed with m fields, zeros
    included, by branching on x_m: the sum over the mu with lam_1 >= mu_1 >=
    lam_2 >= ... >= mu_(m-1) >= lam_m of s_mu(x_1..x_(m-1)) x_m^(|lam| - |mu|).
    A block's field of a packed key is such a lam (`_d_schur_terms`)."""
    if m <= 1:
        return Poly._from_packed(m, {lam: 1})
    parts = lam.to_bytes(m, "big")
    ranges = [range(parts[i + 1], parts[i] + 1) for i in range(m - 1)]
    total, out = sum(parts), {}
    for mu in _iproduct(*ranges):
        last = total - sum(mu)  # x_m's field, appended below the others
        sub = _schur_cached(int.from_bytes(bytes(mu), "big"), m - 1).terms.items()
        _add_into(out, (((e << _W) + last, c) for e, c in sub), 1)
    return Poly._from_packed(m, out)


def _partition(lam) -> tuple[int, ...]:
    """lam without its trailing zeros, checked in one pass: ValueError unless
    it is weakly decreasing with a nonnegative last part, and no part is above
    127, the top exponent of a packed key."""
    lam = tuple(lam)
    if any(map(lt, lam, lam[1:])) or lam and not 0 <= lam[-1] <= lam[0] <= _TOP:
        raise ValueError(f"{lam} is not a partition with parts in 0..{_TOP}")
    return lam[:len(lam) - lam.count(0)]


def schur(lam, m: int) -> Poly:
    """Schur polynomial s_lam(x_1..x_m) via the one-variable branching rule.

    lam may end in zeros, as in (2, 1, 0); (2, 0, 1) is not a partition."""
    lam = _partition(lam)
    if len(lam) > m:
        raise ValueError(f"partition {lam} has more than {m} parts")
    return _schur_cached(_pack(lam + (0,) * (m - len(lam)), m), m)


@dataclass(frozen=True)
class SplitSet:
    """Block structure on x_1..x_n cut after the positions in D."""

    n: int
    D: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"variable count n must be at least 0, not {self.n}")
        D = tuple(sorted(set(self.D)))
        object.__setattr__(self, "D", D)
        if any(not 1 <= d <= self.n - 1 for d in D):
            raise ValueError(f"split positions {D} must lie in 1..{self.n - 1}")
        # inclusive 1-based (start, end) per block; not fields, so ==, hash
        # and repr see only n and D
        cuts = (0,) + D + (self.n,)
        object.__setattr__(self, "blocks", tuple(
            (cuts[i] + 1, cuts[i + 1]) for i in range(len(cuts) - 1)
        ))
        # 0-based positions (j - 1, j) of x_j, x_(j+1) in one block
        object.__setattr__(self, "pairs", tuple(
            (j - 1, j) for a, b in self.blocks for j in range(a, b)
        ))
        # a packed key's block fields: the mask of the one-variable blocks,
        # whose Schur polynomial is their own monomial, and (shift, mask,
        # size) of each other block
        shift = lambda b: _W * (self.n - b)
        object.__setattr__(self, "_block_fields", (
            sum(255 << shift(b) for a, b in self.blocks if a == b),
            tuple((shift(b), (1 << _W * (b - a + 1)) - 1, b - a + 1)
                  for a, b in self.blocks if a != b),
        ))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in self.blocks)

    def pad_composition(self, alpha) -> tuple[int, ...]:
        """alpha padded with zeros to n parts; its descents must lie in D."""
        alpha = tuple(alpha)
        if len(alpha) > self.n:
            raise ValueError(f"composition {alpha} has more than {self.n} parts")
        alpha += (0,) * (self.n - len(alpha))
        desc = [i for i in range(1, self.n) if alpha[i - 1] > alpha[i]]
        if not set(desc) <= set(self.D):
            raise ValueError(
                f"descents {desc} of the composition lie outside D={self.D}"
            )
        return alpha


class SplitExpansion:
    """Coefficients of a polynomial on the D-Schur basis of Pi_D.

    `terms` keys each D-Schur product by the packed key of its lead
    monomial, the per-block partitions (each padded with zeros to its block
    size) side by side, as `Poly.terms` keys a monomial; values are the
    nonzero integer coefficients. Tuple labels, one partition per block,
    live only at the edges: the constructor packs them, ValueError for the
    wrong number of blocks, a block not padded to its size, a part that is
    not a partition or one above 127, and `coefficients` unpacks them.
    """

    __slots__ = ("split", "terms")

    def __init__(self, split: SplitSet, coefficients: dict):
        self.split = split
        self.terms = {_label_key(split, lams): c for lams, c in coefficients.items()}

    @staticmethod
    def _from_packed(split: SplitSet, terms: dict) -> "SplitExpansion":
        expansion = object.__new__(SplitExpansion)
        expansion.split, expansion.terms = split, terms
        return expansion

    @property
    def coefficients(self) -> dict:
        """The tuple label of each product, one padded partition per block,
        to its coefficient."""
        n, blocks = self.split.n, self.split.blocks
        out = {}
        for key, c in self.terms.items():
            e = _unpack(key, n)
            out[tuple(e[a - 1 : b] for a, b in blocks)] = c
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SplitExpansion)
            and self.split == other.split
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SplitExpansion({self.split!r}, {self.coefficients!r})"

    def is_multiplicity_free(self) -> bool:
        return all(c == 1 for c in self.terms.values())

    def reconstruct(self) -> Poly:
        out: dict = {}
        for key, c in self.terms.items():
            _add_into(out, _d_schur_terms(self.split, key), c)
        return Poly._from_packed(self.split.n, out)

    def to_json_dict(self) -> dict:
        terms = [
            {"lambdas": [list(lam) for lam in lams], "coeff": c}
            for lams, c in sorted(self.coefficients.items(), reverse=True)
        ]
        return {"n": self.split.n, "D": list(self.split.D), "terms": terms}


def _label_key(split: SplitSet, lams, pad: bool = False) -> int:
    """The packed lead key of the D-Schur label `lams`, one partition per
    block; ValueError for the wrong number of blocks, a part that is not a
    partition or one above 127, and a block with more parts than variables
    or, unless `pad`, with fewer."""
    lams = tuple(map(tuple, lams))
    if len(lams) != len(split.blocks):
        raise ValueError(f"{len(lams)} partitions for the {len(split.blocks)} blocks")
    exps = ()
    for size, lam in zip(split.block_sizes(), lams):
        part = _partition(lam)
        if len(part) > size or not pad and len(lam) != size:
            raise ValueError(f"block {lam} is not a partition padded to {size} parts")
        exps += part + (0,) * (size - len(part))
    return int.from_bytes(bytes(exps), "big")


def _d_schur_terms(split: SplitSet, key: int) -> list:
    """The (key, coefficient) pairs of the D-Schur product whose lead
    monomial has the packed key `key`, block-dominant.

    The blocks use disjoint variables, so each monomial of the product is one
    Schur monomial per block written side by side, with the product of their
    coefficients, and no two choices meet on the same monomial. Each block's
    partition is its field of the key (`key >> shift & mask`), which the
    Schur cache reads as it is. A block whose Schur polynomial has one term
    (one variable, or a rectangle filling it) contributes its own field, so
    those fields fold into one offset. `d_schur`, `SplitExpansion.reconstruct`
    and `split_expand`'s peel all read this one routine.
    """
    single, blocks = split._block_fields
    offset, factors = key & single, []
    for shift, mask, size in blocks:
        lam = key >> shift & mask
        terms = _schur_cached(lam, size).terms
        if len(terms) == 1:
            offset += lam << shift
        else:
            factors.append((shift, terms.items()))
    out = [(offset, 1)]
    for shift, terms in factors:
        out = [(e + (g << shift), c * d) for e, c in out for g, d in terms]
    return out


def d_schur(split: SplitSet, lams) -> Poly:
    """Product of one Schur polynomial per block (`_d_schur_terms`).

    Each block must be a partition, padded with zeros or not, checked by the
    one-pass `_partition` that `schur` also uses.
    """
    return Poly._from_packed(
        split.n, dict(_d_schur_terms(split, _label_key(split, lams, pad=True)))
    )


def is_split_symmetric(f: Poly, split: SplitSet) -> bool:
    if f.nvars != split.n:
        raise ValueError("variable count does not match the split")
    return all(f.is_symmetric_in(j) for _, j in split.pairs)


def _peel(f: Poly, pick, element):
    """Lazy lead-term peeling, the one loop behind every expansion.

    Yields (m, c) for the packed key m = pick(remainder) and its coefficient
    c, and only after that subtracts c times the basis element that m leads,
    `element(m)`: its (key, coefficient) pairs, with coefficient 1 at m.
    ValueError if m survives the subtraction, which would pick it again
    forever. A consumer that stops early builds no further basis element.
    """
    rem = dict(f.terms)
    while rem:
        m = pick(rem)
        c = rem[m]
        yield m, c
        _add_into(rem, element(m), -c)
        if m in rem:
            raise ValueError(
                f"the basis element led by {_unpack(m, f.nvars)} does not clear it"
            )


def split_expand(f: Poly, split: SplitSet) -> SplitExpansion:
    """Expand a split-symmetric polynomial on the D-Schur basis.

    Greedy peeling: the lex-largest monomial of any element of Pi_D is
    weakly decreasing inside each block and is the lead monomial (with
    coefficient 1) of exactly one D-Schur product, which its packed key
    names; subtract and repeat. With one variable per block the
    coefficients are those of f.
    """
    if not is_split_symmetric(f, split):
        raise ValueError("polynomial is not split-symmetric for this D")
    if all(s == 1 for s in split.block_sizes()):
        return SplitExpansion._from_packed(split, dict(f.terms))
    terms = _peel(f, max, partial(_d_schur_terms, split))
    return SplitExpansion._from_packed(split, dict(terms))


@lru_cache(maxsize=None)
def _alternant_shifts(split: SplitSet) -> tuple:
    """The per-split read tables (plus, minus): delta - sigma delta for the
    sigma != 1 in W_D, the product of the block symmetric groups, of sign +1
    and -1. delta is (k-1, ..., 0) in a block of k variables, so within a
    block sigma is a permutation p of range(k) and delta - sigma delta is
    p - (0, ..., k-1). The identity's shift is 0 and is in neither table."""
    per_block = [
        [((-1) ** sum(x > y for i, x in enumerate(p) for y in p[i + 1 :]),
          tuple(x - i for i, x in enumerate(p)))
         for p in permutations(range(k))]
        for k in split.block_sizes()
    ]
    shifts = [
        (prod(s for s, _ in pick), sum((t for _, t in pick), ()))
        for pick in _iproduct(*per_block)
    ]
    return tuple(
        tuple(t for s, t in shifts if s == sign and any(t)) for sign in (1, -1)
    )


@lru_cache(maxsize=None)
def _read_tables(split: SplitSet) -> tuple:
    """`_alternant_shifts` as packed offsets (plus, minus), and the masks of
    the guarded dominance test: `pairs` keeps the fields of the x_i whose
    x_(i+1) shares their block, and `guards` is every field's guard bit. For
    a key lam with clear guard bits, each field of lam | guards minus the
    next field (lam << 8) & pairs keeps its guard bit iff it is not below
    that next field, and no field borrows from another: so
    ((lam | guards) - ((lam << 8) & pairs)) & guards == guards
    iff lam is weakly decreasing in each block."""
    n = split.n
    offset = lambda t: sum(x << _W * (n - 1 - i) for i, x in enumerate(t))
    plus, minus = (tuple(map(offset, table)) for table in _alternant_shifts(split))
    pairs = sum(255 << _W * (n - 1 - i) for i, _ in split.pairs)
    return plus, minus, pairs, _guards(n)


def is_D_multiplicity_free(f: Poly, split: SplitSet) -> bool:
    """True iff every D-Schur coefficient of f lies in {0, 1}.

    Reads the coefficient sum_sigma sgn(sigma) * f[lam + delta - sigma delta]
    at each block-dominant monomial lam of f, in f's term order, and stops at
    the first above 1; ValueError if f is not split-symmetric or at the first
    negative coefficient met. Each read starts from f[lam], the identity's
    term, taken off the iteration; it then adds one lookup per shift of
    `_alternant_shifts`'s plus table and subtracts one per shift of its minus
    table, each one add to the packed key (`_read_tables`). Exact only if f
    has a nonnegative D-Schur expansion, as every split-symmetric key has
    (Reiner-Shimozono): no lead monomial cancels. For signed f, e.g.
    s_(2) - s_(1,1), use `split_expand(...).is_multiplicity_free()`.
    """
    if not is_split_symmetric(f, split):
        raise ValueError("polynomial is not split-symmetric for this D")
    plus, minus, pairs, guards = _read_tables(split)
    get = f.terms.get
    for lam, c in f.terms.items():
        if ((lam | guards) - ((lam << _W) & pairs)) & guards == guards:
            for t in plus:
                c += get(lam + t, 0)
            for t in minus:
                c -= get(lam + t, 0)
            if c > 1:
                return False
            if c < 0:
                raise ValueError(
                    f"D-Schur coefficient {c} < 0 at {_unpack(lam, f.nvars)}; "
                    "use split_expand"
                )
    return True


def expand_in_keys(f: Poly) -> dict:
    """Coefficients of f on the key-polynomial basis.

    The lex-smallest monomial of a key polynomial is its own index (with
    coefficient 1), so peeling from the bottom is exact. Each key peeled
    off is built afresh by `key_polynomial`.
    """
    n = f.nvars
    keys = _peel(f, min, lambda low: key_polynomial(_unpack(low, n)).terms.items())
    return {_unpack(low, n): c for low, c in keys}


def split_expand_via_solver(f: Poly, split: SplitSet) -> SplitExpansion:
    """Independent expansion oracle: Jacobi's bialternant formula.

    In a block, s_lam * a_delta = a_{lam+delta} with a_delta = sum_sigma
    sgn(sigma) x^{sigma delta} (Macdonald, I.(3.1)), so the coefficient at
    block-dominant lam is that of x^{lam+delta} in f * a_delta: each monomial
    e of f adds sgn(sigma) * f[e] at lam = e - (delta - sigma delta). Exact
    for any split-symmetric f, signed or not; uses neither `d_schur`, `schur`
    nor the lead monomials `split_expand` peels by. Test and cross-check use.
    """
    if not is_split_symmetric(f, split):
        raise ValueError("polynomial is not split-symmetric for this D")
    plus, minus, pairs, guards = _read_tables(split)
    signed = [(1, t) for t in (0,) + plus] + [(-1, t) for t in minus]
    totals: dict = {}
    for e, c in f.terms.items():
        for sgn, t in signed:
            lam = e - t
            # a guard bit is set iff an entry left 0..127; its total is 0
            if not lam & guards and (
                ((lam | guards) - ((lam << _W) & pairs)) & guards == guards
            ):
                totals[lam] = totals.get(lam, 0) + sgn * c
    return SplitExpansion._from_packed(
        split, {lam: c for lam, c in totals.items() if c}
    )


def staircase_composition(line) -> tuple[int, ...]:
    """w applied to (n, n-1, ..., 1)."""
    n = len(line)
    return act_on_composition(line, tuple(range(n, 0, -1)))


def staircase_key(line, I) -> tuple[Poly, SplitSet]:
    """The staircase key of the one-line permutation `line` and the split
    D = [n-1] - I it is tested on; I must sit inside the left descents."""
    n = len(line)
    I = frozenset(I)
    if not I <= set(left_descents(line)):
        raise ValueError("I is not a subset of the left descent set of w")
    D = tuple(j for j in range(1, n) if j not in I)
    return key_polynomial(staircase_composition(line)), SplitSet(n, D)


def staircase_test(line, I) -> bool:
    """Multiplicity-freeness of the staircase key for D = [n-1] - I."""
    return is_D_multiplicity_free(*staircase_key(line, I))
