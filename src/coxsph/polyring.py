"""Sparse integer polynomials, key polynomials, and split-Schur expansions.

A Poly is a map from exponent tuples to nonzero integer coefficients, with a
fixed variable count. Everything is exact: Demazure operators use the
telescoping quotient term by term, Schur polynomials come from the branching
recursion, and expansions subtract basis elements until the remainder is 0.

A split set D = {d_1 < ... < d_k} inside [n-1] cuts x_1..x_n into consecutive
blocks. Polynomials symmetric within every block form the ring Pi_D, whose
basis is the products of one Schur polynomial per block ("D-Schur" products).
Both expansions run one lazy peel loop, `_peel`: it yields the basis element
that a picked monomial of the remainder names, with its coefficient, and
only then subtracts it. `split_expand` picks the lexicographically largest
monomial, whose per-block exponents are weakly decreasing and name a D-Schur
product. `expand_in_keys` picks the lexicographically smallest monomial,
which names a key polynomial.

The module keeps two caches. `_schur_cached` holds one Schur polynomial
per (partition, variable count), for `schur` and `d_schur`.
`_alternant_shifts` holds one entry of read tables per split: the shifts
delta - sigma delta of Jacobi's bialternant formula for sigma != 1, split by
the sign of sigma.
`is_D_multiplicity_free` and `split_expand_via_solver` read coefficients off
those tables and build no Schur polynomial.

A Poly is never changed after it is built, so `Poly.is_symmetric_in`
remembers its answer per j on the Poly itself, not in a module cache.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as _iproduct
from math import prod
from operator import add, eq, itemgetter, lt, sub

from .typea import act_on_composition, left_descents


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

    Immutable by convention: nothing changes `terms` after construction, and
    every operation returns a new Poly. `is_symmetric_in` relies on this to
    keep its answers in the `_symmetric` slot, which it creates on first use.
    """

    __slots__ = ("nvars", "terms", "_symmetric")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms or {}

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(exps, coeff: int = 1) -> "Poly":
        exps = tuple(exps)
        if coeff == 0:
            return Poly(len(exps))
        return Poly(len(exps), {exps: coeff})

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
        return Poly(self.nvars, _add_into(dict(self.terms), other.terms.items(), 1))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.nvars, _add_into(dict(self.terms), other.terms.items(), -1))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        products = (
            (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
            for e1, c1 in a.items()
            for e2, c2 in b.items()
        )
        return Poly(self.nvars, _add_into({}, products, 1))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

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
        """One C-level pass: each exponent tuple, with entries j - 1 and j
        (0-based) exchanged by one itemgetter, must look up its own
        coefficient. Coefficients are nonzero, so a missing partner (None)
        never compares equal. j must lie in 1..nvars - 1."""
        order = list(range(self.nvars))
        order[j - 1], order[j] = j, j - 1
        swap, terms = itemgetter(*order), self.terms
        return all(map(eq, map(terms.get, map(swap, terms)), terms.values()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
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
    contributes the negated interior sum.
    """
    if not 1 <= j <= f.nvars - 1:
        raise ValueError(f"operator index {j} out of range 1..{f.nvars - 1}")

    def shuffles():
        for e, c in f.terms.items():
            p, q = e[j - 1], e[j]
            hi, lo, sign = (p, q, c) if p >= q else (q - 1, p + 1, -c)
            le = list(e)
            for t in range(hi - lo + 1):
                le[j - 1], le[j] = hi - t, lo + t
                yield tuple(le), sign

    return Poly(f.nvars, _add_into({}, shuffles(), 1))


def key_polynomial(alpha) -> Poly:
    """Key polynomial of a weak composition, by the sorting recursion.

    Weakly decreasing alpha gives the monomial x^alpha; otherwise swap the
    first ascent pair and apply the Demazure operator there. Each call
    builds its key afresh: nothing is kept between calls.
    """
    return _sorted_key(tuple(alpha))


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
def _schur_cached(lam: tuple[int, ...], m: int) -> Poly:
    if m == 0:
        return Poly.one(0)
    if not lam:
        return Poly.one(m)
    if len(lam) > m:
        raise ValueError(f"partition {lam} has more than {m} parts")
    out: dict = {}
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, lam[i] + 1)
              for i in range(len(lam))]
    total = sum(lam)
    for mu in _iproduct(*ranges):
        mu_clean = tuple(p for p in mu if p)
        if len(mu_clean) > m - 1:
            continue
        last = total - sum(mu)
        sub = _schur_cached(mu_clean, m - 1).terms.items()
        _add_into(out, ((e + (last,), c) for e, c in sub), 1)
    return Poly(m, out)


def _partition(lam) -> tuple[int, ...]:
    """lam without its trailing zeros, checked in one pass: ValueError unless
    it is weakly decreasing with a nonnegative last part."""
    lam = tuple(lam)
    if any(map(lt, lam, lam[1:])) or lam and lam[-1] < 0:
        raise ValueError(f"{lam} is not a partition")
    return lam[:len(lam) - lam.count(0)]


def schur(lam, m: int) -> Poly:
    """Schur polynomial s_lam(x_1..x_m) via the one-variable branching rule.

    lam may end in zeros, as in (2, 1, 0); (2, 0, 1) is not a partition."""
    return _schur_cached(_partition(lam), m)


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


@dataclass
class SplitExpansion:
    """Coefficients of a polynomial on the D-Schur basis of Pi_D.

    Keys are tuples of per-block partitions, each padded with zeros to its
    block size; values are the (nonzero) integer coefficients.
    """

    split: SplitSet
    coefficients: dict

    def is_multiplicity_free(self) -> bool:
        return all(c == 1 for c in self.coefficients.values())

    def reconstruct(self) -> Poly:
        out: dict = {}
        for lams, c in self.coefficients.items():
            _add_into(out, d_schur(self.split, lams).terms.items(), c)
        return Poly(self.split.n, out)

    def to_json_dict(self) -> dict:
        terms = [
            {"lambdas": [list(lam) for lam in lams], "coeff": c}
            for lams, c in sorted(self.coefficients.items(), reverse=True)
        ]
        return {"n": self.split.n, "D": list(self.split.D), "terms": terms}


def d_schur(split: SplitSet, lams) -> Poly:
    """Product of one Schur polynomial per block.

    The blocks use disjoint variables, so each monomial of the product is one
    Schur monomial per block written side by side, with the product of their
    coefficients, and no two choices meet on the same monomial.

    Each block must be a partition padded with zeros, checked by the one-pass
    `_partition` that `schur` also uses before the Schur polynomial is looked
    up in the cache `schur` reads.
    """
    blocks = split.blocks
    if len(lams) != len(blocks):
        raise ValueError("one partition per block required")
    factors = []
    for (a, b), lam in zip(blocks, lams):
        factors.append(_schur_cached(_partition(lam), b - a + 1).terms.items())
    out = {}
    for pick in _iproduct(*factors):
        exps, coeff = (), 1
        for e, c in pick:
            exps += e
            coeff *= c
        out[exps] = coeff
    return Poly(split.n, out)


def is_split_symmetric(f: Poly, split: SplitSet) -> bool:
    if f.nvars != split.n:
        raise ValueError("variable count does not match the split")
    return all(f.is_symmetric_in(j) for _, j in split.pairs)


def _peel(f: Poly, pick, name, element):
    """Lazy lead-term peeling, the one loop behind every expansion.

    Yields (name(m), c) for the monomial m = pick(remainder) and its
    coefficient c, and only after that subtracts c * element(name(m)), which
    must have coefficient 1 at m: ValueError if m survives the subtraction,
    which would pick it again forever. A consumer that stops early builds no
    further basis element.
    """
    rem = dict(f.terms)
    while rem:
        m = pick(rem)
        c = rem[m]
        label = name(m)
        yield label, c
        _add_into(rem, element(label).terms.items(), -c)
        if m in rem:
            raise ValueError(f"basis element {label} does not clear monomial {m}")


def split_expand(f: Poly, split: SplitSet) -> SplitExpansion:
    """Expand a split-symmetric polynomial on the D-Schur basis.

    Greedy peeling: the lex-largest monomial of any element of Pi_D is
    weakly decreasing inside each block and is the lead monomial (with
    coefficient 1) of exactly one D-Schur product; subtract and repeat.
    With one variable per block the coefficients are those of f.
    """
    if not is_split_symmetric(f, split):
        raise ValueError("polynomial is not split-symmetric for this D")
    if all(s == 1 for s in split.block_sizes()):
        terms = ((tuple((p,) for p in e), c) for e, c in f.terms.items())
    else:
        name = lambda lead: tuple(lead[a - 1 : b] for a, b in split.blocks)
        terms = _peel(f, max, name, lambda lams: d_schur(split, lams))
    return SplitExpansion(split, dict(terms))


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


def is_D_multiplicity_free(f: Poly, split: SplitSet) -> bool:
    """True iff every D-Schur coefficient of f lies in {0, 1}.

    Reads the coefficient sum_sigma sgn(sigma) * f[lam + delta - sigma delta]
    at each block-dominant monomial lam of f, in f's term order, and stops at
    the first above 1; ValueError if f is not split-symmetric or at the first
    negative coefficient met. Each read starts from f[lam], the identity's
    term, taken off the iteration; it then adds one lookup per shift of
    `_alternant_shifts`'s plus table and subtracts one per shift of its minus
    table. Exact only if f has a nonnegative D-Schur expansion, as every
    split-symmetric key has (Reiner-Shimozono): no lead monomial cancels. For
    signed f, e.g. s_(2) - s_(1,1), use `split_expand(...).is_multiplicity_free()`.
    """
    if not is_split_symmetric(f, split):
        raise ValueError("polynomial is not split-symmetric for this D")
    (plus, minus), pairs, get = _alternant_shifts(split), split.pairs, f.terms.get
    for lam, c in f.terms.items():
        for i, j in pairs:
            if lam[i] < lam[j]:
                break
        else:
            for t in plus:
                c += get(tuple(map(add, lam, t)), 0)
            for t in minus:
                c -= get(tuple(map(add, lam, t)), 0)
            if c > 1:
                return False
            if c < 0:
                raise ValueError(
                    f"D-Schur coefficient {c} < 0 at {lam}; use split_expand"
                )
    return True


def expand_in_keys(f: Poly) -> dict:
    """Coefficients of f on the key-polynomial basis.

    The lex-smallest monomial of a key polynomial is its own index (with
    coefficient 1), so peeling from the bottom is exact. Each key peeled
    off is built afresh by `key_polynomial`.
    """
    return dict(_peel(f, min, lambda low: low, key_polynomial))


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
    plus, minus = _alternant_shifts(split)
    signed = [(1, t) for t in ((0,) * split.n,) + plus] + [(-1, t) for t in minus]
    pairs, totals = split.pairs, {}
    for e, c in f.terms.items():
        for sgn, t in signed:
            lam = tuple(map(sub, e, t))
            for i, j in pairs:
                if lam[i] < lam[j]:
                    break
            else:
                if min(lam, default=0) >= 0:  # else its total is 0 anyway
                    totals[lam] = totals.get(lam, 0) + sgn * c
    return SplitExpansion(split, {
        tuple(lam[a - 1 : b] for a, b in split.blocks): c
        for lam, c in totals.items() if c
    })


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
