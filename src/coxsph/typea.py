"""Type-A specifics: one-line permutations, codes, diagrams, and patterns.

Permutations are tuples (w(1), ..., w(n)). Compositions and partitions are
plain integer tuples. A permutation becomes a `coxeter` Element through its
canonical reduced word; an Element becomes a permutation by reading the
images of the simple roots, w(alpha_j) = e_w(j) - e_w(j+1), with no
products at all.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .coxeter import CoxeterError, CoxeterSystem, Element
from . import words


# -- parsing / formatting ----------------------------------------------------

def parse_permutation(text: str) -> tuple[int, ...]:
    """One-line notation: '24531' for n <= 9, else comma-separated."""
    text = text.strip()
    try:
        line = tuple(int(t) for t in (text.split(",") if "," in text else text))
    except ValueError:
        raise CoxeterError(f"{text!r} is not a one-line permutation") from None
    if sorted(line) != list(range(1, len(line) + 1)):
        raise CoxeterError(f"{text!r} is not a permutation of 1..{len(line)}")
    return line


def format_permutation(line) -> str:
    if len(line) <= 9:
        return "".join(str(v) for v in line)
    return ",".join(str(v) for v in line)


def parse_composition(text: str) -> tuple[int, ...]:
    """Composition notation '(1,5,2,4,3)'; bare '1,5,2,4,3' also accepted."""
    inner = text.strip()
    if len(inner) >= 2 and inner[0] == "(" and inner[-1] == ")":
        inner = inner[1:-1]
    if "(" in inner or ")" in inner:
        raise CoxeterError(f"composition {text!r} has mismatched parentheses")
    try:
        parts = tuple(int(t) for t in inner.split(",")) if inner else ()
    except ValueError:
        raise CoxeterError(f"composition {text!r} is not a list of integers") from None
    if any(p < 0 for p in parts):
        raise CoxeterError(f"composition {text!r} has a negative part")
    return parts


# -- basic permutation operations ---------------------------------------------

def inverse(line) -> tuple[int, ...]:
    out = [0] * len(line)
    for i, v in enumerate(line):
        out[v - 1] = i + 1
    return tuple(out)


def apply_word(n: int, letters) -> tuple[int, ...]:
    line = list(range(1, n + 1))
    for i in letters:
        if not 1 <= i <= n - 1:
            raise CoxeterError(f"letter {i} out of range for S_{n}")
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def inversions(line) -> int:
    n = len(line)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if line[i] > line[j]
    )


def descents(line) -> tuple[int, ...]:
    """Positions i with w(i) > w(i+1)."""
    return tuple(i + 1 for i in range(len(line) - 1) if line[i] > line[i + 1])


def left_descents(line) -> tuple[int, ...]:
    """Values j with j+1 appearing to the left of j."""
    return descents(inverse(line))


def code(line) -> tuple[int, ...]:
    """Row counts of the inversion diagram; entries sum to the length."""
    n = len(line)
    return tuple(
        sum(1 for j in range(i + 1, n) if line[j] < line[i]) for i in range(n)
    )


def perm_from_code(alpha) -> tuple[int, ...]:
    """The unique permutation with the given code, in S_(len + max)."""
    alpha = tuple(alpha)
    n = len(alpha) + (max(alpha) if alpha else 0)
    padded = alpha + (0,) * (n - len(alpha))
    available = list(range(1, n + 1))
    out = []
    for c in padded:
        out.append(available.pop(c))
    return tuple(out)


def rothe_diagram(line) -> set[tuple[int, int]]:
    """Cells (i, j) with j < w(i) and i < w^-1(j), in matrix coordinates."""
    inv = inverse(line)
    return {
        (i, j)
        for i in range(1, len(line) + 1)
        for j in range(1, line[i - 1])
        if inv[j - 1] > i
    }


def canonical_word(line) -> tuple[int, ...]:
    """Row i of the diagram contributes s_(i+c_i-1), ..., s_(i+1), s_i."""
    letters = []
    for i, c in enumerate(code(line), start=1):
        letters.extend(range(i + c - 1, i - 1, -1))
    return tuple(letters)


# -- patterns ------------------------------------------------------------------

def contains_perm_pattern(line, pattern) -> bool:
    """True iff some subsequence of `line` is order-isomorphic to `pattern`."""
    k = len(pattern)
    if k > len(line):
        return False
    order = _relative_order(pattern)
    for idx in combinations(range(len(line)), k):
        if _relative_order([line[i] for i in idx]) == order:
            return True
    return False


def _relative_order(values) -> tuple[int, ...]:
    ranked = sorted(range(len(values)), key=lambda i: values[i])
    out = [0] * len(values)
    for rank, i in enumerate(ranked, start=1):
        out[i] = rank
    return tuple(out)


def is_bigrassmannian(line) -> bool:
    return len(descents(line)) == 1 and len(descents(inverse(line))) == 1


def bigrassmannian_spherical(line) -> bool:
    """Maximal sphericality of a bigrassmannian, read off its rectangle code.

    The code of a bigrassmannian is (0^f, b^a, 0^g); the element is
    J(w)-spherical exactly when the rectangle is one row, one column, or 2x2.
    """
    if not is_bigrassmannian(line):
        raise CoxeterError("bigrassmannian_spherical needs a bigrassmannian input")
    c = [v for v in code(line) if v]
    a, b = len(c), c[0]
    if any(v != b for v in c):
        raise CoxeterError("bigrassmannian code must be a rectangle")
    return a == 1 or b == 1 or (a == 2 and b == 2)


def act_on_composition(line, parts) -> tuple[int, ...]:
    """w . lambda = (lambda_{w^-1(1)}, ..., lambda_{w^-1(n)})."""
    if len(parts) != len(line):
        raise CoxeterError("composition length must match permutation size")
    inv = inverse(line)
    return tuple(parts[inv[i] - 1] for i in range(len(line)))


def contains_comp_pattern(alpha, beta) -> bool:
    """Composition pattern containment: order-isomorphic with gaps at least
    as large as the pattern's."""
    alpha, beta = tuple(alpha), tuple(beta)
    k = len(beta)
    if k > len(alpha):
        return False
    for idx in combinations(range(len(alpha)), k):
        picked = [alpha[i] for i in idx]
        if all(
            ((picked[s] <= picked[t]) == (beta[s] <= beta[t]))
            and ((picked[t] <= picked[s]) == (beta[t] <= beta[s]))
            and abs(picked[s] - picked[t]) >= abs(beta[s] - beta[t])
            for s in range(k)
            for t in range(s + 1, k)
        ):
            return True
    return False


KM_PATTERNS = ((0, 1, 2), (0, 0, 2, 2), (0, 0, 2, 1), (1, 0, 3, 2), (1, 0, 2, 2))


def avoids_km(alpha) -> bool:
    """True iff alpha avoids all five key-multiplicity patterns."""
    return not any(contains_comp_pattern(alpha, p) for p in KM_PATTERNS)


# -- bridges to Coxeter elements ------------------------------------------------

def _check_type_a(system: CoxeterSystem, n: int):
    t = system.cartan_type
    if t.family != "A":
        raise CoxeterError(f"{t} is not of type A")
    if t.rank != n - 1:
        raise CoxeterError(f"{t} permutes {t.rank + 1} letters, not {n}")


def perm_to_element(system: CoxeterSystem, line) -> Element:
    _check_type_a(system, len(line))
    return words.evaluate(system, canonical_word(line))


@lru_cache(maxsize=None)
def _root_ends(system: CoxeterSystem) -> tuple:
    """(a, b) of each signed root e_a - e_b, 1-based, indexed by the signed
    root: e_a - e_b = alpha_a + ... + alpha_(b-1) has support {a, ..., b -
    1}, entry q is positive root q, and entry -q, read from the end, its
    negative e_b - e_a."""
    ends = [(min(s), max(s) + 1) for s in system._root_supports]
    return (None, *ends, *[(b, a) for a, b in reversed(ends)])


def element_to_perm(system: CoxeterSystem, w: Element) -> tuple[int, ...]:
    """One-line notation of w, read off the images of the simple roots:
    w(alpha_j) = w(e_j - e_(j+1)) = e_w(j) - e_w(j+1), so the image of
    alpha_j gives w(j) and w(j + 1). O(n)."""
    n = system.rank + 1
    _check_type_a(system, n)
    ends = list(map(_root_ends(system).__getitem__, w.rep))
    return (*[a for a, _ in ends], ends[-1][1])
