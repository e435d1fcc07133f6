"""Reduced words, word evaluation, and Bruhat order.

Words are plain tuples of 1-based generator indices. `reduced_words` yields
the full set Red(w) in lexicographic order by walking left descents;
`reduced_word_count` is the matching count-only fast path that never
materializes words. Both are loops, so l(w) sets no recursion limit.
"""

from __future__ import annotations

from .coxeter import CoxeterError, CoxeterSystem, Element


def parse_word(text: str) -> tuple[int, ...]:
    """Parse 's2 s3 s4' (or bare '2 3 4') into a letter tuple.

    Each token is decimal digits after at most one leading 's' or 'S'.
    '<id>', which `format_word` writes for the empty word, parses to ().
    """
    if text.strip() == "<id>":
        return ()
    letters = []
    for tok in text.split():
        digits = tok[1:] if tok[0] in "sS" else tok
        if not digits.isdecimal():
            raise CoxeterError(f"bad word letter {digits!r} in {tok!r}")
        letters.append(int(digits))
    return tuple(letters)


class _LetterNames(dict):
    """Letter -> its name "s{letter}": a table for 0..99, the f-string for
    any other letter, which it does not keep."""

    def __missing__(self, letter):
        return f"s{letter}"


_letter_name = _LetterNames((i, f"s{i}") for i in range(100)).__getitem__


def format_word(letters) -> str:
    """'s2 s3 s4' for the letters (2, 3, 4), '<id>' for the empty word;
    each name is one lookup in a table of letter names."""
    return " ".join(map(_letter_name, letters)) if letters else "<id>"


def evaluate(system: CoxeterSystem, letters) -> Element:
    """Product of the generators named by `letters`, left to right, as one
    `Element` (`CoxeterSystem.product`). l(w s_i) = l(w) - 1 iff w(alpha_i)
    < 0, and l(w) + 1 otherwise (Humphreys, 1.6-1.7), so one sign test per
    letter carries the length."""
    return system.product(letters)


def reduced_words(system: CoxeterSystem, w: Element):
    """Yield every reduced word of w exactly once, lexicographically.

    A depth-first walk over left descents with an explicit stack, so the
    length of w sets no recursion limit.
    """
    stack = [((), w)]
    while stack:
        prefix, u = stack.pop()
        if u.length == 0:
            yield prefix
            continue
        for i in sorted(system.left_descents(u), reverse=True):
            stack.append((prefix + (i,), system.step(u, i, left=True)))


def reduced_word_count(system: CoxeterSystem, w: Element) -> int:
    """Number of reduced words of w, one length level at a time.

    `level` maps each element reached from w by removing left descents to
    the number of ways to reach it; after l(w) levels only the identity is
    left.
    """
    level = {w: 1}
    for _ in range(w.length):
        below: dict[Element, int] = {}
        for u, ways in level.items():
            for i in system.left_descents(u):
                v = system.step(u, i, left=True)
                below[v] = below.get(v, 0) + ways
        level = below
    return sum(level.values())


def bruhat_leq(system: CoxeterSystem, u: Element, v: Element) -> bool:
    """Strong Bruhat order, by the descent recursion run as a loop.

    With s a left descent of v: u <= v iff su <= sv when s is a left descent
    of u, and u <= sv otherwise.
    """
    while u.length > 0:
        if u.length > v.length:
            return False
        s = min(system.left_descents(v))
        v = system.step(v, s, left=True)
        su = system.step(u, s, left=True)
        if su.length < u.length:
            u = su
    return True
