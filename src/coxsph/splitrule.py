"""Tableau rule for splitting key polynomials into block-Schur products.

The expansion coefficient on a tuple of per-block partitions counts sequences
of increasing tableaux (one per block, empty allowed) such that

  (a) the i-th tableau has the i-th shape,
  (b) all entries of the i-th tableau exceed the block's lower cut d_{i-1},
  (c) the concatenated right-to-left row reading words form a reduced word
      of the permutation whose code is alpha, and
  (d) column-inserting that word gives the target tableau built from alpha.

The search reads a reduced word of w[alpha] left to right, one left descent
of the remaining permutation at a time. Its state is the insertion tableau
of the letters read so far, which fixes the remaining permutation, the
current block with the count and the last of its closed rows, and the open
row. Each distinct tableau is one record of what it fixes and of the
tableau each letter inserts to, so a letter is inserted into a tableau at
most once per search, however many states share the tableau. One
loop picks the next letter: it extends the open row, closes it, finishes a
read whose insertion equals the target, or opens a row in the current block
or a later one. A letter is read only if the row it lands in fits under the
block's last closed row (no longer, and each entry larger than the one above
it). Checking before the read loses nothing: extending a row puts a smaller
letter in front, so the row grows and no position holds a larger entry than
before, and a row that does not fit never will. A branch also dies as soon
as column insertion writes a cell outside the target's shape or below the
target's entry (cells only decrease as insertion proceeds), or the
remaining permutation still needs a letter that no later block may read.

Each state returns every way to finish from it, as a dict from suffix to
multiplicity, and is worked out once per search. A suffix is the sum of
`mark(row, field)` over the rows closed from the state on, field being the
row's position among all n rows, so a state adds the mark of the row it
closes to each suffix below it and no block is padded. `ry_expand` marks a
row by its length in its field of a packed key, so a suffix is the packed
lead key of its shapes, the key `SplitExpansion.terms` uses, and the counts
need no regrouping. `ry_tableau_sequences` marks a row by the 1-tuple
((field, row),), so a suffix lists the rows in order and each sequence
comes once, in the order of the depth-first walk. The rule uses no
polynomial arithmetic, so it stays an independent check of peeling and of
the bialternant solver.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .polyring import _W, SplitExpansion, SplitSet
from .typea import apply_word, inverse, inversions, perm_from_code


@dataclass(frozen=True)
class IncreasingTableau:
    """Rows strictly increase left to right; columns strictly increase down."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for r, row in enumerate(rows):
            if not row:
                raise ValueError("empty row in tableau")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row {row} not strictly increasing")
            if r > 0:
                prev = rows[r - 1]
                if len(row) > len(prev):
                    raise ValueError("row lengths must weakly decrease")
                if any(row[c] <= prev[c] for c in range(len(row))):
                    raise ValueError("columns must strictly increase")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    @staticmethod
    def from_columns(cols) -> "IncreasingTableau":
        nrows = max((len(c) for c in cols), default=0)
        rows = tuple(
            tuple(col[r] for col in cols if len(col) > r) for r in range(nrows)
        )
        return IncreasingTableau(rows)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __str__(self):
        return "/".join(",".join(map(str, r)) for r in self.rows) or "<empty>"


EMPTY_TABLEAU = IncreasingTableau(())


def row_word(t: IncreasingTableau) -> tuple[int, ...]:
    """Rows read right to left, top to bottom."""
    out = []
    for row in t.rows:
        out.extend(reversed(row))
    return tuple(out)


def _eg_insert_columns(cols: tuple, x: int, bound: tuple | None = None):
    """One step of column insertion with the bump-the-successor rule.

    Appending happens when x exceeds the column; if the column already holds
    x, the column is left alone and x+1 carries to the next column; otherwise
    x replaces the smallest entry >= x, which carries on.

    With `bound` (the columns of a target tableau) the step returns None at
    the first cell it writes outside the target's shape or below the target's
    entry there. Cells only decrease, and every cell not written now was
    checked when it was written, so this is the whole containment test.
    """
    out = list(cols)
    i, a = 0, x
    while True:
        col = out[i] if i < len(out) else ()
        r = bisect_left(col, a)
        if r < len(col) and col[r] == a:
            i, a = i + 1, a + 1
            continue
        if bound is not None and (
            i >= len(bound) or r >= len(bound[i]) or a < bound[i][r]
        ):
            return None
        if r == len(col):
            out[i:i + 1] = [col + (a,)]  # appends when i == len(out)
            return tuple(out)
        out[i] = col[:r] + (a,) + col[r + 1 :]
        i, a = i + 1, col[r]


def eg_column_insert(letters) -> IncreasingTableau:
    """Column-insert a reduced word, left to right."""
    letters = tuple(letters)
    if letters and inversions(apply_word(max(letters) + 1, letters)) != len(letters):
        raise ValueError("word is not reduced")
    cols: tuple = ()
    for x in letters:
        cols = _eg_insert_columns(cols, x)
    return IncreasingTableau.from_columns(cols)


def build_t_alpha(alpha) -> IncreasingTableau:
    """Target tableau of a composition, column by column.

    Strip descents from w[alpha] right to left (always the rightmost descent
    left of the previous position); the stripped positions, bottom to top,
    fill one column. Repeat on the remainder until the identity.
    """
    return IncreasingTableau.from_columns(_target_columns(perm_from_code(alpha)))


def _target_columns(line) -> tuple:
    """The columns of `build_t_alpha` for the permutation `line` of alpha."""
    line = list(line)
    cols = []
    while True:
        desc = [i for i in range(1, len(line)) if line[i - 1] > line[i]]
        if not desc:
            return tuple(cols)
        col = []
        while desc:
            pick = desc.pop()
            line[pick - 1], line[pick] = line[pick], line[pick - 1]
            col.append(pick)
            # the swap leaves every descent below pick - 1 as it was
            if desc and desc[-1] == pick - 1:
                desc.pop()
            if pick > 1 and line[pick - 2] > line[pick - 1]:
                desc.append(pick - 1)
        cols.append(tuple(reversed(col)))


class _Tableau:
    """One insertion tableau of a search, with what its columns fix.

    The letters read so far multiply to the permutation of `cols`, so `cols`
    fixes `vinv`, the inverse of the permutation still to be read, its left
    descents `left`, and `fixed`, how many of 1, 2, ... it fixes (0 when
    `left` is empty, where it is not read). `children` maps a letter j, the first time it
    is tried, to the tableau that column-inserting j gives, or to None when
    that insertion leaves the target. A search makes one per distinct
    `cols`, so it hashes by identity.
    """

    __slots__ = ("cols", "vinv", "left", "fixed", "children")

    def __init__(self, cols, vinv):
        self.cols, self.vinv, self.children = cols, vinv, {}
        self.left = [j for j in range(1, len(vinv)) if vinv[j - 1] > vinv[j]]
        fixed = 0
        if self.left:
            while vinv[fixed] == fixed + 1:
                fixed += 1
        self.fixed = fixed


class _RuleSearch:
    """A memoized depth-first walk over the state (t, b, nrows, last, run).

    - t: the `_Tableau` of the insertion columns of the letters read so far,
      which fixes the permutation still to be read;
    - b: the current block;
    - nrows, last: how many rows of block b are closed, and the last of them
      (() before the first), all that a later row of block b is checked
      against;
    - run: the open row, in reading (decreasing) order.

    `_visit` is the one place that picks the next letter, and `_child` reads
    it. It picks j only when the row j lands in fits under `last`
    (`_fits`): (j,) + row for an extension, and (j,), that is j > last[0], for
    a new row of block b. So every state's open row fits and closes with no
    check; extending cannot make a row fit, so nothing counted is skipped.
    `_visit` returns a dict from suffix to multiplicity, where a suffix is
    `zero` plus the `mark(row, field)` of each row closed from its state
    on, field = cuts[b] + nrows for a row of block b. `memo` keys each
    state by the tuple above and `tableaux` each `_Tableau` by its columns,
    so each letter is inserted into each tableau once. Both live as long as
    the search.
    """

    def __init__(self, alpha, split: SplitSet, mark, zero=0):
        self.cuts = (0,) + split.D
        self.sizes = split.block_sizes()
        self.mark, self.zero = mark, zero
        self.memo: dict = {}
        line = perm_from_code(alpha)
        self.target_cols = _target_columns(line)
        self.start = _Tableau((), inverse(line))
        self.tableaux = {(): self.start}

    def run(self) -> dict:
        """Every suffix from the start, the sum of the marks of its rows."""
        return self._visit(self.start, 0, 0, (), ())

    def _child(self, t: _Tableau, j: int):
        """The tableau after reading j from t, or None outside the target."""
        kids = t.children
        if j in kids:
            return kids[j]
        cols = _eg_insert_columns(t.cols, j, self.target_cols)
        child = None
        if cols is not None:
            child = self.tableaux.get(cols)
            if child is None:
                v = t.vinv
                child = self.tableaux[cols] = _Tableau(
                    cols, v[:j - 1] + (v[j], v[j - 1]) + v[j + 1:]
                )
        kids[j] = child
        return child

    def _visit(self, t, b, nrows, last, run):
        state = (t, b, nrows, last, run)
        out = self.memo.get(state)
        if out is not None:
            return out
        out = self.memo[state] = {}
        left = t.left
        head = self.zero  # the mark of the row this state closes, if any
        if run:
            row = run[::-1]
            for j in left:
                if self.cuts[b] < j < row[0] and _fits((j,) + row, last):
                    child = self._child(t, j)
                    if child is None:
                        continue
                    for suffix, m in self._visit(
                        child, b, nrows, last, run + (j,)
                    ).items():
                        out[suffix] = out.get(suffix, 0) + m
            head = self.mark(row, self.cuts[b] + nrows)
            nrows, last = nrows + 1, row
        if not left:
            if t.cols == self.target_cols:
                out[head] = 1
            return out
        # When the remaining permutation does not fix 1..d_c it still needs a
        # letter <= d_c, which neither block c nor any later block may read.
        for c in range(b, len(self.sizes)):
            lo = self.cuts[c]
            if lo > t.fixed:
                break
            if c > b:  # a new block, after blocks b+1..c-1 left empty
                floor, closed = lo, (0, ())
            elif nrows < self.sizes[b]:
                floor, closed = max(lo, last[0]) if last else lo, (nrows, last)
            else:
                continue
            for j in left:
                if j > floor:
                    child = self._child(t, j)
                    if child is None:
                        continue
                    for suffix, m in self._visit(child, c, *closed, (j,)).items():
                        key = head + suffix
                        out[key] = out.get(key, 0) + m
        return out


def _fits(row: tuple, last: tuple) -> bool:
    """Whether row may sit under last (() for none) in an increasing tableau."""
    return not last or (
        len(row) <= len(last) and all(a > p for a, p in zip(row, last))
    )


def _length_mark(n: int):
    """`ry_expand`'s mark: a row's length in its field of a packed key of n
    fields, so a suffix sums to the packed lead key of its shapes."""
    return lambda row, field: len(row) << _W * (n - 1 - field)


def ry_expand(alpha, split: SplitSet) -> SplitExpansion:
    """Block-Schur expansion of the key polynomial of alpha by the tableau rule."""
    search = _RuleSearch(split.pad_composition(alpha), split, _length_mark(split.n))
    return SplitExpansion._from_packed(split, search.run())


def ry_tableau_sequences(alpha, split: SplitSet) -> dict:
    """All counted tableau sequences, grouped by their shape tuple."""
    found = _RuleSearch(
        split.pad_composition(alpha), split, lambda row, field: ((field, row),), ()
    ).run()
    block_of = [i for i, (a, b) in enumerate(split.blocks) for _ in range(a, b + 1)]
    sequences: dict = {}
    for suffix in found:
        rows, shape = [[] for _ in split.blocks], [0] * split.n
        for field, row in suffix:
            rows[block_of[field]].append(row)
            shape[field] = len(row)
        key = tuple(tuple(shape[a - 1 : b]) for a, b in split.blocks)
        sequences.setdefault(key, []).append(tuple(map(IncreasingTableau, rows)))
    return sequences
