"""Tableau rule for splitting key polynomials into block-Schur products.

The expansion coefficient on a tuple of per-block partitions counts sequences
of increasing tableaux (one per block, empty allowed) such that

  (a) the i-th tableau has the i-th shape,
  (b) all entries of the i-th tableau exceed the block's lower cut d_{i-1},
  (c) the concatenated right-to-left row reading words form a reduced word
      of the permutation whose code is alpha, and
  (d) column-inserting that word gives the target tableau built from alpha.

The search reads a reduced word of w[alpha] left to right, one left descent
of the remaining permutation at a time, and carries one state: the remaining
permutation, the insertion columns of the letters read so far, the closed
rows of each block so far, and the open row. One loop picks the next letter:
it extends the open row, closes it (no longer than the row above it, and
each entry larger than the one above it), records a finished read whose
insertion equals the target, or opens a row in the current block or a later
one. A branch dies as soon as the insertion leaves the target's shape, a
cell drops below the target's (cells only decrease as insertion proceeds),
or the remaining permutation still needs a letter that no later block may
read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import SplitExpansion, SplitSet
from .typea import apply_word, descents, inverse, inversions, perm_from_code


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

    def columns(self) -> tuple[tuple[int, ...], ...]:
        ncols = len(self.rows[0]) if self.rows else 0
        return tuple(
            tuple(row[c] for row in self.rows if len(row) > c)
            for c in range(ncols)
        )

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


def _eg_insert_columns(cols: tuple, x: int) -> tuple:
    """One step of column insertion with the bump-the-successor rule.

    Appending happens when x exceeds the column; if the column already holds
    x, the column is left alone and x+1 carries to the next column; otherwise
    x replaces the smallest entry >= x, which carries on.
    """
    out = list(cols)
    i, a = 0, x
    while True:
        if i == len(out):
            out.append((a,))
            break
        col = out[i]
        if a > col[-1]:
            out[i] = col + (a,)
            break
        b = min(v for v in col if v >= a)
        if b == a:
            a = a + 1
        else:
            idx = col.index(b)
            out[i] = col[:idx] + (a,) + col[idx + 1 :]
            a = b
        i += 1
    return tuple(out)


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
    line = list(perm_from_code(tuple(alpha)))
    n = len(line)
    cols = []
    while True:
        desc = descents(line)
        if not desc:
            break
        col = []
        limit = n
        while True:
            pick = max((i for i in desc if i < limit), default=None)
            if pick is None:
                break
            line[pick - 1], line[pick] = line[pick], line[pick - 1]
            col.append(pick)
            limit = pick
            desc = descents(line[:limit])
        cols.append(tuple(reversed(col)))
    return IncreasingTableau.from_columns(cols)


class _RuleSearch:
    """One depth-first transition over the state (vinv, cols, tabs, run).

    - vinv: the inverse of the permutation still to be read;
    - cols: the insertion columns of the letters read so far;
    - tabs: the closed rows of each block up to the current one, which is
      the last entry (a skipped block holds ());
    - run: the open row, in reading (decreasing) order.

    `_read` takes one letter; `_visit` is the one place that picks the next
    letter: it extends the open row, closes it, records a finished read, or
    opens a row in the current or a later block.
    """

    def __init__(self, alpha, split: SplitSet, collect: bool):
        self.cuts = (0,) + split.D
        self.sizes = split.block_sizes()
        self.collect = collect
        self.counts: dict = {}
        self.sequences: dict = {}
        self.target_cols = build_t_alpha(alpha).columns()
        self.start_vinv = inverse(perm_from_code(alpha))

    def run(self):
        self._visit(self.start_vinv, (), ((),), ())

    def _read(self, vinv, cols, tabs, run, j):
        """Column-insert j, prune against the target, then swap j in vinv."""
        cols = _eg_insert_columns(cols, j)
        if len(cols) > len(self.target_cols):
            return
        for col, tcol in zip(cols, self.target_cols):
            if len(col) > len(tcol) or any(a < b for a, b in zip(col, tcol)):
                return
        vinv = list(vinv)
        vinv[j - 1], vinv[j] = vinv[j], vinv[j - 1]
        self._visit(tuple(vinv), cols, tabs, run + (j,))

    def _visit(self, vinv, cols, tabs, run):
        b = len(tabs) - 1
        left = descents(vinv)  # left descents of the remaining permutation
        if run:
            for j in left:
                if self.cuts[b] < j < run[-1]:
                    self._read(vinv, cols, tabs, run, j)
            rows, row = tabs[-1], run[::-1]
            if rows and (len(row) > len(rows[-1])
                         or any(a <= p for a, p in zip(row, rows[-1]))):
                return
            tabs = tabs[:-1] + (rows + (row,),)
        if not left:
            if cols == self.target_cols:
                self._record(tabs)
            return
        # When vinv does not fix 1..d_c it still needs a letter <= d_c, which
        # neither block c nor any later block may read.
        for c in range(b, len(self.sizes)):
            lo = self.cuts[c]
            if any(vinv[x] != x + 1 for x in range(lo)):
                break
            if c == b and len(tabs[-1]) >= self.sizes[b]:
                continue
            opened = tabs + ((),) * (c - b)
            for j in left:
                if j > lo:
                    self._read(vinv, cols, opened, (), j)

    def _record(self, tabs):
        tabs += ((),) * (len(self.sizes) - len(tabs))
        key = tuple(
            tuple(len(r) for r in rows) + (0,) * (size - len(rows))
            for rows, size in zip(tabs, self.sizes)
        )
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.collect:
            seq = tuple(IncreasingTableau(rows) for rows in tabs)
            self.sequences.setdefault(key, []).append(seq)


def ry_expand(alpha, split: SplitSet) -> SplitExpansion:
    """Block-Schur expansion of the key polynomial of alpha by the tableau rule."""
    search = _RuleSearch(split.pad_composition(alpha), split, collect=False)
    search.run()
    return SplitExpansion(split, search.counts)


def ry_tableau_sequences(alpha, split: SplitSet) -> dict:
    """All counted tableau sequences, grouped by their shape tuple."""
    search = _RuleSearch(split.pad_composition(alpha), split, collect=True)
    search.run()
    return search.sequences
