"""Tableau rule for splitting key polynomials into block-Schur products.

The expansion coefficient on a tuple of per-block partitions counts sequences
of increasing tableaux (one per block, empty allowed) such that

  (a) the i-th tableau has the i-th shape,
  (b) all entries of the i-th tableau exceed the block's lower cut d_{i-1},
  (c) the concatenated right-to-left row reading words form a reduced word
      of the permutation whose code is alpha, and
  (d) column-inserting that word gives the target tableau built from alpha.

The search below walks reduced words left to right over left descents,
threading the row/column structure of the tableau being read plus the
incremental insertion tableau; branches die as soon as the insertion leaves
the target's shape, any cell drops below the target (cells only decrease as
insertion proceeds), or the remaining permutation needs letters a later
block cannot supply.
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


def _pad_shape(shape: tuple[int, ...], size: int) -> tuple[int, ...]:
    return shape + (0,) * (size - len(shape))


class _RuleSearch:
    """DFS over reduced words of w[alpha], threaded with tableau structure."""

    def __init__(self, alpha, split: SplitSet, collect: bool):
        self.split = split
        self.cuts = (0,) + split.D
        self.sizes = split.block_sizes()
        self.nblocks = len(self.sizes)
        self.collect = collect
        self.counts: dict = {}
        self.sequences: dict = {}
        self.target = build_t_alpha(alpha)
        self.target_cols = self.target.columns()
        line = perm_from_code(tuple(alpha))
        self.start_vinv = inverse(line)
        self.length = inversions(line)

    # structure state: blocks_done = list of (shape, rows) per closed block
    # (empty blocks hold ((), ())); rows = rows of the current tableau;
    # run = current partial row in reading (decreasing) order.

    def run(self):
        if self.length == 0:
            key = tuple(_pad_shape((), s) for s in self.sizes)
            self.counts[key] = 1
            if self.collect:
                self.sequences[key] = [tuple(EMPTY_TABLEAU for _ in self.sizes)]
            return
        for block, letter in self._openings(self.start_vinv, 0):
            done = [((), ())] * block
            self._walk(self._apply(self.start_vinv, letter), (), letter,
                       done, (), (letter,))
        return

    @staticmethod
    def _apply(vinv, j):
        out = list(vinv)
        out[j - 1], out[j] = out[j], out[j - 1]
        return tuple(out)

    def _fixes(self, vinv, m: int) -> bool:
        return all(vinv[x] == x + 1 for x in range(m))

    def _openings(self, vinv, from_block: int):
        """(block, letter) pairs that can start a fresh tableau."""
        for block in range(from_block, self.nblocks):
            lo = self.cuts[block] if block < len(self.cuts) else self.cuts[-1]
            if not self._fixes(vinv, lo):
                continue
            for j in descents(vinv):
                if j > lo:
                    yield block, j

    def _close_row(self, rows, run):
        """Validate run as the next row; None when shape/column rules fail."""
        row = tuple(reversed(run))
        if rows:
            prev = rows[-1]
            if len(row) > len(prev):
                return None
            if any(row[c] <= prev[c] for c in range(len(row))):
                return None
        return rows + (row,)

    def _walk(self, vinv, cols, last, done, rows, run):
        cols = _eg_insert_columns(cols, last)
        if len(cols) > len(self.target_cols):
            return
        for c, col in enumerate(cols):
            tcol = self.target_cols[c]
            if len(col) > len(tcol):
                return
            if any(col[r] < tcol[r] for r in range(len(col))):
                return
        if all(v == i + 1 for i, v in enumerate(vinv)):
            self._finish(cols, done, rows, run)
            return
        block = len(done)
        lo = self.cuts[block]
        size = self.sizes[block]
        left = descents(vinv)  # left descents of the remaining permutation
        for j in left:
            if j > lo and j < run[-1]:
                self._walk(self._apply(vinv, j), cols, j, done, rows,
                           run + (j,))
        closed = self._close_row(rows, run)
        if closed is None:
            return
        if len(closed) < size:
            for j in left:
                if j > lo:
                    self._walk(self._apply(vinv, j), cols, j, done, closed, (j,))
        shape = tuple(len(r) for r in closed)
        done_here = done + [(shape, closed)]
        for nblock, j in self._openings(vinv, block + 1):
            padded = done_here + [((), ())] * (nblock - block - 1)
            self._walk(self._apply(vinv, j), cols, j, padded, (), (j,))

    def _finish(self, cols, done, rows, run):
        closed = self._close_row(rows, run)
        if closed is None:
            return
        if len(closed) > self.sizes[len(done)]:
            return
        if cols != self.target_cols:
            return
        shape = tuple(len(r) for r in closed)
        all_done = done + [(shape, closed)]
        all_done += [((), ())] * (self.nblocks - len(all_done))
        key = tuple(
            _pad_shape(sh, size) for (sh, _), size in zip(all_done, self.sizes)
        )
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.collect:
            seq = tuple(
                IncreasingTableau(rws) if rws else EMPTY_TABLEAU
                for _, rws in all_done
            )
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
