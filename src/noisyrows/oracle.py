"""Entry-query oracle: the only channel through which the completion
algorithm sees the observed matrix.

Repeated queries of a cell are free; the unique-observation count is the
number of distinct cells revealed so far. The random row draw lives here,
seeded separately from the instance, so a whole trial replays from the pair
(instance seed, oracle seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instances import GroundTruthInstance
from .linalg import as_matrix

_AXES = ("row", "column")


@dataclass
class QueryLog:
    """Ordered record of queries with the running unique-observation count."""

    entries: list[tuple[str, int | None, int | None, int]] = field(default_factory=list)

    def append(self, kind: str, i: int | None, j: int | None, count: int) -> None:
        self.entries.append((kind, i, j, count))


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct elements of `a`, as np.unique gives them, at a
    fraction of its cost: sort, then keep each element unlike its predecessor."""
    s = np.sort(a)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


class QueryOracle:
    """Mediates and counts access to entries of the observed matrix."""

    def __init__(self, source: GroundTruthInstance | np.ndarray, rng_seed: int = 0):
        if isinstance(source, GroundTruthInstance):
            values = source.n_observed
        else:
            values = as_matrix(source)
        self._values = values
        self._mask = np.zeros(values.shape, dtype=bool)
        self._count = 0
        self._rng = np.random.default_rng(rng_seed)
        self.log = QueryLog()

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    @property
    def unique_query_count(self) -> int:
        return self._count

    @property
    def observed_mask(self) -> np.ndarray:
        return self._mask.copy()

    def _check(self, i: int, axis: int) -> None:
        # numpy reads a bool index as a mask, so True must not pass as 1.
        n = self._values.shape[axis]
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise IndexError(f"{_AXES[axis]} index {i!r} is not an integer in [0, {n})")

    def _check_all(self, indices, axis: int) -> np.ndarray:
        """A 1-D sequence of in-range integer indices, as an integer array."""
        a = np.asarray(indices)
        if a.ndim != 1:
            raise IndexError(f"{_AXES[axis]} indices must form a 1-D sequence")
        if a.size == 0:
            return a.astype(np.intp)
        # The extremes carry the array's dtype, so this also rejects
        # float and bool arrays.
        self._check(a.min(), axis)
        self._check(a.max(), axis)
        return a

    def _reveal(self, kind: str, i: int | None, j: int | None, cells) -> None:
        """Mark `cells` observed, count those not seen before, log one event.

        `cells` indexes the mask and must name each cell at most once.
        """
        fresh = int(np.count_nonzero(~self._mask[cells]))
        if fresh:
            self._mask[cells] = True
            self._count += fresh
        self.log.append(kind, i, j, self._count)

    def query_entry(self, i: int, j: int) -> float:
        self._check(i, 0)
        self._check(j, 1)
        self._reveal("entry", i, j, (i, j))
        return float(self._values[i, j])

    def query_row(self, i: int) -> np.ndarray:
        self._check(i, 0)
        self._reveal("row", i, None, (i, slice(None)))
        return self._values[i, :].copy()

    def query_column(self, j: int) -> np.ndarray:
        self._check(j, 1)
        self._reveal("column", None, j, (slice(None), j))
        return self._values[:, j].copy()

    def query_block(self, rows, cols) -> np.ndarray:
        """The submatrix N[rows x cols], in the order given.

        Repeated indices are allowed; each distinct cell is revealed and
        counted once. The read is logged as one "block" event.
        """
        r = self._check_all(rows, 0)
        c = self._check_all(cols, 1)
        self._reveal("block", None, None, np.ix_(_distinct(r), _distinct(c)))
        return self._values[np.ix_(r, c)]

    def query_cells(self, rows, cols) -> np.ndarray:
        """The cells N[rows[t], cols[t]], one per pair, in the order given.

        Repeated pairs are allowed; each distinct cell is revealed and
        counted once. The read is logged as one "cells" event.
        """
        r = self._check_all(rows, 0)
        c = self._check_all(cols, 1)
        if r.shape != c.shape:
            raise IndexError(f"{r.size} row indices do not pair with {c.size} column indices")
        cells = _distinct(np.ravel_multi_index((r, c), self._values.shape))
        self._reveal("cells", None, None, np.unravel_index(cells, self._values.shape))
        return self._values[r, c]

    def draw_random_row(self) -> int:
        """Uniform row index from the oracle-owned generator; not a query."""
        return int(self._rng.integers(self._values.shape[0]))

    def draw_random_rows(self, size: int) -> np.ndarray:
        """`size` uniform row indices in one call: the same indices, in the
        same order, as `size` successive `draw_random_row` calls."""
        return self._rng.integers(self._values.shape[0], size=size)
