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
        # In C order, cell (i, j) is entry i * n2 + j of the flat values and
        # of the mask of observed cells.
        self._values = np.ascontiguousarray(values)
        self._mask = np.zeros(values.size, dtype=bool)
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
        return self._mask.reshape(self._values.shape).copy()

    def _check(self, i: int, axis: int) -> None:
        # numpy reads a bool index as a mask, so True must not pass as 1.
        n = self._values.shape[axis]
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise IndexError(f"{_AXES[axis]} index {i!r} is not an integer in [0, {n})")

    def _check_all(self, indices, axis: int) -> np.ndarray:
        """A 1-D sequence of in-range integer indices, as an intp array."""
        a = np.asarray(indices)
        if a.ndim != 1:
            raise IndexError(f"{_AXES[axis]} indices must form a 1-D sequence")
        if a.size == 0:
            return a.astype(np.intp)
        # The extremes carry the array's dtype, so this also rejects
        # float and bool arrays.
        self._check(a.min(), axis)
        self._check(a.max(), axis)
        return a.astype(np.intp, copy=False)

    def _reveal(self, kind: str, i: int | None, j: int | None, cells) -> None:
        """Mark `cells` observed, count those not seen before, log one event.

        `cells` indexes the flat mask and must name each cell at most once.
        """
        fresh = int(np.count_nonzero(~self._mask[cells]))
        if fresh:
            self._mask[cells] = True
            self._count += fresh
        self.log.append(kind, i, j, self._count)

    def query_entry(self, i: int, j: int) -> float:
        return float(self.query_cells([i], [j])[0])

    def query_row(self, i: int) -> np.ndarray:
        self._check(i, 0)
        start = int(i) * self._values.shape[1]
        self._reveal("row", i, None, slice(start, start + self._values.shape[1]))
        return self._values[i, :].copy()

    def query_column(self, j: int) -> np.ndarray:
        self._check(j, 1)
        self._reveal("column", None, j, slice(int(j), None, self._values.shape[1]))
        return self._values[:, j].copy()

    def query_cells(self, rows, cols) -> np.ndarray:
        """The cells N[rows[t], cols[t]], one per pair, in the order given.

        Repeated pairs are allowed; each distinct cell is revealed and
        counted once. The read is logged as one "cells" event.
        """
        r = self._check_all(rows, 0)
        c = self._check_all(cols, 1)
        if r.shape != c.shape:
            raise IndexError(f"{r.size} row indices do not pair with {c.size} column indices")
        cells = r * self._values.shape[1] + c
        # Only the cells not seen before need sorting.
        self._reveal("cells", None, None, _distinct(cells[~self._mask[cells]]))
        return self._values.take(cells)

    def draw_random_row(self) -> int:
        """One uniform row index, as `draw_random_rows(1)` draws it."""
        return int(self.draw_random_rows(1)[0])

    def draw_random_rows(self, size: int) -> np.ndarray:
        """`size` uniform row indices from the oracle-owned generator; not a query.
        The same indices, in the same order, as `size` `draw_random_row` calls."""
        return self._rng.integers(self._values.shape[0], size=size)
