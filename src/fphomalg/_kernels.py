"""Exact linear algebra over F_p on int64 matrices, dense or sparse.

Every homology dimension is a sum of ranks, and the differentials are
mostly 1-10% nonzero.  ``rank`` reduces their nonzeros column by column,
as sparse dictionaries, and hands the rest of the work to the numpy
Gauss-Jordan elimination ``rref`` only when the input, or the fill the
reduction produces, gets dense.  It reads a dense matrix or a ``Sparse``
one, the nonzeros of a matrix listed by column, which every chain
complex (Koszul, bar, Hochschild) hands it without a dense copy.  In a
complex most columns of a differential reduce to zero, and the map into
its source names many of them in advance.  This is the clearing of persistent homology (Chen and
Kerber, *Persistent Homology Computation with a Twist*, EuroCG 2011;
Bauer, Kerber and Reininghaus, *Clear and Compress*, 2014): if
``B @ A = 0`` and a column ``z = A @ v`` has its lowest nonzero row at
``i``, then ``B @ z = 0`` makes column ``i`` of ``B`` a combination of the
columns left of it, so its reduction vanishes.  ``rank`` reports the
lowest rows of the pivot columns it stores and skips the columns it is
told to clear.  ``rref`` also serves ``nullspace`` and ``solve``.  The
sparse reduction step, ``eliminate``, also keeps the echelon forms of the
Lie closure oracles, whose rows are words.

Vectors are columns: ``nullspace(a, p)`` returns a matrix whose columns
span ``{x : a @ x = 0}``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BACKEND = "python"

# ``rank`` reduces sparsely while at most 1/FILL_INPUT of the input and
# 1/FILL_PIVOTS of its stored pivot columns are nonzero; either fill is
# checked only from FILL_CHECK_AFTER columns of the input or pivots on.
FILL_INPUT = 3
FILL_PIVOTS = 10
FILL_CHECK_AFTER = 16


def _int64_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def as_modp(a, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 array with entries reduced into [0, p)."""
    return np.ascontiguousarray(_int64_matrix(a) % p)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and pivot columns."""
    m = as_modp(a, p)  # a fresh array, reduced in place below
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pivot = int(m[r, c])
        if pivot != 1:
            m[r] = (m[r] * pow(pivot, p - 2, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        targets = np.nonzero(col)[0]
        if targets.size:
            m[targets] = (m[targets] - np.outer(col[targets], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def eliminate(col: dict, low, pivots: dict, p: int):
    """Reduce the sparse column ``col`` in place until its lowest row is no
    pivot's; return that row, or ``None`` once the column vanishes.

    ``col`` maps rows to nonzero values mod p, and ``low`` is its largest
    row.  ``pivots`` maps the lowest row of each stored column to that
    column, normalised to a 1 there.  Rows may be any totally ordered keys:
    matrix row indices in ``rank``, words in the Lie closure oracles.
    """
    while low in pivots:
        f = col[low]
        for r, v in pivots[low].items():
            x = (col.get(r, 0) - f * v) % p
            if x:
                col[r] = x
            else:
                del col[r]
        if not col:
            return None
        low = max(col)
    return low


class Sparse:
    """A matrix of ``shape`` as its entries ``(rows[k], cols[k], vals[k])``,
    sorted by column, with no position listed twice; the rows within a
    column may come in any order and a value may be any integer.
    ``np.asarray`` gives the dense matrix."""

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows, cols, vals):
        self.shape = shape
        self.rows, self.cols, self.vals = rows, cols, vals

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def dense(self, j: int = 0, clear=()) -> np.ndarray:
        """The dense matrix of the columns from ``j`` on that ``clear`` does
        not name, in order."""
        lo = self.cols.searchsorted(j)
        rows, cols, vals = self.rows[lo:], self.cols[lo:] - j, self.vals[lo:]
        width = self.shape[1] - j
        if clear:
            kept = np.ones(width, dtype=bool)
            kept[[c - j for c in clear if c >= j]] = False
            hit = kept[cols]
            rows, cols, vals = rows[hit], (kept.cumsum() - 1)[cols[hit]], vals[hit]
            width = int(kept.sum())
        out = np.zeros((self.shape[0], width), dtype=np.int64)
        out[rows, cols] = vals
        return out

    @property
    def T(self) -> "Sparse":
        """The transpose, its entries stably sorted by their new column."""
        order = self.rows.argsort(kind="stable")
        return Sparse(self.shape[::-1], self.cols[order], self.rows[order], self.vals[order])

    def __array__(self, dtype=None, copy=None):
        dense = self.dense()
        return dense if dtype is None else dense.astype(dtype, copy=False)


def rank(a, p: int, clear=(), lows: set | None = None) -> int:
    """Rank over F_p by sparse column reduction.

    ``a`` is a dense matrix or a ``Sparse`` one.  The nonzeros mod p are
    read once, column by column, without a dense copy.
    Each column is reduced against the pivot columns found so far, keyed by
    their lowest nonzero row, the one of largest index (the boundary-matrix
    reduction of persistent homology), and stored normalised to a 1 there
    if it does not vanish; the rank is the number of pivots.  An input of
    at least ``FILL_CHECK_AFTER`` columns that is more than ``1/FILL_INPUT``
    nonzero goes to ``rref`` at once, and so does the rest of the work once
    ``FILL_CHECK_AFTER`` stored pivot columns are more than ``1/FILL_PIVOTS``
    nonzero: the pivot columns and the columns not yet read span the same
    space as ``a``.  A narrower input stays sparse whatever its fill, as
    it could not reach the pivot-fill hand-off either: on the many tiny
    differentials of a complex a dense hand-off costs more than the
    reduction.  Only the columns handed on are written densely.

    ``clear`` is a set of columns known to reduce to zero; they are
    skipped, never read into a column and never handed to ``rref``.  This
    is the clearing of Chen and Kerber (*Persistent Homology Computation
    with a Twist*, EuroCG 2011; Bauer, Kerber and Reininghaus, *Clear and
    Compress*, 2014): if ``a @ b = 0`` and a column ``z = b @ v`` has its
    lowest nonzero row at ``i``, then ``a @ z = 0`` makes column ``i`` of
    ``a`` a combination of the columns left of it, so column ``i`` reduces
    to zero and skipping it keeps the rank.  If ``lows`` is a set, the
    lowest rows of the pivot columns stored here are added to it: each is
    the low of a combination of columns of ``a``, so they clear the map
    that follows.  After a hand-off to ``rref`` only those found before it
    are reported, and an input that goes to ``rref`` at once reports none.
    """
    if isinstance(a, Sparse):
        rows, cols = a.shape
        ri, ci, vals = a.rows, a.cols, a.vals % p
        nnz = len(vals)
    else:
        a = _int64_matrix(a)
        rows, cols = a.shape
        nnz = np.count_nonzero(a)
    if not nnz:
        return 0
    if cols >= FILL_CHECK_AFTER and nnz * FILL_INPUT > rows * cols:
        return len(rref(_kept(a, 0, clear), p)[1])
    if not isinstance(a, Sparse):
        ri, ci = np.divmod(np.flatnonzero(a != 0), cols)
        ci, ri = np.divmod(np.sort(ci * rows + ri), rows)  # column by column
        vals = a[ri, ci] % p
    if not vals.all():  # entries divisible by p
        keep = vals != 0
        ri, ci, vals = ri[keep], ci[keep], vals[keep]
    ends = np.cumsum(np.bincount(ci, minlength=cols)).tolist()
    ri, vals = ri.tolist(), vals.tolist()
    pivots: dict[int, dict[int, int]] = {}
    stored = start = 0
    for j, end in enumerate(ends):
        if start == end:
            continue
        if j in clear:
            start = end
            continue
        col = dict(zip(ri[start:end], vals[start:end]))
        low = max(col)  # a Sparse column lists its rows in any order
        start = end
        if low in pivots:
            low = eliminate(col, low, pivots, p)
            if low is None:
                continue
        lead = col[low]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            col = {r: v * inv % p for r, v in col.items()}
        pivots[low] = col
        stored += len(col)
        if len(pivots) >= FILL_CHECK_AFTER and stored * FILL_PIVOTS > rows * len(pivots):
            rest = _kept(a, j + 1, clear)
            dense = np.zeros((rows, len(pivots) + rest.shape[1]), dtype=np.int64)
            for k, c in enumerate(pivots.values()):
                dense[list(c), k] = list(c.values())
            dense[:, len(pivots):] = rest
            if lows is not None:
                lows.update(pivots)
            return len(rref(dense, p)[1])
    if lows is not None:
        lows.update(pivots)
    return len(pivots)


def _kept(a, j: int, clear):
    """The columns of ``a`` from ``j`` on that ``clear`` does not name, as
    a dense matrix; ``a`` itself if that is all of a dense ``a``."""
    if isinstance(a, Sparse):
        return a.dense(j, clear)
    if clear:
        return a[:, [c for c in range(j, a.shape[1]) if c not in clear]]
    return a[:, j:] if j else a


def nullspace(a, p: int) -> np.ndarray:
    """Columns spanning the right kernel of ``a`` over F_p."""
    m = as_modp(a, p)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(r[i, fc])) % p
    return basis


def solve(a, b, p: int):
    """Solve ``a @ x = b`` columnwise; ``None`` if inconsistent.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    m = as_modp(a, p)
    bb = np.asarray(b, dtype=np.int64) % p
    single = bb.ndim == 1
    if single:
        bb = bb[:, None]
    if bb.shape[0] != m.shape[0]:
        raise ValidationError("right-hand side has wrong length")
    rows, cols = m.shape
    aug = np.concatenate([m, bb], axis=1) if cols else bb.copy()
    r, pivots = rref(aug, p)
    x = np.zeros((cols, bb.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        if pc >= cols:
            return None
        x[pc] = r[i, cols:]
    return x[:, 0] if single else x

