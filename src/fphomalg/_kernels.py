"""Exact linear algebra over F_p on int64 matrices, dense or sparse.

Every homology dimension is a sum of ranks, and the differentials are
mostly 1-10% nonzero.  ``rank_blocks`` ranks each diagonal block of a
block-diagonal matrix, such as the differential out of one level of a
graded complex over every internal degree: it reduces the nonzeros column
by column, as sparse dictionaries, and hands a block's remaining work to
the numpy Gauss-Jordan elimination ``rref`` only when that block, or the
fill its reduction produces, gets dense.  ``rank`` is its one-block case.
Both read a dense matrix or a ``Sparse`` one, the nonzeros of a matrix
listed by column, which every chain complex (Koszul, bar, Hochschild)
hands them without a dense copy, a whole level per call.  In a complex
most columns of a differential reduce to zero, and the map into its source
names many of them in advance.  This is the clearing of persistent
homology (Chen and Kerber, *Persistent Homology Computation with a Twist*,
EuroCG 2011; Bauer, Kerber and Reininghaus, *Clear and Compress*, 2014): if
``B @ A = 0`` and a column ``z = A @ v`` has its lowest nonzero row at
``i``, then ``B @ z = 0`` makes column ``i`` of ``B`` a combination of the
columns left of it, so its reduction vanishes.  ``rank_blocks`` reports
the lowest rows of the pivot columns it stores and skips the columns it is
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

    def dense(self, j: int = 0, clear=(), stop: int | None = None, r0: int = 0,
              r1: int | None = None) -> np.ndarray:
        """The dense matrix of the columns from ``j`` to ``stop`` (default:
        the last) that ``clear`` does not name, in order, on rows ``r0`` to
        ``r1``, which must hold every entry of those columns."""
        stop = self.shape[1] if stop is None else stop
        r1 = self.shape[0] if r1 is None else r1
        lo, hi = self.cols.searchsorted((j, stop))
        rows, cols, vals = self.rows[lo:hi] - r0, self.cols[lo:hi] - j, self.vals[lo:hi]
        width = stop - j
        if clear:
            kept = np.ones(width, dtype=bool)
            kept[[c - j for c in clear if j <= c < stop]] = False
            hit = kept[cols]
            rows, cols, vals = rows[hit], (kept.cumsum() - 1)[cols[hit]], vals[hit]
            width = int(kept.sum())
        out = np.zeros((r1 - r0, width), dtype=np.int64)
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
    """Rank over F_p: ``rank_blocks`` with the whole of ``a`` as its one
    block."""
    if not isinstance(a, Sparse):
        a = _int64_matrix(a)
    return rank_blocks(a, p, (0, a.shape[0]), (0, a.shape[1]), clear, lows)[0]


def rank_blocks(a, p: int, rows, cols, clear=(), lows: set | None = None) -> list[int]:
    """Ranks over F_p of the diagonal blocks of ``a`` by sparse column
    reduction, one per block.

    ``a`` is a dense matrix or a ``Sparse`` one whose nonzeros all lie in
    the diagonal blocks: block ``b`` is rows ``rows[b]`` to ``rows[b + 1]``
    and columns ``cols[b]`` to ``cols[b + 1]``.  A level of a graded
    complex is such a matrix, a block per internal degree.  The nonzeros
    mod p are read once, column by column, without a dense copy.  Each
    column is reduced against the pivot columns its block has found so
    far, keyed by their lowest nonzero row, the one of largest index (the
    boundary-matrix reduction of persistent homology), and stored
    normalised to a 1 there if it does not vanish; a block's rank is its
    number of pivots.  Each block is handed to ``rref`` on its own rows,
    as if it were ranked alone: a block of at least ``FILL_CHECK_AFTER``
    columns that is more than ``1/FILL_INPUT`` nonzero goes at once, and
    the rest of a block's work goes once ``FILL_CHECK_AFTER`` of its stored
    pivot columns are more than ``1/FILL_PIVOTS`` nonzero: the pivot
    columns and the columns not yet read span the same space as the block.
    A narrower block stays sparse whatever its fill, as it could not reach
    the pivot-fill hand-off either: on the many tiny blocks of a complex a
    dense hand-off costs more than the reduction.  Only the columns handed
    on are written densely.

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
    that follows.  After a block's hand-off to ``rref`` only those it found
    before are reported, and a block that goes to ``rref`` at once reports
    none.
    """
    if isinstance(a, Sparse):
        height, width = a.shape
        ri, ci, vals = a.rows, a.cols, a.vals % p
    else:
        a = _int64_matrix(a)
        height, width = a.shape
        ri, ci = np.divmod(np.flatnonzero(a != 0), max(width, 1))
        ci, ri = np.divmod(np.sort(ci * height + ri), height)  # column by column
        vals = a[ri, ci] % p
    if not len(vals):
        return [0] * (len(cols) - 1)
    # where the entries of each block start, whether or not p divides them
    listed = ci.searchsorted(cols).tolist()
    if not vals.all():  # entries divisible by p
        keep = vals != 0
        ri, ci, vals = ri[keep], ci[keep], vals[keep]
    ends = [0] + np.add.accumulate(np.bincount(ci, minlength=width)).tolist()
    ri, vals = ri.tolist(), vals.tolist()
    out = []
    for r0, r1, c0, c1, e0, e1 in zip(rows, rows[1:], cols, cols[1:], listed, listed[1:]):
        h, w, nnz = r1 - r0, c1 - c0, e1 - e0
        if not nnz:
            out.append(0)
            continue
        if w >= FILL_CHECK_AFTER and nnz * FILL_INPUT > h * w:
            out.append(len(rref(_kept(a, r0, r1, c0, c1, clear), p)[1]))
            continue
        pivots: dict[int, dict[int, int]] = {}
        stored, handed = 0, None
        for j in range(c0, c1):
            start, end = ends[j], ends[j + 1]
            if start == end or j in clear:
                continue
            col = dict(zip(ri[start:end], vals[start:end]))
            low = max(col)  # a Sparse column lists its rows in any order
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
            if len(pivots) >= FILL_CHECK_AFTER and stored * FILL_PIVOTS > h * len(pivots):
                rest = _kept(a, r0, r1, j + 1, c1, clear)
                dense = np.zeros((h, len(pivots) + rest.shape[1]), dtype=np.int64)
                for k, c in enumerate(pivots.values()):
                    dense[[r - r0 for r in c], k] = list(c.values())
                dense[:, len(pivots):] = rest
                handed = len(rref(dense, p)[1])
                break
        if lows is not None:
            lows.update(pivots)
        out.append(len(pivots) if handed is None else handed)
    return out


def _kept(a, r0: int, r1: int, j: int, stop: int, clear):
    """Rows ``r0`` to ``r1`` of the columns of ``a`` from ``j`` to ``stop``
    that ``clear`` does not name, as a dense matrix; ``a`` itself if that
    is all of a dense ``a``."""
    if isinstance(a, Sparse):
        return a.dense(j, clear, stop, r0, r1)
    if clear:
        return a[r0:r1, [c for c in range(j, stop) if c not in clear]]
    return a if (r0, r1, j, stop) == (0, a.shape[0], 0, a.shape[1]) else a[r0:r1, j:stop]


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

