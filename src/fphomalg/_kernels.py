"""Exact linear algebra over F_p on dense int64 matrices.

Row reduction is the hot loop of the whole package.  It is one numpy
Gauss-Jordan elimination (``rref``), and everything downstream goes
through the helpers here.

Vectors are columns: ``nullspace(a, p)`` returns a matrix whose columns
span ``{x : a @ x = 0}``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BACKEND = "python"


def as_modp(a, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 array with entries reduced into [0, p)."""
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return np.ascontiguousarray(m % p)


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


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


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


def in_span(rows, v, p: int) -> bool:
    """Is the vector ``v`` in the span of the given row vectors?"""
    m = as_modp(rows, p)
    return solve(m.T, np.asarray(v, dtype=np.int64) % p, p) is not None
