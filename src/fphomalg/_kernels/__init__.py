"""Exact linear algebra over F_p on dense int64 matrices.

Row reduction is the hot loop of the whole package, so it has two
interchangeable implementations: a Cython kernel (``_modp``) and a numpy
fallback (``modp_py``).  The compiled kernel is preferred; set
``FPHOMALG_PURE=1`` to force the fallback.  Everything downstream goes
through the helpers here, which are backend independent.

Vectors are columns: ``nullspace(a, p)`` returns a matrix whose columns
span ``{x : a @ x = 0}``.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ValidationError

if os.environ.get("FPHOMALG_PURE") == "1":
    from . import modp_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _modp as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import modp_py as _impl

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
    if 0 in m.shape:
        return m, []
    pivots = _impl.rref_core(m, p)
    return m, list(pivots)


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
