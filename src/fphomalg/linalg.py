"""Graded and bigraded exact linear algebra over a prime field.

Carriers used everywhere else in the package: graded vector spaces with
finite support, degreewise matrices between them, bigraded dimension
tables with parity verdicts, and truncated Hilbert series.  A small private
layer serves every derived-functor builder: ``_matrix`` is the one writer
of a linear map between two given bases, ``_assemble`` builds a matrix
from (row, column, value) triples, and ``_check_dd`` is the one ``d*d = 0``
check.  ``_RankTable`` ranks a chain complex one level at a time: the
differential out of a level, over every internal degree, is one
block-diagonal ``K.Sparse`` matrix, checked against the level before it by
one product and ranked by one ``K.rank_blocks`` call, a rank per degree.
``_homology`` turns the sizes and dense differentials of one internal
degree of the diagram layer into homology dimensions, ranking each map once
(``_RankOnce``).  Either way the map into a space is ranked before the map
out of it, and once the pair has passed ``_check_dd`` the lowest rows of
the first map's pivot columns name columns of the second that need not be
reduced (clearing, see ``_kernels``).

Degree conventions, fixed once:

* graded vector spaces are cohomologically graded;
* a ``GradedMap`` of degree ``d`` sends degree ``i`` to degree ``i + d``;
* bigraded tables are keyed by ``(s, t)``; derived-functor tables store the
  map degree in ``t`` while Tor/bar tables store the internal degree of the
  cycle (parity statements do not depend on this choice);
* every truncated object records its cap and refuses windows beyond it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import CapError, CrossCheckError, ValidationError


def json_int(value, field: str) -> int:
    """``int(value)`` for a number or numeral read from JSON input; a value
    that is not an integer raises ``ValidationError`` naming ``field``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (isinstance(value, float) and n != value):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return n


# ---------------------------------------------------------------------------
# prime field


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p for a prime 2 <= p <= 97."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p) or not 2 <= p <= 97:
            raise ValidationError(f"p must be a prime in [2, 97], got {p!r}")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


# ---------------------------------------------------------------------------
# graded vector spaces


class GradedVectorSpace:
    """Finitely supported dimension per degree."""

    def __init__(self, dims=None):
        clean = {}
        for d, n in dict(dims or {}).items():
            d = int(d)
            n = int(n)
            if n < 0:
                raise ValidationError(f"negative dimension {n} in degree {d}")
            if n:
                clean[d] = n
        self._dims = clean

    @property
    def dims(self) -> dict[int, int]:
        return dict(self._dims)

    def dim(self, d: int) -> int:
        return self._dims.get(int(d), 0)

    def degrees(self) -> list[int]:
        return sorted(self._dims)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def is_zero(self) -> bool:
        return not self._dims

    def shift(self, k: int) -> "GradedVectorSpace":
        return GradedVectorSpace({d + k: n for d, n in self._dims.items()})

    def __add__(self, other: "GradedVectorSpace") -> "GradedVectorSpace":
        dims = dict(self._dims)
        for d, n in other._dims.items():
            dims[d] = dims.get(d, 0) + n
        return GradedVectorSpace(dims)

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and other._dims == self._dims

    def __hash__(self):
        return hash(frozenset(self._dims.items()))

    def __repr__(self):
        body = ", ".join(f"{d}:{n}" for d, n in sorted(self._dims.items()))
        return "GradedVectorSpace({%s})" % body

    def to_json(self) -> dict:
        return {"dims": {str(d): n for d, n in sorted(self._dims.items())}}

    @classmethod
    def from_json(cls, obj) -> "GradedVectorSpace":
        if not isinstance(obj, dict) or "dims" not in obj:
            raise ValidationError('graded space JSON must be {"dims": {...}}')
        return cls({json_int(d, "dims key"): json_int(n, f"dims[{d!r}]")
                    for d, n in obj["dims"].items()})


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """Degreewise matrix blocks for a map of graded spaces of fixed degree.

    ``blocks[i]`` has shape ``(target.dim(i + degree), source.dim(i))`` and
    acts on column vectors.  Missing blocks are zero.
    """

    def __init__(self, source, target, degree: int, blocks=None, p: int = 2):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.p = p
        self.blocks: dict[int, np.ndarray] = {}
        for i, m in (blocks or {}).items():
            i = int(i)
            m = K.as_modp(m, p)
            want = (target.dim(i + self.degree), source.dim(i))
            if m.shape != want:
                raise ValidationError(
                    f"block at degree {i} has shape {m.shape}, expected {want}"
                )
            if m.any():
                self.blocks[i] = m

    def block(self, i: int) -> np.ndarray:
        i = int(i)
        if i in self.blocks:
            return self.blocks[i]
        return np.zeros((self.target.dim(i + self.degree), self.source.dim(i)), dtype=np.int64)

    @classmethod
    def zero(cls, source, target, degree, p):
        return cls(source, target, degree, {}, p)

    @classmethod
    def identity(cls, space, p):
        return cls(
            space,
            space,
            0,
            {d: np.eye(space.dim(d), dtype=np.int64) for d in space.degrees()},
            p,
        )

    def compose(self, other: "GradedMap") -> "GradedMap":
        """``self`` after ``other``."""
        if self.p != other.p:
            raise ValidationError("composing maps over different primes")
        deg = self.degree + other.degree
        blocks = {}
        for i in other.source.degrees():
            m = self.block(i + other.degree) @ other.block(i)
            if m.size and m.any():
                blocks[i] = m % self.p
        return GradedMap(other.source, self.target, deg, blocks, self.p)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.degree, self.p) != (other.degree, other.p):
            raise ValidationError("adding incompatible graded maps")
        blocks = {}
        for i in set(self.blocks) | set(other.blocks):
            blocks[i] = (self.block(i) + other.block(i)) % self.p
        return GradedMap(self.source, self.target, self.degree, blocks, self.p)

    def scale(self, c: int) -> "GradedMap":
        blocks = {i: (m * (c % self.p)) % self.p for i, m in self.blocks.items()}
        return GradedMap(self.source, self.target, self.degree, blocks, self.p)

    def is_zero(self) -> bool:
        return all(not m.any() for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if (self.degree, self.p) != (other.degree, other.p):
            return False
        for i in set(self.blocks) | set(other.blocks):
            if self.block(i).shape != other.block(i).shape:
                return False
            if (self.block(i) != other.block(i)).any():
                return False
        return True


# ---------------------------------------------------------------------------
# assembly and homology steps shared by the derived-functor builders


def _assemble(shape, rows, cols, vals, p: int) -> np.ndarray:
    """Dense matrix mod p from (row, column, value) triples, repeats summed."""
    mat = np.zeros(shape, dtype=np.int64)
    if len(vals):
        np.add.at(mat, (rows, cols), vals)
        mat %= p
    return mat


def _matrix(src, tgt, image, p: int) -> np.ndarray:
    """Matrix mod p of the linear map sending ``src[j]`` to the sum of
    ``v * tgt[i]`` over the pairs ``(tgt[i], v)`` that ``image(src[j])``
    yields.  Repeats are summed; a key outside ``tgt`` raises ``KeyError``.
    It serves the diagram layer and ``ModuleViaMap.block``; no chain
    differential is written through it."""
    row = {b: i for i, b in enumerate(tgt)}
    rows, cols, vals = [], [], []
    for j, b in enumerate(src):
        for key, v in image(b):
            rows.append(row[key])
            cols.append(j)
            vals.append(v)
    return _assemble((len(tgt), len(src)), rows, cols, vals, p)


class _RankOnce(dict):
    """``ranks[s]`` is the rank of ``matrix(s)``, the differential leaving
    index ``s`` for ``s + step``, computed on first use; a ``None`` matrix
    is the zero map, and a map from or to a zero space is not ranked.

    A homology step needs the rank of each differential twice, once as the
    outgoing and once as the incoming map; this keeps it to one rank call.
    Each rank also keeps the lowest rows of the pivot columns ``K.rank``
    stored, and the map out of ``s`` clears those of the map into ``s``
    (see ``_kernels``), but only once ``check(what, s - step)`` has passed:
    clearing is sound only where ``d*d = 0``.
    """

    def __init__(self, matrix, p: int, step: int):
        super().__init__()
        self._matrix = matrix
        self._p = p
        self._step = step
        self._checked: set[int] = set()
        self._lows: dict[int, set[int]] = {}

    def check(self, what: str, s: int):
        """``_check_dd`` on the maps out of ``s`` and out of ``s + step``;
        once it passes, the map out of ``s + step`` is ranked with
        clearing."""
        _check_dd(what, self._matrix(s), self._matrix(s + self._step), self._p)
        self._checked.add(s)

    def __missing__(self, s):
        m = self._matrix(s)
        if m is None or not m.size:
            r = 0
        else:
            into = s - self._step
            clear = self._lows.pop(into, ()) if into in self._checked else ()
            lows = self._lows[s] = set()
            r = K.rank(m, self._p, clear, lows)
        self[s] = r
        return r


class _RankTable(dict):
    """``table[s, b]`` is the rank of a complex's differential out of level
    ``s`` in its diagonal block ``b``, an internal degree; zero ranks are
    left out.

    ``levels`` yields ``(s, d, rows, cols)``: the differential out of each
    level over every degree, a ``K.Sparse`` matrix block diagonal by degree
    with its block bounds (``K.rank_blocks``), in the direction of the
    differential, ``s`` to ``s + step`` (``step`` is 1 for cochains, -1 for
    chains).  A level whose differential is zero may be left out.  Each
    level is ranked by one ``K.rank_blocks`` call, cleared with the lows of
    the level before it, so only two levels are held at once.  Clearing
    needs ``d*d = 0``: ``check(first, then)`` raises unless ``then @
    first`` vanishes, and runs on each pair of consecutive levels before
    the second is ranked; ``None`` for a complex that passed ``d*d = 0`` as
    a whole.
    """

    def __init__(self, what: str, p: int, levels, step: int, check=None):
        super().__init__()
        self.what, self.step = what, step
        last, before, lows = None, None, set()
        for s, d, rows, cols in levels:
            if last != s - step:  # after a zero level: nothing to check or clear
                before, lows = None, set()
            if check is not None and before is not None:
                check(before, d)
            last, before, clear, lows = s, d, lows, set()
            for b, r in enumerate(K.rank_blocks(d, p, rows, cols, clear, lows)):
                if r:
                    self[s, b] = r

    def homology(self, s: int, b: int, n: int) -> int:
        """The homology dimension at level ``s`` in block ``b``, where the
        space has dimension ``n``; a negative one raises
        ``CrossCheckError``."""
        h = n - self.get((s, b), 0) - self.get((s - self.step, b), 0)
        if h < 0:
            raise CrossCheckError(f"negative {self.what} homology dimension at s = {s}")
        return h


def _check_dd(what: str, first, then, p: int):
    """Raise ``CrossCheckError`` unless ``then @ first`` vanishes mod p.

    Two ``K.Sparse`` maps are multiplied exactly, by a join on the middle
    index (``_sparse_product``).  Dense ones, which only the diagram layer
    hands it, are multiplied in float64 and reduced afterwards.  That is
    exact: entries lie in [0, p) with p <= 97, so every dot product of an
    inner dimension n is at most n * 96^2, below 2^53 for any n < 9 * 10^11
    (the delayed reduction of Dumas, Giorgi and Pernet, ACM TOMS 2008).
    """
    if not (first.size and then.size):
        return
    if isinstance(first, K.Sparse):
        bad = _sparse_product(then, first, p).any()
    else:
        bad = np.fmod(then.astype(np.float64) @ first.astype(np.float64), p).any()
    if bad:
        raise CrossCheckError(f"{what} differential fails d*d = 0")


def _sparse_product(a: K.Sparse, b: K.Sparse, p: int) -> np.ndarray:
    """The sums mod p of ``a @ b`` at the positions some pair of entries
    reaches: an entry ``(k, j)`` of ``b`` meets the entries of column ``k``
    of ``a``, which are contiguous."""
    per_col = np.bincount(a.cols, minlength=a.shape[1])
    n = per_col[b.rows]  # how many entries of a each entry of b meets
    ends = np.add.accumulate(n)
    if not (len(ends) and ends[-1]):
        return n
    # the entries of a met, entry of b by entry of b
    ia = np.arange(ends[-1]) + (np.add.accumulate(per_col)[b.rows] - ends).repeat(n)
    val = a.vals[ia] * b.vals.repeat(n) % p
    key = a.rows[ia] * b.shape[1] + b.cols.repeat(n)
    del ia
    order = key.argsort()
    key = key[order]
    cuts = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1))
    del key
    return np.add.reduceat(val[order], cuts) % p


def _homology(what: str, sizes: dict, d: dict, p: int, step: int = 1) -> dict[int, int]:
    """Homology dimensions of one internal degree of a complex given by
    dense maps, as the diagram layer builds them.

    ``sizes[s]`` is the dimension of the space at index ``s``, for the
    indices whose homology is wanted, listed in ascending order; ``d[s]``
    is the differential leaving index ``s`` for ``s + step`` (``step`` is 1
    for cochains, -1 for chains), and an index without one has a zero
    differential.  Every composable pair in ``d`` passes ``_check_dd``, and
    ``_RankOnce`` ranks each differential once.  The map into ``s`` is
    ranked before the map out of ``s`` (ascending ``s`` for cochains,
    descending for chains), so each map is cleared with the lows of the one
    before it.  Returns ``{s: dim}`` for the nonzero dimensions, in
    ascending ``s``, and raises ``CrossCheckError`` on a negative one.
    """
    ranks = _RankOnce(d.get, p, step)
    for s in d:
        if s + step in d:
            ranks.check(what, s)
    out = {}
    for s in (sizes if step > 0 else reversed(sizes)):
        n = sizes[s]
        if n:
            h = n - ranks[s - step] - ranks[s]
            if h < 0:
                raise CrossCheckError(f"negative {what} homology dimension at s = {s}")
            if h:
                out[s] = h
    return out if step > 0 else dict(reversed(out.items()))


# ---------------------------------------------------------------------------
# bigraded tables


@dataclass(frozen=True)
class ParityVerdict:
    verdict: str  # "even" | "odd" | "neither"
    empty: bool

    def to_json(self):
        return {"verdict": self.verdict, "empty": self.empty}


class BigradedTable:
    """Finitely supported map ``(s, t) -> dimension``."""

    def __init__(self, entries=None):
        clean = {}
        for (s, t), n in dict(entries or {}).items():
            n = int(n)
            if n < 0:
                raise ValidationError(f"negative dimension at ({s}, {t})")
            if n:
                clean[(int(s), int(t))] = n
        self._entries = clean

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return dict(self._entries)

    def dim(self, s: int, t: int) -> int:
        return self._entries.get((int(s), int(t)), 0)

    def items(self):
        return sorted(self._entries.items())

    def is_empty(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        return isinstance(other, BigradedTable) and other._entries == self._entries

    def __repr__(self):
        body = ", ".join(f"({s},{t}):{n}" for (s, t), n in self.items())
        return "BigradedTable({%s})" % body

    def parity_verdict(self) -> ParityVerdict:
        if not self._entries:
            return ParityVerdict("even", True)
        parities = {(s + t) % 2 for s, t in self._entries}
        if parities == {0}:
            return ParityVerdict("even", False)
        if parities == {1}:
            return ParityVerdict("odd", False)
        return ParityVerdict("neither", False)

    def total_dims(self) -> dict[int, int]:
        """Collapse to total degree ``t - s``."""
        out: dict[int, int] = {}
        for (s, t), n in self._entries.items():
            out[t - s] = out.get(t - s, 0) + n
        return dict(sorted(out.items()))

    def to_json(self) -> list:
        return [{"s": s, "t": t, "dim": n} for (s, t), n in self.items()]

    @classmethod
    def from_json(cls, obj) -> "BigradedTable":
        if not isinstance(obj, list):
            raise ValidationError("bigraded table JSON must be a list of rows")
        entries = {}
        for row in obj:
            key = (json_int(row["s"], "s"), json_int(row["t"], "t"))
            entries[key] = entries.get(key, 0) + json_int(row["dim"], "dim")
        return cls(entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["s", "t", "dim"])
        for (s, t), n in self.items():
            w.writerow([s, t, n])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "BigradedTable":
        return cls.from_json(list(csv.DictReader(io.StringIO(text))))


# ---------------------------------------------------------------------------
# Hilbert series


class HilbertSeries:
    """Integer dimension series trusted up to and including ``cap``."""

    def __init__(self, coefficients, cap: int | None = None):
        if isinstance(coefficients, dict):
            cap = max(coefficients) if cap is None else cap
            coeffs = [0] * (cap + 1)
            for d, n in coefficients.items():
                d = int(d)
                if 0 <= d <= cap:
                    coeffs[d] = int(n)
        else:
            coeffs = [int(c) for c in coefficients]
            if cap is None:
                cap = len(coeffs) - 1
            coeffs = coeffs[: cap + 1] + [0] * (cap + 1 - len(coeffs))
        if cap < 0:
            raise ValidationError("cap must be nonnegative")
        if any(c < 0 for c in coeffs):
            raise ValidationError("dimension series must be nonnegative")
        self.cap = cap
        self.coefficients = coeffs

    def __getitem__(self, d: int) -> int:
        if not 0 <= d <= self.cap:
            raise CapError(f"degree {d} beyond cap {self.cap}")
        return self.coefficients[d]

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and other.cap == self.cap
            and other.coefficients == self.coefficients
        )

    def __repr__(self):
        body = ", ".join(f"{d}:{c}" for d, c in enumerate(self.coefficients) if c)
        return "HilbertSeries({%s}, cap=%d)" % (body, self.cap)

    def nonzero(self) -> dict[int, int]:
        return {d: c for d, c in enumerate(self.coefficients) if c}

    def to_json(self) -> dict:
        return {"cap": self.cap, "series": {str(d): c for d, c in self.nonzero().items()}}


def series_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: cap + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def free_commutative_series(generators, cap: int, p: int) -> HilbertSeries:
    """Hilbert series of the free graded-commutative algebra.

    ``generators`` is an iterable of (degree, multiplicity).  Odd-degree
    generators are exterior when p is odd; at p = 2 everything is
    polynomial.  Degrees must be positive for the series to be finite.
    Large multiplicities use the closed-form factors ``(1 + q^d)^m`` and
    ``(1 - q^d)^{-m}`` with exact integer binomials.
    """
    import math as _math

    series = [1] + [0] * cap
    for deg, mult in generators:
        deg, mult = int(deg), int(mult)
        if mult == 0:
            continue
        if deg <= 0:
            raise ValidationError("series generators must have positive degree")
        factor = [0] * (cap + 1)
        for k in range(0, cap // deg + 1):
            if p != 2 and deg % 2 == 1:
                factor[k * deg] = _math.comb(mult, k) if k <= mult else 0
            else:
                factor[k * deg] = _math.comb(mult + k - 1, k)
        series = series_mul(series, factor, cap)
    return HilbertSeries(series, cap)


# ---------------------------------------------------------------------------
# subquotients with representatives


class Subquotient:
    """``ker(d_out) / im(d_in)`` inside F_p^n, with chosen representatives.

    ``d_out`` has shape (r, n) and ``d_in`` shape (n, c).  Provides class
    coordinates for arbitrary cycles, which is what homology products and
    induced maps on cohomology need.
    """

    def __init__(self, d_out, d_in, p: int):
        self.p = p
        d_out = K.as_modp(d_out, p) if d_out is not None else None
        d_in = K.as_modp(d_in, p) if d_in is not None else None
        n = d_out.shape[1] if d_out is not None else d_in.shape[0]
        self.n = n
        if d_out is None:
            self.cycles = np.eye(n, dtype=np.int64)
        else:
            self.cycles = K.nullspace(d_out, p)
        k = self.cycles.shape[1]
        if d_in is None or d_in.shape[1] == 0 or k == 0:
            y = np.zeros((k, 0), dtype=np.int64)
        else:
            y = K.solve(self.cycles, d_in, p)
            if y is None:
                raise ValidationError("boundaries do not lie inside cycles")
        rr, piv = K.rref(y.T, p)
        self._red_rows = rr[: len(piv)]
        self._piv = list(piv)
        self._free = [i for i in range(k) if i not in piv]
        self.dim = len(self._free)

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Class coordinates of cycle coordinates ``x``, a vector or a
        matrix of columns: the rows of ``_red_rows`` are reduced, so each
        pivot entry of ``x`` is the multiple of its row to subtract."""
        x = x % self.p
        return (x[self._free] - self._red_rows[:, self._free].T @ x[self._piv]) % self.p

    def representatives(self) -> np.ndarray:
        """(n, dim) matrix whose columns represent the chosen basis classes."""
        if self.dim == 0:
            return np.zeros((self.n, 0), dtype=np.int64)
        return self.cycles[:, self._free] % self.p

    def coords(self, v) -> np.ndarray:
        """Class coordinates of a cycle ``v``, or of each column of a
        matrix ``v`` of cycles in one solve; ``ValidationError`` if some
        column is not a cycle."""
        v = np.asarray(v, dtype=np.int64) % self.p
        x = K.solve(self.cycles, v, self.p)
        if x is None:
            raise ValidationError("vector is not a cycle")
        return self._project(x)


# ---------------------------------------------------------------------------
# json helpers


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
