"""Resolutions and derived functors over monomial graded-commutative algebras.

The strand calculus: every polynomial generator contributes a two-step
Koszul strand, every exponent-capped generator a periodic strand, and the
two-sided Koszul chains ``M (x) strands (x) N`` (``_KoszulChains``) are the
tensor product of strands with Koszul signs taken in the total (homological
plus internal) parity.  One function, ``_koszul_terms``, gives the signed
terms of every strand differential, and one object, ``_KoszulChains``,
lists, budgets and ranks Tor, the Eilenberg-Moore model and the free
resolution of the ground field (``_resolution``: the chains with A on the
left and k on the right, where every term with a right coefficient
vanishes).  ``_resolution`` checks minimality (no coefficient of degree 0),
``d*d = 0`` on the generators and degreewise exactness (the chains'
homology is k at ``(0, 0)``) inside the trusted window.  Ext into a trivial
module is read off the minimal resolution: its Hom complex has the zero
differential, so nothing is assembled or ranked.

Derived functors follow two independent routes wherever the statements
being verified demand it: Hochschild cohomology with coefficients in a
module M on which A acts trivially is computed from the resolution
shortcut ``Ext_A(k, M)`` (``ext_dims``) and from the normalized cochain
complex with coefficients k, the dual of the bar complex, tensored with M
afterwards, and any mismatch raises ``CrossCheckError``.  A module on
which A acts is refused.

No chain differential here is written densely.  Each complex is built as
integer arrays, and each differential is a slice of one table of entries,
a ``_kernels.Sparse`` matrix sorted by column: ``_KoszulChains`` (the
resolution, Tor, the Eilenberg-Moore model) places the targets of its
strand terms by counting, for every degree at once, and the array word
complex ``_Words`` gives the merges of the bar complex, whose slices the
Hochschild cochains read transposed.  Each complex has one rank table
(``linalg._RankTable``), built a level at a time: the differential out of
a level over every internal degree is one slice, block diagonal by degree;
it is checked against the level before by one sparse product (unless the
complex passed ``d*d = 0`` as a whole, as the Koszul chains do), ranked by
one ``K.rank_blocks`` call with clearing, and the homology dimension of
every ``(s, t)`` is read off the table.

Degree conventions: Ext/Hochschild/AQ tables store ``t`` = map degree
(target minus source); Tor/bar tables store ``t`` = internal degree of the
cycle, with the collapsed total-degree view given by ``t - s``.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

from . import _kernels as K
from .errors import CapError, CrossCheckError, ValidationError
from .linalg import (
    BigradedTable,
    GradedVectorSpace,
    ParityVerdict,
    _assemble,
    _check_dd,
    _RankTable,
    series_mul,
)
from .monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra
from .wordcomplex import _runs, _word_counts, _Words

# Largest differential, in cells (rows x columns), that the Koszul chains
# (resolution, Tor, Eilenberg-Moore model), bar and Hochschild cochains may
# have.  Over six degree-2 generators the resolution's largest is 6,930 x
# 5,040 (35M cells) at cap 16 and 19,305 x 15,840 at cap 20, which is
# refused up front.  It counts cells, not bytes: no chain differential is
# written densely, so the budget bounds the dense hand-off of ``K.rank`` to
# ``rref`` and the ``Subquotient``s of diagram AQ and the Eilenberg-Moore
# model.
MAX_CHAIN_CELLS = 50_000_000


# ---------------------------------------------------------------------------
# strands


class _Strand:
    """Koszul strand of a single generator: symbol ``k`` sits in homological
    degree ``k``.  A polynomial strand has the symbols 0 and 1, a periodic
    (exponent-capped) one every ``k >= 0``."""

    def __init__(self, name, deg, cap, p):
        self.name = name
        self.deg = deg
        self.cap = cap  # None: polynomial; c: truncation by g^(c + 1)
        self.odd = p != 2 and deg % 2 == 1  # then cap is 1: an exterior strand

    def internal(self, k):
        if self.cap is None:
            return k * self.deg
        return ((k // 2) * (self.cap + 1) + k % 2) * self.deg

    def tau(self, k):
        return (k + self.internal(k)) % 2

    def terms(self, k):
        """Terms ``(left_exp, right_exp, scalar)`` of the bimodule strand:
        ``d(sym_k) = sum scalar * g^left_exp sym_{k-1} g^right_exp``.  That
        is ``g sym - sym g``, except on the even symbols of a periodic strand
        of an even generator (or at p = 2), where it is the norm map
        ``sum g^i sym g^(cap-i)``; an odd generator at odd p anticommutes
        with itself, so ``g sym - sym g`` squares to zero on every level."""
        if k == 0:
            return []
        if self.cap is None or k % 2 == 1 or self.odd:
            return [(1, 0, 1), (0, 1, -1)]
        return [(i, self.cap - i, 1) for i in range(self.cap + 1)]


def _strands(A: MonomialAlgebra):
    if not isinstance(A, MonomialAlgebra):
        raise ValidationError("strand resolutions need a monomial algebra presentation")
    if A.kind in ("stanley_reisner",):
        raise ValidationError(f"no strand resolution for algebra kind {A.kind!r}")
    return [
        _Strand(name, deg, cap, A.p)
        for (name, deg), cap in zip(A.generators, A.caps)
    ]


def _koszul_terms(strands, S, p):
    """Terms ``(i, S2, sign, left_exp, right_exp)`` of the differential of
    the symbol tuple ``S``: strand ``i`` lowered to give ``S2``, with the
    Koszul sign of moving ``d`` and the left coefficient past the strands
    before ``i`` and the right coefficient past those after it, in total
    (homological plus internal) parity.  The one sign rule of every strand
    complex; ``_KoszulChains`` adds the sign of moving ``d`` past the left
    module's monomial."""
    taus = [st.tau(k) for st, k in zip(strands, S)]
    pre, suf = 0, sum(taus)
    for i, (st, k) in enumerate(zip(strands, S)):
        suf -= taus[i]
        lowered = S[:i] + (k - 1,) + S[i + 1:]
        for le, re, scal in st.terms(k):
            sign = scal
            if p != 2 and ((1 + le * st.deg) * pre + re * st.deg * suf) % 2:
                sign = -sign
            yield i, lowered, sign, le, re
        pre += taus[i]


# ---------------------------------------------------------------------------
# two-sided Koszul chains


class _Monomials:
    """The monomials of degree at most ``cap`` of a monomial algebra as the
    rows of an exponent array, in basis order: by degree, then as
    ``alg.basis`` lists them.  ``pos`` is a row's place within its degree."""

    def __init__(self, alg: MonomialAlgebra, cap: int):
        self.mons = [m for d in range(cap + 1) for m in alg.basis(d)]
        degrees = np.array(alg.degrees, dtype=np.int64)
        self.exps = np.array(self.mons, dtype=np.int64).reshape(len(self.mons), len(degrees))
        self.odd, self.deg = degrees % 2, self.exps @ degrees
        self.count = np.bincount(self.deg, minlength=cap + 1)
        self.pos = np.arange(len(self.deg)) - (self.count.cumsum() - self.count)[self.deg]

    def times(self, ms: list, left: bool):
        """Tables over the monomials ``ms`` and the rows ``b``: the row of
        ``b * m`` (``left``) or ``m * b``, found by its exponent row as a
        key, or -1 (over a cap or off every face), and the parity of
        ``MonomialAlgebra.mul``'s sign: the odd letters of the right factor
        pass the later odd letters of the left."""
        m = np.array(ms, dtype=np.int64).reshape(len(ms), len(self.odd))
        if not len(self.odd):  # the ground field: the unit times the unit
            return (np.zeros((len(ms), 1), dtype=np.int64),) * 2
        key = np.dtype((np.void, self.exps.itemsize * len(self.odd)))
        table = self.exps.view(key).ravel()
        order = table.argsort()
        table = table[order]
        keys = np.ascontiguousarray(self.exps + m[:, None]).view(key)[..., 0]
        at = np.minimum(table.searchsorted(keys), len(table) - 1)
        odd = m * self.odd
        later = odd.cumsum(1) - odd if left else odd.sum(1)[:, None] - odd.cumsum(1)
        return (np.where(table[at] == keys, order[at], -1),
                (later * self.odd) @ self.exps.T % 2)


def _offsets(deg, count, cap: int) -> np.ndarray:
    """``out[j, t]``: the sum of ``count[t - deg[i]]`` over the items ``i <
    j`` with ``deg[i] <= t``, for ``t <= cap``."""
    per = np.concatenate((np.zeros(cap, dtype=np.int64), count))[
        np.arange(cap + 1) - deg[:, None] + cap]
    return per.cumsum(0) - per


class _KoszulChains:
    """The chains ``M (x) strands (x) N`` of the two-sided Koszul complex
    for algebra maps ``M: A -> B`` and ``N: A -> C``: the one object that
    lists, budgets and ranks the resolution of k, Tor and the
    Eilenberg-Moore model.  The differential is
    ``d(b (x) e_S (x) c) = (-1)^{|b|} sum sign * b M(g^le) (x) e_S2 (x) N(g^re) c``
    over the terms of ``_koszul_terms``.

    The symbol tuples are bounded by internal degree ``cap`` or, with
    ``s_max``, by homological degree alone (the resolution: its generators
    of every internal degree feed Ext).  ``tuples[s]`` lists those of
    homological degree ``s`` in ascending order, and ``degree`` maps each to
    its internal degree; ``terms[S]`` lists ``(S2, sign, left image, right
    image)`` for each term of ``d(e_S)`` whose images are nonzero, with
    ``None`` for the unit image of a zero exponent.  A chain is ``(S,
    monomial of B, monomial of C)``, ordered within its bidegree by ``S``
    and then by the monomials.  The constructor counts the chains up to
    degree ``cap`` (``_chain_sizes``) and refuses the ``what`` differential
    over ``MAX_CHAIN_CELLS`` before any is built.  Then ``_table`` builds
    the chains of every bidegree as integer arrays and, in one pass over
    all the terms, every differential: a term moves the chains of its tuple
    by an exponent offset on each side, once per monomial of an image, and
    each target is placed by counting.  The whole complex passes ``d*d =
    0``, and ``differential(s, t)`` is a slice of its entries.
    """

    def __init__(self, what: str, A: MonomialAlgebra, M: ModuleViaMap, N: ModuleViaMap,
                 cap: int, s_max: int | None = None):
        self.what = what
        self.p = A.p
        self.cap = cap
        self.B, self.C = B, C = M.target, N.target
        strands = _strands(A)
        # a symbol's internal degree is at least its homological degree
        s_top, t_top = (cap, cap) if s_max is None else (s_max, float("inf"))

        degrees = {(): (0, 0)}  # symbol tuple -> (homological, internal) degree
        for st in strands:
            top = 1 if st.cap is None else s_top
            degrees = {S + (k,): (s + k, d + st.internal(k)) for S, (s, d) in degrees.items()
                       for k in range(top + 1)
                       if s + k <= s_top and d + st.internal(k) <= t_top}
        self.tuples: list[list[tuple]] = [[] for _ in range(max(s_top, 0) + 1)]
        for S, (s, _) in degrees.items():
            self.tuples[s].append(S)
        self.degree = {S: d for S, (_, d) in degrees.items()}
        self.max_s = max((s for s, _ in degrees.values()), default=0)

        def powers(alg, f):
            """Per strand, the images of ``g^e`` for ``e >= 1`` up to the
            strand's top exponent, after ``None`` for the unit ``g^0``."""
            return [[None] + [alg.image_of_monomial((e,), [f.image_of(st.name)])
                              for e in range(1, (st.cap or 1) + 1)] for st in strands]

        lefts, rights = powers(B, M), powers(C, N)
        self.terms = {S: [(S2, sign, lefts[i][le], rights[i][re])
                          for i, S2, sign, le, re in _koszul_terms(strands, S, self.p)
                          if lefts[i][le] != {} and rights[i][re] != {}]
                      for S in degrees}
        self.sizes = _chain_sizes(self, cap)
        _check_cells(what, {(s, t): n for s, row in enumerate(self.sizes)
                            for t, n in enumerate(row)}, -1)

    def count(self, s: int, t: int) -> int:
        """Number of chains in bidegree ``(s, t)``, for ``t <= cap``."""
        return self.sizes[s][t] if 0 <= s < len(self.sizes) else 0

    @functools.cached_property
    def _table(self):
        """The entries of every differential, ordered by source and row,
        and the chains.  Those of bidegree ``(s, t)`` are numbered from
        ``first[s * (cap + 1) + t]``; ``place`` counts the chains of earlier
        tuples (``offset``), then earlier pairs of monomials (``before``).
        An entry's row and column are kept as numbered within their levels,
        so that a level's differential is a slice."""
        cap, p, B, C = self.cap, self.p, _Monomials(self.B, self.cap), _Monomials(self.C, self.cap)
        flat = [S for stage in self.tuples for S in stage if self.degree[S] <= cap]
        index = {S: g for g, S in enumerate(flat)}
        level, tdeg = np.array([(sum(S), self.degree[S]) for S in flat], dtype=np.int64).T
        sizes = np.array(self.sizes, dtype=np.int64).ravel()
        first = sizes.cumsum() - sizes
        pb, pc = _runs(C.count.cumsum()[cap - B.deg])  # the pairs of degree <= cap
        order = (B.deg[pb] + C.deg[pc]).argsort(kind="stable")
        pb, pc = pb[order], pc[order]
        pairs = np.bincount(B.deg[pb] + C.deg[pc], minlength=cap + 1)
        before, offset = _offsets(B.deg, C.count, cap), _offsets(tdeg, pairs, cap)
        offset -= offset[level.searchsorted(level)]

        def place(S, b, c, t):
            return offset[S, t] + before[b, t - tdeg[S]] + C.pos[c]

        fit = pairs.cumsum()[cap - tdeg]  # a tuple takes the pairs that fit beside it
        cs, cp = _runs(fit)
        cb, cc = pb[cp], pc[cp]
        ct = tdeg[cs] + B.deg[cb] + C.deg[cc]
        rank = first[level[cs] * (cap + 1) + ct] + place(cs, cb, cc, ct)
        # a row per term of a tuple and monomial of its images, joined with
        # every chain of the tuple
        lid, rid, units = {}, {}, ({self.B.one(): 1}, {self.C.one(): 1})
        S, S2, sign, ml, mr = np.array(
            [(index[S], index[S2], sign * xb * xc, lid.setdefault(mb, len(lid)),
              rid.setdefault(mc, len(rid)))
             for S in flat for S2, sign, left, right in self.terms[S]
             for mb, xb in (left or units[0]).items() for mc, xc in (right or units[1]).items()],
            dtype=np.int64).reshape(-1, 5).T
        (hit_b, odd_b), (hit_c, odd_c) = B.times(list(lid), True), C.times(list(rid), False)
        term, j = _runs(fit[S])
        chain = (fit.cumsum() - fit)[S[term]] + j
        b, c, ml, mr = cb[chain], cc[chain], ml[term], mr[term]
        b2, c2 = hit_b[ml, b], hit_c[mr, c]
        ok = (b2 >= 0) & (c2 >= 0)
        width = int(sizes.max(initial=0)) + 1
        key = rank[chain[ok]] * width + place(S2[term[ok]], b2[ok], c2[ok], ct[chain[ok]])
        # d moves past the monomial of B
        val = sign[term[ok]] * (-1) ** (B.deg[b] + odd_b[ml, b] + odd_c[mr, c])[ok]
        # repeats summed, zeros dropped, ordered by source chain and row
        order = key.argsort()
        key = key[order]
        head = np.ones(len(key), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        val = np.add.reduceat(val[order], head.nonzero()[0]) % p
        key, val = key[head][val != 0], val[val != 0]
        src, row = np.divmod(key, width)
        bucket = first.searchsorted(src, "right") - 1
        row += first[bucket - cap - 1]
        whole = K.Sparse((len(rank),) * 2, row, src, val)
        _check_dd(self.what, whole, whole, p)
        by_rank = np.empty_like(rank)
        by_rank[rank] = np.arange(len(rank))
        level = bucket - bucket % (cap + 1)  # the first bucket of the source's level
        return (src.searchsorted(first).tolist() + [len(src)],
                row - first[level - cap - 1], src - first[level], val,
                first.tolist() + [len(rank)],
                (flat, cs[by_rank], B.mons, cb[by_rank], C.mons, cc[by_rank]))

    def basis(self, s: int, t: int) -> list:
        """Chains ``(S, monomial of B, monomial of C)`` in bidegree ``(s, t)``."""
        n = self.count(s, t) if 0 <= t <= self.cap else 0
        if not n:
            return []
        *_, first, (flat, cs, bm, cb, cm, cc) = self._table
        at = slice(first[s * (self.cap + 1) + t], first[s * (self.cap + 1) + t] + n)
        return [(flat[S], bm[b], cm[c]) for S, b, c in
                zip(cs[at].tolist(), cb[at].tolist(), cc[at].tolist())]

    def image(self, b):
        """Terms ``(chain, coefficient)`` of the differential of chain ``b``."""
        S, bm, cn = b
        B, C = self.B, self.C
        flip = self.p != 2 and B.deg(bm) % 2  # d moves past the B-monomial
        for S2, sign, left, right in self.terms[S]:
            if flip:
                sign = -sign
            lefts = B.mul_elements({bm: 1}, left).items() if left else ((bm, 1),)
            rights = C.mul_elements(right, {cn: 1}).items() if right else ((cn, 1),)
            for mm, cm in lefts:
                for nn, cn2 in rights:
                    yield (S2, mm, nn), sign * cm * cn2

    def _starts(self, s: int) -> list[int]:
        """Where the chains of each degree ``t <= cap + 1`` start when level
        ``s`` is numbered by degree, as ``_table`` numbers it."""
        first, lo = self._table[4], s * (self.cap + 1)
        return [f - first[lo] for f in first[lo: lo + self.cap + 2]]

    def level(self, s: int) -> K.Sparse:
        """Matrix of ``d`` out of level ``s >= 1`` in every degree ``t <=
        cap``: a slice of ``_table``, block diagonal by degree, with blocks
        starting at ``_starts(s - 1)`` and ``_starts(s)``."""
        bounds, rows, cols, vals, first = self._table[:5]
        lo, mid, hi = (s - 1) * (self.cap + 1), s * (self.cap + 1), (s + 1) * (self.cap + 1)
        return K.Sparse((first[mid] - first[lo], first[hi] - first[mid]),
                        rows[bounds[mid]:bounds[hi]], cols[bounds[mid]:bounds[hi]],
                        vals[bounds[mid]:bounds[hi]])

    def differential(self, s: int, t: int) -> K.Sparse:
        """Matrix of ``d: basis(s, t) -> basis(s - 1, t)``, for ``s >= 1``
        and ``t <= cap``: the block of ``level(s)`` in degree ``t``."""
        bounds, rows, cols, vals = self._table[:4]
        lo, hi = bounds[s * (self.cap + 1) + t: s * (self.cap + 1) + t + 2]
        return K.Sparse((self.count(s - 1, t), self.count(s, t)),
                        rows[lo:hi] - self._starts(s - 1)[t], cols[lo:hi] - self._starts(s)[t],
                        vals[lo:hi])

    def differentials(self, t: int, top: int) -> dict[int, K.Sparse]:
        """The differentials ``{s: d}`` out of ``s = 1 .. top`` in internal
        degree ``t``; one from or to a zero space is the zero map and is not
        built."""
        return {s: self.differential(s, t) for s in range(1, top + 1)
                if self.count(s, t) and self.count(s - 1, t)}

    @functools.cached_property
    def _ranks(self) -> _RankTable:
        """The ranks of every differential, a level at a time from the top
        down, each cleared with the lows of the one above; ``_table`` has
        checked ``d*d = 0`` on the whole complex.  A level with no degree
        holding chains on both sides is the zero map, and neither it nor
        ``_table`` is built for it."""
        return _RankTable(self.what, self.p, (
            (s, self.level(s), self._starts(s - 1), self._starts(s))
            for s in range(self.max_s, 0, -1)
            if any(map(min, self.sizes[s], self.sizes[s - 1]))), -1)

    def homology(self, t: int, top: int) -> dict[int, int]:
        """Homology ``{s: dim}`` in internal degree ``t`` for ``s < top``,
        read off ``_ranks``."""
        out = {}
        for s in range(top):
            n = self.count(s, t)
            if n and (h := self._ranks.homology(s, t, n)):
                out[s] = h
        return out


# ---------------------------------------------------------------------------
# cell budget


def _series(alg: MonomialAlgebra, cap: int) -> list[int]:
    """``dim alg_t`` for ``t <= cap``: from the exponent caps, or by listing
    the basis of a Stanley-Reisner algebra."""
    if alg.facets is not None:
        return [len(alg.basis(t)) for t in range(cap + 1)]
    series = [1] + [0] * cap
    for deg, top in zip(alg.degrees, alg.caps):
        top = cap // deg if top is None else min(top, cap // deg)
        factor = [0] * (cap + 1)  # 1 + g + ... + g^top up to degree cap
        factor[: top * deg + 1: deg] = [1] * (top + 1)
        series = series_mul(series, factor, cap)
    return series


def _chain_sizes(chains, cap: int) -> list[list[int]]:
    """``sizes[s][t]`` is ``len(chains.basis(s, t))`` for every listed
    homological degree ``s`` and ``t <= cap``: the sum of ``dim (B (x)
    C)_{t - |S|}`` over the symbol tuples ``S`` of degree ``s``, counted
    from the Hilbert series of both sides rather than built."""
    series = series_mul(_series(chains.B, cap), _series(chains.C, cap), cap)
    sizes = []
    for stage in chains.tuples:
        count = [0] * (cap + 1)  # tuples by internal degree
        for S in stage:
            if chains.degree[S] <= cap:
                count[chains.degree[S]] += 1
        sizes.append(series_mul(count, series, cap))
    return sizes


class _OverBudget(CapError):
    """``_check_cells``'s refusal of the ``what`` differential from
    ``(s, t)``, of ``shape`` (rows, columns)."""

    def __init__(self, what: str, s: int, t: int, shape, advice: str):
        super().__init__(f"the {what} differential from (s, t) = ({s}, {t}) is "
                         f"{shape[0]} x {shape[1]}, over the budget of "
                         f"{MAX_CHAIN_CELLS} cells; {advice}")
        self.what, self.s, self.t, self.shape = what, s, t, shape


def _check_cells(what: str, sizes, step: int):
    """Refuse, before any is built, the largest differential over
    ``MAX_CHAIN_CELLS`` cells (lowest ``t`` on a tie) of the lowest ``s``
    with one; ``sizes`` maps each ``(s, t)`` to its counted dimension, and
    the differential from ``(s, t)`` goes to ``(s + step, t)``."""
    over = [(s, -cells, t) for (s, t), n in sizes.items()
            if (cells := n * sizes.get((s + step, t), 0)) > MAX_CHAIN_CELLS]
    if over:
        s, _, t = min(over)
        raise _OverBudget(what, s, t, (sizes[s + step, t], sizes[s, t]),
                          f"lower {'--smax' if step > 0 else 'the degree cap'}")


# ---------------------------------------------------------------------------
# one-sided resolution of the ground field


def _resolution(A: MonomialAlgebra, s_max: int, cap: int) -> _KoszulChains:
    """Minimal free resolution of k over A to stage ``s_max``: the Koszul
    chains ``A (x) strands (x) k``, whose tuples of degree ``s`` are the
    generators of F_s and whose ``terms[S]`` are ``d(e_S)``; k kills every
    right coefficient.  Before they are returned, the chains are checked to
    be minimal (every coefficient has positive degree, so ``Hom_A(F, k)``
    has the zero differential), ``d*d = 0`` on the generators
    (``_validate_dd``, independent of the chains' array build), and exact
    for ``s < s_max`` up to degree ``cap``: their homology is k at ``(0, 0)``.
    """
    chains = _KoszulChains("resolution", A, ModuleViaMap.identity(A),
                           ModuleViaMap.augmentation(A), cap, s_max=s_max)
    if any(left is None or not all(map(A.deg, left))
           for terms in chains.terms.values() for _, _, left, _ in terms):
        raise CrossCheckError("resolution is not minimal: a coefficient has degree 0")
    _validate_dd(chains)
    for t in range(cap + 1):
        homology = chains.homology(t, s_max)
        inexact = [s for s in range(s_max) if homology.get(s, 0) != (s == t == 0)]
        if inexact:
            raise CrossCheckError(f"resolution not exact at stage {inexact[0]}, degree {t}")
    return chains


def _validate_dd(chains: _KoszulChains):
    """``d*d = 0`` in every degree: the resolution's differential applied
    twice to each generator ``e_S`` of stage 2 and up, with no matrix."""
    unit = (chains.B.one(), chains.C.one())
    for stage in chains.tuples[2:]:
        for S in stage:
            twice = Counter()
            for b, c in chains.image((S, *unit)):
                for b2, c2 in chains.image(b):
                    twice[b2] += c * c2
            if any(v % chains.p for v in twice.values()):
                raise CrossCheckError("resolution differential fails d*d = 0")


# ---------------------------------------------------------------------------
# Ext


def ext_dims(A, M: AlgebraModule, s_max: int = 8, cap: int | None = None) -> BigradedTable:
    """Dimensions of Ext_A(k, M) for a module M on which A acts trivially.

    The strand resolution F is minimal, so ``Hom_A(F, M)`` has the zero
    differential and Ext^{s,t} is read off the generators S of F_s: the sum
    of ``dim M_{|S| + t}``.  The resolution is built, and checked, to stage
    ``s_max + 1`` and internal degree ``cap`` (default: the top degree of
    M).  A module on which A acts raises ``ValidationError``.

    Entries sit at ``(s, t)`` with ``t`` the map degree (value degree minus
    resolution-generator degree).
    """
    if any(mp.blocks for mp in M.action.values()):
        raise ValidationError("Ext is read off the minimal resolution only for a module "
                              "on which the algebra acts trivially")
    val_cap = cap if cap is not None else max([0] + [d for d in M.space.degrees()])
    chains = _resolution(A, s_max + 1, max(val_cap, 0))
    entries = Counter()
    for s in range(s_max + 1):
        for S in chains.tuples[s]:
            for d in M.space.degrees():
                entries[(s, d - chains.degree[S])] += M.space.dim(d)
    return BigradedTable(entries)


def trivial_module(A, degree: int = 0, dim: int = 1) -> AlgebraModule:
    return AlgebraModule.trivial(A, GradedVectorSpace({degree: dim}))


# ---------------------------------------------------------------------------
# Hochschild cohomology (two routes)


class HochschildComplex:
    """Normalized cochain complex Hom(Abar^{(x) s}, k) of a finite algebra,
    the dual of the bar complex.

    Requires every generator exponent-capped so that Abar is finite
    dimensional.  Cochain bidegrees are ``(s, t)`` with ``t`` the map
    degree.  Into a module M on which A acts trivially only the inner
    faces of the cochain differential survive, so those cochains are these
    tensored with M (Loday, *Cyclic Homology*, 1992, ch. 1): HH^{s,t}(A; M)
    is the sum over the degrees ``md`` of M of ``dim M_md`` copies of
    HH^{s,t-md}(A; k), which ``hochschild_dims`` and diagram AQ add up.

    The basis of ``C^{s,t}`` is the bucket of words of length ``s`` and
    degree ``-t``, in word order.  Its dimension is counted from the letter
    degrees (``wordcomplex._word_counts``), and a differential over
    ``MAX_CHAIN_CELLS`` raises ``CapError`` before any word is built; then
    the words are built once as an array word complex (``_Words``), and
    ``delta(s)`` is the bar differential out of level ``s + 1``
    (``_Words.level``), transposed: a ``K.Sparse`` matrix over every degree,
    block diagonal by degree and never written densely; ``delta(s, t)`` is
    its block in word degree ``-t``.  The cohomology is read off one rank
    table (``_RankTable``), built on first use a level at a time: each
    ``delta(s)`` passes ``verify_dd`` with ``delta(s - 1)`` and is ranked
    by one kernel call, cleared with the lows of ``delta(s - 1)``.
    """

    def __init__(self, A: MonomialAlgebra, levels: int):
        if not A.is_finite_dimensional():
            raise ValidationError("normalized cochains need a finite-dimensional algebra")
        self.A = A
        self.p = A.p
        self.levels = int(levels)
        top = A.top_degree()
        self.abar = [(mon, d) for d in range(1, top + 1) for mon in A.basis(d)]
        words = _word_counts([d for _, d in self.abar], self.levels * top, self.levels)
        self._dims = {(s, -wd): n for s, counts in [(0, {0: 1}), *words]
                      for wd, n in counts.items()}
        _check_cells("Hochschild cochain", self._dims, 1)
        self._words = _Words(A, self.abar, self.levels)
        self.word_index = self._words.find
        self.abar_index = self._words.letter_index

    @property
    def words(self) -> list:
        """Per level, the ``(n, s)`` array of the words' letters."""
        return self._words.words

    def basis(self, s: int, t: int) -> list:
        """Cochains of bidegree ``(s, t)``: the indices of the words of
        length ``s`` and degree ``-t``, in word order."""
        bucket = self._words.buckets[s].get(-t)
        return [] if bucket is None else bucket.tolist()

    def t_range(self, s_levels=None):
        levels = range(self.levels + 1) if s_levels is None else s_levels
        return sorted({t for s, t in self._dims if s in levels})

    def delta(self, s: int, t: int | None = None) -> K.Sparse:
        """Matrix of the cochain differential C^{s,t} -> C^{s+1,t}, or
        without ``t`` of C^s -> C^{s+1} over every degree, on the words
        of each level numbered by degree (``_Words.index``), for ``0 <= s <
        levels``; any other ``s`` raises ``CapError``."""
        if not 0 <= s < self.levels:
            raise CapError(f"no cochain differential from level {s}: the complex "
                           f"stores levels 0 to {self.levels}")
        return (self._words.level(s + 1) if t is None else self._words.block(s + 1, -t)).T

    def _dim(self, s: int, t: int) -> int:
        """Dimension of ``C^{s,t}``."""
        return self._dims.get((s, t), 0)

    def verify_dd(self, first: K.Sparse, then: K.Sparse):
        """``d*d = 0`` on two consecutive whole levels, ``first = delta(s)``
        and ``then = delta(s + 1)``, by one product over every degree."""
        _check_dd("Hochschild cochain", first, then, self.p)

    @functools.cached_property
    def _ranks(self) -> _RankTable:
        """The ranks of every ``delta(s)`` in each word degree."""
        words = self._words
        return _RankTable("Hochschild cochain", self.p, (
            (s, self.delta(s), words.starts[s + 1], words.starts[s])
            for s in range(self.levels) if words.has_faces(s + 1)), 1, self.verify_dd)

    def cohomology_dim(self, s: int, t: int) -> int:
        """Dimension at ``(s, t)``, read off the rank table."""
        n = self._dim(s, t)
        if not n:
            return 0
        if s >= self.levels:
            raise CapError("cohomology requested at the top stored level")
        return self._ranks.homology(s, -t, n)


def hochschild_dims(A: MonomialAlgebra, M: AlgebraModule, s_max: int = 5,
                    cap: int | None = None) -> BigradedTable:
    """Hochschild cohomology HH^{s}(A, M) of a module M on which A acts
    trivially, computed two ways and compared.

    Route one is ``Ext_A(k, M)``; route two is the normalized cochain
    complex with coefficients k, tensored with M: ``dim M_md`` copies of
    its cohomology at ``(s, t)`` sit at ``(s, t + md)``, and a refusal
    names the map degree with M's lowest degree.  A module on which A acts
    is refused by route one, as in ``ext_dims`` (``ValidationError``).  Any
    entrywise mismatch raises ``CrossCheckError``.  Entries at ``(s, t)``,
    ``t`` the map degree.
    """
    shortcut = ext_dims(A, M, s_max=s_max, cap=cap if cap is not None else 0)
    mdims = M.space.dims
    try:
        hc = HochschildComplex(A, s_max + 1)
    except _OverBudget as err:
        raise _OverBudget(err.what, err.s, err.t + min(mdims, default=0), err.shape,
                          "lower --smax") from None
    direct_entries = Counter()
    for s, t in hc._dims:  # every nonzero cochain space
        if s <= s_max:
            h = hc.cohomology_dim(s, t)
            for md, width in mdims.items():
                direct_entries[(s, t + md)] += width * h
    direct = BigradedTable(direct_entries)
    if direct != shortcut:
        raise CrossCheckError(
            f"Hochschild routes disagree: shortcut {shortcut.entries} vs direct {direct.entries}"
        )
    return shortcut


# ---------------------------------------------------------------------------
# derivations


def derivations_dims(A, M: AlgebraModule, cap: int) -> GradedVectorSpace:
    """Dimensions of graded derivations A -> M per map degree.

    Solves the Leibniz system ``D(ab) = D(a) b + (-1)^{t|a|} a D(b)`` over
    all pairs of positive-degree basis elements with product degree inside
    the cap; the right action is the symmetric one.  The returned space is
    graded by map degree (possibly negative).
    """
    p = A.p
    basis_keys = []
    for d in range(1, cap + 1):
        for i, key in enumerate(A.basis(d)):
            basis_keys.append((d, key))
    t_values = set()
    for d, _ in basis_keys:
        for md in M.space.degrees():
            t_values.add(md - d)
    dims = {}
    for t in sorted(t_values):
        col_index = {}
        for d, key in basis_keys:
            for mi in range(M.space.dim(d + t)):
                col_index[(d, key, mi)] = len(col_index)
        if not col_index:
            continue
        # one block of rows per pair (a, b): D(ab) - D(a).b - (-1)^{t|a|} a.D(b)
        rows, cols, vals = [], [], []
        top = 0
        for (da, ka) in basis_keys:
            for (db, kb) in basis_keys:
                dd = da + db
                mdim = M.space.dim(dd + t)
                if dd > cap or not mdim:
                    continue
                for mon, sc in A.mul(ka, kb).items():
                    for mi in range(mdim):
                        ci = col_index.get((dd, mon, mi))
                        if ci is not None:
                            rows.append(top + mi)
                            cols.append(ci)
                            vals.append(sc)
                right = -1 if p != 2 and (db * (da + t)) % 2 else 1
                left = -1 if p != 2 and (t * da) % 2 else 1
                for (dc, kc), act, sgn in (((da, ka), kb, right), ((db, kb), ka, left)):
                    n = M.space.dim(dc + t)
                    _, img = M.act_monomial(act, dc + t, np.eye(n, dtype=np.int64))
                    for r, mi in zip(*np.nonzero(img)):
                        rows.append(top + r)
                        cols.append(col_index[(dc, kc, mi)])
                        vals.append(-sgn * int(img[r, mi]))
                top += mdim
        # with no Leibniz rows (top == 0) every map of degree t is a derivation
        hdim = len(col_index)
        if top:
            hdim -= K.rank(_assemble((top, hdim), rows, cols, vals, p), p)
        if hdim:
            dims[t] = hdim
    return GradedVectorSpace(dims)


# ---------------------------------------------------------------------------
# associative Andre-Quillen assembly


class AQResult:
    def __init__(self, table: BigradedTable, verdict: ParityVerdict, notes):
        self.table = table
        self.verdict = verdict
        self.notes = notes


def _aq_refusal(err: _OverBudget, command: str, row: str, option: str) -> CapError:
    """The refusal of the Hochschild cochains an AQ table reads, in the
    table's terms: AQ row ``q`` is HH^{q + 1}, so the differential from level
    ``s`` is first needed by row ``s - 1``, every run reads HH^0 and HH^1,
    and ``option``, the highest row, fits up to ``s - 2``."""
    s = err.s
    return CapError(
        f"the Hochschild cochain differential from level {s} in map degree {err.t}, "
        f"which {f'{command} {row} {s - 1}' if s >= 2 else f'every {command} run'} needs, is "
        f"{err.shape[0]} x {err.shape[1]}, over the budget of {MAX_CHAIN_CELLS} cells; "
        f"{f'{option} {s - 2} is the largest that fits' if s >= 2 else f'no {option} fits'}")


def aq_ass_dims(A: MonomialAlgebra, M: AlgebraModule, cap: int = 12,
                s_max: int = 5) -> AQResult:
    """Associative Andre-Quillen table: derivations in row 0, shifted
    Hochschild above, with the parity verdict attached."""
    notes = []
    vdegs = [d for _, d in A.generators]
    if any(d % 2 == 0 for d in vdegs):
        notes.append("hypothesis violation: algebra generators not all odd")
    if any(d % 2 == 0 for d in M.space.degrees()):
        notes.append("hypothesis violation: module not concentrated in odd degrees")
    # Hochschild first: its refusals come before the Leibniz solve
    try:
        hh = hochschild_dims(A, M, s_max=s_max + 1, cap=cap)
    except _OverBudget as err:
        if err.what != "Hochschild cochain":
            raise
        raise _aq_refusal(err, "aq", "row", "--smax") from None
    der = derivations_dims(A, M, cap)
    entries = {}
    for t in der.degrees():
        entries[(0, t)] = der.dim(t)
    for (s, t), n in hh.items():
        if s >= 2 and s - 1 <= s_max:
            entries[(s - 1, t)] = n
    table = BigradedTable(entries)
    return AQResult(table, table.parity_verdict(), notes)


# ---------------------------------------------------------------------------
# Tor via the two-sided strand resolution


def tor_dims(A: MonomialAlgebra, M: ModuleViaMap, N: ModuleViaMap, cap: int) -> BigradedTable:
    """Tor^A(M, N): homology of the two-sided Koszul chains
    (``_KoszulChains``).  Entries at homological ``s`` and internal degree
    ``t``.
    """
    chains = _KoszulChains("two-sided Koszul", A, M, N, cap)
    entries = {}
    for t in range(0, cap + 1):
        for s, h in chains.homology(t, chains.max_s + 1).items():
            entries[(s, t)] = h
    return BigradedTable(entries)


# ---------------------------------------------------------------------------
# bar construction


def bar_homology_dims(A: MonomialAlgebra, cap: int, s_max: int | None = None) -> BigradedTable:
    """Homology of the normalized bar complex of the augmented algebra.

    Words are sequences of positive-degree basis monomials; the
    differential is the sum over merges of adjacent letters i - 1 and i
    with sign (-1)^i.  Entries at homological ``s`` and internal degree
    ``t`` (total degree ``t - s``); agrees with ``tor_dims(A, k, k)``
    wherever both are defined.  The words of degree at most ``cap`` are
    built once as an array word complex (``_Words``), so the chains of
    degree ``t`` are a bucket and the differential out of a level, over
    every degree, is a slice of a face table (``_Words.level``).  The
    levels are checked and ranked from the top down, each once and whole,
    as a ``K.Sparse`` matrix with no dense copy (``_RankTable``).  A
    differential of more than
    ``MAX_CHAIN_CELLS`` cells, counted from the letter degrees, raises
    ``CapError`` before any word is built.
    """
    p = A.p
    letters = [(mon, d) for d in range(1, cap + 1) for mon in A.basis(d)]
    degrees = [d for _, d in letters]
    hard_s_max = cap // max(min(degrees, default=1), 1)
    s_top = hard_s_max if s_max is None else min(s_max, hard_s_max)
    _check_cells("bar", {(s, t): n for s, counts in _word_counts(degrees, cap, s_top + 1)
                         for t, n in counts.items()}, -1)
    words = _Words(A, letters, s_top + 1, cap=cap)
    ranks = _RankTable("bar", p, ((s, words.level(s), words.starts[s - 1], words.starts[s])
                                  for s in range(s_top + 1, 0, -1) if words.has_faces(s)),
                       -1, functools.partial(_check_dd, "bar", p=p))
    entries = {}
    for t in range(0, cap + 1):
        for s in range(s_top + 1):
            n = words.count(s, t)
            if n and (h := ranks.homology(s, t, n)):
                entries[(s, t)] = h
    return BigradedTable(entries)
