"""Resolutions and derived functors over monomial graded-commutative algebras.

The strand calculus: every polynomial generator contributes a two-step
Koszul strand, every exponent-capped generator a periodic strand, and the
two-sided Koszul chains ``M (x) strands (x) N`` (``_KoszulChains``) are the
tensor product of strands with Koszul signs taken in the total (homological
plus internal) parity.  One function, ``_koszul_terms``, gives the signed
terms of every strand differential, and one chain builder serves Tor, the
Eilenberg-Moore model and the free resolution of the ground field:
``FreeResolution`` is the generator-level view of the chains with A on the
left and k on the right, where every term with a right coefficient
vanishes.  Both ``d*d = 0`` and degreewise exactness of the resolution (the
chains' homology is k at ``(0, 0)``) are checked at construction time inside
the trusted window.

Derived functors follow two independent routes wherever the statements
being verified demand it: Hochschild cohomology is computed from the
resolution shortcut ``Ext(k, k) (x) M`` and from the normalized cochain
complex, and any mismatch raises ``CrossCheckError``.

Every complex here (the resolution's exactness check, Ext, Hochschild,
Tor, bar) is built one internal degree at a time the same way.  A
differential between two listed bases is written by ``linalg._matrix``
from the image of each source element (``_KoszulChains``, for the
resolution's exactness check, Tor and the Eilenberg-Moore model); three are
not.
The bar and Hochschild cochain differentials are read off the array word
complex ``_Words``: its words are integer arrays indexed as a trie, and
one numpy face table per level, ordered by degree, gives each
differential's merges as a slice, which ``linalg._assemble`` writes.  The
resolution's ``d*d`` check discovers its rows as it goes, and Ext adds
whole blocks.  The shared step of ``linalg`` (``_homology``, with
``_check_dd`` and ``_RankOnce``) checks ``d*d = 0`` on every composable
pair, ranks each differential once and turns the ranks into homology
dimensions; the diagram builders and the Eilenberg-Moore model use the
same step.  A differential from or to a zero space is the zero map: it is
neither assembled, ranked nor checked.

Degree conventions: Ext/Hochschild/AQ tables store ``t`` = map degree
(target minus source); Tor/bar tables store ``t`` = internal degree of the
cycle, with the collapsed total-degree view given by ``t - s``.
"""

from __future__ import annotations

import math
import operator
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
    _homology,
    _matrix,
    _RankOnce,
    series_mul,
)
from .monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra
from .wordcomplex import _Words

# Largest top level |Abar|^levels a normalized cochain complex may have.
# Its word arrays, its face table and the dense differentials between
# degree buckets grow with it; the three-generator exterior algebra at
# ``aq --smax 4`` (7^6 = 117,649 words) fits, five generators (31^6) are
# refused up front.
MAX_COCHAIN_WORDS = 200_000

# Largest differential, in cells (rows x columns), that the Koszul chains may
# build: the free resolution's exactness check, Tor and the Eilenberg-Moore
# model.  Over six degree-2 generators the resolution's largest is 6,930 x
# 5,040 (35M cells, 280 MB as int64) at cap 16 and 19,305 x 15,840 at cap
# 20, which is refused up front.
MAX_CHAIN_CELLS = 50_000_000

# Largest number of bar words of one length and degree, the column count of
# a dense bar differential; the value of ``freelie.MAX_BUCKET_WORDS``.  The
# exterior algebra on (x1, y3) peaks at 3,762 words at cap 22.
MAX_BAR_BUCKET_WORDS = 4096


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
# one-sided resolution of the ground field


class FreeResolution:
    """Free resolution of k over A to stage ``s_max``: the generator-level
    view of the Koszul chains ``A (x) strands (x) k`` (``_KoszulChains``
    with A on the left and k on the right).

    ``stages[s]`` lists the symbol tuples of homological degree ``s`` (the
    generators of F_s) in ascending order and ``gen_degree[s]`` their
    internal degrees; ``diff[s][gi]`` lists the terms ``(target generator
    index, algebra element)`` of the differential of generator ``gi``.  They
    are the chains' terms; k kills every right coefficient, so no term with
    one is left.  Each term is twisted by the parity of its target's
    internal degree: with that twist the entry matrices square to zero
    plainly, so Hom/tensor functors can be applied without further signs.

    Validation checks ``d*d = 0`` on ``diff`` and that the chains' homology
    for ``s < s_max`` and internal degree up to ``cap`` is k at ``(0, 0)``.
    The twist and the chains' sign ``(-1)^{|b|}`` of an A-monomial ``b`` are
    diagonal sign changes of each k-linear differential (on ``b e_S`` in
    stage ``s``: ``(-1)^{|b|}`` for odd ``s``, ``(-1)^{|S|}`` for even
    ``s``), so the chains and the resolution have the same ranks.
    """

    def __init__(self, A, s_max: int, cap: int):
        self.A = A
        self.p = p = A.p
        self.s_max = int(s_max)
        self.cap = int(cap)
        chains = _KoszulChains(A, ModuleViaMap.identity(A),
                               ModuleViaMap.augmentation(A), s_max=self.s_max)
        _check_chain_cells("resolution", chains, self.cap)
        self.stages: list[list[tuple]] = chains.tuples
        self.gen_degree: list[dict[tuple, int]] = [
            {S: chains.degree[S] for S in stage} for stage in self.stages]
        index = {S: i for stage in self.stages for i, S in enumerate(stage)}

        def term(S2, sign, left):
            # twisted by the parity of the target's internal degree
            if p != 2 and chains.degree[S2] % 2:
                sign = -sign
            return index[S2], {m: sign * v % p for m, v in left.items()}

        self.diff: list[list[list]] = [
            [[term(S2, sign, left) for S2, sign, left, _ in chains.terms[S]] for S in stage]
            for stage in self.stages]
        self._validate_dd()
        for t in range(self.cap + 1):
            homology = chains.homology("resolution", t, self.s_max)
            inexact = [s for s in range(self.s_max)
                       if homology.get(s, 0) != (s == t == 0)]
            if inexact:
                raise CrossCheckError(f"resolution not exact at stage {inexact[0]}, degree {t}")

    def _validate_dd(self):
        """``d*d = 0`` in every degree: on each stage, ``d_s`` on the
        generators of F_s, then ``d_{s-1}`` on the terms it reaches."""
        for s in range(2, self.s_max + 1):
            mid, low = {}, {}
            rows, cols, vals = [], [], []
            for gi, terms in enumerate(self.diff[s]):
                for hj, coeff in terms:
                    for m, v in coeff.items():
                        rows.append(mid.setdefault((hj, m), len(mid)))
                        cols.append(gi)
                        vals.append(v)
            first = _assemble((len(mid), len(self.diff[s])), rows, cols, vals, self.p)
            rows, cols, vals = [], [], []
            for (hj, m), j in mid.items():
                for cc, coeff in self.diff[s - 1][hj]:
                    for mm, v in self.A.mul_elements({m: 1}, coeff).items():
                        rows.append(low.setdefault((cc, mm), len(low)))
                        cols.append(j)
                        vals.append(v)
            then = _assemble((len(low), len(mid)), rows, cols, vals, self.p)
            _check_dd("resolution", first, then, self.p)


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


def _check_chain_cells(what: str, chains, cap: int):
    """Refuse chains, up to internal degree ``cap``, with a differential of
    more than ``MAX_CHAIN_CELLS`` cells, before building any.  A chain space
    of degree at most ``cap`` has at most as many elements as its symbol
    tuples times the exponent vectors of B and C up to that degree; the
    sizes are counted only when this bound exceeds the budget."""
    monomials = math.prod(1 + (cap // deg if top is None else min(top, cap // deg))
                          for alg in (chains.B, chains.C)
                          for deg, top in zip(alg.degrees, alg.caps))
    tuples = [len(stage) for stage in chains.tuples]
    bound = max(map(operator.mul, tuples, tuples[1:]), default=0) * monomials ** 2
    if bound <= MAX_CHAIN_CELLS:
        return
    sizes = _chain_sizes(chains, cap)
    for s in range(1, len(sizes)):
        cells = list(map(operator.mul, sizes[s - 1], sizes[s]))
        if max(cells) > MAX_CHAIN_CELLS:
            t = cells.index(max(cells))
            raise CapError(
                f"the {what} differential from (s, t) = ({s}, {t}) is "
                f"{sizes[s - 1][t]} x {sizes[s][t]}, over the budget of "
                f"{MAX_CHAIN_CELLS} cells; lower the degree cap")


def koszul_resolution(A, cap: int, s_max: int = 8) -> FreeResolution:
    """Strand resolution of k over a polynomial/exterior/mixed/truncated algebra."""
    return FreeResolution(A, s_max, cap)


# ---------------------------------------------------------------------------
# Ext


def ext_dims(A, M: AlgebraModule, s_max: int = 8, cap: int | None = None) -> BigradedTable:
    """Dimensions of Ext_A(k, M): cohomology of Hom_A(resolution, M).

    Entries sit at ``(s, t)`` with ``t`` the map degree (value degree minus
    resolution-generator degree).
    """
    val_cap = cap if cap is not None else max([0] + [d for d in M.space.degrees()])
    res = FreeResolution(A, s_max + 1, max(val_cap, 0))
    p = A.p

    def layout(s, t):
        """Start and width of each generator's block in Hom(F_s, M) of map
        degree t, and the total dimension."""
        out, n = [], 0
        for g in res.stages[s]:
            width = M.space.dim(res.gen_degree[s][g] + t)
            out.append((n, width))
            n += width
        return out, n

    def delta(s, t, src, tgt):
        (src, n_src), (tgt, n_tgt) = src, tgt
        mat = np.zeros((n_tgt, n_src), dtype=np.int64)
        for h, (r0, rows), terms in zip(res.stages[s + 1], tgt, res.diff[s + 1]):
            if not rows:
                continue
            for b, coeff in terms:
                c0, cols = src[b]
                if not cols:
                    continue
                dg = res.gen_degree[s][res.stages[s][b]] + t
                cdeg = res.gen_degree[s + 1][h] + t - dg
                sign = -1 if (cdeg * t) % 2 and p != 2 else 1
                _, block = M.act_element(coeff, dg, np.eye(cols, dtype=np.int64))
                mat[r0: r0 + rows, c0: c0 + cols] += sign * block
        return mat % p

    t_values = set()
    for s in range(s_max + 1):
        for g in res.stages[s]:
            for d in M.space.degrees():
                t_values.add(d - res.gen_degree[s][g])
    entries = {}
    for t in sorted(t_values):
        lay = [layout(s, t) for s in range(s_max + 2)]
        d = {s: delta(s, t, lay[s], lay[s + 1]) for s in range(s_max + 1)}
        sizes = {s: lay[s][1] for s in range(s_max + 1)}
        for s, h in _homology("Ext", sizes, d, p).items():
            entries[(s, t)] = h
    return BigradedTable(entries)


def trivial_module(A, degree: int = 0, dim: int = 1) -> AlgebraModule:
    return AlgebraModule.trivial(A, GradedVectorSpace({degree: dim}))


# ---------------------------------------------------------------------------
# Hochschild cohomology (two routes)


class HochschildComplex:
    """Normalized cochain complex Hom(Abar^{(x) s}, M) of a finite algebra.

    Requires every generator exponent-capped so that Abar is finite
    dimensional.  Cochain bidegrees are ``(s, t)`` with ``t`` the map
    degree; the differential uses the symmetric bimodule structure.

    The words of every level are built once as an array word complex
    (``_Words``), and the dimension of every ``C^{s,t}`` is counted from
    its degree buckets.  ``C^{s,t}`` holds, word by word in word order, the
    words of degree ``md - t`` for the module degrees ``md``, each with the
    ``dim M_md`` basis vectors of M (``_Layout``).  In ``delta`` the middle
    terms are the face table's slice of word degree ``md - t``, and the
    left and right action terms gather the action block of each (letter,
    module degree), computed once, over the words by their first and last
    letters.  Each differential is assembled and ranked once per
    ``(s, t)``, and none from or to a zero space is built.  A top level of
    more than ``MAX_COCHAIN_WORDS`` words raises ``CapError`` before any
    word is built.
    """

    def __init__(self, A: MonomialAlgebra, M: AlgebraModule, levels: int):
        if not A.is_finite_dimensional():
            raise ValidationError("normalized cochains need a finite-dimensional algebra")
        self.A = A
        self.M = M
        self.p = A.p
        self.levels = int(levels)
        top = A.top_degree()
        self.abar = [(mon, d) for d in range(1, top + 1) for mon in A.basis(d)]
        if len(self.abar) ** self.levels > MAX_COCHAIN_WORDS:
            raise CapError(
                f"{len(self.abar)}^{self.levels} cochain words exceed the budget of "
                f"{MAX_COCHAIN_WORDS}; lower --smax"
            )
        self._words = _Words(A, self.abar, self.levels)
        self.word_index = self._words.find
        self.abar_index = self._words.letter_index
        self._mdims = {md: M.space.dim(md) for md in M.space.degrees()}
        self._acts = any(mp.blocks for mp in M.action.values())
        self._dims: dict[tuple[int, int], int] = Counter()
        for s, buckets in enumerate(self._words.buckets):
            for wd, ws in buckets.items():
                for md, width in self._mdims.items():
                    self._dims[(s, md - wd)] += width * len(ws)
        self._basis_cache = {}
        self._delta_cache = {}
        self._action_cache = {}
        self._ranks: dict[int, _RankOnce] = {}

    @property
    def words(self) -> list:
        """Per level, the ``(n, s)`` array of the words' letters."""
        return self._words.words

    def basis(self, s: int, t: int):
        """Cochains ``(word index, module degree, module index)`` in word order."""
        key = (s, t)
        if key not in self._basis_cache:
            buckets = self._words.buckets[s]
            self._basis_cache[key] = sorted(
                (wi, md, mi) for md, width in self._mdims.items() if md - t in buckets
                for wi in buckets[md - t].tolist() for mi in range(width))
        return self._basis_cache[key]

    def t_range(self, s_levels=None):
        levels = range(self.levels + 1) if s_levels is None else s_levels
        return sorted({t for s, t in self._dims if s in levels})

    def _action(self, li: int, d: int):
        """Letter ``li`` acting from module degree ``d``: the nonzero
        entries ``(ni, mi, value)`` of its block."""
        key = (li, d)
        if key not in self._action_cache:
            eye = np.eye(self.M.space.dim(d), dtype=np.int64)
            _, img = self.M.act_monomial(self.abar[li][0], d, eye)
            ni, mi = np.nonzero(img)
            self._action_cache[key] = ni, mi, img[ni, mi]
        return self._action_cache[key]

    def delta(self, s: int, t: int) -> np.ndarray:
        """Matrix of the cochain differential C^{s,t} -> C^{s+1,t}."""
        key = (s, t)
        if key in self._delta_cache:
            return self._delta_cache[key]
        n_src, n_tgt = self._dim(s, t), self._dim(s + 1, t)
        if not (n_src and n_tgt):
            return np.zeros((n_tgt, n_src), dtype=np.int64)
        W = self._words
        src, tgt = _Layout(W, s, t, self._mdims), _Layout(W, s + 1, t, self._mdims)
        terms = []
        for md, ws in tgt.blocks.items():
            width = self._mdims[md]
            # middle merges: the face table's rows of word degree md - t
            f_src, merged, value = W.face_rows(s + 1, md - t)
            rows, cols = tgt.start(f_src), src.start(merged)
            if width > 1:
                diag = np.arange(width)
                rows, cols, value = _spread(rows, cols, value,
                                            (diag, diag, np.ones(width, dtype=np.int64)))
            terms.append((rows, cols, value))
            if self._acts:
                terms.extend(self._action_terms(s, t, md, ws, src, tgt))
        rows, cols, vals = (np.concatenate(c) for c in zip(*terms))
        mat = _assemble((n_tgt, n_src), rows, cols, vals, self.p)
        self._delta_cache[key] = mat
        return mat

    def _action_terms(self, s, t, md, ws, src, tgt):
        """Left and right action terms of ``delta(s, t)`` on the target
        words ``ws`` of module degree ``md``: the letter ``a`` first (last)
        in a word acts on the cochain of its tail (its prefix), from module
        degree ``md - |a|``."""
        p, W = self.p, self._words
        right_sign = -1 if (s + 1) % 2 else 1
        ends = ((W.words[s + 1][ws, 0], W.tails(s + 1)[ws]),
                (W.last[s + 1][ws], W.parent[s + 1][ws]))
        for a, (_, da) in enumerate(self.abar):
            dmu = md - da
            block = self._action(a, dmu) if dmu in src.blocks else ((), (), ())
            if not len(block[2]):
                continue
            left = -1 if p != 2 and (da * t) % 2 else 1
            right = -right_sign if p != 2 and (da * dmu) % 2 else right_sign
            for (letters, below), sign in zip(ends, (left, right)):
                hit = np.flatnonzero(letters == a)
                yield _spread(tgt.start(ws[hit]), src.start(below[hit]),
                              np.full(len(hit), sign), block)

    def _dim(self, s: int, t: int) -> int:
        """Dimension of ``C^{s,t}``."""
        return self._dims.get((s, t), 0)

    def _ranks_of(self, t: int) -> _RankOnce:
        """The ranks of the differentials of map degree ``t``; a map from or
        to a zero space is the zero map (``None``)."""
        if t not in self._ranks:
            self._ranks[t] = _RankOnce(
                lambda k: self.delta(k, t) if k >= 0 and self._dim(k, t)
                and self._dim(k + 1, t) else None, self.p, 1)
        return self._ranks[t]

    def verify_dd(self, s: int, t: int):
        """``d*d = 0`` from ``C^{s,t}``, unless one of the three spaces is
        zero; once it passes, the rank of ``delta(s + 1, t)`` clears with the
        lows of ``delta(s, t)``."""
        if self._dim(s, t) and self._dim(s + 1, t) and self._dim(s + 2, t):
            self._ranks_of(t).check("Hochschild cochain", s)

    def cohomology_dim(self, s: int, t: int) -> int:
        """Dimension at ``(s, t)``; ``verify_dd`` checks the differentials."""
        n = self._dim(s, t)
        if not n:
            return 0
        if s >= self.levels:
            raise CapError("cohomology requested at the top stored level")
        return _homology("Hochschild cochain", {s: n}, {}, self.p,
                         ranks=self._ranks_of(t)).get(s, 0)

    def _forget(self, t: int):
        """Drop the differentials of map degree ``t``; their ranks stay."""
        for key in [key for key in self._delta_cache if key[1] == t]:
            del self._delta_cache[key]


class _Layout:
    """Where the cochains of a nonzero ``C^{s,t}`` sit: word by word in
    word order, each word of degree ``d`` with the ``dim M_{d + t}`` basis
    vectors of M.  ``blocks`` maps a module degree to its words (a degree
    bucket) and ``words`` lists all of them in word order."""

    def __init__(self, W: _Words, s: int, t: int, mdims: dict):
        buckets = W.buckets[s]
        self.blocks = {md: buckets[md - t] for md in mdims if md - t in buckets}
        words = np.concatenate(list(self.blocks.values()))
        width = np.array([mdims[md] for md in self.blocks]).repeat(
            [len(ws) for ws in self.blocks.values()])
        if len(self.blocks) > 1:
            order = words.argsort()
            words, width = words[order], width[order]
        self.words = words
        self._starts = np.add.accumulate(width) - width

    def start(self, words) -> np.ndarray:
        """Index of the first cochain of each of ``words``."""
        return self._starts[self.words.searchsorted(words)]


def _spread(rows, cols, vals, block):
    """Triples of ``vals[k] * block`` with its corner at ``(rows[k],
    cols[k])``, for a block given by its entries ``(ni, mi, value)``."""
    ni, mi, bv = block
    return ((rows[:, None] + ni).ravel(), (cols[:, None] + mi).ravel(),
            (vals[:, None] * bv).ravel())


def hochschild_dims(A: MonomialAlgebra, M: AlgebraModule, s_max: int = 5,
                    cap: int | None = None, check: bool = True) -> BigradedTable:
    """Hochschild cohomology HH^{s}(A, M), computed two ways and compared.

    Route one tensors ``Ext_A(k, k)`` with M (valid for symmetric bimodules,
    where the twisted module structure is trivial); route two is the
    normalized cochain complex.  Any entrywise mismatch raises
    ``CrossCheckError``.  Entries at ``(s, t)``, ``t`` the map degree.
    """
    p = A.p
    ext_table = ext_dims(A, trivial_module(A), s_max=s_max,
                         cap=cap if cap is not None else 0)
    entries: dict[tuple, int] = {}
    for (s, te), n in ext_table.items():
        for d in M.space.degrees():
            key = (s, te + d)
            entries[key] = entries.get(key, 0) + n * M.space.dim(d)
    shortcut = BigradedTable(entries)
    if not check:
        return shortcut
    hc = HochschildComplex(A, M, s_max + 1)
    direct_entries = {}
    for t in hc.t_range(range(s_max + 1)):
        for s in range(s_max):
            hc.verify_dd(s, t)
        for s in range(s_max + 1):
            h = hc.cohomology_dim(s, t)
            if h:
                direct_entries[(s, t)] = h
        hc._forget(t)
    direct = BigradedTable(direct_entries)
    if direct != shortcut.restrict(s_max=s_max):
        raise CrossCheckError(
            "Hochschild routes disagree: "
            f"shortcut {shortcut.restrict(s_max=s_max).entries} vs direct {direct.entries}"
        )
    return shortcut.restrict(s_max=s_max)


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

    def to_json(self):
        return {
            "table": self.table.to_json(),
            "parity": self.verdict.to_json(),
            "notes": self.notes,
        }


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
    der = derivations_dims(A, M, cap)
    hh = hochschild_dims(A, M, s_max=s_max + 1, cap=cap)
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


class _KoszulChains:
    """The chains ``M (x) strands (x) N`` of the two-sided Koszul complex,
    for algebra maps ``M: A -> B`` and ``N: A -> C``, up to internal degree
    ``cap`` (Tor, the Eilenberg-Moore model) or homological degree ``s_max``
    (the resolution).  The differential is
    ``d(b (x) e_S (x) c) = (-1)^{|b|} sum sign * b M(g^le) (x) e_S2 (x) N(g^re) c``
    over the terms of ``_koszul_terms``.

    ``tuples[s]`` lists the strand symbol tuples of homological degree
    ``s`` within the bound in ascending order, and ``degree`` maps each to
    its internal degree; ``terms[S]`` lists ``(S2, sign, left image, right
    image)`` for each term of ``d(e_S)`` whose images are nonzero, with
    ``None`` for the unit image of a zero exponent.  A chain is ``(S,
    monomial of B, monomial of C)``; ``basis(s, t)`` lists those of
    homological degree ``s`` and internal degree ``t``.
    """

    def __init__(self, A: MonomialAlgebra, M: ModuleViaMap, N: ModuleViaMap,
                 cap: int | None = None, s_max: int | None = None):
        self.p = A.p
        self.B, self.C = B, C = M.target, N.target
        strands = _strands(A)
        # a symbol's internal degree is at least its homological degree
        s_top = cap if s_max is None else s_max
        t_top = cap if cap is not None else float("inf")

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
        self._pairs: list[list] = []
        self._basis: dict[tuple[int, int], list] = {}

    def _pairs_to(self, t: int) -> list:
        """Per degree ``d <= t``, the pairs ``(monomial of B, monomial of
        C)`` of total degree ``d``."""
        B, C, pairs = self.B, self.C, self._pairs
        for d in range(len(pairs), t + 1):
            out = []
            for dm in range(d + 1):
                cs = C.basis(d - dm)
                out.extend((bm, cn) for bm in B.basis(dm) for cn in cs)
            pairs.append(out)
        return pairs

    def basis(self, s: int, t: int) -> list:
        """Chains ``(S, monomial of B, monomial of C)`` in bidegree ``(s, t)``."""
        key = (s, t)
        if key not in self._basis:
            pairs, degree = self._pairs_to(t), self.degree
            tuples = self.tuples[s] if 0 <= s < len(self.tuples) else ()
            self._basis[key] = [(S, bm, cn) for S in tuples if degree[S] <= t
                                for bm, cn in pairs[t - degree[S]]]
        return self._basis[key]

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

    def differential(self, s: int, t: int) -> np.ndarray:
        """Matrix of ``d: basis(s, t) -> basis(s - 1, t)``."""
        return _matrix(self.basis(s, t), self.basis(s - 1, t), self.image, self.p)

    def homology(self, what: str, t: int, top: int) -> dict[int, int]:
        """Homology ``{s: dim}`` in internal degree ``t`` for ``s < top``,
        from the differentials out of ``s = 1 .. top``; one from or to a
        zero space is the zero map and is not built."""
        sizes = {s: len(self.basis(s, t)) for s in range(top + 1)}
        d = {s: self.differential(s, t) for s in range(1, top + 1)
             if sizes[s] and sizes[s - 1]}
        del sizes[top]
        return _homology(what, sizes, d, self.p, step=-1)


def tor_dims(A: MonomialAlgebra, M: ModuleViaMap, N: ModuleViaMap, cap: int) -> BigradedTable:
    """Tor^A(M, N): homology of the two-sided Koszul chains
    (``_KoszulChains``).  Entries at homological ``s`` and internal degree
    ``t``.
    """
    chains = _KoszulChains(A, M, N, cap=cap)
    _check_chain_cells("two-sided Koszul", chains, cap)
    entries = {}
    for t in range(0, cap + 1):
        for s, h in chains.homology("two-sided Koszul", t, chains.max_s + 1).items():
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
    degree ``t`` are a bucket and each differential is a slice of a face
    table, assembled and ranked once.  A cap under which one bucket would
    hold more than ``MAX_BAR_BUCKET_WORDS`` words raises ``CapError``
    before any word is built.
    """
    p = A.p
    letters = [(mon, d) for d in range(1, cap + 1) for mon in A.basis(d)]
    min_deg = min((d for _, d in letters), default=1)
    hard_s_max = cap // max(min_deg, 1)
    s_top = hard_s_max if s_max is None else min(s_max, hard_s_max)
    _check_bar_words([d for _, d in letters], cap, s_top + 1)
    words = _Words(A, letters, s_top + 1, cap=cap)

    def block(s, t):
        """The bar differential from length ``s`` to ``s - 1`` in degree
        ``t``, on the two buckets: a slice of the face table."""
        f_src, merged, value = words.face_rows(s, t)
        return _assemble((words.count(s - 1, t), words.count(s, t)),
                         words.pos[s - 1][merged], words.pos[s][f_src], value, p)

    entries = {}
    for t in range(0, cap + 1):
        sizes = {s: words.count(s, t) for s in range(s_top + 1)}
        # a map without faces in degree t is the zero matrix: it is left out,
        # so it is not ranked and no vacuous d*d product is formed with it
        # (every map from or to a zero space is one of them)
        d = {s: block(s, t) for s in range(1, s_top + 2) if words.has_faces(s, t)}
        for s, h in _homology("bar", sizes, d, p, step=-1).items():
            entries[(s, t)] = h
    return BigradedTable(entries)


def _check_bar_words(letter_degrees, cap: int, levels: int):
    """Refuse bar words of length at most ``levels`` and degree at most
    ``cap`` when some (length, degree) bucket would hold more than
    ``MAX_BAR_BUCKET_WORDS`` of them.  The words are counted from the letter
    degrees, not built."""
    letters = np.bincount(np.array(letter_degrees, dtype=np.int64), minlength=cap + 1)
    layer = np.zeros(cap + 1, dtype=np.int64)  # words of the current length, by degree
    layer[0] = 1
    for s in range(1, levels + 1):
        # exact in int64: every count of the length before is within the budget
        layer = np.convolve(layer, letters)[: cap + 1]
        t = int(layer.argmax())
        if layer[t] > MAX_BAR_BUCKET_WORDS:
            raise CapError(
                f"{layer[t]} bar words of length {s} in degree {t} exceed the "
                f"budget of {MAX_BAR_BUCKET_WORDS}; lower the degree cap"
            )
