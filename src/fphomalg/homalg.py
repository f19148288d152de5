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
vanishes.  Its minimality (no coefficient of degree 0), ``d*d = 0`` on its
generators and degreewise exactness (the chains' homology is k at
``(0, 0)``) are checked at construction time inside the trusted window.
Ext into a trivial module is read off the minimal resolution: its Hom
complex has the zero differential, so nothing is assembled or ranked.

Derived functors follow two independent routes wherever the statements
being verified demand it: Hochschild cohomology with coefficients in a
module M on which A acts trivially is computed from the resolution
shortcut ``Ext_A(k, M)`` (``ext_dims``) and from the normalized cochain
complex with coefficients k, the dual of the bar complex, tensored with M
afterwards, and any mismatch raises ``CrossCheckError``.  A module on
which A acts is refused.

Every other complex here (the resolution's exactness check, Hochschild,
Tor, bar) is built one internal degree at a time the same way.  A
differential between two listed bases is written by ``linalg._matrix``
from the image of each source element (``_KoszulChains``, for the
resolution's exactness check, Tor and the Eilenberg-Moore model); two are
not.
The bar and Hochschild cochain differentials are read off the array word
complex ``_Words``: its words are integer arrays indexed as a trie, and
one numpy face table per level, ordered by degree and then by source,
gives each differential's merges as a slice, ``_Words.block``, a
``_kernels.Sparse`` matrix sorted by column.  A bar differential is that
slice and a cochain differential the same slice transposed; both are
ranked and checked without a dense copy.  The
shared step of ``linalg`` (``_homology``, with ``_check_dd`` and
``_RankOnce``) checks ``d*d = 0`` on every composable pair, ranks each
differential once and turns the ranks into homology dimensions; the
diagram builders and the Eilenberg-Moore model use the same step.  A
differential from or to a zero space is the zero map: it is neither
assembled, ranked nor checked.

Degree conventions: Ext/Hochschild/AQ tables store ``t`` = map degree
(target minus source); Tor/bar tables store ``t`` = internal degree of the
cycle, with the collapsed total-degree view given by ``t - s``.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import Counter

import numpy as np

from . import _kernels as K
from .errors import CapError, CrossCheckError, ValidationError
from .linalg import (
    BigradedTable,
    GradedVectorSpace,
    ParityVerdict,
    _assemble,
    _homology,
    _matrix,
    _RankOnce,
    series_mul,
)
from .monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra
from .wordcomplex import _word_counts, _Words

# Largest differential, in cells (rows x columns), that the Koszul chains
# (resolution, Tor, Eilenberg-Moore model), bar and Hochschild cochains may
# have.  Over six degree-2 generators the resolution's largest is 6,930 x
# 5,040 (35M cells) at cap 16 and 19,305 x 15,840 at cap 20, which is
# refused up front.  It counts cells, not bytes: only the Koszul chains'
# differentials (and the diagram layer's, which no budget counts) are
# dense, and a dense run has peaked near 57 bytes a cell (assembly, the
# rank's copies, the float64 d*d product).  No bar or Hochschild cochain
# differential is written densely; for them the budget bounds the dense
# hand-off of ``K.rank`` to ``rref`` and the ``Subquotient``s of diagram AQ.
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
# one-sided resolution of the ground field


class FreeResolution:
    """Minimal free resolution of k over A to stage ``s_max``: the
    generator-level view of the Koszul chains ``A (x) strands (x) k``
    (``_KoszulChains`` with A on the left and k on the right).

    ``stages[s]`` lists the symbol tuples of homological degree ``s`` (the
    generators of F_s) in ascending order and ``gen_degree[s]`` their
    internal degrees.  The differential of a generator ``e_S`` is the
    chains' ``terms[S]``; k kills every right coefficient, so no term with
    one is left.

    Validation checks that the resolution is minimal (every coefficient
    has positive degree, so ``Hom_A(F, k)`` has the zero differential),
    ``d*d = 0`` on the generators, and that the chains' homology for
    ``s < s_max`` and internal degree up to ``cap`` is k at ``(0, 0)``.
    """

    def __init__(self, A, s_max: int, cap: int):
        self.A = A
        self.p = A.p
        self.s_max = int(s_max)
        self.cap = int(cap)
        chains = _KoszulChains(A, ModuleViaMap.identity(A),
                               ModuleViaMap.augmentation(A), s_max=self.s_max)
        _check_chain_cells("resolution", chains, self.cap)
        self.stages: list[list[tuple]] = chains.tuples
        self.gen_degree: list[dict[tuple, int]] = [
            {S: chains.degree[S] for S in stage} for stage in self.stages]
        if any(left is None or not all(map(A.deg, left))
               for terms in chains.terms.values() for _, _, left, _ in terms):
            raise CrossCheckError("resolution is not minimal: a coefficient has degree 0")
        self._validate_dd(chains)
        for t in range(self.cap + 1):
            homology = chains.homology("resolution", t, self.s_max)
            inexact = [s for s in range(self.s_max)
                       if homology.get(s, 0) != (s == t == 0)]
            if inexact:
                raise CrossCheckError(f"resolution not exact at stage {inexact[0]}, degree {t}")

    def _validate_dd(self, chains):
        """``d*d = 0`` in every degree: the chains' differential applied
        twice to each generator ``e_S`` of stage 2 and up."""
        unit = (self.A.one(), chains.C.one())
        for stage in self.stages[2:]:
            for S in stage:
                twice = Counter()
                for b, c in chains.image((S, *unit)):
                    for b2, c2 in chains.image(b):
                        twice[b2] += c * c2
                if any(v % self.p for v in twice.values()):
                    raise CrossCheckError("resolution differential fails d*d = 0")


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


def _check_chain_cells(what: str, chains, cap: int):
    """``_check_cells`` on chains up to internal degree ``cap``.  A chain
    space of degree at most ``cap`` has at most as many elements as its
    symbol tuples times the exponent vectors of B and C up to that degree;
    the sizes are counted only when this bound exceeds the budget."""
    monomials = math.prod(1 + (cap // deg if top is None else min(top, cap // deg))
                          for alg in (chains.B, chains.C)
                          for deg, top in zip(alg.degrees, alg.caps))
    tuples = [len(stage) for stage in chains.tuples]
    bound = max(map(operator.mul, tuples, tuples[1:]), default=0) * monomials ** 2
    if bound > MAX_CHAIN_CELLS:
        _check_cells(what, {(s, t): n for s, row in enumerate(_chain_sizes(chains, cap))
                            for t, n in enumerate(row)}, -1)


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
    res = FreeResolution(A, s_max + 1, max(val_cap, 0))
    entries = Counter()
    for s in range(s_max + 1):
        for deg in res.gen_degree[s].values():
            for d in M.space.degrees():
                entries[(s, d - deg)] += M.space.dim(d)
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
    ``delta(s, t)`` is the bar differential out of level ``s + 1`` in word
    degree ``-t`` (``_Words.block``), transposed: a ``K.Sparse`` matrix,
    never written densely.  Each differential is ranked once, and none from
    or to a zero space is ranked or checked.
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
        self._ranks: dict[int, _RankOnce] = {}

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

    def delta(self, s: int, t: int) -> K.Sparse:
        """Matrix of the cochain differential C^{s,t} -> C^{s+1,t}."""
        return self._words.block(s + 1, -t).T

    def _dim(self, s: int, t: int) -> int:
        """Dimension of ``C^{s,t}``."""
        return self._dims.get((s, t), 0)

    def _ranks_of(self, t: int) -> _RankOnce:
        """The ranks of the differentials of map degree ``t``; a map from or
        to a zero space is the zero map (``None``).  The ranks reach the
        complex by a weak proxy: they live in ``self._ranks``, and a strong
        reference would leave every complex in a cycle that only the cyclic
        garbage collector frees."""
        if t not in self._ranks:
            hc = weakref.proxy(self)
            self._ranks[t] = _RankOnce(
                lambda k: hc.delta(k, t) if k >= 0 and hc._dim(k, t)
                and hc._dim(k + 1, t) else None, self.p, 1)
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
    for t in hc.t_range(range(s_max + 1)):
        for s in range(s_max):
            hc.verify_dd(s, t)
        for s in range(s_max + 1):
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
    table (``_Words.block``), checked and ranked once as a ``K.Sparse``
    matrix with no dense copy.  A differential of more than
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
    entries = {}
    for t in range(0, cap + 1):
        sizes = {s: words.count(s, t) for s in range(s_top + 1)}
        # a map without faces in degree t is the zero matrix: it is left out,
        # so it is not ranked and no vacuous d*d product is formed with it
        # (every map from or to a zero space is one of them)
        d = {s: words.block(s, t) for s in range(1, s_top + 2) if words.has_faces(s, t)}
        for s, h in _homology("bar", sizes, d, p, step=-1).items():
            entries[(s, t)] = h
    return BigradedTable(entries)
