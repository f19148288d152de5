"""Free shifted restricted Lie algebras realized in the tensor algebra.

A generator of (cohomological) degree ``n`` is realized as a letter of
shifted degree ``n - 1``; words live in the tensor algebra on the
desuspended generators, where the degree ``-1`` bracket becomes the graded
commutator ``[a, b] = ab - (-1)^{s(a) s(b)} ba`` on shifted degrees and the
restriction becomes the p-th tensor power.  Everything downstream is exact
arithmetic mod p.  A word is ``bytes``, one letter index per byte: bytes
compare as the tuples of their letters do (lexicographically, a prefix
first), so every lowest word and sort is the tuples', while a bytes object
caches its hash and compares by memcmp, which makes the word lookups of
products, reductions and spans cheap.  The public constructors of ``TensorElement`` check
homogeneity; sums, scalings, products, brackets and powers carry the shifted
degree over from their inputs.  Every product keeps its coefficients reduced
mod p as it is summed, one word pair at a time, and stores no zero.

Two independent routes to the dimensions of the free algebras coexist:

* symbol counting: Lyndon words (necklace counts per multidegree) plus
  self-brackets ``[b, b]`` for odd p on even-degree symbols, plus the
  restriction tower of each (``restriction_tower``, the one walk of
  ``d -> p d - p + 1``, shared with the restricted basis and ``w1``);
* brute-force closure oracles inside the tensor algebra: the span of the
  generators closed under brackets (and p-th powers), kept per bidegree
  (shifted degree, weight) as one sparse echelon form keyed by lowest word
  and grown in rounds, each bracketing the generators with the columns the
  round before stored (right-normed brackets span a Lie algebra) and
  reducing each candidate against its bidegree's echelon form once.

The basis builders realize each Lyndon element as one bracket of its
standard factors' elements, check the realizations' independence by rank,
cross-check the two routes and raise ``CrossCheckError`` on any
disagreement instead of trusting either side.  The closure oracles walk
no tower, so they stay independent of every count that shares it.  Caps
under which some bidegree holds more than ``wordcomplex.MAX_BUCKET_WORDS``
words are refused up front (``wordcomplex._over_budget``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from . import wordcomplex
from .errors import (
    AlphabetError,
    CapError,
    CrossCheckError,
    ParityDomainError,
    ValidationError,
)
from .linalg import GradedVectorSpace, PrimeField, json_int

DEFAULT_WEIGHT_CAP = 10
MAX_GENERATORS = 4
# Most words, over all buckets, in the window of ``check_restricted_counts``:
# a run-time check should cost little next to the command it checks.  x3, y4
# reach degree 23 (about 7 ms); x2, y3 reach degree 14.
MAX_CHECK_WORDS = 1024


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError(f"generator {self.name!r} must have degree >= 1")


def parse_generators(obj) -> list[Generator]:
    """Read ``[{"name": "x", "degree": 2}, ...]``."""
    gens = [Generator(str(g["name"]), json_int(g["degree"], f"degree of {g['name']!r}"))
            for g in obj]
    names = [g.name for g in gens]
    if len(set(names)) != len(names):
        raise ValidationError("generator names must be unique")
    return gens


class Alphabet:
    """Ordered generator list with its prime, shared by tensor elements."""

    def __init__(self, gens, p: int):
        self.p = PrimeField(p).p
        self.gens = tuple(gens)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be unique")
        if not self.gens:
            raise ValidationError("empty generator list")
        if len(self.gens) > MAX_GENERATORS:
            raise CapError(f"at most {MAX_GENERATORS} generators supported")
        self.names = tuple(names)
        self.vdegs = tuple(g.degree for g in self.gens)
        self.wdegs = tuple(g.degree - 1 for g in self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and other.p == self.p
            and other.names == self.names
            and other.vdegs == self.vdegs
        )

    def __hash__(self):
        return hash((self.p, self.names, self.vdegs))

    def word_sdeg(self, word) -> int:
        return sum(self.wdegs[i] for i in word)

    def word_str(self, word) -> str:
        return "".join(self.names[i] for i in word) if word else "1"


class TensorElement:
    """Homogeneous F_p-linear combination of words in the shifted letters."""

    __slots__ = ("alphabet", "terms", "sdeg")

    def __init__(self, alphabet: Alphabet, terms):
        self.alphabet = alphabet
        p = alphabet.p
        self.terms = clean = {bytes(w): c % p for w, c in terms.items() if c % p}
        sdegs = {alphabet.word_sdeg(w) for w in clean}
        if len(sdegs) > 1:
            raise ValidationError("tensor element is not homogeneous")
        self.sdeg = sdegs.pop() if sdegs else None

    @classmethod
    def _trusted(cls, alphabet, terms, sdeg):
        """Element on ``terms`` already reduced mod p (no zero coefficient)
        whose words all have shifted degree ``sdeg``; nothing is re-checked."""
        e = cls.__new__(cls)
        e.alphabet, e.terms, e.sdeg = alphabet, terms, sdeg if terms else None
        return e

    @classmethod
    def zero(cls, alphabet):
        return cls._trusted(alphabet, {}, None)

    @classmethod
    def from_generator(cls, alphabet, name):
        return cls(alphabet, {bytes([alphabet.names.index(name)]): 1})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def v_degree(self):
        """Unshifted degree: shifted degree plus one."""
        return None if self.sdeg is None else self.sdeg + 1

    def _check(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetError("elements over different alphabets or primes")

    def __add__(self, other):
        self._check(other)
        if self.terms and other.terms and self.sdeg != other.sdeg:
            raise ValidationError("tensor element is not homogeneous")
        p = self.alphabet.p
        terms = dict(self.terms)
        for w, c in other.terms.items():
            c = (terms.get(w, 0) + c) % p
            if c:
                terms[w] = c
            else:
                del terms[w]
        sdeg = self.sdeg if self.terms else other.sdeg
        return TensorElement._trusted(self.alphabet, terms, sdeg)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        p = self.alphabet.p
        c %= p
        terms = {w: v * c % p for w, v in self.terms.items()} if c else {}
        return TensorElement._trusted(self.alphabet, terms, self.sdeg)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and other.alphabet == self.alphabet
            and other.terms == self.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            bits.append(f"{c}*{self.alphabet.word_str(w)}" if c != 1 else self.alphabet.word_str(w))
        return " + ".join(bits)


def _add_product(terms, a, b, c, p):
    """Add ``c`` (nonzero mod p) times ``a b`` into the reduced ``terms``,
    reducing each sum mod p as it is added and dropping a word at 0."""
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            s = (terms.get(w, 0) + c * c1 * c2) % p
            if s:
                terms[w] = s
            else:
                del terms[w]
    return terms


def tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Concatenation product, bilinear over F_p."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        return TensorElement.zero(a.alphabet)
    terms = _add_product({}, a, b, 1, a.alphabet.p)
    return TensorElement._trusted(a.alphabet, terms, a.sdeg + b.sdeg)


def shifted_bracket(a: TensorElement, b: TensorElement) -> TensorElement:
    """Degree ``-1`` bracket: graded commutator on the shifted grading."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        return TensorElement.zero(a.alphabet)
    p, sign = a.alphabet.p, -1 if (a.sdeg * b.sdeg) % 2 else 1
    terms = _add_product(_add_product({}, a, b, 1, p), b, a, -sign, p)
    return TensorElement._trusted(a.alphabet, terms, a.sdeg + b.sdeg)


def restriction_power(a: TensorElement) -> TensorElement:
    """p-th tensor power; at odd p only defined on odd unshifted degree."""
    p = a.alphabet.p
    if a.is_zero():
        return a
    if p != 2 and a.sdeg % 2 == 1:
        raise ParityDomainError(
            "xi is zero on even degree elements (restriction needs odd unshifted degree)"
        )
    out = a
    for _ in range(p - 1):
        out = tensor_mul(out, a)
    return out


def ad_power(y: TensorElement, x: TensorElement, k: int) -> TensorElement:
    """k-fold iterated bracket ``[...[[x, y], y]..., y]``."""
    out = x
    for _ in range(k):
        out = shifted_bracket(out, y)
    return out


# ---------------------------------------------------------------------------
# spans in the tensor algebra


def span_dims(elements, p: int) -> GradedVectorSpace:
    """Dimensions (per unshifted degree) of the span of weight-homogeneous
    tensor elements.

    Words of different weight are independent, so the span is the direct
    sum of its buckets (shifted degree, weight).  A bucket of one nonzero
    element has rank 1.  The coefficients of the others are one
    ``K.Sparse`` matrix, a column per element and a row per word, with the
    buckets one after another and the words of each numbered as they first
    occur in it: it is block diagonal by bucket, and one
    ``K.rank_blocks`` call ranks each bucket as if on its own.  An element
    whose words have different lengths raises ``ValidationError``.
    """
    buckets: dict[tuple[int, int], list[TensorElement]] = {}
    for e in elements:
        if e.is_zero():
            continue
        weights = set(map(len, e.terms))
        if len(weights) > 1:
            raise ValidationError(f"tensor element {e!r} is not weight-homogeneous")
        buckets.setdefault((e.sdeg, weights.pop()), []).append(e)
    ranked = [key for key, elems in buckets.items() if len(elems) > 1]
    idx, rows, cols, vals = {}, [], [], []
    row_starts, col_starts = [0], [0]
    for key in ranked:
        for j, e in enumerate(buckets[key], col_starts[-1]):
            for w, c in e.terms.items():
                rows.append(idx.setdefault(w, len(idx)))
                cols.append(j)
                vals.append(c)
        row_starts.append(len(idx))
        col_starts.append(col_starts[-1] + len(buckets[key]))
    ranks = {}
    if ranked:
        a = K.Sparse((len(idx), col_starts[-1]),
                     *(np.array(x, dtype=np.int64) for x in (rows, cols, vals)))
        ranks = dict(zip(ranked, K.rank_blocks(a, p, row_starts, col_starts)))
    dims: dict[int, int] = {}
    for sdeg, weight in buckets:
        dims[sdeg + 1] = dims.get(sdeg + 1, 0) + ranks.get((sdeg, weight), 1)
    return GradedVectorSpace(dims)


def _reduce_basis(echelon, cands, p):
    """The columns that the candidates add to the span of one bucket, in
    order, as elements.

    ``echelon`` is the bucket's span in echelon form, ``{lowest word:
    column}`` with each column a coefficient dict normalised to a 1 at its
    lowest (largest) word.  Each candidate's terms are reduced against it
    once by ``_kernels.eliminate``; a column that does not vanish is stored,
    so later candidates are reduced against it too.  The stored columns are
    returned, reduced and normalised, not the candidates they came from:
    they span the same new part of the bucket, and they are sparser.
    """
    added = []
    for e in cands:
        col = dict(e.terms)
        low = max(col)
        if low in echelon:
            low = K.eliminate(col, low, echelon, p)
            if low is None:
                continue
        lead = col[low]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            col = {w: c * inv % p for w, c in col.items()}
        echelon[low] = col
        added.append(TensorElement._trusted(e.alphabet, col, e.sdeg))
    return added


# ---------------------------------------------------------------------------
# Lyndon machinery


def lyndon_words(k: int, max_len: int):
    """All Lyndon words on ``k`` letters of length <= ``max_len`` (Duval)."""
    if k < 1 or max_len < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        if w[-1] < k:
            yield bytes(w)
            m = len(w)
            while len(w) < max_len:
                w.append(w[len(w) - m])
            while w and w[-1] == k - 1:
                w.pop()
        else:
            w.pop()


def is_lyndon(word) -> bool:
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def standard_factorization(word):
    """Split a Lyndon word as ``u v`` with ``v`` the longest proper Lyndon suffix."""
    n = len(word)
    for i in range(1, n):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValidationError(f"{word!r} admits no standard factorization")


def standard_bracketing(word):
    """Right-normed bracketing tree of a Lyndon word; leaves are letters."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (standard_bracketing(u), standard_bracketing(v))


def expand_bracketing(tree, alphabet: Alphabet) -> TensorElement:
    if isinstance(tree, int):
        return TensorElement(alphabet, {bytes([tree]): 1})
    left = expand_bracketing(tree[0], alphabet)
    right = expand_bracketing(tree[1], alphabet)
    return shifted_bracket(left, right)


@dataclass
class LyndonBasisElement:
    word: bytes
    names: tuple
    bracketing: object
    selfbracket_flag: bool
    v_degree: int
    weight: int
    element: TensorElement = field(repr=False)


def _lyndon_candidates(alphabet: Alphabet, weight_cap: int, degree_cap: int):
    """Lyndon words within the caps, as (word, sdeg) pairs, by length then word.

    Walks the prenecklaces depth first (Cattell, Ruskey, Sawada, Serra and
    Miers, J. Algorithms 2000): a prenecklace of length t and period q is a
    Lyndon word iff q == t.  A prefix whose shifted degree already exceeds
    the degree cap is pruned with everything below it, since every shifted
    letter degree is >= 0.
    """
    k, wdegs = len(alphabet.names), alphabet.wdegs
    a = [0] * (weight_cap + 1)  # a[1..t] is the current prefix, a[0] = 0
    out = []

    def walk(t, q, sdeg):
        # a[1..t] is a prenecklace of period q and shifted degree sdeg
        if t and q == t:
            out.append((bytes(a[1: t + 1]), sdeg))
        if t == weight_cap:
            return
        for j in range(a[t + 1 - q], k):
            if sdeg + wdegs[j] + 1 <= degree_cap:
                a[t + 1] = j
                walk(t + 1, q if j == a[t + 1 - q] else t + 1, sdeg + wdegs[j])

    if weight_cap >= 1:
        walk(0, 1, 0)
    out.sort(key=lambda w: (len(w[0]), w[0]))
    return out


def _lyndon_elements(gens, weight_cap: int, degree_cap: int, p: int):
    """The Lyndon basis elements within the caps, realized, and for odd p
    their self-brackets; their independence is left to the caller.

    Candidates come by length, so both standard factors of a word are built
    before it, and each element is one bracket of theirs.  The right factor
    is the longest proper Lyndon suffix; every Lyndon suffix is shorter and
    of no larger degree, so it lies within the caps and has been built, and
    the factorization is a lookup of the suffixes among the built words.
    """
    for cap, top, name in ((weight_cap, 20, "weight"), (degree_cap, 64, "degree")):
        if cap > top:
            raise CapError(f"{name} cap {cap} is over {top}")
    alphabet = Alphabet(parse_or_pass(gens), p)
    _check_caps(alphabet, degree_cap, weight_cap)
    basis = []
    built: dict[bytes, LyndonBasisElement] = {}
    for word, sdeg in _lyndon_candidates(alphabet, weight_cap, degree_cap):
        if len(word) == 1:
            tree, elem = word[0], TensorElement._trusted(alphabet, {word: 1}, sdeg)
        else:
            i = next(i for i in range(1, len(word)) if word[i:] in built)
            u, v = built[word[:i]], built[word[i:]]
            tree, elem = (u.bracketing, v.bracketing), shifted_bracket(u.element, v.element)
            if elem.is_zero():
                raise CrossCheckError(
                    f"Lyndon bracketing of {alphabet.word_str(word)} expanded to zero")
        b = built[word] = LyndonBasisElement(
            word=word,
            names=tuple(alphabet.names[i] for i in word),
            bracketing=tree,
            selfbracket_flag=False,
            v_degree=sdeg + 1,
            weight=len(word),
            element=elem,
        )
        basis.append(b)
    if p != 2:
        for b in list(basis):
            if b.v_degree % 2 == 0 and 2 * b.weight <= weight_cap and 2 * b.v_degree - 1 <= degree_cap:
                elem = shifted_bracket(b.element, b.element)
                if elem.is_zero():
                    raise CrossCheckError(
                        f"self-bracket on {alphabet.word_str(b.word)} vanished unexpectedly")
                basis.append(
                    LyndonBasisElement(
                        word=b.word + b.word,
                        names=b.names + b.names,
                        bracketing=(b.bracketing, b.bracketing),
                        selfbracket_flag=True,
                        v_degree=2 * b.v_degree - 1,
                        weight=2 * b.weight,
                        element=elem,
                    )
                )
    return basis


def _degree_counts(elems) -> dict[int, int]:
    counted: dict[int, int] = {}
    for e in elems:
        counted[e.v_degree] = counted.get(e.v_degree, 0) + 1
    return counted


def lyndon_basis(gens, weight_cap: int = DEFAULT_WEIGHT_CAP, degree_cap: int = 10, *,
                 p: int) -> list[LyndonBasisElement]:
    """Basis of the free shifted Lie algebra within the caps, realized.

    Lyndon words carry their standard bracketing; for odd p each basis
    symbol of even unshifted degree contributes a self-bracket ``[b, b]``
    (towers stop there: ``[b, b]`` has odd degree, and ``[x, [x, x]] = 0``).
    The realizations are checked to be independent, and then the degreewise
    counts against the bracket-closure oracle; a ``CrossCheckError``
    reports any mismatch.
    """
    basis = _lyndon_elements(gens, weight_cap, degree_cap, p)
    counted = _degree_counts(basis)
    realized = span_dims([b.element for b in basis], p)
    if realized.dims != counted:
        raise CrossCheckError(
            f"Lyndon realizations are dependent: counts {counted} vs span {realized.dims}"
        )
    oracle = bracket_closure_dims(gens, degree_cap, p=p, weight_cap=weight_cap)
    if oracle.dims != counted:
        raise CrossCheckError(
            f"basis counts {counted} disagree with closure oracle {oracle.dims}"
        )
    return basis


def parse_or_pass(gens):
    if gens and isinstance(gens[0], Generator):
        return list(gens)
    return parse_generators(gens)


# ---------------------------------------------------------------------------
# brute-force closure oracles


def _check_caps(alphabet: Alphabet, degree_cap: int, weight_cap: int):
    """Refuse a weight cap below 1, and caps under which some bidegree
    (shifted degree, weight) holds more than ``wordcomplex.MAX_BUCKET_WORDS``
    words (``wordcomplex._over_budget``), with weight as length and shifted
    degrees below ``degree_cap``.

    Counts words only, not Lyndon words, so that the oracles stay
    independent of the counting route.
    """
    if weight_cap < 1:
        raise ValidationError(f"weight cap must be >= 1, got {weight_cap}")
    over = wordcomplex._over_budget(alphabet.wdegs, degree_cap - 1, weight_cap)
    if over:
        weight, sdeg, n = over
        raise CapError(f"{n} words of weight {weight} in degree {sdeg + 1} exceed the budget "
                       f"of {wordcomplex.MAX_BUCKET_WORDS}; lower the weight or degree cap")


def _closure_dims(gens, degree_cap: int, p: int, weight_cap: int,
                  restricted: bool) -> GradedVectorSpace:
    """Span of the generators closed under brackets (and, if ``restricted``,
    admissible p-th powers) inside the caps, per unshifted degree.

    The span is kept per bucket (shifted degree, weight): brackets and powers
    of weight-homogeneous elements are weight-homogeneous, so the span is the
    direct sum of its buckets, and the weight cap is tested on exact weights.
    Each bucket keeps one sparse echelon form of its span for the whole run,
    and ``_reduce_basis`` reduces each candidate against it once and returns
    the columns it stored; the bucket's dimension is the number of its
    pivots.

    Each round brackets every generator ``g`` with each column stored in the
    round before, ``[g, col]``, and takes the p-th power of each admissible
    one; the closure is reached when nothing is stored.  This is exact.  The
    Lie algebra generated by a set S is spanned by the right-normed brackets
    ``[s1, [s2, ... [s_{k-1}, s_k]]]`` with every ``s_i`` in S (Reutenauer,
    *Free Lie Algebras*, 1993, ch. 0): ``ad`` of an element is a graded
    derivation, so ``[[g, u], v] = [g, [u, v]] -+ [u, [g, v]]`` and a space
    closed under ``ad g`` for each generator is closed under all brackets,
    by induction on weight.  With powers, ``[xi(c), v] = -+ad(c)^p(v)`` keeps
    that induction going, and Jacobson's formula makes ``xi(sum c_i b_i) -
    sum c_i^p xi(b_i)`` a Lie polynomial in the ``b_i`` of the same
    bidegree, so powers of the stored columns suffice.  Every intermediate
    bracket of a bidegree within the caps is within them too, since letter
    degrees and weights add and are not negative.
    """
    alphabet = Alphabet(parse_or_pass(gens), p)
    _check_caps(alphabet, degree_cap, weight_cap)
    letters = [TensorElement.from_generator(alphabet, name)
               for name, d in zip(alphabet.names, alphabet.vdegs) if d <= degree_cap]
    echelons: dict[tuple[int, int], dict] = {}
    cands = [(g, 1) for g in letters]
    while cands:
        buckets: dict[tuple[int, int], list[TensorElement]] = {}
        for e, w in cands:
            if not e.is_zero():
                buckets.setdefault((e.sdeg, w), []).append(e)
        cands = []
        for (sdeg, w), new in buckets.items():
            brackets = [g for g in letters if sdeg + g.sdeg < degree_cap and w < weight_cap]
            power = (restricted and (p == 2 or sdeg % 2 == 0)
                     and p * sdeg < degree_cap and p * w <= weight_cap)
            for col in _reduce_basis(echelons.setdefault((sdeg, w), {}), new, p):
                cands += [(shifted_bracket(g, col), w + 1) for g in brackets]
                if power:
                    cands.append((restriction_power(col), p * w))
    dims: dict[int, int] = {}
    for (sdeg, _), echelon in echelons.items():
        dims[sdeg + 1] = dims.get(sdeg + 1, 0) + len(echelon)
    return GradedVectorSpace(dims)


def bracket_closure_dims(gens, degree_cap: int, *, p: int,
                         weight_cap: int = DEFAULT_WEIGHT_CAP) -> GradedVectorSpace:
    """Degreewise span of iterated brackets of the generators, inside the
    degree and weight caps (see ``_closure_dims``).  This is the independent
    oracle for the Lyndon counts."""
    return _closure_dims(gens, degree_cap, p, weight_cap, restricted=False)


def restricted_closure_dims(gens, degree_cap: int, *, p: int,
                            weight_cap: int = DEFAULT_WEIGHT_CAP) -> GradedVectorSpace:
    """Span closed under brackets and admissible p-th powers (see
    ``_closure_dims``): the oracle for the restricted symbol counts."""
    return _closure_dims(gens, degree_cap, p, weight_cap, restricted=True)


# ---------------------------------------------------------------------------
# symbol counting (no tensor expansion)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def _lyndon_count(counts) -> int:
    """Number of Lyndon words with the given letter multiplicities."""
    n = sum(counts)
    if n == 0:
        return 0
    g = 0
    for c in counts:
        g = math.gcd(g, c)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        mu = _mobius(d)
        if mu == 0:
            continue
        m = math.factorial(n // d)
        for c in counts:
            m //= math.factorial(c // d)
        total += mu * m
    assert total % n == 0
    return total // n


def _multidegrees(wdegs, degree_cap, weight_cap):
    """All letter multiplicity vectors within the caps (sdeg <= cap - 1)."""
    k = len(wdegs)
    if weight_cap is None and 0 in wdegs:
        raise ValidationError("degree-1 generators require a weight cap")
    out = []

    def rec(i, counts, weight, sdeg):
        if i == k:
            if weight:
                out.append(tuple(counts))
            return
        c = 0
        while True:
            if weight_cap is not None and weight + c > weight_cap:
                break
            if sdeg + c * wdegs[i] > degree_cap - 1:
                break
            rec(i + 1, counts + [c], weight + c, sdeg + c * wdegs[i])
            c += 1

    rec(0, [], 0, 0)
    return out


def free_lie_symbol_dims(gens, degree_cap: int, *, p: int,
                         weight_cap: int | None = None) -> GradedVectorSpace:
    """Counting route to the free shifted Lie dimensions (per degree)."""
    dims: dict[int, int] = {}
    for vdeg, _, c in lie_symbols(gens, degree_cap, p=p, weight_cap=weight_cap):
        dims[vdeg] = dims.get(vdeg, 0) + c
    return GradedVectorSpace(dims)


def lie_symbols(gens, degree_cap: int, *, p: int, weight_cap: int | None = None):
    """(v_degree, weight, count) triples for Lyndon symbols and self-brackets."""
    gens = parse_or_pass(gens)
    wdegs = [g.degree - 1 for g in gens]
    base = []
    for counts in _multidegrees(wdegs, degree_cap, weight_cap):
        c = _lyndon_count(counts)
        if not c:
            continue
        n = sum(counts)
        vdeg = sum(m * w for m, w in zip(counts, wdegs)) + 1
        base.append((vdeg, n, c))
    if p != 2:
        for vdeg, n, c in list(base):
            if vdeg % 2 == 0 and 2 * vdeg - 1 <= degree_cap:
                if weight_cap is not None and 2 * n > weight_cap:
                    continue
                base.append((2 * vdeg - 1, 2 * n, c))
    return base


def restriction_tower(d: int, w: int, p: int, degree_cap: int, weight_cap: int | None):
    """``(i, degree, weight)`` of ``xi^i`` of a symbol of degree ``d`` and
    weight ``w``, for i = 0, 1, ... while within both caps (None: no weight
    cap).  ``xi`` sends ``(d, w)`` to ``(p d - p + 1, p w)``, on every degree
    at p = 2 and on odd degrees at odd p, so at odd p the tower stops after
    an even degree."""
    i = 0
    while d <= degree_cap and (weight_cap is None or w <= weight_cap):
        yield i, d, w
        if p != 2 and d % 2 == 0:
            return
        i, d, w = i + 1, p * d - p + 1, p * w


def restricted_symbol_dims(gens, degree_cap: int, *, p: int,
                           weight_cap: int | None = None) -> GradedVectorSpace:
    """Counting route to the free shifted restricted Lie dimensions: the
    restriction tower (``restriction_tower``) of every Lie symbol."""
    dims: dict[int, int] = {}
    for vdeg, n, c in lie_symbols(gens, degree_cap, p=p, weight_cap=weight_cap):
        for _, d, _ in restriction_tower(vdeg, n, p, degree_cap, weight_cap):
            dims[d] = dims.get(d, 0) + c
    return GradedVectorSpace(dims)


def check_restricted_counts(gens, degree_cap: int, *, p: int, weight_cap: int | None = None):
    """Compare ``restricted_symbol_dims`` with ``restricted_closure_dims``,
    which shares no count with the tower, and raise ``CrossCheckError`` on a
    mismatch.

    Both run on one window that the oracle admits: the first
    ``MAX_GENERATORS`` generators, and the largest degree cap c up to
    ``degree_cap`` such that the words of weight at most min(weight cap, c)
    (the weight cap is ``degree_cap`` where there is none) and Lie degree at
    most c number at most ``MAX_CHECK_WORDS`` over all buckets.  Tying the
    weight to c bounds the words of degree-1 generators; it binds nothing
    for higher degrees, whose weights stay below the degree.  Below the
    least generator degree there are at most ``MAX_GENERATORS`` words, so
    the window holds the generators of least degree whenever the caps do,
    and compares nothing only where there is no symbol: no generator, a
    weight or degree cap below 1, or no generator within the degree cap.
    """
    gens = parse_or_pass(gens)[:MAX_GENERATORS]
    wc = degree_cap if weight_cap is None else weight_cap
    if not gens or wc < 1 or degree_cap < 1:
        return
    wdegs = [g.degree - 1 for g in gens]
    cap = 0
    while (cap < degree_cap
           and wordcomplex._word_total(wdegs, cap, min(wc, cap + 1)) <= MAX_CHECK_WORDS):
        cap += 1
    wc = min(wc, cap)
    count = restricted_symbol_dims(gens, cap, p=p, weight_cap=wc)
    oracle = restricted_closure_dims(gens, cap, p=p, weight_cap=wc)
    if count != oracle:
        raise CrossCheckError(
            f"restricted symbol count {count.dims} disagrees with closure oracle "
            f"{oracle.dims} up to degree {cap}, weight {wc}"
        )


@dataclass
class RestrictedBasisSymbol:
    xi_power: int
    base: LyndonBasisElement
    v_degree: int
    element: TensorElement = field(repr=False)

    @property
    def label(self) -> str:
        prefix = "xi^%d " % self.xi_power if self.xi_power else ""
        return prefix + "".join(self.base.names)


def restricted_basis(gens, degree_cap: int = 10, *, p: int,
                     weight_cap: int = DEFAULT_WEIGHT_CAP):
    """Symbols ``xi^i b`` with tensor realizations, plus their dimensions.

    Returns ``(symbols, dims)``.  Realizations are iterated p-th powers of
    the Lyndon expansions, one per step of their restriction tower
    (``restriction_tower``, which ``restricted_symbol_dims`` shares).
    Independence is checked once over all the symbols (the Lyndon elements
    among them), by one rank per bidegree (``span_dims``), and then the
    counts are compared against the restricted closure oracle, which walks
    no tower.
    """
    symbols = []
    for b in _lyndon_elements(gens, weight_cap, degree_cap, p):
        elem = b.element
        for i, d, _ in restriction_tower(b.v_degree, b.weight, p, degree_cap, weight_cap):
            if i:
                elem = restriction_power(elem)
                if elem.is_zero():
                    raise CrossCheckError(
                        f"restriction power of {elem.alphabet.word_str(b.word)} vanished "
                        "in realization")
            symbols.append(RestrictedBasisSymbol(i, b, d, elem))
    counted = _degree_counts(symbols)
    realized = span_dims([s.element for s in symbols], p)
    if realized.dims != counted:
        raise CrossCheckError(
            f"restricted symbols are dependent: counts {counted} vs span {realized.dims}"
        )
    dims = GradedVectorSpace(counted)
    oracle = restricted_closure_dims(gens, degree_cap, p=p, weight_cap=weight_cap)
    if oracle != dims:
        raise CrossCheckError(
            f"restricted basis {dims.dims} disagrees with closure oracle {oracle.dims}"
        )
    return symbols, dims


# ---------------------------------------------------------------------------
# randomized axiom checks


def _random_homogeneous(rng, alphabet, degree_cap, max_weight=3, max_terms=3,
                        sdeg_parity=None, sdeg_target=None):
    """Random nonzero homogeneous element, optionally with fixed parity/degree."""
    for _ in range(200):
        ln = int(rng.integers(1, max_weight + 1))
        first = bytes(int(rng.integers(0, len(alphabet.names))) for _ in range(ln))
        sdeg = alphabet.word_sdeg(first)
        if sdeg + 1 > degree_cap:
            continue
        if sdeg_parity is not None and sdeg % 2 != sdeg_parity:
            continue
        if sdeg_target is not None and sdeg != sdeg_target:
            continue
        words = {first: None}  # in drawn order: a set of bytes iterates by a per-process hash
        for _ in range(int(rng.integers(0, max_terms))):
            w = bytes(int(rng.integers(0, len(alphabet.names))) for _ in range(ln))
            if alphabet.word_sdeg(w) == sdeg:
                words[w] = None
        terms = {w: int(rng.integers(1, alphabet.p)) for w in words}
        e = TensorElement(alphabet, terms)
        if not e.is_zero():
            return e
    return None


def check_axioms(gens, degree_cap: int = 12, trials: int = 100, rng_seed: int = 0,
                 *, p: int) -> dict:
    """Randomized verification of the bracket/restriction axioms.

    Checks antisymmetry, the graded Jacobi identity, ``[x, [x, x]] = 0``,
    the restriction relation ``[x, xi(y)] = ad^p(y)(x)`` and, at p = 2, the
    additivity ``xi(x + y) = xi(x) + xi(y) + [x, y]``.  Failures are
    reported with witnesses, never raised.
    """
    alphabet = Alphabet(parse_or_pass(gens), p)
    rng = np.random.default_rng(rng_seed)
    checks = {
        name: {"pass": True, "tested": 0, "witness": None}
        for name in ("antisymmetry", "jacobi", "self_bracket_triple",
                     "restriction_ad", "additivity_p2")
    }
    skipped_parity = 0

    def fail(name, *elems):
        checks[name]["pass"] = False
        if checks[name]["witness"] is None:
            checks[name]["witness"] = [repr(e) for e in elems]

    def sgn(a, b):
        return -1 if (a.sdeg * b.sdeg) % 2 else 1

    for _ in range(trials):
        a = _random_homogeneous(rng, alphabet, degree_cap)
        b = _random_homogeneous(rng, alphabet, degree_cap)
        c = _random_homogeneous(rng, alphabet, degree_cap)
        if a is None or b is None or c is None:
            continue

        checks["antisymmetry"]["tested"] += 1
        if not (shifted_bracket(a, b) + shifted_bracket(b, a).scale(sgn(a, b))).is_zero():
            fail("antisymmetry", a, b)

        checks["jacobi"]["tested"] += 1
        t1 = shifted_bracket(a, shifted_bracket(b, c)).scale(sgn(a, c))
        t2 = shifted_bracket(b, shifted_bracket(c, a)).scale(sgn(b, a))
        t3 = shifted_bracket(c, shifted_bracket(a, b)).scale(sgn(c, b))
        if not (t1 + t2 + t3).is_zero():
            fail("jacobi", a, b, c)

        checks["self_bracket_triple"]["tested"] += 1
        if not shifted_bracket(a, shifted_bracket(a, a)).is_zero():
            fail("self_bracket_triple", a)

        y = _random_homogeneous(
            rng, alphabet, degree_cap, max_weight=2, max_terms=2,
            sdeg_parity=None if p == 2 else 0,
        )
        if y is None:
            skipped_parity += 1
        else:
            checks["restriction_ad"]["tested"] += 1
            lhs = shifted_bracket(a, restriction_power(y))
            rhs = ad_power(y, a, p)
            if not (lhs - rhs).is_zero():
                fail("restriction_ad", a, y)

        if p == 2:
            b2 = _random_homogeneous(rng, alphabet, degree_cap, sdeg_target=a.sdeg)
            if b2 is not None:
                checks["additivity_p2"]["tested"] += 1
                lhs = restriction_power(a + b2)
                rhs = restriction_power(a) + restriction_power(b2) + shifted_bracket(a, b2)
                if not (lhs - rhs).is_zero():
                    fail("additivity_p2", a, b2)

    report = {
        "p": p,
        "trials": trials,
        "rng_seed": rng_seed,
        "skipped_parity": skipped_parity,
        "checks": checks,
        "all_pass": all(v["pass"] for v in checks.values()),
    }
    return report
