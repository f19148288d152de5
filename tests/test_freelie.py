import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fphomalg import _kernels as K
from fphomalg import freelie, wordcomplex
from fphomalg.errors import (
    AlphabetError,
    CapError,
    CrossCheckError,
    ParityDomainError,
    ValidationError,
)
from fphomalg.freelie import (
    Alphabet,
    Generator,
    TensorElement,
    _lyndon_candidates,
    ad_power,
    bracket_closure_dims,
    check_axioms,
    expand_bracketing,
    free_lie_symbol_dims,
    is_lyndon,
    lyndon_basis,
    lyndon_words,
    parse_generators,
    restricted_basis,
    restricted_closure_dims,
    restricted_symbol_dims,
    restriction_power,
    shifted_bracket,
    span_dims,
    standard_bracketing,
    standard_factorization,
    tensor_mul,
)


def alph(p, *degs):
    names = "xyzw"
    return Alphabet([Generator(names[i], d) for i, d in enumerate(degs)], p)


def gens(*degs):
    names = "xyzw"
    return [Generator(names[i], d) for i, d in enumerate(degs)]


def test_generator_validation():
    with pytest.raises(ValidationError):
        Generator("x", 0)
    with pytest.raises(ValidationError):
        parse_generators([{"name": "x", "degree": 2}, {"name": "x", "degree": 3}])


def test_tensor_mul_examples():
    a2 = alph(2, 2, 2)
    x = TensorElement.from_generator(a2, "x")
    y = TensorElement.from_generator(a2, "y")
    assert tensor_mul(x, y).terms == {bytes([0, 1]): 1}
    # bilinearity over F_2: (x+y)*x = xx + yx
    assert tensor_mul(x + y, x).terms == {bytes([0, 0]): 1, bytes([1, 0]): 1}
    # scalars mod 3: (2x)*(2x) = 4xx = xx
    a3 = alph(3, 2)
    x3 = TensorElement.from_generator(a3, "x").scale(2)
    assert tensor_mul(x3, x3).terms == {bytes([0, 0]): 1}


def reference_product_terms(pairs, p):
    """``sum c * (a b)`` over ``(c, a, b)`` from the definition: every word
    pair summed over the integers, then reduced mod p with zeros dropped."""
    sums = Counter()
    for c, a, b in pairs:
        for (w1, c1), (w2, c2) in itertools.product(a.terms.items(), b.terms.items()):
            sums[w1 + w2] += c * c1 * c2
    return {w: s % p for w, s in sums.items() if s % p}


@st.composite
def degree_one_elements(draw):
    # every word of letters of shifted degree 0 has shifted degree 0, so
    # words of different lengths share an element and w1 + w2 can repeat
    # inside one product (x * yz and xy * z are both xyz)
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))
    a = alph(p, *[1] * n)
    words = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple)
    element = st.dictionaries(words, st.integers(-2 * p, 2 * p), max_size=4)
    one_word = st.dictionaries(words, st.integers(1, p - 1), min_size=1, max_size=1)
    return a, [TensorElement(a, draw(s)) for s in (element, element, one_word)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=degree_one_elements(), k=st.integers(1, 4))
def test_products_match_the_definition(case, k):
    alphabet, (a, b, one) = case
    p = alphabet.p
    for x, y in [(a, b), (one, b), (a, one), (one, one)]:
        prod, bracket = tensor_mul(x, y), shifted_bracket(x, y)
        assert prod.terms == reference_product_terms([(1, x, y)], p)
        # shifted degree 0: [x, y] = xy - yx
        assert bracket.terms == reference_product_terms([(1, x, y), (-1, y, x)], p)
        for e in (prod, bracket):
            assert e.sdeg == (0 if e.terms else None)
    # [a, k a] cancels to the zero element
    assert shifted_bracket(a, a.scale(k)) == TensorElement.zero(alphabet)
    assert shifted_bracket(a, a.scale(k)).sdeg is None


def test_tensor_mul_alphabet_mismatch():
    x = TensorElement.from_generator(alph(2, 2), "x")
    y = TensorElement.from_generator(alph(3, 2), "x")
    with pytest.raises(AlphabetError):
        tensor_mul(x, y)


def test_homogeneity_enforced():
    a = alph(3, 2, 3)
    with pytest.raises(ValidationError):
        TensorElement(a, {(0,): 1, (1,): 1})


def test_sum_of_different_degrees_rejected():
    a = alph(3, 2, 3)
    x = TensorElement.from_generator(a, "x")
    y = TensorElement.from_generator(a, "y")
    with pytest.raises(ValidationError):
        x + y
    zero = TensorElement.zero(a)
    assert (x + zero).sdeg == (zero + x).sdeg == 1
    assert (x - x).is_zero() and (x - x).sdeg is None
    assert x.scale(3).is_zero() and x.scale(3).sdeg is None


def test_shifted_bracket_examples():
    # x of degree 2 at p=3: [x,x] = 2*xx, of unshifted degree 3
    a = alph(3, 2)
    x = TensorElement.from_generator(a, "x")
    b = shifted_bracket(x, x)
    assert b.terms == {bytes([0, 0]): 2}
    assert b.v_degree == 3
    # x of degree 3 at p=5: [x,x] = 0
    a5 = alph(5, 3)
    x5 = TensorElement.from_generator(a5, "x")
    assert shifted_bracket(x5, x5).is_zero()
    # p=2: [x,x] = 0 whatever the degree
    a2 = alph(2, 2)
    x2 = TensorElement.from_generator(a2, "x")
    assert shifted_bracket(x2, x2).is_zero()


def test_restriction_power_examples():
    # p=2, |x|=2: xi x = xx in degree 3
    a2 = alph(2, 2)
    x2 = TensorElement.from_generator(a2, "x")
    sq = restriction_power(x2)
    assert sq.terms == {bytes([0, 0]): 1} and sq.v_degree == 3
    # p=3, [x,x] with |x|=2 has odd degree 3; cube is 2 * x^{(6)} in degree 7
    a3 = alph(3, 2)
    x3 = TensorElement.from_generator(a3, "x")
    b = shifted_bracket(x3, x3)
    cube = restriction_power(b)
    assert cube.terms == {bytes([0] * 6): 2}
    assert cube.v_degree == 7
    # p=3 on even degree: domain error naming the axiom
    with pytest.raises(ParityDomainError, match="even degree"):
        restriction_power(x3)


def test_ad_power_matches_bracket_with_power():
    # [x, y^p] = ad^p(y)(x) for admissible y
    a = alph(3, 2, 3)
    x = TensorElement.from_generator(a, "x")
    y = TensorElement.from_generator(a, "y")  # degree 3, odd: admissible
    lhs = shifted_bracket(x, restriction_power(y))
    rhs = ad_power(y, x, 3)
    assert (lhs - rhs).is_zero()


def test_lyndon_word_generation():
    words = [w for w in lyndon_words(2, 4)]
    assert bytes([0]) in words and bytes([1]) in words and bytes([0, 1]) in words
    assert bytes([0, 0]) not in words
    assert all(is_lyndon(w) for w in words)
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))


def test_lyndon_basis_one_generator_examples():
    # p=3, x of degree 2: basis degrees {2:1, 3:1} (x and [x,x])
    basis = lyndon_basis(gens(2), 10, 10, p=3)
    degs = {}
    for b in basis:
        degs[b.v_degree] = degs.get(b.v_degree, 0) + 1
    assert degs == {2: 1, 3: 1}
    assert any(b.selfbracket_flag for b in basis)
    # p=2: [x,x] = 0, only x remains
    basis2 = lyndon_basis(gens(2), 10, 10, p=2)
    assert [b.v_degree for b in basis2] == [2]


def test_lyndon_basis_two_generators_p5():
    # p=5, x,y of degree 2, degrees <= 4: {2:2, 3:3, 4:2}
    basis = lyndon_basis(gens(2, 2), 8, 4, p=5)
    degs = {}
    for b in basis:
        degs[b.v_degree] = degs.get(b.v_degree, 0) + 1
    assert degs == {2: 2, 3: 3, 4: 2}


def test_bracket_closure_examples():
    assert bracket_closure_dims(gens(2), 10, p=3).dims == {2: 1, 3: 1}
    assert bracket_closure_dims(gens(2), 10, p=2).dims == {2: 1}
    assert bracket_closure_dims(gens(3), 10, p=5).dims == {3: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degs", [(2,), (3,), (2, 2), (2, 3), (1,), (1, 2), (1, 1, 2)])
def test_lyndon_count_matches_closure(p, degs):
    # degree-1 generators put every weight in shifted degree 0: smaller caps
    cap, wcap = (8, 6) if 1 not in degs else (6, 6)
    count = free_lie_symbol_dims(gens(*degs), cap, p=p, weight_cap=wcap)
    oracle = bracket_closure_dims(gens(*degs), cap, p=p, weight_cap=wcap)
    assert count == oracle


def test_restricted_basis_examples():
    # p=2, {x:2}: restriction orbit degrees 2,3,5,9
    symbols, dims = restricted_basis(gens(2), 10, p=2)
    assert dims.dims == {2: 1, 3: 1, 5: 1, 9: 1}
    # p=3, {x:2}, cap 8: x, [x,x], xi[x,x]
    symbols, dims = restricted_basis(gens(2), 8, p=3)
    assert dims.dims == {2: 1, 3: 1, 7: 1}
    # p=3, {x:3}, cap 8: x, xi x
    symbols, dims = restricted_basis(gens(3), 8, p=3)
    assert dims.dims == {3: 1, 7: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degs", [(2,), (3,), (2, 3), (1,), (1, 2), (1, 1, 2)])
def test_restricted_count_matches_closure(p, degs):
    cap, wcap = (9, 9) if 1 not in degs else (7, 7)
    count = restricted_symbol_dims(gens(*degs), cap, p=p, weight_cap=wcap)
    oracle = restricted_closure_dims(gens(*degs), cap, p=p, weight_cap=wcap)
    assert count == oracle


def test_span_dims_detects_dependence():
    a = alph(3, 2)
    x = TensorElement.from_generator(a, "x")
    assert span_dims([x, x.scale(2)], 3).dims == {2: 1}


def test_span_dims_refuses_an_element_of_mixed_weight():
    # x and xx both have shifted degree 0: homogeneous, but of two weights
    a = alph(3, 1)
    mixed = TensorElement(a, {(0,): 1, (0, 0): 1})
    with pytest.raises(ValidationError, match="weight-homogeneous"):
        span_dims([mixed], 3)


def coefficients(elems, p):
    """Dense coefficient matrix, a column per element and a row per word."""
    words = sorted({w for e in elems for w in e.terms})
    return np.array([[e.terms.get(w, 0) for e in elems] for w in words],
                    dtype=np.int64).reshape(len(words), len(elems))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_dims_per_weight_equals_the_rank_per_degree(p):
    # the reference ranks one matrix per shifted degree over every weight;
    # sums of two elements of one bucket make dependent columns
    rng = np.random.default_rng(p)
    a = alph(p, 1, 2, 3)
    for _ in range(20):
        elems = [freelie._random_homogeneous(rng, a, 8, max_weight=4) for _ in range(12)]
        elems = [e for e in elems if e is not None]
        elems += [e + f for e, f in zip(elems, elems[1:])
                  if e.sdeg == f.sdeg and len(next(iter(e.terms))) == len(next(iter(f.terms)))]
        by_sdeg = {}
        for e in elems:
            if not e.is_zero():
                by_sdeg.setdefault(e.sdeg, []).append(e)
        expected = {sdeg + 1: K.rank(coefficients(es, p), p) for sdeg, es in by_sdeg.items()}
        assert span_dims(elems, p).dims == expected


def reference_closure_dims(degs, degree_cap, p, weight_cap, restricted):
    """The closure by all pairs: each round brackets every element the round
    before added with every element found so far, and takes p-th powers of
    the admissible new ones; a candidate is kept if it enlarges the span of
    its bucket (shifted degree, weight), in an echelon form of its own."""
    a = alph(p, *degs)
    spans = {}  # bucket -> {lowest word: column normalised to 1 there}

    def enlarges(e, w):
        echelon = spans.setdefault((e.sdeg, w), {})
        col = dict(e.terms)
        while col:
            low = max(col)
            if low not in echelon:
                inv = pow(col[low], p - 2, p)
                echelon[low] = {u: c * inv % p for u, c in col.items()}
                return True
            f = col[low]
            for u, c in echelon[low].items():
                x = (col.get(u, 0) - f * c) % p
                if x:
                    col[u] = x
                else:
                    col.pop(u, None)
        return False

    found = []
    new = [(TensorElement.from_generator(a, n), 1)
           for n, d in zip(a.names, a.vdegs) if d <= degree_cap]
    while new:
        new = [(e, w) for e, w in new if not e.is_zero() and enlarges(e, w)]
        old, found = len(found), found + new
        cands = []
        for i, (x, wx) in enumerate(new):
            for y, wy in found[: old + i + 1]:
                if x.sdeg + y.sdeg < degree_cap and wx + wy <= weight_cap:
                    cands.append((shifted_bracket(x, y), wx + wy))
            if (restricted and (p == 2 or x.sdeg % 2 == 0)
                    and p * x.sdeg < degree_cap and p * wx <= weight_cap):
                cands.append((restriction_power(x), p * wx))
        new = cands
    dims = {}
    for (sdeg, _), echelon in spans.items():
        dims[sdeg + 1] = dims.get(sdeg + 1, 0) + len(echelon)
    return dims


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]),
       degs=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       cap=st.integers(1, 8), weight_cap=st.integers(1, 6))
def test_closure_oracles_match_the_all_pairs_closure(p, degs, cap, weight_cap):
    # the oracles bracket only the generators with the columns each round
    # stores; all pairs of elements must give the same spans
    g, caps = gens(*degs), dict(p=p, weight_cap=weight_cap)
    assert (bracket_closure_dims(g, cap, **caps).dims
            == reference_closure_dims(degs, cap, p, weight_cap, restricted=False))
    assert (restricted_closure_dims(g, cap, **caps).dims
            == reference_closure_dims(degs, cap, p, weight_cap, restricted=True))


@pytest.mark.parametrize("p", [3, 5])
def test_closure_oracles_on_two_degree_one_generators_to_weight_ten(p):
    # every bracket lies in degree 1, where the buckets hold up to 2^10 words
    # and the elimination chains are longest; the Lyndon words on two letters
    # of lengths 1..10 number 2 + 1 + 2 + 3 + 6 + 9 + 18 + 30 + 56 + 99 = 226
    lie = bracket_closure_dims(gens(1, 1), 2, p=p, weight_cap=10)
    assert lie.dims == {1: 226}
    assert lie.dims == reference_closure_dims((1, 1), 2, p, 10, restricted=False)
    assert lie == free_lie_symbol_dims(gens(1, 1), 2, p=p, weight_cap=10)
    restricted = restricted_closure_dims(gens(1, 1), 2, p=p, weight_cap=10)
    assert restricted.dims == reference_closure_dims((1, 1), 2, p, 10, restricted=True)
    assert restricted == restricted_symbol_dims(gens(1, 1), 2, p=p, weight_cap=10)


@pytest.mark.parametrize("degs, cap, weight_cap", [((1, 1), 3, 6), ((1, 1, 2), 4, 5)])
def test_lie_word_budget_counts_the_largest_bucket(monkeypatch, degs, cap, weight_cap):
    # the count from letter degrees is exact: the largest (weight, degree)
    # bucket of the enumerated words fits a budget of its own size and not
    # one word less, and the refusal names it (on (x1, y1, z2) two buckets
    # of weight 5 tie at 80 words, and the lower degree is named)
    buckets = Counter()
    for n in range(1, weight_cap + 1):
        for word in itertools.product([d - 1 for d in degs], repeat=n):
            if sum(word) < cap:
                buckets[n, sum(word) + 1] += 1
    largest = max(buckets.values())
    weight, degree = min(k for k, v in buckets.items() if v == largest)
    monkeypatch.setattr(wordcomplex, "MAX_BUCKET_WORDS", largest)
    bracket_closure_dims(gens(*degs), cap, p=3, weight_cap=weight_cap)
    monkeypatch.setattr(wordcomplex, "MAX_BUCKET_WORDS", largest - 1)
    with pytest.raises(CapError, match=f"^{largest} words of weight {weight} in degree "
                                       f"{degree} exceed the budget of {largest - 1};"):
        bracket_closure_dims(gens(*degs), cap, p=3, weight_cap=weight_cap)


@pytest.mark.parametrize("degs,degree_cap,weight_cap,window", [
    ((3, 4), 80, None, (23, 23)),  # CI's free-w1 input
    ((2, 3), 14, None, (14, 14)),  # whole
    ((1, 1, 1), 6, 8, (5, 5)),  # the weight cap alone is 3^8 words
    ((1, 1, 1, 1), 3, 10, (3, 3)),
    ((1, 2, 2, 3), 20, 6, (5, 5)),
    ((2, 3, 4, 5, 6), 8, None, (8, 8)),  # the first four generators
])
def test_restricted_count_check_window(monkeypatch, degs, degree_cap, weight_cap, window):
    # the window is bounded by words over all buckets, lowers the weight cap
    # with the degree cap, and is never empty where there are symbols
    seen = []

    def oracle(gens, cap, *, p, weight_cap):
        dims = restricted_closure_dims(gens, cap, p=p, weight_cap=weight_cap)
        seen.append((len(gens), cap, weight_cap, dims))
        return dims

    monkeypatch.setattr(freelie, "restricted_closure_dims", oracle)
    letters = [Generator(c, d) for c, d in zip("xyzwv", degs)]
    freelie.check_restricted_counts(letters, degree_cap, p=3, weight_cap=weight_cap)
    [(n, cap, wc, dims)] = seen
    assert n == min(len(degs), freelie.MAX_GENERATORS) and (cap, wc) == window
    assert dims.dims and min(dims.dims) == min(degs)
    wdegs = [d - 1 for d in degs[:n]]
    assert wordcomplex._word_total(wdegs, cap - 1, wc) <= freelie.MAX_CHECK_WORDS
    wider = min(weight_cap or degree_cap, cap + 1)
    assert cap == degree_cap or \
        wordcomplex._word_total(wdegs, cap, wider) > freelie.MAX_CHECK_WORDS


@pytest.mark.parametrize("degree_cap,weight_cap", [(8, 0), (0, None), (-1, 4)])
def test_restricted_count_check_compares_nothing_without_symbols(monkeypatch, degree_cap,
                                                                  weight_cap):
    monkeypatch.setattr(freelie, "restricted_closure_dims", None)
    freelie.check_restricted_counts(gens(2, 3), degree_cap, p=3, weight_cap=weight_cap)
    freelie.check_restricted_counts([], 8, p=3)


def test_word_total_counts_every_bucket():
    for degs, max_degree, max_length in [((0, 0, 1), 3, 5), ((2, 3), 12, 6), ((1,), 0, 3)]:
        words = sum(1 for n in range(1, max_length + 1)
                    for word in itertools.product(degs, repeat=n) if sum(word) <= max_degree)
        assert wordcomplex._word_total(degs, max_degree, max_length) == words


@pytest.mark.parametrize("p,degs", [(2, (2, 3)), (3, (2, 3)), (5, (2, 4))])
def test_check_axioms_all_pass(p, degs):
    report = check_axioms(gens(*degs), degree_cap=14, trials=40, rng_seed=7, p=p)
    assert report["all_pass"], report
    assert report["checks"]["antisymmetry"]["tested"] > 0
    assert report["checks"]["restriction_ad"]["tested"] > 0
    if p == 2:
        assert report["checks"]["additivity_p2"]["tested"] > 0


def test_check_axioms_jacobi_on_triple_x():
    # p=3: all terms proportional to [x,[x,x]] = 0
    a = alph(3, 2)
    x = TensorElement.from_generator(a, "x")
    assert shifted_bracket(x, shifted_bracket(x, x)).is_zero()


def test_restriction_scalar_linearity():
    a = alph(5, 3)
    x = TensorElement.from_generator(a, "x")
    for lam in range(1, 5):
        lhs = restriction_power(x.scale(lam))
        rhs = restriction_power(x).scale(lam)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("degs", [(1,), (2,), (1, 2), (2, 2, 3), (3, 5), (1, 1, 4)])
@pytest.mark.parametrize("weight_cap, degree_cap", [(1, 10), (6, 8), (8, 12), (10, 8), (5, 1)])
def test_lyndon_candidates_equal_filtered_lyndon_words(degs, weight_cap, degree_cap):
    # the pruned prenecklace walk against all Lyndon words filtered by degree
    a = alph(3, *degs)
    want = sorted(((w, a.word_sdeg(w)) for w in lyndon_words(len(degs), weight_cap)
                   if a.word_sdeg(w) + 1 <= degree_cap), key=lambda t: (len(t[0]), t[0]))
    assert _lyndon_candidates(a, weight_cap, degree_cap) == want


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degs", [(1, 1), (2,), (2, 2), (2, 3), (2, 2, 3)])
def test_lyndon_elements_equal_their_expanded_standard_bracketings(p, degs):
    # each element is built as one bracket of its factors' elements; it must
    # be the standard bracketing of its word, expanded from the letters up
    a = alph(p, *degs)
    basis = lyndon_basis(gens(*degs), 7, 9, p=p)
    assert any(len(b.word) > 1 for b in basis) or (degs, p) == ((2,), 2)
    for b in basis:
        if b.selfbracket_flag:
            half = standard_bracketing(b.word[: len(b.word) // 2])
            assert b.bracketing == (half, half)
        else:
            assert b.bracketing == standard_bracketing(b.word)
        assert b.element == expand_bracketing(b.bracketing, a)
    if p != 2 and 2 in degs:  # x of even degree: [x, x] is a basis element
        assert any(b.selfbracket_flag for b in basis)


@pytest.mark.parametrize("p", [2, 3])
def test_repeated_lyndon_word_fails_the_independence_check(monkeypatch, p):
    # a candidate list that names the word xy twice realizes it twice;
    # the one independence check of each basis builder must catch it
    candidates = freelie._lyndon_candidates

    def repeat_xy(alphabet, weight_cap, degree_cap):
        out = candidates(alphabet, weight_cap, degree_cap)
        i = [w for w, _ in out].index(bytes([0, 1]))
        return out[: i + 1] + out[i:]

    monkeypatch.setattr(freelie, "_lyndon_candidates", repeat_xy)
    with pytest.raises(CrossCheckError, match="dependent"):
        lyndon_basis(gens(2, 2), 8, 9, p=p)
    with pytest.raises(CrossCheckError, match="dependent"):
        restricted_basis(gens(2, 2), 9, p=p, weight_cap=8)


def planted_zero(real, when):
    """``real`` except that it returns the zero element where ``when`` holds."""
    def planted(a, *rest):
        return TensorElement.zero(a.alphabet) if when(a, *rest) else real(a, *rest)
    return planted


def both_letters(a):
    """Whether the words of ``a`` hold both x and y."""
    return set(max(a.terms)) == {0, 1}


@pytest.mark.parametrize("name, when, build, message", [
    ("shifted_bracket", lambda a, b: True,
     lambda: lyndon_basis(gens(2, 2), 4, 6, p=3), "Lyndon bracketing of xy expanded to zero"),
    ("shifted_bracket", lambda a, b: a is b and both_letters(a),
     lambda: lyndon_basis(gens(2, 3), 4, 8, p=3), "self-bracket on xy vanished unexpectedly"),
    ("restriction_power", both_letters,
     lambda: restricted_basis(gens(2, 2), 9, p=2, weight_cap=8),
     "restriction power of xy vanished in realization"),
])
def test_a_vanished_realization_is_named_by_its_letters(monkeypatch, name, when, build,
                                                        message):
    monkeypatch.setattr(freelie, name, planted_zero(getattr(freelie, name), when))
    with pytest.raises(CrossCheckError, match=f"^{message}$"):
        build()


def stored_key(alphabet, word):
    """The key under which a tensor element stores ``word``."""
    [key] = TensorElement(alphabet, {word: 1}).terms
    return key


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]),
       words=st.lists(st.lists(st.integers(0, 3), max_size=12).map(tuple), min_size=1,
                      max_size=10))
def test_byte_words_keep_the_tuple_order(p, words):
    # four letters of shifted degree 0: every word lies in one degree, so
    # any words, of any lengths, make a homogeneous element
    a = alph(p, 1, 1, 1, 1)
    keys = [stored_key(a, w) for w in words]
    assert sorted(keys) == [stored_key(a, w) for w in sorted(words)]
    assert max(keys) == stored_key(a, max(words))
    terms = {w: i + 1 for i, w in enumerate(words)}
    from_tuples = TensorElement(a, terms)
    assert from_tuples == TensorElement(a, {bytes(w): c for w, c in terms.items()})
    # stored as bytes, each in the order of its letters
    assert from_tuples.terms == {bytes(w): c % p for w, c in terms.items() if c % p}
