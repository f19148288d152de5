import numpy as np
import pytest

from fphomalg import _kernels as K
from fphomalg.errors import CapError, CrossCheckError, ValidationError
from fphomalg.linalg import (
    BigradedTable,
    GradedMap,
    GradedVectorSpace,
    HilbertSeries,
    PrimeField,
    Subquotient,
    _check_dd,
    _homology,
    _matrix,
    _RankTable,
    free_commutative_series,
)


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(97)
    for bad in (1, 4, 91, 101, -3):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_shift_examples():
    assert GradedVectorSpace({1: 1}).shift(1) == GradedVectorSpace({2: 1})
    assert GradedVectorSpace({}).shift(5) == GradedVectorSpace({})
    assert GradedVectorSpace({2: 3, 5: 1}).shift(-1) == GradedVectorSpace({1: 3, 4: 1})


def test_shift_is_additive_and_invertible():
    rng = np.random.default_rng(0)
    for _ in range(30):
        dims = {int(d): int(n) for d, n in zip(rng.integers(-8, 9, 4), rng.integers(1, 4, 4))}
        V = GradedVectorSpace(dims)
        a, b = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        assert V.shift(a + b) == V.shift(a).shift(b)
        assert V.shift(a).shift(-a) == V


def test_graded_space_serialization_roundtrip():
    V = GradedVectorSpace({2: 3, 5: 1})
    assert GradedVectorSpace.from_json(V.to_json()) == V
    with pytest.raises(ValidationError):
        GradedVectorSpace({2: -1})


def test_graded_map_shape_validation_and_compose():
    p = 3
    V = GradedVectorSpace({0: 1, 2: 2})
    W = GradedVectorSpace({1: 2})
    f = GradedMap(V, W, 1, {0: [[1], [2]]}, p)
    assert K.rank(f.block(0), p) == 1
    with pytest.raises(ValidationError):
        GradedMap(V, W, 1, {0: [[1, 0]]}, p)
    g = GradedMap(W, V, 1, {1: [[1, 0], [0, 1]]}, p)
    h = g.compose(f)
    assert h.degree == 2
    assert (h.block(0) == np.array([[1], [2]])).all()


def chain_homology(what, sizes, d, p):
    """Homology of a chain complex given by dense maps, ``d[s]`` leaving
    ``s`` for ``s - 1``: a rank table in the chain direction whose levels
    are one block each, read at every ``s`` of ``sizes``."""
    table = _RankTable(what, p, ((s, d[s], (0, d[s].shape[0]), (0, d[s].shape[1]))
                                 for s in sorted(d, reverse=True)), -1,
                       lambda first, then: _check_dd(what, first, then, p))
    return {s: h for s, n in sizes.items() if (h := table.homology(s, 0, n))}


def two_term_homology(entry, p):
    # k --(entry)--> k as a chain complex C_1 -> C_0
    d = {1: np.array([[entry % p]], dtype=np.int64)}
    return chain_homology("two-term", {0: 1, 1: 1}, d, p)


def test_matrix_sums_repeats_and_refuses_unknown_keys():
    images = {"a": [("x", 2), ("z", 4), ("x", 3)], "b": [("y", 1), ("z", -1), ("y", 1)]}
    m = _matrix(["a", "b"], ["x", "y", "z"], images.__getitem__, 5)
    assert m.tolist() == [[0, 0], [0, 2], [4, 4]]  # 2 + 3 reaches p
    assert _matrix([], ["x", "y"], images.__getitem__, 5).shape == (2, 0)
    assert _matrix(["a"], [], lambda b: [], 5).shape == (0, 1)
    with pytest.raises(KeyError):
        _matrix(["a"], ["x", "y"], images.__getitem__, 5)


def test_homology_of_zero_and_identity_differential():
    assert two_term_homology(0, 3) == {0: 1, 1: 1}
    assert two_term_homology(1, 3) == {}
    assert two_term_homology(3, 3) == {0: 1, 1: 1}


def test_homology_periodic_truncated_strand():
    # A = k[x]/x^2 with |x| = 3: two-term complex A <-(x)- s^3 A; in internal
    # degree 0 only A has a basis element, in degree 3 both do and x maps
    # one onto the other.
    p = 2
    assert chain_homology("strand", {0: 1, 1: 0}, {1: np.zeros((1, 0), dtype=np.int64)},
                          p) == {0: 1}
    assert chain_homology("strand", {0: 1, 1: 1}, {1: np.array([[1]])}, p) == {}


def test_dd_nonzero_rejected():
    p = 3
    d = {0: np.array([[1]]), 1: np.array([[1]])}
    with pytest.raises(CrossCheckError, match="d\\*d"):
        _homology("bad", {0: 1, 1: 1, 2: 1}, d, p)
    with pytest.raises(CrossCheckError):
        _check_dd("bad", np.array([[1]]), np.array([[2]]), p)


def test_negative_homology_dimension_rejected():
    # both maps of rank 1 around a line, as a rank table whose d*d nobody
    # checked would read them (ranked with clearing, the second map is 0)
    table = _RankTable("bad", 3, (), 1)
    table.update({(0, 0): 1, (1, 0): 1})
    with pytest.raises(CrossCheckError, match="negative bad homology dimension at s = 1"):
        table.homology(1, 0, 1)


def test_rank_table_clears_only_across_consecutive_levels():
    # a zero level left out breaks the chain of clearing: the lows of
    # level 0 are rows of level 1, not columns of level 2
    one = K.Sparse((1, 1), np.array([0]), np.array([0]), np.array([1]))
    checked = []
    table = _RankTable("gap", 3, ((s, one, (0, 1), (0, 1)) for s in (0, 2)), 1,
                       lambda first, then: checked.append(1))
    assert dict(table) == {(0, 0): 1, (2, 0): 1} and checked == []
    assert table.homology(1, 0, 1) == 0 and table.homology(3, 0, 2) == 1


def test_homology_with_zero_differentials_equals_spaces():
    p = 5
    sizes = {0: 3, 1: 4}
    d = {1: np.zeros((3, 4), dtype=np.int64)}
    assert chain_homology("zero", sizes, d, p) == sizes
    assert _homology("zero", sizes, {0: d[1].T}, p) == sizes
    assert _homology("zero", sizes, {}, p) == sizes


def _ranks_with_clearing(monkeypatch):
    """Record, for every kernel rank call on a level, the number of columns
    it was told to clear and how it ended: "sparse" without ``rref``, "at
    once" if ``rref`` ran and no lows came back, "hand-off" if both
    happened."""
    rank_blocks, rref = K.rank_blocks, K.rref
    seen, handed = [], []

    def handing(a, q):
        handed.append(1)
        return rref(a, q)

    def ranking(a, q, rows, cols, clear=(), lows=None):
        before = len(handed)
        r = rank_blocks(a, q, rows, cols, clear, lows)
        path = "sparse" if len(handed) == before else "hand-off" if lows else "at once"
        seen.append((a.shape, len(clear), path))
        return r

    monkeypatch.setattr(K, "rref", handing)
    monkeypatch.setattr(K, "rank_blocks", ranking)
    return seen


def sparse_of(a):
    """``a`` as a ``K.Sparse``, its nonzeros listed by column."""
    cols, rows = np.nonzero(a.T)
    return K.Sparse(a.shape, rows, cols, a[rows, cols])


def random_complex(rng, p, density):
    """Maps ``a: F^60 -> F^120``, ``b: F^120 -> F^30`` and ``c: F^30 -> F^20``
    with ``b @ a = c @ b = 0``: ``b`` is random with about ``density`` of
    its entries nonzero, the columns of ``a`` are sparse combinations of
    its kernel vectors, and the rows of ``c`` of its left kernel vectors."""
    def sparse(m, n, dens):
        return rng.integers(1, p, size=(m, n), endpoint=p == 2) * (rng.random((m, n)) < dens)

    b = sparse(30, 120, density)
    ker, coker = K.nullspace(b, p), K.nullspace(b.T, p)
    a = ker @ sparse(ker.shape[1], 60, 1 / ker.shape[1]) % p
    c = (coker @ sparse(coker.shape[1], 20, 0.3) % p).T
    return a, b, c


def ranked_a_then_b_cleared(seen, a, b, path):
    """The first two rank calls ``seen`` are ``a`` with nothing cleared and
    ``b`` with some columns cleared, ending by ``path``."""
    (a_shape, a_cleared, _), (b_shape, b_cleared, b_path) = seen[:2]
    assert (a_shape, a_cleared) == (a.shape, 0)
    assert b_shape == b.shape and b_cleared > 0 and b_path == path


@pytest.mark.parametrize("p", [2, 3, 97])
@pytest.mark.parametrize("step", [1, -1])
def test_homology_with_clearing_matches_rref_ranks(monkeypatch, p, step):
    # the middle map b is cleared by the lows of a at each density: it stays
    # sparse, hands off to rref part-way, or goes to rref at once
    seen = _ranks_with_clearing(monkeypatch)
    rng = np.random.default_rng(p)
    for density, path in ((0.03, "sparse"), (0.2, "hand-off"), (0.6, "at once")):
        a, b, c = random_complex(rng, p, density)
        assert not (b @ a % p).any() and not (c @ b % p).any()
        if step == 1:
            sizes, d = {0: 60, 1: 120, 2: 30, 3: 20}, {0: a, 1: b, 2: c}
        else:
            sizes, d = {0: 20, 1: 30, 2: 120, 3: 60}, {3: a, 2: b, 1: c}
        want = {s: len(K.rref(m, p)[1]) for s, m in d.items()}
        homology = {s: n - want.get(s, 0) - want.get(s - step, 0) for s, n in sizes.items()}
        if step == 1:  # the diagram layer's dense cochain maps
            seen.clear()
            assert _homology("random", sizes, d, p) == {s: h for s, h in homology.items() if h}
            ranked_a_then_b_cleared(seen, a, b, path)
        # the same complex as K.Sparse levels of one block each, in the
        # direction of the differential, ranked by a rank table
        seen.clear()
        table = _RankTable("random", p, (
            (s, sparse_of(d[s]), (0, d[s].shape[0]), (0, d[s].shape[1]))
            for s in sorted(d, reverse=step < 0)), step,
            lambda first, then: _check_dd("random", first, then, p))
        ranked_a_then_b_cleared(seen, a, b, path)
        assert dict(table) == {(s, 0): r for s, r in want.items() if r}
        assert {s: table.homology(s, 0, n) for s, n in sizes.items()} == homology


def test_failed_dd_check_never_clears(monkeypatch):
    seen = _ranks_with_clearing(monkeypatch)
    p = 3
    a = np.array([[1], [0], [0], [0]])  # sparse, so its low is reported
    bad, good = {0: a, 1: np.array([[1, 0, 0, 1]])}, {0: a, 1: np.array([[0, 0, 0, 1]])}
    sizes = {0: 1, 1: 4, 2: 1}
    with pytest.raises(CrossCheckError, match="bad differential fails d\\*d = 0"):
        _homology("bad", sizes, bad, p)
    # the check comes before the second map is ranked
    assert [(shape, cleared) for shape, cleared, _ in seen] == [(a.shape, 0)]
    seen.clear()
    assert _homology("good", sizes, good, p) == {1: 2}
    # the pair passed, so the low of a, row 0, clears column 0 of the map after it
    assert [cleared for _, cleared, _ in seen] == [0, 1]


@pytest.mark.parametrize("p", [2, 97])
def test_float64_dd_check_matches_int64_product(p):
    rng = np.random.default_rng(p)
    zero = nonzero = 0
    for trial in range(40):
        n0, n1, n2 = (int(x) for x in rng.integers(1, 60, 3))
        b = rng.integers(0, p, size=(n2, n1), dtype=np.int64)
        if trial % 2:
            # composite zero: a's columns span part of the kernel of b
            ker = K.nullspace(b, p)
            a = (ker @ rng.integers(0, p, size=(ker.shape[1], n0))) % p
            if trial % 4 == 1:
                b[:, :] = p - 1  # entries at the top of the range
                ker = K.nullspace(b, p)
                a = (ker @ rng.integers(0, p, size=(ker.shape[1], n0))) % p
        else:
            a = rng.integers(0, p, size=(n1, n0), dtype=np.int64)
        want = bool(((b @ a) % p).any())
        zero += not want
        nonzero += want
        if want:
            with pytest.raises(CrossCheckError):
                _check_dd("random", a, b, p)
        else:
            _check_dd("random", a, b, p)
    assert zero >= 10 and nonzero >= 10
    # a long inner dimension with every entry p - 1 stays exact
    n = 200_000
    a = np.full((n, 1), p - 1, dtype=np.int64)
    b = np.full((1, n), p - 1, dtype=np.int64)
    assert bool(((b @ a) % p).any()) == (n * (p - 1) ** 2 % p != 0)
    if n * (p - 1) ** 2 % p:
        with pytest.raises(CrossCheckError):
            _check_dd("long", a, b, p)
    else:
        _check_dd("long", a, b, p)


def test_parity_verdict():
    assert BigradedTable({(2, 4): 1}).parity_verdict().verdict == "even"
    assert BigradedTable({(1, 2): 1}).parity_verdict().verdict == "odd"
    assert BigradedTable({(0, 0): 1, (1, 2): 1}).parity_verdict().verdict == "neither"
    empty = BigradedTable().parity_verdict()
    assert empty.verdict == "even" and empty.empty


def test_table_serialization_roundtrips():
    T = BigradedTable({(0, 0): 1, (2, -6): 3, (1, -2): 2})
    assert BigradedTable.from_json(T.to_json()) == T
    assert BigradedTable.from_csv(T.to_csv()) == T
    assert T.total_dims() == {0: 1, -8: 3, -3: 2}


def test_hilbert_series_basics():
    s = HilbertSeries({0: 1, 2: 1, 4: 1}, cap=5)
    assert s[4] == 1 and s[5] == 0
    with pytest.raises(CapError):
        s[6]
    with pytest.raises(ValidationError):
        HilbertSeries({0: -1}, cap=2)


def test_free_commutative_series():
    # polynomial generator of degree 2
    assert free_commutative_series([(2, 1)], 8, 3).nonzero() == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    # exterior generator of odd degree at odd p
    assert free_commutative_series([(3, 1)], 9, 3).nonzero() == {0: 1, 3: 1}
    # at p=2 odd degrees are polynomial
    assert free_commutative_series([(3, 1)], 9, 2).nonzero() == {0: 1, 3: 1, 6: 1, 9: 1}
    # tensor: exterior(3) x polynomial(8)
    got = free_commutative_series([(3, 1), (8, 1)], 11, 3).nonzero()
    assert got == {0: 1, 3: 1, 8: 1, 11: 1}


def test_subquotient_dims_and_coords():
    p = 5
    # d_out: F^3 -> F^1 kills (1,1,1)-orthogonal stuff; d_in image = span{(1,4,0)}
    d_out = np.array([[1, 1, 1]], dtype=np.int64)
    d_in = np.array([[1], [4], [0]], dtype=np.int64)
    H = Subquotient(d_out, d_in, p)
    assert H.dim == 1
    reps = H.representatives()
    assert reps.shape == (3, 1)
    # coords of a boundary vanish
    assert (H.coords(np.array([1, 4, 0])) == 0).all()
    # coords of rep is the unit vector
    assert (H.coords(reps[:, 0]) == np.array([1])).all()
    with pytest.raises(ValidationError):
        H.coords(np.array([1, 0, 0]))  # not a cycle


@pytest.mark.parametrize("p", [2, 3, 97])
def test_subquotient_coords_of_a_matrix_are_its_columns_coords(p):
    rng = np.random.default_rng(p)
    _, b, _ = random_complex(rng, p, 0.05)
    ker = K.nullspace(b, p)
    # four boundaries dense in the cycle coordinates
    a = ker @ rng.integers(0, p, (ker.shape[1], 4)) % p
    H = Subquotient(b, a, p)
    assert H.dim == ker.shape[1] - 4
    reps = H.representatives()
    mixed = (reps[:, :4] + a) % p
    combos = H.cycles @ rng.integers(0, p, (H.cycles.shape[1], 6)) % p
    cycles = np.concatenate([reps, a, mixed, combos], axis=1)
    got = H.coords(cycles)
    assert got.shape == (H.dim, cycles.shape[1])
    assert (got == np.stack([H.coords(v) for v in cycles.T], axis=1)).all()
    # a representative is its unit vector, a boundary is zero, and adding
    # a boundary keeps the class
    n = H.dim
    assert (got[:, :n] == np.eye(n, dtype=np.int64)).all()
    assert not got[:, n: n + 4].any()
    assert (got[:, n + 4: n + 8] == np.eye(n, dtype=np.int64)[:, :4]).all()
    # one column off the cycles spoils the whole call
    off = next(e for e in np.eye(b.shape[1], dtype=np.int64) if (b @ e % p).any())
    cycles[:, 3] = off
    with pytest.raises(ValidationError):
        H.coords(cycles)
