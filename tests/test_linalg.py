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
    free_commutative_series,
    parity_verdict,
    shift,
)


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(97)
    for bad in (1, 4, 91, 101, -3):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_shift_examples():
    assert shift(GradedVectorSpace({1: 1}), 1) == GradedVectorSpace({2: 1})
    assert shift(GradedVectorSpace({}), 5) == GradedVectorSpace({})
    assert shift(GradedVectorSpace({2: 3, 5: 1}), -1) == GradedVectorSpace({1: 3, 4: 1})


def test_shift_is_additive_and_invertible():
    rng = np.random.default_rng(0)
    for _ in range(30):
        dims = {int(d): int(n) for d, n in zip(rng.integers(-8, 9, 4), rng.integers(1, 4, 4))}
        V = GradedVectorSpace(dims)
        a, b = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        assert shift(V, a + b) == shift(shift(V, a), b)
        assert shift(shift(V, a), -a) == V


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
    assert f.rank(0) == 1
    with pytest.raises(ValidationError):
        GradedMap(V, W, 1, {0: [[1, 0]]}, p)
    g = GradedMap(W, V, 1, {1: [[1, 0], [0, 1]]}, p)
    h = g.compose(f)
    assert h.degree == 2
    assert (h.block(0) == np.array([[1], [2]])).all()


def test_rank_nullity_per_degree():
    p = 5
    rng = np.random.default_rng(9)
    dims_src = {0: 3, 1: 2, 4: 4}
    dims_tgt = {1: 2, 2: 3, 5: 1}
    V, W = GradedVectorSpace(dims_src), GradedVectorSpace(dims_tgt)
    blocks = {
        i: rng.integers(0, p, size=(W.dim(i + 1), V.dim(i)), dtype=np.int64)
        for i in V.degrees()
    }
    f = GradedMap(V, W, 1, blocks, p)
    for i in V.degrees():
        assert f.rank(i) + f.kernel_dim(i) == V.dim(i)


def two_term_homology(entry, p):
    # k --(entry)--> k as a chain complex C_1 -> C_0
    d = {1: np.array([[entry % p]], dtype=np.int64)}
    return _homology("two-term", {0: 1, 1: 1}, d, p, step=-1)


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
    assert _homology("strand", {0: 1, 1: 0}, {1: np.zeros((1, 0), dtype=np.int64)},
                     p, step=-1) == {0: 1}
    assert _homology("strand", {0: 1, 1: 1}, {1: np.array([[1]])}, p, step=-1) == {}


def test_dd_nonzero_rejected():
    p = 3
    d = {0: np.array([[1]]), 1: np.array([[1]])}
    with pytest.raises(CrossCheckError, match="d\\*d"):
        _homology("bad", {0: 1, 1: 1, 2: 1}, d, p)
    with pytest.raises(CrossCheckError):
        _check_dd("bad", np.array([[1]]), np.array([[2]]), p)


def test_negative_homology_dimension_rejected():
    # ranks that no complex can have: both maps of rank 1 around a line
    d = {0: np.array([[1]]), 1: np.array([[0]])}
    with pytest.raises(CrossCheckError, match="negative"):
        _homology("bad", {1: 1}, d, 3, ranks={0: 1, 1: 1})


def test_homology_with_zero_differentials_equals_spaces():
    p = 5
    sizes = {0: 3, 1: 4}
    d = {1: np.zeros((3, 4), dtype=np.int64)}
    assert _homology("zero", sizes, d, p, step=-1) == sizes
    assert _homology("zero", sizes, {}, p) == sizes


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
    assert parity_verdict(BigradedTable({(2, 4): 1})).verdict == "even"
    assert parity_verdict(BigradedTable({(1, 2): 1})).verdict == "odd"
    assert parity_verdict(BigradedTable({(0, 0): 1, (1, 2): 1})).verdict == "neither"
    empty = parity_verdict(BigradedTable())
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


def test_graded_map_from_triplets_matches_dense():
    p = 7
    V = GradedVectorSpace({0: 2})
    W = GradedVectorSpace({1: 2})
    f = GradedMap.from_triplets(V, W, 1, {0: [(0, 1, 3), (1, 0, 6)]}, p)
    assert (f.block(0) == np.array([[0, 3], [6, 0]])).all()
