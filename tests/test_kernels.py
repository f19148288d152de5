import numpy as np
import pytest

from fphomalg import _kernels as K


PRIMES = [2, 3, 5, 7, 97]


def random_matrix(rng, m, n, p):
    return rng.integers(0, p, size=(m, n), dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_reproduces_matrix_row_space(p):
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = random_matrix(rng, m, n, p)
        r, pivots = K.rref(a, p)
        assert len(pivots) == K.rank(a, p)
        # every original row is a combination of the rref rows
        for row in a:
            assert K.in_span(r[: len(pivots)], row, p)
        # pivot structure: unit columns
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and (np.delete(col, i) % p == 0).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_and_rank_nullity(p):
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        a = random_matrix(rng, m, n, p)
        ns = K.nullspace(a, p)
        assert ns.shape[0] == n
        assert K.rank(a, p) + ns.shape[1] == n
        if a.size and ns.size:
            assert ((a @ ns) % p == 0).all()
        # columns independent
        assert K.rank(ns.T, p) == ns.shape[1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_consistent_and_inconsistent(p):
    rng = np.random.default_rng(3)
    for _ in range(40):
        m, n, k = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        a = random_matrix(rng, m, n, p)
        x0 = rng.integers(0, p, size=(n, k), dtype=np.int64)
        b = (a @ x0) % p
        x = K.solve(a, b, p)
        assert x is not None
        assert ((a @ x) % p == b).all()
    # inconsistent system
    a = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([1, 2 % p], dtype=np.int64)
    if p > 2:
        assert K.solve(a, b, p) is None


def test_zero_shapes():
    for p in (2, 5):
        assert K.rank(np.zeros((0, 4), dtype=np.int64), p) == 0
        assert K.nullspace(np.zeros((0, 4), dtype=np.int64), p).shape == (4, 4)
        assert K.nullspace(np.zeros((3, 0), dtype=np.int64), p).shape == (0, 0)


def gauss_jordan(rows, p):
    """Reduced row echelon form and pivot columns by textbook Gauss-Jordan
    elimination on lists of Python ints: the reference for the kernel."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def test_rref_and_rank_match_gauss_jordan():
    # The kernel against an independent reference on lists of Python ints.
    rng = np.random.default_rng(5)
    for p in (2, 3, 97):
        for trial in range(30):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            if trial % 2:  # rank at most k: dependent rows and skipped columns
                k = int(rng.integers(1, 4))
                a = (random_matrix(rng, m, k, p) @ random_matrix(rng, k, n, p)) % p
            else:
                a = random_matrix(rng, m, n, p)
            ref, ref_pivots = gauss_jordan(a.tolist(), p)
            r, piv = K.rref(a, p)
            assert piv == ref_pivots and r.tolist() == ref
            assert K.rank(a, p) == len(ref_pivots)


@pytest.mark.parametrize("p", [2, 5])
def test_rref_leaves_its_argument_unchanged(p):
    rng = np.random.default_rng(11)
    reduced = random_matrix(rng, 6, 7, p)  # already in [0, p)
    unreduced = reduced + p * rng.integers(-3, 4, size=reduced.shape)
    unreduced[0, 0] = -1
    for a in (reduced, unreduced, unreduced.T):
        before = a.copy()
        r, piv = K.rref(a, p)
        assert np.array_equal(a, before)
        assert r is not a and piv
