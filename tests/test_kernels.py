import numpy as np
import pytest

from fphomalg import _kernels as K
from fphomalg.homalg import bar_homology_dims
from fphomalg.monalg import MonomialAlgebra


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
        assert K.solve(r[: len(pivots)].T, a.T, p) is not None
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
    # The last trials are sparse and large enough for ``rank`` to store more
    # than FILL_CHECK_AFTER pivots, and so to reach its hand-off to rref.
    rng = np.random.default_rng(5)
    for p in (2, 3, 97):
        for trial in range(40):
            size = 10 if trial < 30 else 45
            m, n = int(rng.integers(1, size)), int(rng.integers(1, size))
            if trial % 2:  # rank at most k: dependent rows and skipped columns
                k = int(rng.integers(1, 4 if trial < 30 else 30))
                a = (random_matrix(rng, m, k, p) @ random_matrix(rng, k, n, p)) % p
            else:
                a = random_matrix(rng, m, n, p)
            if trial >= 30:
                a *= rng.random(a.shape) < rng.choice([0.03, 0.1, 0.25, 0.5])
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


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_hands_off_to_rref_only_when_fill_grows(monkeypatch, p):
    rank, rref = K.rank, K.rref
    bar = []  # the matrices bar homology ranks, up to degree 14
    monkeypatch.setattr(K, "rank",
                        lambda a, *args, **kw: bar.append(np.array(a)) or rank(a, *args, **kw))
    bar_homology_dims(MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)]), cap=14)
    monkeypatch.setattr(K, "rank", rank)
    calls = []
    monkeypatch.setattr(K, "rref", lambda a, q: calls.append(a) or rref(a, q))
    rng = np.random.default_rng(p)
    # a dense input goes to rref whole
    a = rng.integers(1, p, size=(60, 60), endpoint=p == 2)
    assert K.rank(a, p) == len(rref(a, p)[1])
    assert len(calls) == 1 and calls[0] is a
    # a fifth nonzero: sparse at first, then the pivot columns are too full,
    # and rref gets the pivots found plus the columns not yet read
    calls.clear()
    a = rng.integers(1, p, size=(60, 60), endpoint=p == 2) * (rng.random((60, 60)) < 0.2)
    assert np.count_nonzero(a) * K.FILL_INPUT <= a.size
    assert K.rank(a, p) == len(rref(a, p)[1])
    assert len(calls) == 1 and calls[0] is not a
    # the largest bar differential stays sparse throughout
    calls.clear()
    d = max(bar, key=np.size)
    assert d.shape == (105, 84)
    assert K.rank(d, p) == len(rref(d, p)[1]) > K.FILL_CHECK_AFTER
    assert calls == []


@pytest.mark.parametrize("p", [2, 3, 97])
def test_bar_homology_clears_and_eliminates_less(monkeypatch, p):
    A = MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)])
    rank, eliminate = K.rank, K.eliminate

    def run(clearing):
        cleared, steps = [], []

        def ranking(a, q, clear=(), lows=None):
            cleared.append(len(clear))
            return rank(a, q, clear if clearing else (), lows)

        monkeypatch.setattr(K, "rank", ranking)
        monkeypatch.setattr(K, "eliminate", lambda *args: steps.append(1) or eliminate(*args))
        return bar_homology_dims(A, cap=14), max(cleared), len(steps)

    table, most, fewer = run(True)
    unclear_table, _, more = run(False)
    assert most > 0 and unclear_table == table and more > fewer


def sparse(a, rng):
    """``a`` as a ``K.Sparse``: its nonzeros by column, in random order
    within each column."""
    ci, ri = np.nonzero(a.T)
    order = np.lexsort((rng.random(len(ci)), ci))
    ri, ci = ri[order], ci[order]
    return K.Sparse(a.shape, ri, ci, a[ri, ci])


@pytest.mark.parametrize("p", [2, 3, 97])
def test_sparse_transpose_is_sorted_by_column_and_ranks_as_it_is(p):
    # the transpose of a K.Sparse with its rows shuffled within each column
    # is the dense transpose, sorted by its new column and, the sort being
    # stable, by the old column within each; rank reads it as it is
    rng = np.random.default_rng(p)
    for shape in ((0, 4), (5, 0), (30, 20), (20, 30)):
        a = rng.integers(0, p, size=shape, endpoint=p == 2) * (rng.random(shape) < 0.2)
        t = sparse(a, rng).T
        assert t.shape == a.T.shape and np.array_equal(np.asarray(t), a.T)
        assert (np.lexsort((t.rows, t.cols)) == np.arange(len(t.vals))).all()
        assert K.rank(t, p) == K.rank(a, p) == len(K.rref(a.T, p)[1])


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_reports_lows_and_never_reads_cleared_columns(monkeypatch, p):
    # each input runs as a dense array and as a K.Sparse with its rows
    # shuffled within each column; at p = 2 some entries are 2, divisible by p
    rng, shuffle = np.random.default_rng(p + 1), np.random.default_rng(0)
    forms = (np.asarray, lambda m: sparse(m, shuffle))
    rref, calls = K.rref, []
    monkeypatch.setattr(K, "rref", lambda a, q: calls.append(a) or rref(a, q))
    for density, path in ((0.03, "sparse"), (0.2, "hand-off"), (0.6, "at once")):
        a = rng.integers(1, p, size=(60, 45), endpoint=p == 2) * (rng.random((60, 45)) < density)
        # the rows i at which some vector of the column space has its lowest
        # nonzero entry: the leading columns of the row space of a reversed
        every_low = {59 - c for c in rref(a[::-1].T, p)[1]}
        reported = []
        for form in forms:
            calls.clear()
            lows = set()
            assert K.rank(form(a), p, (), lows) == len(rref(a, p)[1])
            assert bool(calls) == (path != "sparse") and bool(lows) == (path != "at once")
            assert lows <= every_low
            if path == "sparse":
                assert lows == every_low
            reported.append(lows)
        assert reported[0] == reported[1]
        # a random column raises the rank if it is read, by the sparse
        # reduction or by rref; the last one comes after any hand-off
        for j in (7, 44):
            poisoned = a.copy()
            poisoned[:, j] = rng.integers(0, p, size=60)
            for form in forms:
                rest = K.rank(form(np.delete(a, j, axis=1)), p)
                assert K.rank(form(poisoned), p) > rest == K.rank(form(poisoned), p, {j})


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_keeps_a_narrow_input_sparse_whatever_its_fill(monkeypatch, p):
    # under FILL_CHECK_AFTER columns the at-once hand-off is never taken, as
    # the pivot-fill one is not: no rref call, and every low is reported
    rng, shuffle = np.random.default_rng(p + 2), np.random.default_rng(1)
    rref, calls = K.rref, []
    monkeypatch.setattr(K, "rref", lambda a, q: calls.append(a) or rref(a, q))
    for cols in (1, 5, K.FILL_CHECK_AFTER - 1):
        a = rng.integers(1, p, size=(12, cols), endpoint=p == 2) * (rng.random((12, cols)) < 0.7)
        assert np.count_nonzero(a) * K.FILL_INPUT > a.size
        every_low = {11 - c for c in rref(a[::-1].T, p)[1]}
        for form in (np.asarray, lambda m: sparse(m, shuffle)):
            calls.clear()
            lows = set()
            assert K.rank(form(a), p, (), lows) == len(rref(a, p)[1]) == len(lows)
            assert calls == [] and lows == every_low


def eliminate_rank(columns, p):
    """Rank of sparse columns ({row key: value}) through ``K.eliminate``,
    each column that does not vanish stored normalised at its lowest row."""
    pivots = {}
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        if not col:
            continue
        low = K.eliminate(col, max(col), pivots, p)
        if low is None:
            continue
        inv = pow(col[low], p - 2, p)
        pivots[low] = {r: v * inv % p for r, v in col.items()}
    for low, col in pivots.items():
        assert low == max(col) and col[low] == 1
    return len(pivots)


@pytest.mark.parametrize("p", [2, 3, 97])
@pytest.mark.parametrize("keys", ["int", "word"])
def test_eliminate_rank_matches_gauss_jordan(p, keys):
    # Random sparse matrices, half of them of low rank, as columns keyed by
    # row index, or by distinct words of mixed lengths assigned in random
    # order (the rank does not depend on the order of the rows).
    rng = np.random.default_rng(13)
    for trial in range(40):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        if trial % 2:
            k = int(rng.integers(1, 6))
            a = (random_matrix(rng, m, k, p) @ random_matrix(rng, k, n, p)) % p
        else:
            a = random_matrix(rng, m, n, p)
        a *= rng.random(a.shape) < rng.choice([0.05, 0.15, 0.4])
        if keys == "int":
            rows = list(range(m))
        else:
            words = set()
            while len(words) < m:
                words.add(tuple(int(x) for x in rng.integers(0, 3, size=int(rng.integers(1, 6)))))
            words = sorted(words)
            rows = [words[i] for i in rng.permutation(m)]
        columns = [{rows[i]: int(a[i, j]) for i in np.flatnonzero(a[:, j])} for j in range(n)]
        assert eliminate_rank(columns, p) == len(gauss_jordan(a.tolist(), p)[1])
