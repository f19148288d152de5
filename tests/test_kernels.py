import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def bar_blocks(monkeypatch, A, cap):
    """Every block ``bar_homology_dims(A, cap)`` ranks, as a dense matrix:
    the degree blocks of each level it hands the kernel, as ``K.rank``
    would see them ranked alone."""
    blocks = []
    rank_blocks = K.rank_blocks

    def recorded(a, q, rows, cols, *args, **kw):
        dense = np.asarray(a)
        blocks.extend(dense[r0:r1, c0:c1]
                      for r0, r1, c0, c1 in zip(rows, rows[1:], cols, cols[1:]))
        return rank_blocks(a, q, rows, cols, *args, **kw)

    monkeypatch.setattr(K, "rank_blocks", recorded)
    bar_homology_dims(A, cap=cap)
    monkeypatch.setattr(K, "rank_blocks", rank_blocks)
    return blocks


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_hands_off_to_rref_only_when_fill_grows(monkeypatch, p):
    rank, rref = K.rank, K.rref
    bar = bar_blocks(monkeypatch, MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)]), 14)
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
    rank_blocks, eliminate = K.rank_blocks, K.eliminate

    def run(clearing):
        cleared, steps = [], []

        def ranking(a, q, rows, cols, clear=(), lows=None):
            cleared.append(len(clear))
            return rank_blocks(a, q, rows, cols, clear if clearing else (), lows)

        monkeypatch.setattr(K, "rank_blocks", ranking)
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


def block_diagonal(blocks):
    """The block-diagonal matrix of ``blocks`` and its row and column
    bounds."""
    rows = np.add.accumulate([0] + [b.shape[0] for b in blocks]).tolist()
    cols = np.add.accumulate([0] + [b.shape[1] for b in blocks]).tolist()
    a = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for b, r0, c0 in zip(blocks, rows, cols):
        a[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
    return a, rows, cols


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_blocks_is_one_rank_per_block(monkeypatch, p):
    # each block is ranked, handed to rref and cleared as if ranked alone:
    # the same ranks, the same lows (shifted to the block's rows) and the
    # same rref calls, dense and as a K.Sparse, with and without clearing
    rng, shuffle = np.random.default_rng(p + 3), np.random.default_rng(2)
    rref, calls = K.rref, []
    monkeypatch.setattr(K, "rref", lambda a, q: calls.append(a.shape) or rref(a, q))

    def block(m, n, density):
        return rng.integers(1, p, size=(m, n), endpoint=p == 2) * (rng.random((m, n)) < density)

    blocks = [block(60, 45, 0.03),  # stays sparse
              block(60, 60, 0.2),  # hands off part-way
              block(30, 40, 0.6),  # goes to rref at once
              block(12, 5, 0.7),  # too narrow for either hand-off
              block(5, 0, 1), block(0, 4, 1), np.zeros((3, 3), dtype=np.int64),
              block(20, 20, 0.6) * p]  # listed entries that p divides
    paths = [len(calls)]
    for b in blocks:
        K.rank(b, p)
        paths.append(len(calls))
    assert np.diff(paths).tolist() == [0, 1, 1, 0, 0, 0, 0, 1]
    a, rows, cols = block_diagonal(blocks)
    for clearing in (False, True):
        clear = {int(c) for c in rng.choice(a.shape[1], 40, replace=False)} if clearing else set()
        calls.clear()
        want, want_lows = [], set()
        for b, r0, c0, c1 in zip(blocks, rows, cols, cols[1:]):
            lows = set()
            want.append(K.rank(b, p, {c - c0 for c in clear if c0 <= c < c1}, lows))
            want_lows |= {r0 + r for r in lows}
        alone = list(calls)
        for form in (np.asarray, lambda m: sparse(m, shuffle)):
            calls.clear()
            lows = set()
            assert K.rank_blocks(form(a), p, rows, cols, clear, lows) == want
            assert lows == want_lows and calls == alone
        if not clearing:
            assert want == [len(rref(b, p)[1]) for b in blocks]


def reference_rank_blocks(a, p, rows, cols, clear=(), lows=None):
    """``rank_blocks`` with every live column read into a dictionary, its
    low found by ``max``, normalised and stored, and no array pass: the
    reference for the kernel's ranks, lows and ``rref`` hand-offs."""
    if isinstance(a, K.Sparse):
        height, width = a.shape
        ri, ci, vals = a.rows, a.cols, a.vals % p
    else:
        a = K._int64_matrix(a)
        height, width = a.shape
        ri, ci = np.divmod(np.flatnonzero(a != 0), max(width, 1))
        ci, ri = np.divmod(np.sort(ci * height + ri), height)
        vals = a[ri, ci] % p
    if not len(vals):
        return [0] * (len(cols) - 1)
    listed = ci.searchsorted(cols).tolist()
    if not vals.all():
        keep = vals != 0
        ri, ci, vals = ri[keep], ci[keep], vals[keep]
    ends = [0] + np.add.accumulate(np.bincount(ci, minlength=width)).tolist()
    ri, vals = ri.tolist(), vals.tolist()
    out = []
    for r0, r1, c0, c1, e0, e1 in zip(rows, rows[1:], cols, cols[1:], listed, listed[1:]):
        h, w, nnz = r1 - r0, c1 - c0, e1 - e0
        if not nnz:
            out.append(0)
            continue
        if w >= K.FILL_CHECK_AFTER and nnz * K.FILL_INPUT > h * w:
            out.append(len(K.rref(K._kept(a, r0, r1, c0, c1, clear), p)[1]))
            continue
        pivots, stored, handed = {}, 0, None
        for j in range(c0, c1):
            start, end = ends[j], ends[j + 1]
            if start == end or j in clear:
                continue
            col = dict(zip(ri[start:end], vals[start:end]))
            low = max(col)
            if low in pivots:
                low = K.eliminate(col, low, pivots, p)
                if low is None:
                    continue
            inv = pow(col[low], p - 2, p)
            pivots[low] = col = {r: v * inv % p for r, v in col.items()}
            stored += len(col)
            if len(pivots) >= K.FILL_CHECK_AFTER and stored * K.FILL_PIVOTS > h * len(pivots):
                rest = K._kept(a, r0, r1, j + 1, c1, clear)
                dense = np.zeros((h, len(pivots) + rest.shape[1]), dtype=np.int64)
                for k, c in enumerate(pivots.values()):
                    dense[[r - r0 for r in c], k] = list(c.values())
                dense[:, len(pivots):] = rest
                handed = len(K.rref(dense, p)[1])
                break
        if lows is not None:
            lows.update(pivots)
        out.append(len(pivots) if handed is None else handed)
    return out


@st.composite
def block_levels(draw):
    """A prime and a block-diagonal matrix: up to five blocks of up to 40 x
    40, each random or of rank at most 4, at densities that stay sparse,
    hand off to ``rref`` part-way or at once; at p = 2 some listed entries
    are 2, divisible by p.  With a random set of columns to clear, or
    none, and a seed to shuffle the rows within each column."""
    p = draw(st.sampled_from([2, 3, 97]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        density = draw(st.sampled_from([0.03, 0.1, 0.25, 0.6]))
        if draw(st.booleans()):
            b = rng.integers(1, p, size=(m, n), endpoint=p == 2) * (rng.random((m, n)) < density)
        else:  # rank at most 4: many columns reduce, some to zero
            x = rng.integers(0, p, size=(m, 4)) * (rng.random((m, 4)) < density)
            b = (x @ rng.integers(0, p, size=(4, n))) % p
        blocks.append(b)
    a, rows, cols = block_diagonal(blocks)
    clear = set()
    if draw(st.booleans()) and a.shape[1]:
        clear = {int(c) for c in rng.choice(a.shape[1], a.shape[1] // 3, replace=False)}
    return p, a, rows, cols, clear, int(rng.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(level=block_levels())
def test_rank_blocks_matches_the_reference_that_reads_every_column(level):
    # the same ranks, the same lows and the same rref hand-offs (the very
    # matrices, so at the same columns) as the reference, dense and as a
    # K.Sparse with its rows shuffled within each column
    p, a, rows, cols, clear, seed = level
    rref, calls = K.rref, []
    K.rref = lambda m, q: calls.append(np.array(m)) or rref(m, q)
    try:
        for form in (np.asarray, lambda m: sparse(m, np.random.default_rng(seed))):
            got = []
            for rank_blocks in (reference_rank_blocks, K.rank_blocks):
                calls.clear()
                lows = set()
                got.append((rank_blocks(form(a), p, rows, cols, clear, lows), lows, list(calls)))
            (want, want_lows, want_calls), (ranks, lows, handed) = got
            assert ranks == want and lows == want_lows
            assert len(handed) == len(want_calls)
            assert all(np.array_equal(x, y) for x, y in zip(handed, want_calls))
    finally:
        K.rref = rref


@pytest.mark.parametrize("p", [2, 3, 97])
def test_bar_ranks_read_fewer_columns_than_they_rank(monkeypatch, p):
    # on the bar levels of (x1, y3) at cap 14 most live columns (nonempty
    # mod p and not cleared) become pivots as they are and are never read;
    # a read is one unread pivot met by a later column's reduction
    rank_blocks, eliminate = K.rank_blocks, K.eliminate
    live, reads, steps = [], [], []

    def ranking(a, q, rows, cols, clear=(), lows=None):
        d = np.asarray(a) % q
        live.append(sum(1 for j in range(d.shape[1]) if d[:, j].any() and j not in clear))
        return rank_blocks(a, q, rows, cols, clear, lows)

    def eliminating(col, low, pivots, q, read=None):
        steps.append(1)
        return eliminate(col, low, pivots, q, lambda k: reads.append(k) or read(k))

    monkeypatch.setattr(K, "rank_blocks", ranking)
    monkeypatch.setattr(K, "eliminate", eliminating)
    A = MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)])
    table = bar_homology_dims(A, cap=14)
    monkeypatch.undo()
    assert table == bar_homology_dims(A, cap=14)
    assert steps and 0 < len(reads) < sum(live)


def reference_nullspace(a, p):
    """The kernel basis built from ``gauss_jordan``: a column per free
    column, 1 there and minus the reduced entries at the pivots."""
    r, pivots = gauss_jordan(a.tolist(), p)
    n = a.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = -r[i][fc] % p
    return basis


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rref_from_the_pivot_on_matches_gauss_jordan(p):
    # rref updates only the columns from each pivot on; on wide, tall and
    # square matrices with zero columns, full or of low rank, it is the
    # reference's reduced form, and nullspace and solve built on it are too
    rng = np.random.default_rng(p + 17)
    for m, n in ((4, 40), (40, 4), (25, 25), (7, 60), (60, 7)):
        for low_rank in (False, True):
            if low_rank:
                a = (random_matrix(rng, m, 3, p) @ random_matrix(rng, 3, n, p)) % p
            else:
                a = random_matrix(rng, m, n, p)
            a[:, rng.choice(n, n // 4, replace=False)] = 0
            ref, ref_pivots = gauss_jordan(a.tolist(), p)
            r, piv = K.rref(a, p)
            assert piv == ref_pivots and r.tolist() == ref
            assert np.array_equal(K.nullspace(a, p), reference_nullspace(a, p))
            x0 = random_matrix(rng, n, 2, p)
            x = K.solve(a, (a @ x0) % p, p)
            assert x is not None and ((a @ x) % p == (a @ x0) % p).all()
            aug, aug_pivots = gauss_jordan(np.concatenate([a, (a @ x0) % p], axis=1).tolist(), p)
            want = np.zeros((n, 2), dtype=np.int64)
            for i, pc in enumerate(aug_pivots):
                want[pc] = aug[i][n:]
            assert np.array_equal(x, want)
            if len(ref_pivots) < m:  # a right-hand side off the column space
                b = np.zeros(m, dtype=np.int64)
                b[len(ref_pivots):] = 1
                if gauss_jordan(np.concatenate([a, b[:, None]], axis=1).tolist(), p)[1][-1] == n:
                    assert K.solve(a, b, p) is None
