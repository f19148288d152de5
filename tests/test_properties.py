"""Property tests on random small algebras: the dual Hochschild routes, bar
homology against Koszul Tor, and the degree-bucketed cochain basis; on random
generator sets: the free (restricted) Lie closure oracles against the symbol
counts; and on random matrices: rank-nullity, kernels and solves of the
elimination kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fphomalg import _kernels as K
from fphomalg.freelie import (
    Generator,
    bracket_closure_dims,
    free_lie_symbol_dims,
    restricted_closure_dims,
    restricted_symbol_dims,
)
from fphomalg.homalg import (
    HochschildComplex,
    bar_homology_dims,
    hochschild_dims,
    tor_dims,
    trivial_module,
)
from fphomalg.linalg import BigradedTable, GradedVectorSpace
from fphomalg.monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra

SMALL = settings(max_examples=20, deadline=None, derandomize=True)

primes = st.sampled_from([2, 3])
generator_degrees = st.lists(st.integers(1, 5), min_size=1, max_size=2)


def gens(degrees):
    return [("xy"[i], d) for i, d in enumerate(degrees)]


def full_scan_basis(hc, s, t):
    """The cochain basis by scanning every word of level ``s``."""
    out = []
    for wi, w in enumerate(hc.words[s]):
        d = sum(hc.abar[i][1] for i in w) + t
        for mi in range(hc.M.space.dim(d)):
            out.append((wi, d, mi))
    return out


@SMALL
@given(p=primes, degrees=generator_degrees, module_degree=st.integers(1, 6),
       s_max=st.integers(1, 3))
def test_hochschild_routes_agree(p, degrees, module_degree, s_max):
    A = MonomialAlgebra.exterior(p, gens(degrees))
    M = trivial_module(A, degree=module_degree)
    shortcut = hochschild_dims(A, M, s_max=s_max, check=False).restrict(s_max=s_max)
    hc = HochschildComplex(A, M, s_max + 1)
    direct = {}
    for t in hc.t_range(range(s_max + 1)):
        for s in range(s_max):
            hc.verify_dd(s, t)
        for s in range(s_max + 1):
            h = hc.cohomology_dim(s, t)
            if h:
                direct[(s, t)] = h
    assert BigradedTable(direct) == shortcut
    assert shortcut.dim(0, module_degree) == 1


@SMALL
@given(p=primes, kind=st.sampled_from(["exterior", "polynomial"]),
       degrees=st.lists(st.integers(1, 4), min_size=1, max_size=2), cap=st.integers(2, 6))
def test_bar_matches_koszul_tor(p, kind, degrees, cap):
    if kind == "polynomial" and p != 2:
        degrees = [2 * d for d in degrees]  # odd generators are exterior at odd p
    A = getattr(MonomialAlgebra, kind)(p, gens(degrees))
    k = ModuleViaMap.augmentation(A, cap=cap)
    assert bar_homology_dims(A, cap=cap) == tor_dims(A, k, k, cap=cap)


@SMALL
@given(p=primes, degrees=generator_degrees,
       dims=st.dictionaries(st.integers(-2, 8), st.integers(1, 2), min_size=1, max_size=3),
       levels=st.integers(1, 3))
def test_bucketed_basis_matches_full_scan(p, degrees, dims, levels):
    A = MonomialAlgebra.exterior(p, gens(degrees))
    hc = HochschildComplex(A, AlgebraModule.trivial(A, GradedVectorSpace(dims)), levels)
    ts = hc.t_range()
    for t in [ts[0] - 1, *ts, ts[-1] + 1]:
        for s in range(levels + 1):
            assert hc.basis(s, t) == full_scan_basis(hc, s, t)


# --- free Lie closure oracles -------------------------------------------------


@SMALL
@given(p=st.sampled_from([2, 3, 5]),
       degrees=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       cap=st.integers(1, 8), weight_cap=st.integers(1, 6))
def test_closure_oracles_match_symbol_counts(p, degrees, cap, weight_cap):
    g = [Generator("xyz"[i], d) for i, d in enumerate(degrees)]
    caps = dict(p=p, weight_cap=weight_cap)
    assert bracket_closure_dims(g, cap, **caps) == free_lie_symbol_dims(g, cap, **caps)
    assert restricted_closure_dims(g, cap, **caps) == restricted_symbol_dims(g, cap, **caps)


# --- the elimination kernel ----------------------------------------------------

kernel_primes = st.sampled_from([2, 3, 97])


@st.composite
def matrices(draw, rows=st.integers(0, 7), cols=st.integers(0, 7)):
    """``(p, a)`` with ``a`` a random matrix over F_p, often of low rank."""
    p = draw(kernel_primes)
    shape = (draw(rows), draw(cols))
    a = draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))
    if draw(st.booleans()) and shape[0] > 1:
        a[1:] = (a[:1] * draw(st.integers(0, p - 1))) % p  # rank at most 1
    return p, a


@SMALL
@given(pa=matrices())
def test_rank_plus_nullity_is_columns(pa):
    p, a = pa
    ker = K.nullspace(a, p)
    assert K.rank(a, p) + ker.shape[1] == a.shape[1]
    assert not ((a @ ker) % p).any()
    assert K.rank(ker, p) == ker.shape[1]  # the kernel basis is independent


@SMALL
@given(pa=matrices(), data=st.data())
def test_solve_recovers_a_consistent_system(pa, data):
    p, a = pa
    x = data.draw(arrays(np.int64, a.shape[1], elements=st.integers(0, p - 1)))
    y = K.solve(a, (a @ x) % p, p)
    assert y is not None
    assert not ((a @ (y - x)) % p).any()


@SMALL
@given(pa=matrices(), data=st.data())
def test_solve_refuses_an_inconsistent_system(pa, data):
    p, a = pa
    # a zero row with a nonzero right-hand side has no solution
    b = data.draw(arrays(np.int64, a.shape[0], elements=st.integers(0, p - 1)))
    a0 = np.vstack([a, np.zeros((1, a.shape[1]), dtype=np.int64)])
    b0 = np.append(b, data.draw(st.integers(1, p - 1)))
    assert K.solve(a0, b0, p) is None
    # and a right-hand side is solvable exactly when it adds no rank
    consistent = K.rank(np.column_stack([a, b]), p) == K.rank(a, p)
    assert (K.solve(a, b, p) is not None) == consistent
