"""Property tests on random small algebras: the dual Hochschild routes, bar
homology against Koszul Tor, two-sided Tor with the algebra on a side, and
the degree-bucketed cochain basis, the face-ring basis against a filtered
enumeration; on
fixed algebras of every resolved kind: Ext from the strand resolution
against bar homology; on random generator sets: the free (restricted) Lie
closure oracles against the symbol counts; and on random matrices:
rank-nullity, kernels and solves of the elimination kernel, and the sparse
rank against rref at every density."""

import itertools

import numpy as np
import pytest
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
    ext_dims,
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
    """The cochain basis with coefficients k by scanning every word of
    level ``s``: those of degree ``-t``, in word order."""
    return [wi for wi, w in enumerate(hc.words[s])
            if sum(hc.abar[i][1] for i in w) == -t]


@SMALL
@given(p=primes, degrees=generator_degrees, module_degree=st.integers(1, 6),
       s_max=st.integers(1, 3))
def test_hochschild_routes_agree(p, degrees, module_degree, s_max):
    A = MonomialAlgebra.exterior(p, gens(degrees))
    M = trivial_module(A, degree=module_degree)
    # route one, Ext(k, k) (x) M, is Ext(k, M) for the trivial module M;
    # route two, the cochains with coefficients k, shifted by M's degree
    shortcut = ext_dims(A, M, s_max=s_max)
    hc = HochschildComplex(A, s_max + 1)
    direct = {}
    for t in hc.t_range(range(s_max + 1)):
        for s in range(s_max + 1):
            h = hc.cohomology_dim(s, t)
            if h:
                direct[(s, t + module_degree)] = h
    assert BigradedTable(direct) == shortcut
    assert shortcut.dim(0, module_degree) == 1


@SMALL
@given(p=primes, kind=st.sampled_from(["exterior", "polynomial"]),
       degrees=st.lists(st.integers(1, 4), min_size=1, max_size=2), cap=st.integers(2, 6))
def test_bar_matches_koszul_tor(p, kind, degrees, cap):
    if kind == "polynomial" and p != 2:
        degrees = [2 * d for d in degrees]  # odd generators are exterior at odd p
    A = getattr(MonomialAlgebra, kind)(p, gens(degrees))
    k = ModuleViaMap.augmentation(A)
    assert bar_homology_dims(A, cap=cap) == tor_dims(A, k, k, cap=cap)


@st.composite
def strand_algebras(draw):
    """A polynomial, exterior, mixed or truncated algebra on one to three
    generators over F_p, p in {2, 3, 5}: each generator is polynomial or
    truncated by an exponent up to 4 (exterior, if odd at odd p)."""
    p = draw(st.sampled_from([2, 3, 5]))
    generators = list(zip("xyz", draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    caps = {}
    for name, d in generators:
        cap = draw(st.sampled_from([None, 1, 2, 3]))
        if p != 2 and d % 2:
            cap = 1
        if cap is not None:
            caps[name] = cap
    return MonomialAlgebra(p, generators, caps=caps)


@SMALL
@given(A=strand_algebras())
def test_two_sided_tor_with_the_algebra_on_a_side(A):
    # A is free over itself: Tor^A(A, k) = Tor^A(k, A) = k at (0, 0) and
    # Tor^A(A, A) = A in row 0
    cap = 8
    k, a = ModuleViaMap.augmentation(A), ModuleViaMap.identity(A)
    assert tor_dims(A, a, k, cap).entries == {(0, 0): 1}
    assert tor_dims(A, k, a, cap).entries == {(0, 0): 1}
    assert tor_dims(A, a, a, cap).entries == {
        (0, t): len(A.basis(t)) for t in range(cap + 1) if A.basis(t)}


RESOLVED_ALGEBRAS = {
    "polynomial x2": lambda p: MonomialAlgebra.polynomial(p, [("x", 2)]),
    "polynomial x2 y4": lambda p: MonomialAlgebra.polynomial(p, [("x", 2), ("y", 4)]),
    "exterior x1": lambda p: MonomialAlgebra.exterior(p, [("x", 1)]),
    "exterior x1 y3": lambda p: MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)]),
    "mixed x2 y3": lambda p: MonomialAlgebra.mixed(p, [("x", 2)], [("y", 3)]),
    "truncated x2^3": lambda p: MonomialAlgebra.truncated(p, [("x", 2)], {"x": 3}),
    "truncated x2^3 y4^2": lambda p: MonomialAlgebra.truncated(
        p, [("x", 2), ("y", 4)], {"x": 3, "y": 2}),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(RESOLVED_ALGEBRAS))
def test_resolution_ext_matches_bar_homology(name, p):
    # the strand resolution is minimal, so Ext_A(k, k) at (s, -t) counts its
    # generators, which Tor_A(k, k) from the bar words counts at (s, t); into
    # a trivial M each degree d of M adds dim M_d copies shifted by d
    A = RESOLVED_ALGEBRAS[name](p)
    bar = bar_homology_dims(A, cap=10)
    for dims in ({0: 1}, {0: 2, 3: 1}):
        M = AlgebraModule.trivial(A, GradedVectorSpace(dims))
        ext = ext_dims(A, M, s_max=4, cap=10)
        for s in range(5):
            for t in range(max(dims) - 10, max(dims) + 1):
                want = sum(n * bar.dim(s, d - t) for d, n in dims.items())
                assert ext.dim(s, t) == want, (dims, s, t)
    assert any(bar.dim(s, t) for s in range(1, 5) for t in range(11))


@SMALL
@given(p=primes, degrees=generator_degrees, levels=st.integers(1, 3))
def test_bucketed_basis_matches_full_scan(p, degrees, levels):
    A = MonomialAlgebra.exterior(p, gens(degrees))
    hc = HochschildComplex(A, levels)
    ts = hc.t_range()
    for t in [ts[0] - 1, *ts, ts[-1] + 1]:
        for s in range(levels + 1):
            assert hc.basis(s, t) == full_scan_basis(hc, s, t)


# --- free Lie closure oracles -------------------------------------------------


@st.composite
def face_rings(draw):
    """A Stanley-Reisner algebra on two to six vertices of degree 1 to 3,
    with one to four random facets (a facet may lie in another)."""
    n = draw(st.integers(2, 6))
    vertices = [f"v{i}" for i in range(n)]
    facets = draw(st.lists(st.sets(st.sampled_from(vertices), min_size=1), min_size=1,
                           max_size=4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return MonomialAlgebra(2, list(zip(vertices, degrees)), facets=[sorted(f) for f in facets])


@SMALL
@given(A=face_rings(), d=st.integers(0, 9))
def test_face_ring_basis_is_the_filtered_polynomial_basis(A, d):
    # the basis enumeration stops at supports in no facet; it must list the
    # monomials of the polynomial ring on the vertices whose support lies in
    # a facet, in the same order
    ranges = [range(d // deg + 1) for deg in A.degrees]
    want = sorted(m for m in itertools.product(*ranges)
                  if A.deg(m) == d and any({i for i, e in enumerate(m) if e} <= f
                                           for f in A.facets))
    assert A.basis(d) == want


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


@st.composite
def sparse_matrices(draw):
    """``(p, a)`` with ``a`` up to 60 x 60 over F_p, 1% to 100% nonzero,
    often a product of rank at most k."""
    p = draw(kernel_primes)
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.01, 0.03, 0.1, 0.2, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(shape):
        return rng.integers(1, p, size=shape, endpoint=p == 2) * (rng.random(shape) < density)

    if draw(st.booleans()):
        k = draw(st.integers(1, 20))
        return p, (sparse((rows, k)) @ sparse((k, cols))) % p
    return p, sparse((rows, cols))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pa=sparse_matrices())
def test_sparse_rank_matches_rref(pa):
    p, a = pa
    assert K.rank(a, p) == len(K.rref(a, p)[1])
