"""Property tests on random small algebras: the dual Hochschild routes, bar
homology against Koszul Tor, and the degree-bucketed cochain basis."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
