"""The rank tables of the bar, Hochschild and Koszul complexes against a
rank per (s, t).

Each complex is ranked a whole level at a time (``linalg._RankTable``): the
differential out of a level, over every internal degree, is one
block-diagonal ``K.Sparse`` matrix, ranked by one kernel call and cleared
with the lows of the level before.  These tests rank every differential of
one (s, t) on its own, densely by ``rref`` and with no clearing, and
compare the tables entry by entry on random algebras.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fphomalg import _kernels as K
from fphomalg import homalg
from fphomalg.homalg import HochschildComplex, bar_homology_dims
from fphomalg.linalg import _RankTable
from fphomalg.monalg import ModuleViaMap, MonomialAlgebra
from fphomalg.wordcomplex import _Words

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
primes = st.sampled_from([2, 3, 97])


def rank(m, p) -> int:
    return len(K.rref(np.asarray(m), p)[1])


@st.composite
def algebras(draw, p, finite):
    """An algebra on one to three generators of degree 1 to 4, each
    polynomial (unless ``finite``) or truncated by an exponent up to 4, and
    exterior if odd at odd p."""
    generators = list(zip("xyz", draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    caps = {}
    for name, d in generators:
        cap = 1 if p != 2 and d % 2 else draw(st.sampled_from([1, 2, 3] if finite
                                                              else [None, 1, 2, 3]))
        if cap is not None:
            caps[name] = cap
    return MonomialAlgebra(p, generators, caps=caps)


def tables_made(monkeypatch):
    """Record every rank table made."""
    made = []

    class Recorded(_RankTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(homalg, "_RankTable", Recorded)
    return made


@SMALL
@given(p=primes, data=st.data(), cap=st.integers(2, 9))
def test_bar_rank_table_is_the_rank_of_each_degree(p, data, cap):
    A = data.draw(algebras(p, finite=False))
    with pytest.MonkeyPatch.context() as m:
        made = tables_made(m)
        bar_homology_dims(A, cap)
    (table,) = made
    letters = [(mon, d) for d in range(1, cap + 1) for mon in A.basis(d)]
    levels = cap // min(A.degrees) + 1
    words = _Words(A, letters, levels, cap=cap)
    want = {(s, t): r for s in range(1, levels + 1) for t in range(cap + 1)
            if (r := rank(words.block(s, t), p))}
    assert dict(table) == want


@SMALL
@given(p=primes, data=st.data(), levels=st.integers(1, 4))
def test_hochschild_rank_table_is_the_rank_of_each_degree(p, data, levels):
    A = data.draw(algebras(p, finite=True))
    hc = HochschildComplex(A, levels)
    want = {(s, -t): r for s in range(levels) for t in hc.t_range()
            if (r := rank(hc.delta(s, t), p))}
    assert dict(hc._ranks) == want
    assert want or levels == 1 or A.top_degree() == min(A.degrees)


@SMALL
@given(p=primes, data=st.data(), cap=st.integers(1, 9),
       sides=st.sampled_from(["k k", "k id", "id id", "resolution"]))
def test_koszul_rank_table_is_the_rank_of_each_degree(p, data, cap, sides):
    A = data.draw(algebras(p, finite=False))
    side = {"k": ModuleViaMap.augmentation(A), "id": ModuleViaMap.identity(A)}
    if sides == "resolution":
        chains = homalg._KoszulChains("resolution", A, side["id"], side["k"], cap, s_max=3)
    else:
        left, right = sides.split()
        chains = homalg._KoszulChains("two-sided Koszul", A, side[left], side[right], cap)
    want = {(s, t): r for s in range(1, chains.max_s + 1) for t in range(cap + 1)
            if (r := rank(chains.differential(s, t), p))}
    assert dict(chains._ranks) == want


@pytest.mark.parametrize("p", [2, 3])
def test_hochschild_rank_table_hands_a_block_off_to_rref(monkeypatch, p):
    # on the exterior algebra on (x3, y5, z7) one degree block of delta(2)
    # is dense enough to go to rref at once, on its own rows
    rref, calls = K.rref, []
    monkeypatch.setattr(K, "rref", lambda a, q: calls.append(a.shape) or rref(a, q))
    hc = HochschildComplex(MonomialAlgebra.exterior(p, [("x", 3), ("y", 5), ("z", 7)]), 4)
    table = dict(hc._ranks)
    assert calls == [(19, 16)]
    assert table == {(s, -t): r for s in range(4) for t in hc.t_range()
                     if (r := rank(hc.delta(s, t), p))}
