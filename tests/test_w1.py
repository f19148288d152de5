from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fphomalg import w1
from fphomalg.errors import CapError, ValidationError
from fphomalg.freelie import (
    DEFAULT_WEIGHT_CAP,
    Generator,
    restricted_basis,
    restricted_symbol_dims,
)
from fphomalg.linalg import BigradedTable, GradedVectorSpace
from fphomalg.w1 import (
    W1StructureTable,
    free_w1_dims,
    free_w1_dims_enumerated,
    free_w1_dims_via_sym_zeta,
    mod2_postnikov_square_table,
    obstruction_line_vanishes,
    sym_zeta_dims,
    triviality_check,
    w1_generator_symbols,
    w1_symbol_counts,
    zeta_space,
)


def gens(*degs):
    names = "xyzw"
    return [Generator(names[i], d) for i, d in enumerate(degs)]


def test_zeta_space_examples():
    assert zeta_space(GradedVectorSpace({3: 1}), 3) == GradedVectorSpace({8: 1})
    assert zeta_space(GradedVectorSpace({2: 5}), 3) == GradedVectorSpace({})
    assert zeta_space(GradedVectorSpace({3: 1}), 2) == GradedVectorSpace({})


def test_sym_zeta_examples():
    # p=3, V={3:1}, cap 11: exterior(3) x polynomial(zeta in degree 8)
    assert sym_zeta_dims(GradedVectorSpace({3: 1}), 11, 3).nonzero() == {
        0: 1, 3: 1, 8: 1, 11: 1
    }
    # even generator: plain polynomial series, no zeta
    for p in (2, 3, 5):
        assert sym_zeta_dims(GradedVectorSpace({2: 1}), 8, p).nonzero() == {
            0: 1, 2: 1, 4: 1, 6: 1, 8: 1
        }
    # p=2: polynomial even on an odd generator
    assert sym_zeta_dims(GradedVectorSpace({3: 1}), 9, 2).nonzero() == {
        0: 1, 3: 1, 6: 1, 9: 1
    }


def test_free_w1_dims_examples():
    # p=3, {x:3}, cap 11: monomials 1, x, xi x, zeta x, x*xi x, x*zeta x
    got = free_w1_dims(gens(3), 11, 3).nonzero()
    assert got == {0: 1, 3: 1, 7: 1, 8: 1, 10: 1, 11: 1}
    # p=2, {x:2}, cap 5: monomials on x(2), xi x(3), xi^2 x(5)
    assert free_w1_dims(gens(2), 5, 2).nonzero() == {0: 1, 2: 1, 3: 1, 4: 1, 5: 2}
    # free on an even generator at odd p still carries the self-bracket
    assert free_w1_dims(gens(2), 6, 3).nonzero() == {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def test_trivial_input_even_is_polynomial():
    # an even space with trivial bracket/restriction freely generates Sym(V)
    from fphomalg.w1 import trivial_lie_w1_dims

    for p in (2, 3, 5):
        got = trivial_lie_w1_dims(GradedVectorSpace({2: 1}), 6, p).nonzero()
        assert got == {0: 1, 2: 1, 4: 1, 6: 1}


def test_w1_symbols_for_small_input():
    symbols = w1_generator_symbols(gens(3), 11, 3)
    labels = {s.label for s in symbols}
    assert len(symbols) == 3
    assert any(s.epsilon == 1 and s.degree == 8 for s in symbols)
    assert any(s.xi_power == 1 and s.degree == 7 for s in symbols)
    assert all("l[" in lab for lab in labels)


def test_w1_symbol_list_is_bounded(monkeypatch):
    # the explicit list stops at MAX_LISTED_SYMBOLS; its three symbols fit
    monkeypatch.setattr(w1, "MAX_LISTED_SYMBOLS", 3)
    assert len(w1_generator_symbols(gens(3), 11, 3)) == 3
    monkeypatch.setattr(w1, "MAX_LISTED_SYMBOLS", 2)
    with pytest.raises(CapError, match="3 symbols exceed the explicit-list bound 2"):
        w1_generator_symbols(gens(3), 11, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degs", [(2,), (3,), (2, 4), (2, 3), (5,), (3, 6)])
def test_free_functor_identity_small(p, degs):
    cap = 12
    a = free_w1_dims(gens(*degs), cap, p)
    b = free_w1_dims_via_sym_zeta(gens(*degs), cap, p)
    c = free_w1_dims_enumerated(gens(*degs), cap, p)
    assert a == b == c


def test_sym_zeta_on_even_space_is_polynomial():
    # Sym_zeta collapses to Sym on even spaces (zeta vanishes there)
    from fphomalg.linalg import free_commutative_series

    for p in (2, 3, 5):
        got = sym_zeta_dims(GradedVectorSpace({2: 1, 4: 1}), 12, p)
        want = free_commutative_series([(2, 1), (4, 1)], 12, p)
        assert got == want


def test_structure_table_validation():
    t = W1StructureTable(2, [("x2", 2), ("x3", 3)], xi={"x2": "x3"})
    assert t.degrees == {"x2": 2, "x3": 3}
    # wrong xi degree
    with pytest.raises(ValidationError):
        W1StructureTable(2, [("x2", 2), ("x4", 4)], xi={"x2": "x4"})
    # xi on even degree at odd p
    with pytest.raises(ValidationError):
        W1StructureTable(3, [("x2", 2), ("x4", 4)], xi={"x2": "x4"})
    # zeta at p=2
    with pytest.raises(ValidationError):
        W1StructureTable(2, [("x3", 3), ("x5", 5)], zeta={"x3": "x5"})
    # a non-integer p read from JSON
    assert W1StructureTable.from_json(t.to_json()).degrees == t.degrees
    with pytest.raises(ValidationError, match="p must be an integer"):
        W1StructureTable.from_json({**t.to_json(), "p": "two"})


def test_triviality_check():
    trivial = W1StructureTable(3, [("u", 2)])
    assert triviality_check(trivial)["trivial"]
    empty = W1StructureTable(5, [])
    assert triviality_check(empty)["trivial"]
    table = mod2_postnikov_square_table(20)
    report = triviality_check(table)
    assert not report["trivial"]
    first = report["offenders"][0]
    assert first == {"generator": "x2", "operation": "xi", "value": "x3"}


def test_structure_table_roundtrip():
    table = mod2_postnikov_square_table(10)
    again = W1StructureTable.from_json(table.to_json())
    assert again.xi == table.xi and again.generators == table.generators


def test_obstruction_line():
    even = BigradedTable({(1, 3): 2, (0, 0): 1})
    rep = obstruction_line_vanishes(even)
    assert rep["pass"] and not rep["empty"]
    bad = obstruction_line_vanishes(BigradedTable({(1, 0): 1}))
    assert not bad["pass"]
    assert bad["witnesses"] == [{"s": 1, "t": 0, "dim": 1}]
    assert bad["obstruction_line_entries"] == [{"s": 1, "t": 0, "dim": 1}]
    empty = obstruction_line_vanishes(BigradedTable())
    assert empty["pass"] and empty["empty"]


def test_restricted_dims_feed_sym_zeta():
    # explicit composite on the worked one-generator case
    g = restricted_symbol_dims(gens(3), 11, p=3)
    assert g.dims == {3: 1, 7: 1}
    assert sym_zeta_dims(g, 11, 3) == free_w1_dims(gens(3), 11, 3)


@st.composite
def tower_inputs(draw):
    # degree-1 generators need a weight cap: their shifted degree is 0
    weight_cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    low = 1 if weight_cap else 2
    degs = draw(st.lists(st.integers(low, 5), min_size=1, max_size=3))
    return draw(st.sampled_from([2, 3, 5])), degs, draw(st.integers(1, 8)), weight_cap


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tower_inputs())
def test_every_count_walks_the_same_tower(case):
    # the W1 symbols, the restricted symbol counts and the restricted basis
    # all walk one restriction tower; their tallies must agree
    p, degs, cap, weight_cap = case
    g = gens(*degs)
    counts = w1_symbol_counts(g, cap, p, weight_cap)
    assert Counter(s.degree for s in w1_generator_symbols(g, cap, p, weight_cap)) == counts
    restricted = restricted_symbol_dims(g, cap, p=p, weight_cap=weight_cap)
    with_zeta = restricted + zeta_space(restricted, p)
    assert counts == {d: n for d, n in with_zeta.dims.items() if d <= cap}
    symbols, dims = restricted_basis(g, cap, p=p, weight_cap=weight_cap or DEFAULT_WEIGHT_CAP)
    assert Counter(s.v_degree for s in symbols) == restricted.dims == dims.dims
