import numpy as np
import pytest

from fphomalg import _kernels as K
from fphomalg import homalg, wordcomplex
from fphomalg.applications import loop_cohomology_dims
from fphomalg.errors import CapError, CrossCheckError, ValidationError
from fphomalg.homalg import (
    HochschildComplex,
    aq_ass_dims,
    bar_homology_dims,
    derivations_dims,
    ext_dims,
    hochschild_dims,
    tor_dims,
    trivial_module,
)
from fphomalg.linalg import BigradedTable, GradedVectorSpace
from fphomalg.monalg import (
    AlgebraModule,
    ModuleViaMap,
    MonomialAlgebra,
)


def ext_alg(p, *degs):
    names = "xyzw"
    return MonomialAlgebra.exterior(p, [(names[i], d) for i, d in enumerate(degs)])


def poly_alg(p, *degs):
    names = "uvst"
    return MonomialAlgebra.polynomial(p, [(names[i], d) for i, d in enumerate(degs)])


# --- monomial algebras -------------------------------------------------------


def test_monomial_basis_and_products():
    A = poly_alg(5, 2)
    assert A.basis(4) == [(2,)]
    assert A.basis(3) == []
    L = ext_alg(3, 3, 5)
    assert len(L.basis(8)) == 1  # x*y
    assert L.mul((1, 0), (1, 0)) == {}
    # odd-odd swap sign: y*x = -x*y at odd p
    assert L.mul((0, 1), (1, 0)) == {(1, 1): 3 - 1}
    assert L.mul((1, 0), (0, 1)) == {(1, 1): 1}


def test_odd_generators_forced_exterior_at_odd_p():
    with pytest.raises(ValidationError):
        MonomialAlgebra.polynomial(3, [("x", 3)])
    # fine at p=2
    MonomialAlgebra.polynomial(2, [("x", 3)])


def test_stanley_reisner_basis():
    A = MonomialAlgebra.stanley_reisner(2, ["a", "b"], [["a"], ["b"]], degree=2)
    # two disjoint vertices: dims 1,2,2,2,...
    assert len(A.basis(0)) == 1
    assert len(A.basis(2)) == 2
    assert len(A.basis(4)) == 2
    assert A.mul((1, 0), (0, 1)) == {}


def test_parse_element_and_relations():
    A = poly_alg(2, 2, 4)
    e = A.parse_element("u^2 + 3*v")
    assert e == {(2, 0): 1, (0, 1): 1}
    L = ext_alg(3, 3)
    assert L.parse_element("x^2") == {}


# --- resolutions -------------------------------------------------------------


def test_koszul_strand_shapes_exterior():
    A = ext_alg(2, 3)
    res = homalg._resolution(A, 6, 12)
    # one generator per stage, degrees 0,3,6,...
    for s in range(7):
        assert len(res.tuples[s]) == 1
        g = res.tuples[s][0]
        assert res.degree[g] == 3 * s


def test_koszul_strand_shapes_polynomial():
    A = poly_alg(3, 2)
    res = homalg._resolution(A, 4, 8)
    assert [len(st) for st in res.tuples] == [1, 1, 0, 0, 0]
    assert res.degree[res.tuples[1][0]] == 2


def test_mixed_resolution_validates_to_cap():
    A = MonomialAlgebra.mixed(2, [("u", 2)], [("x", 3)])
    homalg._resolution(A, 5, 12)
    A3 = MonomialAlgebra.mixed(3, [("u", 2)], [("x", 3)])
    homalg._resolution(A3, 5, 12)


def test_two_exterior_generators_resolution():
    A = ext_alg(3, 3, 5)
    res = homalg._resolution(A, 4, 10)
    assert [len(st) for st in res.tuples] == [1, 2, 3, 4, 5]


# --- Ext ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_ext_periodicity_golden(p):
    # A = k[x]/x^2, |x| = 3: Ext^s one-dimensional at t = -3s
    A = ext_alg(p, 3)
    table = ext_dims(A, trivial_module(A), s_max=8)
    want = {(s, -3 * s): 1 for s in range(9)}
    assert table.entries == want


def test_ext_polynomial_golden():
    A = poly_alg(5, 2)
    table = ext_dims(A, trivial_module(A), s_max=4)
    assert table.entries == {(0, 0): 1, (1, -2): 1}


def test_ext_two_exterior_tensor():
    A = ext_alg(3, 3, 5)
    table = ext_dims(A, trivial_module(A), s_max=3)
    assert table.dim(2, -6) == 1
    assert table.dim(2, -8) == 1
    assert table.dim(2, -10) == 1
    assert table.dim(1, -3) == 1 and table.dim(1, -5) == 1


def test_ext_with_module_in_degree():
    # M = k in degree 3 shifts the answer
    A = ext_alg(2, 3)
    table = ext_dims(A, trivial_module(A, degree=3), s_max=4)
    assert table.entries == {(s, 3 - 3 * s): 1 for s in range(5)}


# --- Hochschild --------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_hochschild_trivial_coefficients(p):
    A = ext_alg(p, 3)
    hh = hochschild_dims(A, trivial_module(A, degree=3), s_max=5)
    assert hh.entries == {(s, 3 - 3 * s): 1 for s in range(6)}


def test_hochschild_degree_one_generator():
    A = ext_alg(2, 1)
    hh = hochschild_dims(A, trivial_module(A, degree=1), s_max=5)
    assert hh.entries == {(s, 1 - s): 1 for s in range(6)}


def test_hochschild_complex_is_freed_once_unreferenced():
    # its rank table holds no reference to it, so no reference cycle waits
    # for the collector
    import gc
    import weakref

    A = ext_alg(3, 3, 5)
    hc = HochschildComplex(A, 4)
    for t in hc.t_range(range(4)):
        for s in range(3):
            hc.cohomology_dim(s, t)
    assert hc._ranks
    ref = weakref.ref(hc)
    gc.disable()
    try:
        del hc
        assert ref() is None
    finally:
        gc.enable()


def test_hochschild_zero_module():
    A = ext_alg(3, 3)
    hh = hochschild_dims(A, AlgebraModule(A, GradedVectorSpace()), s_max=3)
    assert hh.is_empty()


def _raise_ext_entry(monkeypatch):
    """Route one of ``hochschild_dims`` reads one entry 1 too high."""
    ext = homalg.ext_dims

    def raised(*args, **kwargs):
        entries = ext(*args, **kwargs).entries
        entries[min(entries)] += 1
        return BigradedTable(entries)

    monkeypatch.setattr(homalg, "ext_dims", raised)


def _raise_cochain_entry(monkeypatch):
    """Route two of ``hochschild_dims`` reads its nonzero entries at s = 1
    1 too high."""
    dim = HochschildComplex.cohomology_dim

    def raised(self, s, t):
        h = dim(self, s, t)
        return h + 1 if s == 1 and h else h

    monkeypatch.setattr(HochschildComplex, "cohomology_dim", raised)


@pytest.mark.parametrize("fault", [_raise_ext_entry, _raise_cochain_entry])
def test_hochschild_routes_disagree_on_one_entry(tmp_path, monkeypatch, fault):
    import json

    from fphomalg.cli import main

    A = ext_alg(3, 3)
    M = trivial_module(A, degree=3)
    assert hochschild_dims(A, M, s_max=4).entries == {(s, 3 - 3 * s): 1 for s in range(5)}
    fault(monkeypatch)
    with pytest.raises(CrossCheckError, match="Hochschild routes disagree"):
        hochschild_dims(A, M, s_max=4)
    path = tmp_path / "x3.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "exterior", "generators": [{"name": "x", "degree": 3}]},
        "module": {"dims": {"3": 1}}}))
    assert main(["hochschild", "-p", "3", "--smax", "4", str(path)]) == 3


def test_hochschild_ranks_clear_only_after_verify_dd(monkeypatch):
    # the rank table ranks one whole level per kernel call, in order, each
    # but delta(0) (a zero map: no level-1 word has an inner face); each
    # level but the first is cleared, and only after its pair with the level
    # before passed verify_dd; without clearing the table is the same
    from fphomalg import _kernels as K

    rank_blocks, verify_dd, events = K.rank_blocks, HochschildComplex.verify_dd, []

    def ranking(clearing):
        def ranked(a, q, rows, cols, clear=(), lows=None):
            events.append(("rank", a.shape, len(clear)))
            return rank_blocks(a, q, rows, cols, clear if clearing else (), lows)
        return ranked

    def verified(self, first, then):
        events.append(("verify", first.shape, then.shape))
        return verify_dd(self, first, then)

    monkeypatch.setattr(HochschildComplex, "verify_dd", verified)
    A = ext_alg(3, 1, 2, 3)
    tables = []
    for clearing in (True, False):
        monkeypatch.setattr(K, "rank_blocks", ranking(clearing))
        hc = HochschildComplex(A, 5)
        events.clear()
        dims = {(s, t): hc.cohomology_dim(s, t) for t in hc.t_range(range(5)) for s in range(4)}
        shapes = [hc.delta(s).shape for s in range(5)]
        assert not hc.delta(0).vals.size and events[0] == ("rank", shapes[1], 0)
        assert events[1:] == [e for s in range(2, 5) for e in (
            ("verify", shapes[s - 1], shapes[s]), ("rank", shapes[s], events[2 * s - 2][2]))]
        assert all(e[2] for e in events[2::2])
        tables.append(dims)
    assert tables[0] == tables[1]


def word_complex_algebras(p):
    """Two exterior algebras, a truncated one and a finite mixed one."""
    return [ext_alg(p, 1, 3), ext_alg(p, 3, 5),
            MonomialAlgebra.truncated(p, [("y", 2)], {"y": 3}),
            MonomialAlgebra(p, [("x", 1), ("y", 2)], caps={"x": 1, "y": 2}, kind="mixed")]


def reference_delta(hc, s, t):
    """The cochain differential C^{s,t} -> C^{s+1,t} from its definition,
    one target word at a time: with trivial coefficients only the merges of
    adjacent letters i - 1, i survive, with sign (-1)^i, on the bases
    ``hc.basis``."""
    A, p = hc.A, hc.p
    index = {tuple(w): i for i, w in enumerate(hc.words[s].tolist())}
    letter = {l: i for i, l in enumerate(hc.abar)}
    col = {wi: j for j, wi in enumerate(hc.basis(s, t))}
    tgt = hc.basis(s + 1, t)
    mat = np.zeros((len(tgt), len(col)), dtype=np.int64)
    for r, wi in enumerate(tgt):
        w = tuple(hc.words[s + 1][wi].tolist())
        for i in range(1, len(w)):
            (ma, d1), (mb, d2) = hc.abar[w[i - 1]], hc.abar[w[i]]
            for m, sc in A.mul(ma, mb).items():
                merged = w[: i - 1] + (letter[(m, d1 + d2)],) + w[i + 1:]
                mat[r, col[index[merged]]] += (-1) ** i * sc
    return mat % p


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("case", range(4), ids=["ext13", "ext35", "trunc", "mixed"])
@pytest.mark.parametrize("module", [{3: 1}, {1: 2, 3: 1, 4: 2}], ids=["trivial", "spread"])
def test_cochain_differential_matches_its_definition(p, case, module):
    # the cochains with coefficients k against their definition; the
    # module, in one degree or in several and of width 2, goes through
    # both Hochschild routes and through aq, whose rows q >= 1 are HH^{q+1}
    A = word_complex_algebras(p)[case]
    hc = HochschildComplex(A, 3)
    checked = 0
    for t in hc.t_range():
        for s in range(3):
            got = np.asarray(hc.delta(s, t)) % p  # delta is sparse, its values unreduced
            assert np.array_equal(got, reference_delta(hc, s, t)), (s, t)
            checked += int(got.any())
    assert checked
    M = AlgebraModule(A, GradedVectorSpace(module))
    hh = hochschild_dims(A, M, s_max=3)
    aq = aq_ass_dims(A, M, cap=8, s_max=2)
    assert {(0, t): n for (s, t), n in hh.items() if s == 0} == {
        (0, md): n for md, n in module.items()}
    assert {(q, t): n for (q, t), n in aq.table.items() if q >= 1} == {
        (s - 1, t): n for (s, t), n in hh.items() if 2 <= s <= 3}


def test_cochain_differential_outside_the_stored_levels_is_refused():
    # levels 0 .. 3 are stored: the differentials run from level 0 to 2
    hc = HochschildComplex(ext_alg(3, 1, 3), 3)
    assert hc.delta(2, -4).shape == (len(hc.basis(3, -4)), len(hc.basis(2, -4))) != (0, 0)
    for s, t in ((3, -4), (-1, 0), (4, -7)):
        with pytest.raises(CapError, match=f"no cochain differential from level {s}: "
                                           "the complex stores levels 0 to 3"):
            hc.delta(s, t)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cochain_differentials_are_the_bar_face_slices_transposed(monkeypatch, p):
    # every cochain differential between nonzero spaces is the bar
    # complex's K.Sparse face slice out of level s + 1, transposed and
    # sorted by column, and no Hochschild run writes a dense matrix
    for A in word_complex_algebras(p):
        hc = HochschildComplex(A, 4)
        checked = 0
        for (s, t), n in hc._dims.items():
            if s < 4 and hc._dim(s + 1, t):
                got, bar = hc.delta(s, t), hc._words.block(s + 1, -t)
                assert isinstance(got, K.Sparse) and got.shape == (hc._dim(s + 1, t), n)
                assert (np.diff(got.cols) >= 0).all()
                assert np.array_equal(np.asarray(got), np.asarray(bar).T), (s, t)
                checked += 1
        assert checked
    want = [hochschild_dims(A, trivial_module(A, 3), s_max=3) for A in word_complex_algebras(p)]

    def dense(*args, **kwargs):
        raise AssertionError("a Hochschild differential was written densely")

    monkeypatch.setattr(homalg, "_assemble", dense)
    assert [hochschild_dims(A, trivial_module(A, 3), s_max=3)
            for A in word_complex_algebras(p)] == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bar_matches_tor_on_the_word_complex_algebras(p):
    mixed = MonomialAlgebra.mixed(p, [("u", 2)], [("x", 3)])
    for A in word_complex_algebras(p) + [mixed]:
        k = ModuleViaMap.augmentation(A)
        assert bar_homology_dims(A, cap=10) == tor_dims(A, k, k, cap=10), A.kind


def test_hochschild_two_generators_routes_agree():
    A = ext_alg(3, 3, 5)
    M = AlgebraModule(A, GradedVectorSpace({3: 1, 5: 1}))
    hh = hochschild_dims(A, M, s_max=4)
    assert not hh.is_empty()
    assert hh.parity_verdict().verdict == "odd"


# --- derivations -------------------------------------------------------------


def test_derivations_free_cases():
    A = ext_alg(3, 3)
    der = derivations_dims(A, trivial_module(A, degree=3), cap=9)
    assert der == GradedVectorSpace({0: 1})
    B = poly_alg(5, 2)
    der2 = derivations_dims(B, trivial_module(B, degree=2), cap=8)
    assert der2 == GradedVectorSpace({0: 1})


def test_derivations_match_hom_on_generators():
    # Der(Lambda(V), M) = Hom_k(V, M) per map degree
    A = ext_alg(3, 3, 5)
    M = AlgebraModule(A, GradedVectorSpace({3: 2, 5: 1}))
    der = derivations_dims(A, M, cap=10)
    want = {}
    for v in (3, 5):
        for m, n in {3: 2, 5: 1}.items():
            want[m - v] = want.get(m - v, 0) + n
    assert der.dims == {t: n for t, n in want.items() if n}


# --- AQ assembly -------------------------------------------------------------


def test_aq_golden_exterior_x3():
    A = ext_alg(3, 3)
    res = aq_ass_dims(A, trivial_module(A, degree=3), cap=12, s_max=4)
    want = {(0, 0): 1}
    for s in range(1, 5):
        want[(s, -3 * s)] = 1
    assert res.table.entries == want
    assert res.verdict.verdict == "even"
    assert res.notes == []


def test_aq_even_module_violates_hypothesis():
    A = ext_alg(3, 3)
    res = aq_ass_dims(A, trivial_module(A, degree=2), cap=10, s_max=3)
    assert any("module" in n for n in res.notes)
    # table: Der in odd map degrees now
    assert res.verdict.verdict in ("odd", "neither", "even")


def test_aq_two_generators_even():
    A = ext_alg(2, 1, 1)
    M = AlgebraModule(A, GradedVectorSpace({1: 1}))
    res = aq_ass_dims(A, M, cap=8, s_max=3)
    assert res.verdict.verdict == "even"
    assert res.table.dim(0, 0) == 2


X3Y5_K3 = {"algebra": {"kind": "exterior", "generators": [{"name": "x", "degree": 3},
                                                          {"name": "y", "degree": 5}]},
           "module": {"dims": {"3": 1}}}


def test_aq_row_0_covers_generators_above_the_cap(tmp_path, capsys):
    # -n 2 is below both generator degrees; row 0 is still HH^1, the
    # derivations x -> k[3] and y -> k[3] of map degrees 0 and -2
    import json

    from fphomalg.cli import main

    path = tmp_path / "x3y5.json"
    path.write_text(json.dumps(X3Y5_K3))
    assert main(["aq", "-p", "3", "-n", "2", "--smax", "1", "--format", "json", str(path)]) == 0
    rows = [(r["s"], r["t"], r["dim"]) for r in json.loads(capsys.readouterr().out)["table"]]
    assert [r for r in rows if r[0] == 0] == [(0, -2, 1), (0, 0, 1)]
    assert main(["hochschild", "-p", "3", "--smax", "1", "--format", "json", str(path)]) == 0
    hh = json.loads(capsys.readouterr().out)["table"]
    assert [(r["t"], r["dim"]) for r in hh if r["s"] == 1] == [(t, n) for _, t, n in rows[:2]]


def test_aq_row_0_disagreeing_with_hh1_exits_3(tmp_path, monkeypatch, capsys):
    import json

    from fphomalg.cli import main

    der = homalg.derivations_dims

    def raised(*args, **kwargs):
        dims = der(*args, **kwargs).dims
        dims[min(dims)] += 1
        return GradedVectorSpace(dims)

    monkeypatch.setattr(homalg, "derivations_dims", raised)
    path = tmp_path / "x3y5.json"
    path.write_text(json.dumps(X3Y5_K3))
    assert main(["aq", "-p", "3", "-n", "12", "--smax", "1", str(path)]) == 3
    assert "HH^1" in capsys.readouterr().err


# --- Tor ---------------------------------------------------------------------


def test_tor_polynomial_golden():
    A = poly_alg(3, 2)
    k = ModuleViaMap.augmentation(A)
    T = tor_dims(A, k, k, cap=8)
    assert T.entries == {(0, 0): 1, (1, 2): 1}
    assert T.total_dims() == {0: 1, 1: 1}


def test_tor_free_module_golden():
    A = poly_alg(3, 2)
    T = tor_dims(A, ModuleViaMap.identity(A), ModuleViaMap.augmentation(A), cap=8)
    assert T.entries == {(0, 0): 1}


TOR_SWEEP = {
    "poly(x2,y4)@3": MonomialAlgebra.polynomial(3, [("x", 2), ("y", 4)]),
    "poly(x1,y2)@2": MonomialAlgebra.polynomial(2, [("x", 1), ("y", 2)]),
    "ext(x1,y3)@3": MonomialAlgebra.exterior(3, [("x", 1), ("y", 3)]),
    "ext(x1,y2,z3)@2": MonomialAlgebra.exterior(2, [("x", 1), ("y", 2), ("z", 3)]),
    "ext(x3,y5,z7)@5": MonomialAlgebra.exterior(5, [("x", 3), ("y", 5), ("z", 7)]),
    "mixed(x2;y3)@3": MonomialAlgebra.mixed(3, [("x", 2)], [("y", 3)]),
    "mixed(x2,w4;y1,z3)@3": MonomialAlgebra.mixed(3, [("x", 2), ("w", 4)],
                                                  [("y", 1), ("z", 3)]),
    "trunc(x2^3,y4^2)@3": MonomialAlgebra.truncated(3, [("x", 2), ("y", 4)],
                                                    {"x": 3, "y": 2}),
    "trunc(x1^4,y3^3)@2": MonomialAlgebra.truncated(2, [("x", 1), ("y", 3)],
                                                    {"x": 4, "y": 3}),
}


@pytest.mark.parametrize("right", ["k", "id"])
@pytest.mark.parametrize("left", ["k", "id"])
@pytest.mark.parametrize("name", sorted(TOR_SWEEP))
def test_two_sided_tor_of_the_algebra_and_the_ground_field(name, left, right):
    # Tor^A(A, k) = Tor^A(k, A) = k at (0, 0), Tor^A(A, A) = A in row 0,
    # and Tor^A(k, k) is bar homology
    A, cap = TOR_SWEEP[name], 8
    side = {"k": ModuleViaMap.augmentation(A), "id": ModuleViaMap.identity(A)}
    T = tor_dims(A, side[left], side[right], cap)
    if left == right == "k":
        assert T == bar_homology_dims(A, cap)
    elif left == right == "id":
        assert T.entries == {(0, t): len(A.basis(t)) for t in range(cap + 1) if A.basis(t)}
    else:
        assert T.entries == {(0, 0): 1}


def test_tor_pu2_data():
    # base F_2[c1 (2), c2 (4)], left F_2[t] via c1 -> 0, c2 -> t^2, right k
    B = MonomialAlgebra.polynomial(2, [("c1", 2), ("c2", 4)])
    X = MonomialAlgebra.polynomial(2, [("t", 2)])
    left = ModuleViaMap(B, X, {"c1": "0", "c2": "t^2"})
    right = ModuleViaMap.augmentation(B)
    T = tor_dims(B, left, right, cap=10)
    totals = T.total_dims()
    assert totals[0] == 1 and totals[1] == 1 and totals[2] == 1 and totals[3] == 1


@pytest.mark.parametrize("p", [2, 3])
def test_tor_bar_agreement(p):
    cases = []
    cases.append(poly_alg(p, 2))
    cases.append(ext_alg(p, 3))
    cases.append(MonomialAlgebra.mixed(p, [("u", 2)], [("x", 3)]))
    for A in cases:
        cap = 10
        k = ModuleViaMap.augmentation(A)
        T = tor_dims(A, k, k, cap=cap)
        Bh = bar_homology_dims(A, cap=cap)
        assert T == Bh, f"{A.kind} at p={p}: {T.entries} vs {Bh.entries}"


def test_bar_exterior_divided_powers():
    A = ext_alg(3, 3)
    Bh = bar_homology_dims(A, cap=12)
    assert Bh.entries == {(s, 3 * s): 1 for s in range(5)}
    assert Bh.total_dims() == {2 * s: 1 for s in range(5)}


@pytest.mark.parametrize("A, cap", [(poly_alg(3, 2, 2, 4), 10), (ext_alg(2, 1, 3), 12)])
def test_bar_cell_budget_counts_the_largest_differential(monkeypatch, A, cap):
    # the count from letter degrees is exact: the largest differential
    # between buckets of the built words fits a budget of its own size and
    # not one cell less
    letters = [(m, d) for d in range(1, cap + 1) for m in A.basis(d)]
    words = homalg._Words(A, letters, cap + 1, cap=cap)
    largest = max(words.count(s - 1, t) * words.count(s, t)
                  for s in range(1, cap + 2) for t in range(cap + 1))
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest)
    bar_homology_dims(A, cap)
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest - 1)
    with pytest.raises(CapError, match="bar differential from"):
        bar_homology_dims(A, cap)


@pytest.mark.parametrize("module", [{3: 1}, {3: 2, 5: 1}, {1: 2, 3: 1, 4: 2}])
def test_hochschild_cell_budget_counts_the_built_cochains(monkeypatch, module):
    # the sizes counted from the letter degrees are those of the built
    # cochains, and the largest differential fits a budget of its own size
    # and not one cell less; the refusal comes before any word is built, and
    # hochschild_dims names it in the map degree it reaches with the
    # module's lowest degree, whatever the module's width
    A, levels = ext_alg(3, 3, 5), 4
    M = AlgebraModule(A, GradedVectorSpace(module))
    hc = HochschildComplex(A, levels)
    assert all(len(hc.basis(s, t)) == n for (s, t), n in hc._dims.items())
    largest = max(hc.delta(s, t).size for s in range(levels) for t in hc.t_range())
    assert largest == max(n * hc._dim(s + 1, t) for (s, t), n in hc._dims.items())
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest)
    HochschildComplex(A, levels)
    hochschild_dims(A, M, s_max=levels - 1)
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest - 1)
    monkeypatch.setattr(homalg, "_Words", None)
    refusal = "Hochschild cochain differential from .*; lower --smax"
    with pytest.raises(CapError, match=refusal) as k:
        HochschildComplex(A, levels)
    with pytest.raises(CapError, match="Hochschild cochain differential from") as m:
        hochschild_dims(A, M, s_max=levels - 1)
    assert (m.value.s, m.value.t, m.value.shape) == (
        k.value.s, k.value.t + min(module), k.value.shape)


@pytest.mark.parametrize("p", [2, 3])
def test_resolution_sizes_count_the_built_chains(p):
    # the count from the Hilbert series matches the chains the exactness
    # check builds, on polynomial, exterior, truncated and mixed algebras
    for A in (poly_alg(p, 2, 2, 4), ext_alg(p, 1, 3),
              MonomialAlgebra.truncated(p, [("y", 2)], {"y": 3}),
              MonomialAlgebra.mixed(p, [("u", 2)], [("x", 3)])):
        cap, s_max = 12, 4
        chains = homalg._KoszulChains("resolution", A, ModuleViaMap.identity(A),
                                      ModuleViaMap.augmentation(A), cap, s_max=s_max)
        sizes = homalg._chain_sizes(chains, cap)
        assert sizes == [[len(chains.basis(s, t)) for t in range(cap + 1)]
                         for s in range(s_max + 1)]


def test_resolution_refuses_a_differential_over_the_cell_budget():
    # six degree-2 generators: at cap 20 the resolution's d_3 for Ext up to
    # s = 2 would be 19,305 x 15,840, and cap 16 stays within the budget
    A = MonomialAlgebra.polynomial(3, [(f"u{i}", 2) for i in range(6)])
    # the chains are built with the window of 16: the constructor refuses 20
    chains = homalg._KoszulChains("resolution", A, ModuleViaMap.identity(A),
                                  ModuleViaMap.augmentation(A), 16, s_max=3)
    sizes = homalg._chain_sizes(chains, 20)
    assert (sizes[2][20], sizes[3][20]) == (19_305, 15_840)
    sizes = homalg._chain_sizes(chains, 16)
    largest = max(r * c for s in (1, 2, 3) for r, c in zip(sizes[s - 1], sizes[s]))
    assert largest == 6_930 * 5_040 <= homalg.MAX_CHAIN_CELLS
    with pytest.raises(CapError, match="over the budget"):
        ext_dims(A, trivial_module(A), s_max=2, cap=20)


@pytest.mark.parametrize("name", sorted(TOR_SWEEP))
def test_chain_sizes_count_the_built_tor_chains(name):
    # B (x) C counted from the Hilbert series of both sides, with the
    # algebra or the ground field on either side
    A, cap = TOR_SWEEP[name], 8
    side = {"k": ModuleViaMap.augmentation(A), "id": ModuleViaMap.identity(A)}
    for left, right in (("id", "id"), ("id", "k"), ("k", "id"), ("k", "k")):
        chains = homalg._KoszulChains("two-sided Koszul", A, side[left], side[right], cap)
        assert homalg._chain_sizes(chains, cap) == [
            [len(chains.basis(s, t)) for t in range(cap + 1)]
            for s in range(len(chains.tuples))], (left, right)


def test_chain_sizes_count_a_stanley_reisner_side():
    # a face ring is smaller than the polynomial ring on its vertices: its
    # series is read from its basis
    A = poly_alg(2, 2, 2)
    R = MonomialAlgebra.stanley_reisner(2, ["a", "b"], [["a"], ["b"]], degree=2)
    chains = homalg._KoszulChains("two-sided Koszul", A,
                                  ModuleViaMap(A, R, {"u": "a", "v": "b"}),
                                  ModuleViaMap.identity(A), 10)
    assert homalg._chain_sizes(chains, 10) == [
        [len(chains.basis(s, t)) for t in range(11)] for s in range(len(chains.tuples))]


@pytest.mark.parametrize("name", ["poly(x2,y4)@3", "mixed(x2,w4;y1,z3)@3"])
def test_tor_refuses_a_differential_over_the_cell_budget(monkeypatch, name):
    # the count is exact: the largest differential fits a budget of its own
    # size and not one cell less, and the refusal names its (s, t) and shape
    A, cap = TOR_SWEEP[name], 8
    M = N = ModuleViaMap.identity(A)
    sizes = homalg._chain_sizes(homalg._KoszulChains("two-sided Koszul", A, M, N, cap), cap)
    cells = [[r * c for r, c in zip(sizes[s - 1], sizes[s])] for s in range(1, len(sizes))]
    largest = max(map(max, cells))
    s = next(s for s, row in enumerate(cells, 1) if max(row) == largest)
    t = cells[s - 1].index(largest)
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest)
    tor_dims(A, M, N, cap)
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", largest - 1)
    shape = f"{sizes[s - 1][t]} x {sizes[s][t]}"
    with pytest.raises(CapError, match=rf"two-sided Koszul differential from \(s, t\) = "
                                       rf"\({s}, {t}\) is {shape},"):
        tor_dims(A, M, N, cap)


def test_tor_refuses_six_polynomial_generators_at_cap_18_before_building(monkeypatch):
    # the algebra on the left: the differential from (2, 18) would be
    # 7,722 x 11,880 (92M cells); it is refused from the counts alone
    monkeypatch.setattr(homalg._KoszulChains, "differential", None)
    A = MonomialAlgebra.polynomial(3, [(f"u{i}", 2) for i in range(6)])
    with pytest.raises(CapError, match=r"\(s, t\) = \(2, 18\) is 7722 x 11880"):
        tor_dims(A, ModuleViaMap.identity(A), ModuleViaMap.augmentation(A), 18)


@pytest.mark.parametrize("what, cap, s_max, refusal", [
    ("resolution", 20, 3, r"\(2, 20\) is 12012 x 19305"),
    ("two-sided Koszul", 18, None, r"\(2, 18\) is 7722 x 11880"),
])
def test_koszul_chains_refuse_over_the_budget_before_listing_a_basis(
        monkeypatch, what, cap, s_max, refusal):
    # the constructor counts its chains from the Hilbert series and refuses
    # in the caller's terms before any basis is listed
    def no_basis(chains, s, t):
        raise AssertionError(f"basis ({s}, {t}) listed")

    monkeypatch.setattr(homalg._KoszulChains, "basis", no_basis)
    A = MonomialAlgebra.polynomial(3, [(f"u{i}", 2) for i in range(6)])
    with pytest.raises(CapError, match=rf"the {what} differential from \(s, t\) = {refusal}"):
        homalg._KoszulChains(what, A, ModuleViaMap.identity(A),
                             ModuleViaMap.augmentation(A), cap, s_max=s_max)


def test_word_complex_refuses_a_product_outside_its_letters():
    A = ext_alg(3, 1, 3)
    letters = [(m, d) for d in (1, 3) for m in A.basis(d)]  # x and y, not x*y
    with pytest.raises(KeyError):
        homalg._Words(A, letters, 2, cap=6)


def plant_face_fault(monkeypatch, p, pick, fault):
    """Make every ``_Words`` change one face value by ``fault``: the value
    of a face ``src -> merged`` of level ``s`` whose word ``merged`` has a
    face nonzero mod p in the same degree, so that the row lies in the
    composable pair of the maps out of ``s`` and ``s - 1``.  Changing it by
    a nonzero amount mod p makes the product nonzero there.  ``pick`` is 0,
    1 or 2 for the first, middle or last such row."""
    init = wordcomplex._Words.__init__

    def planted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        src, merged, value = self._face_table
        faces, rows = self._face_bounds, []
        for (s, d), (lo, hi) in sorted(faces.items()):
            if (s - 1, d) in faces:
                lo1, hi1 = faces[s - 1, d]
                faced = set(src[lo1:hi1][value[lo1:hi1] % p != 0].tolist())
                rows += [i for i in range(lo, hi) if int(merged[i]) in faced]
        i = rows[pick * (len(rows) - 1) // 2]
        value[i] = fault(int(value[i]))

    monkeypatch.setattr(wordcomplex._Words, "__init__", planted)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_a_planted_face_fault_fails_the_sparse_dd_check(monkeypatch, tmp_path, p):
    # a flipped sign (a change of 2v, nothing at p = 2) and a value made
    # divisible by p each fail d*d = 0 in bar, in loops, whose bar route
    # runs first, and in hochschild, whose cochain differentials are the
    # same face slices transposed, and the commands exit 3: a zero mod p in
    # a column must not reach the elimination
    import json

    from fphomalg.cli import main

    V = GradedVectorSpace({2: 1, 4: 1})
    gens = [("u0", 2), ("u1", 4)]
    A = MonomialAlgebra.polynomial(p, gens)
    E = ext_alg(p, 1, 3)
    M = trivial_module(E, degree=3)
    bar_in, loops_in = tmp_path / "bar.json", tmp_path / "loops.json"
    hh_in = tmp_path / "hh.json"
    bar_in.write_text(json.dumps({"kind": "polynomial", "generators": [
        {"name": g, "degree": d} for g, d in gens]}))
    loops_in.write_text(json.dumps({"dims": {"2": 1, "4": 1}}))
    hh_in.write_text(json.dumps({"algebra": {"kind": "exterior", "generators": [
        {"name": "x", "degree": 1}, {"name": "y", "degree": 3}]}, "module": {"dims": {"3": 1}}}))
    commands = [["bar", "-p", str(p), "-n", "12", "-o", str(tmp_path / "out"), str(bar_in)],
                ["loops", "-p", str(p), "-n", "12", "-o", str(tmp_path / "out"), str(loops_in)],
                ["hochschild", "-p", str(p), "--smax", "4", "-o", str(tmp_path / "out"),
                 str(hh_in)]]
    expected = bar_homology_dims(A, 12)
    expected_hh = hochschild_dims(E, M, s_max=4)
    assert loop_cohomology_dims(V, 12, p)["routes_agree"]
    assert [main(argv) for argv in commands] == [0, 0, 0]
    faults = [lambda v: v * p] + ([lambda v: -v] if p > 2 else [])
    for fault in faults:
        for pick in range(3):
            with monkeypatch.context() as m:
                plant_face_fault(m, p, pick, fault)
                with pytest.raises(CrossCheckError, match="bar differential fails d\\*d = 0"):
                    bar_homology_dims(A, 12)
                with pytest.raises(CrossCheckError, match="bar differential fails d\\*d = 0"):
                    loop_cohomology_dims(V, 12, p)
                with pytest.raises(CrossCheckError,
                                   match="Hochschild cochain differential fails d\\*d = 0"):
                    hochschild_dims(E, M, s_max=4)
                assert [main(argv) for argv in commands] == [3, 3, 3]
    assert bar_homology_dims(A, 12) == expected
    assert hochschild_dims(E, M, s_max=4) == expected_hh


def test_bar_trivial_algebra():
    A = MonomialAlgebra.trivial(5)
    Bh = bar_homology_dims(A, cap=6)
    assert Bh.entries == {(0, 0): 1}


def test_resolution_rejects_a_differential_with_nonzero_square(monkeypatch):
    # d(sym_k) = x sym_{k-1} on every symbol of k[x]/x^3 squares to x^2; with
    # cap 0 only the degree-free check on the generators can see it
    from fphomalg import homalg

    monkeypatch.setattr(homalg._Strand, "terms", lambda self, k: [(1, 0, 1)] if k else [])
    A = MonomialAlgebra.truncated(3, [("x", 2)], {"x": 3})
    with pytest.raises(CrossCheckError, match="d\\*d"):
        homalg._resolution(A, 3, 0)


def test_resolution_rejects_a_unit_coefficient(monkeypatch, tmp_path, capsys):
    # d(sym_k) = sym_{k-1}, with the unit as its coefficient, is no minimal
    # differential: Hom into k would not be zero
    import json

    from fphomalg import homalg
    from fphomalg.cli import main

    monkeypatch.setattr(homalg._Strand, "terms", lambda self, k: [(0, 0, 1)] if k else [])
    A = MonomialAlgebra.truncated(3, [("x", 2)], {"x": 3})
    with pytest.raises(CrossCheckError, match="not minimal"):
        homalg._resolution(A, 3, 6)
    with pytest.raises(CrossCheckError, match="not minimal"):
        ext_dims(A, trivial_module(A), s_max=2)
    path = tmp_path / "x2.json"
    path.write_text(json.dumps({"algebra": {"kind": "truncated", "truncation": {"x": 3},
                                            "generators": [{"name": "x", "degree": 2}]}}))
    assert main(["ext", "-p", "3", "--smax", "2", str(path)]) == 3
    assert "not minimal" in capsys.readouterr().err


def test_ext_ranks_nothing_beyond_its_resolution(monkeypatch):
    # Ext is read off the resolution's generators: the only homology and the
    # only ranks are those of the resolution's exactness check
    from fphomalg import _kernels, homalg

    A = MonomialAlgebra.mixed(3, [("u", 2)], [("x", 3), ("y", 5)])
    M = AlgebraModule(A, GradedVectorSpace({0: 2, 4: 1}))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0] if name == "homology" else name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(homalg, "_RankTable", counted("homology", homalg._RankTable))
    monkeypatch.setattr(_kernels, "rank_blocks", counted("rank", _kernels.rank_blocks))
    monkeypatch.setattr(_kernels, "rank", counted("rank", _kernels.rank))
    homalg._resolution(A, 4, 4)
    alone = list(calls)
    calls.clear()
    table = ext_dims(A, M, s_max=3)
    assert calls == alone and set(calls) == {"resolution", "rank"}
    assert table.dim(2, -6) == 3 and table.dim(2, -2) == 1


def test_resolution_rejects_a_complex_that_is_not_exact(monkeypatch):
    # with no strand terms the chains of k[x] have a zero differential, which
    # leaves the augmentation ideal uncovered from degree 2 on
    from fphomalg import homalg

    monkeypatch.setattr(homalg._Strand, "terms", lambda self, k: [])
    A = MonomialAlgebra.polynomial(3, [("x", 2)])
    with pytest.raises(CrossCheckError, match="not exact at stage 0, degree 2"):
        homalg._resolution(A, 2, 6)
