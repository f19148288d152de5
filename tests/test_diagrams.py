import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fphomalg import _kernels as K
from fphomalg import diagrams
from fphomalg.cli import _vector_diagram, main
from fphomalg.diagrams import (
    AlgebraDiagram,
    FiniteCategory,
    contravariant_diagram,
    derived_limit_dims,
    diagram_aq_table,
    injective_by_criterion,
    limit_dims,
    validate_direct_category,
)
from fphomalg.errors import CrossCheckError, ValidationError
from fphomalg.homalg import HochschildComplex
from fphomalg.linalg import BigradedTable, GradedMap, GradedVectorSpace, Subquotient
from fphomalg.monalg import MonomialAlgebra


def test_validate_arrow_category():
    I = FiniteCategory.arrow()
    assert validate_direct_category(I)["valid"]


def test_validate_face_poset():
    I, faces = FiniteCategory.face_poset(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    rep = validate_direct_category(I)
    assert rep["valid"]
    assert I.objects["{}"] == 0 and I.objects["{a,b}"] == 2


def test_validate_rejects_endomorphism():
    I = FiniteCategory({"x": 0}, {"e": ("x", "x")}, {("e", "e"): "e"})
    rep = validate_direct_category(I)
    assert not rep["valid"]
    assert any(v["kind"] == "level" for v in rep["violations"])


def _arrow_diagram(p, f_block, V1, V0):
    """Contravariant diagram on 0 -> 1: map F(1) -> F(0)."""
    I = FiniteCategory.arrow()
    values = {"0": V0, "1": V1}
    maps = {"f": GradedMap(V1, V0, 0, f_block, p)}
    return I, contravariant_diagram(I, values, maps, p)


def test_limit_of_surjection_is_source():
    p = 3
    V1 = GradedVectorSpace({2: 2})
    V0 = GradedVectorSpace({2: 1})
    I, D = _arrow_diagram(p, {2: [[1, 0]]}, V1, V0)
    # limit over I^op of F: pairs (x1, x0) with f(x1) = x0: dims = dim V1
    assert limit_dims(D, 5) == GradedVectorSpace({2: 2})


def test_constant_diagram_limit():
    p = 2
    I = FiniteCategory.span()
    k = GradedVectorSpace({0: 1})
    ident = {o: k for o in ("x", "y", "z")}
    maps = {"a": GradedMap.identity(k, p), "b": GradedMap.identity(k, p)}
    D = contravariant_diagram(I, ident, maps, p)
    assert limit_dims(D, 3) == k


def test_span_limit_stanley_reisner_two_points():
    # k[x] -> k <- k[y] via augmentations: limit dims {0:1, 2:2, 4:2, ...}
    p = 3
    cap = 6
    I = FiniteCategory.span()
    J = I.opposite()
    kx = MonomialAlgebra.polynomial(p, [("x", 2)])
    ky = MonomialAlgebra.polynomial(p, [("y", 2)])
    kk = MonomialAlgebra.trivial(p)
    AD = AlgebraDiagram(
        J,
        {"x": kx, "y": ky, "z": kk},
        {"a": {"x": "0"}, "b": {"y": "0"}},
        p,
    )
    D = AD.linearize(cap)
    got = limit_dims(D, cap)
    assert got == GradedVectorSpace({0: 1, 2: 2, 4: 2, 6: 2})


def test_single_object_limit():
    p = 5
    I = FiniteCategory({"pt": 0}, {})
    V = GradedVectorSpace({1: 2, 3: 1})
    D = contravariant_diagram(I, {"pt": V}, {}, p)
    assert limit_dims(D, 5) == V
    table = derived_limit_dims(D, 5)
    assert table == BigradedTable({(0, 1): 2, (0, 3): 1})


def test_injective_criterion_arrow():
    p = 3
    V1 = GradedVectorSpace({2: 2})
    V0 = GradedVectorSpace({2: 1})
    I, D = _arrow_diagram(p, {2: [[1, 0]]}, V1, V0)
    assert injective_by_criterion(I, D, 4)["injective"]
    # non-surjective map fails at object "1"
    I2, D2 = _arrow_diagram(p, {2: [[0, 0]]}, V1, V0)
    rep = injective_by_criterion(I2, D2, 4)
    assert not rep["injective"]
    bad = [r for r in rep["objects"] if not r["surjective"]]
    assert bad and bad[0]["object"] == "1"


def test_injective_criterion_span_and_face_poset():
    p = 2
    I = FiniteCategory.span()
    N = GradedVectorSpace({2: 1})
    M = GradedVectorSpace({2: 2})
    P = GradedVectorSpace({2: 1})
    maps = {
        "a": GradedMap(M, N, 0, {2: [[1, 0]]}, p),  # surjective
        "b": GradedMap(P, N, 0, {2: [[1]]}, p),
    }
    D = contravariant_diagram(I, {"z": N, "x": M, "y": P}, maps, p)
    assert injective_by_criterion(I, D, 4)["injective"]

    # face poset of one edge with Sym(V_sigma): fat, hence injective
    I2, faces = FiniteCategory.face_poset(["a", "b"], [["a", "b"]])
    J2 = I2.opposite()
    algs = {}
    for name, face in faces.items():
        gens = [(v, 2) for v in sorted(face)]
        algs[name] = MonomialAlgebra.polynomial(p, gens)
    maps2 = {}
    for f, (src, dst) in J2.arrows.items():
        # in J2 = I2^op: src is the bigger face, dst the smaller
        images = {}
        small = algs[dst]
        for v, _ in algs[src].generators:
            images[v] = v if v in small.names else "0"
        maps2[f] = images
    AD = AlgebraDiagram(J2, algs, maps2, p)
    D2 = AD.linearize(6)
    assert injective_by_criterion(I2, D2, 6)["injective"]
    table = derived_limit_dims(D2, 6)
    assert all(s == 0 for (s, t) in table.entries)
    # limit = Stanley-Reisner ring of the edge = k[a, b]
    row0 = {t: n for (s, t), n in table.items()}
    assert row0 == {0: 1, 2: 2, 4: 3, 6: 4}


def test_derived_limit_nontrivial_lim1():
    # cospan k -> V <- k with V = {2:1} and zero maps: lim^1 = (1, 2):1
    p = 2
    I = FiniteCategory.span()  # z is the apex; diagram over I^op is a cospan
    k = GradedVectorSpace({2: 1})
    V = GradedVectorSpace({2: 1})
    maps = {
        "a": GradedMap.zero(k, V, 0, p),
        "b": GradedMap.zero(k, V, 0, p),
    }
    D = contravariant_diagram(I, {"z": V, "x": k, "y": k}, maps, p)
    table = derived_limit_dims(D, 4)
    assert table.dim(1, 2) == 1
    assert table.dim(0, 2) == 2


def test_derived_limit_matches_limit_at_s0():
    p = 3
    V1 = GradedVectorSpace({2: 2, 4: 1})
    V0 = GradedVectorSpace({2: 1})
    I, D = _arrow_diagram(p, {2: [[1, 2]]}, V1, V0)
    lim = limit_dims(D, 6)
    table = derived_limit_dims(D, 6)
    row0 = {t: n for (s, t), n in table.items() if s == 0}
    assert row0 == {d: lim.dim(d) for d in lim.degrees()}
    assert all(s == 0 for (s, t) in table.entries)


def _span_aq_setup(p=2):
    """Surjective span of exterior algebras with odd surjective modules."""
    I = FiniteCategory.span()
    Vz = GradedVectorSpace({3: 1})
    Vx = GradedVectorSpace({3: 2})
    Vy = GradedVectorSpace({3: 1})
    vmaps = {
        "a": GradedMap(Vx, Vz, 0, {3: [[1, 0]]}, p),
        "b": GradedMap(Vy, Vz, 0, {3: [[1]]}, p),
    }
    DV = contravariant_diagram(I, {"z": Vz, "x": Vx, "y": Vy}, vmaps, p)
    Mz = GradedVectorSpace({3: 1})
    Mx = GradedVectorSpace({3: 2})
    My = GradedVectorSpace({3: 1})
    mmaps = {
        "a": GradedMap(Mx, Mz, 0, {3: [[1, 0]]}, p),
        "b": GradedMap(My, Mz, 0, {3: [[1]]}, p),
    }
    DM = contravariant_diagram(I, {"z": Mz, "x": Mx, "y": My}, mmaps, p)
    return I, DV, DM


@pytest.mark.parametrize("p", [2, 3])
def test_diagram_aq_concentrated_for_injective_modules(p):
    I, DV, DM = _span_aq_setup(p)
    assert injective_by_criterion(I, DM, 8)["injective"]
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=2)
    for q, table in out["tables"].items():
        assert all(s == 0 for (s, t) in table.entries), (q, table.entries)
        row0 = {t: n for (s, t), n in table.items()}
        assert row0 == out["kernel_formula"][q]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("v, m, q_max", [
    pytest.param({3: 1}, {3: 1}, 3, id="v3-m3"),
    pytest.param({1: 1, 3: 1}, {3: 1}, 2, id="v13-m3"),
    pytest.param({3: 2}, {1: 1, 5: 1}, 2, id="v33-m15"),
])
def test_diagram_aq_single_object_matches_aq(p, v, m, q_max):
    # row 0 of aq_ass_dims solves the Leibniz system of derivations_dims,
    # a route independent of the HH^1 that diagram AQ reads for q = 0
    from fphomalg.homalg import aq_ass_dims
    from fphomalg.monalg import AlgebraModule
    I = FiniteCategory({"pt": 0}, {})
    V, M = GradedVectorSpace(v), GradedVectorSpace(m)
    DV = contravariant_diagram(I, {"pt": V}, {}, p)
    DM = contravariant_diagram(I, {"pt": M}, {}, p)
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=q_max)
    A = diagrams._exterior_from_space(p, V)
    ref = aq_ass_dims(A, AlgebraModule(A, M), cap=12, s_max=q_max)
    assert ref.table.entries
    for q in range(q_max + 1):
        got = {t: n for (s, t), n in out["tables"][q].items() if s == 0}
        want = {t: n for (s, t), n in ref.table.items() if s == q}
        assert got == want, (q, got, want)


def test_diagram_aq_noninjective_cospan_has_higher_column():
    # zero maps on the module side break injectivity; some q shows s = 1
    p = 2
    I = FiniteCategory.span()
    Vz = GradedVectorSpace({3: 1})
    Vx = GradedVectorSpace({3: 1})
    Vy = GradedVectorSpace({3: 1})
    vmaps = {
        "a": GradedMap.identity(Vz, p),
        "b": GradedMap.identity(Vz, p),
    }
    DV = contravariant_diagram(I, {"z": Vz, "x": Vx, "y": Vy}, vmaps, p)
    M = GradedVectorSpace({3: 1})
    mmaps = {
        "a": GradedMap.zero(M, M, 0, p),
        "b": GradedMap.zero(M, M, 0, p),
    }
    DM = contravariant_diagram(I, {"z": M, "x": M, "y": M}, mmaps, p)
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=1)
    assert any(
        s == 1 for table in out["tables"].values() for (s, t) in table.entries
    )


def _ranked_matrices(monkeypatch):
    """Record every matrix passed to the kernel's rank (``K.rank_blocks``,
    which ``K.rank`` and every rank table call), keeping it alive so that
    two calls on one differential show as one object twice."""
    seen = []
    rank_blocks = K.rank_blocks

    def counting(a, *args, **kwargs):
        seen.append(a)
        return rank_blocks(a, *args, **kwargs)

    monkeypatch.setattr(K, "rank_blocks", counting)
    return seen


def test_derived_limit_ranks_each_differential_once(monkeypatch):
    _, _, DM = _span_aq_setup(3)
    seen = _ranked_matrices(monkeypatch)
    table = derived_limit_dims(DM, 8)
    assert table.dim(0, 3) == 2
    assert seen and len({id(m) for m in seen}) == len(seen)


def test_diagram_aq_ranks_each_differential_once(monkeypatch):
    I, DV, DM = _span_aq_setup(3)
    seen = _ranked_matrices(monkeypatch)
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=2)
    assert out["kernel_formula"][0]
    assert seen and len({id(m) for m in seen}) == len(seen)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degrees, module, q_max", [
    ((3,), {3: 1}, 3),
    ((1, 3), {1: 1, 5: 2}, 2),
    ((1, 3, 5), {3: 1}, 1),
])
def test_aq_local_dim_is_the_subquotient_dim(p, degrees, module, q_max):
    # on the cochains with coefficients k, and tensored with the module
    # degree by degree it is HH^{q+1} of the module from hochschild_dims
    from fphomalg.homalg import hochschild_dims
    from fphomalg.monalg import AlgebraModule
    V = GradedVectorSpace({d: degrees.count(d) for d in set(degrees)})
    A = diagrams._exterior_from_space(p, V)
    loc = diagrams._AQLocal(A, q_max)
    hc = loc.hc
    ts = hc.t_range(range(q_max + 2))
    nonzero = 0
    for q in range(q_max + 1):
        for t in range(ts[0] - 1, ts[-1] + 2):
            want = Subquotient(hc.delta(q + 1, t), hc.delta(q, t), p).dim
            assert loc.dim(q, t) == want, (q, t)
            nonzero += want > 0
    assert nonzero and not loc._sub_cache
    hh = hochschild_dims(A, AlgebraModule(A, GradedVectorSpace(module)), s_max=q_max + 1)
    tensored = Counter()
    for q in range(q_max + 1):
        for t in ts:
            for md, width in module.items():
                tensored[(q + 1, t + md)] += width * loc.dim(q, t)
    assert {(s, t): n for (s, t), n in hh.items() if s >= 1} == +tensored


@pytest.mark.parametrize("p, degrees", [
    (2, (3,)), (2, (2,)), (2, (1, 2)), (2, (2, 4, 5)),
    (3, (3,)), (3, (1, 3)), (3, (1, 3, 5)),
    (5, (1,)), (5, (3, 3)), (5, (1, 1, 3)),
])
@pytest.mark.parametrize("module", [{3: 1}, {1: 2}, {1: 1, 5: 2}, {2: 1, 4: 1}])
def test_aq_local_dim_at_q0_counts_derivations(p, degrees, module):
    # AQ^0 = HH^1: one derivation per generator g and basis vector of
    # M in degree |g| + t, that is dim M_md copies of AQ^0(A; k) in map
    # degree t - md, one derivation into k per generator of degree md - t
    V = GradedVectorSpace({d: degrees.count(d) for d in set(degrees)})
    M = GradedVectorSpace(module)
    loc = diagrams._AQLocal(diagrams._exterior_from_space(p, V), 0)
    want = {}
    for d in degrees:
        for md in M.degrees():
            want[md - d] = want.get(md - d, 0) + M.dim(md)
    for t in range(min(want) - 2, max(want) + 3):
        assert sum(n * loc.dim(0, t - md) for md, n in module.items()) == want.get(t, 0), t


def test_diagram_aq_builds_one_algebra_map_per_arrow(monkeypatch):
    calls = []
    build = diagrams._linear_algebra_map

    def counting(src, dst, block):
        calls.append((src, dst))
        return build(src, dst, block)

    monkeypatch.setattr(diagrams, "_linear_algebra_map", counting)
    for setup, arrows in ((_span_aq_setup(3), 2), (_chain_aq_setup(3), 3)):
        calls.clear()
        out = diagram_aq_table(*setup, s_max=3, q_max=2)
        assert any(table.entries for table in out["tables"].values())
        assert len(calls) == arrows


def _record_aq(monkeypatch):
    """Record the subquotients diagram AQ builds and those its induced maps
    read, its local AQ spaces (one Hochschild complex each), the sizes of
    each complex it assembles, and the faces from a zero component onto a
    nonzero chain; every face block must join two nonzero components."""
    rec = {"built": [], "read": [], "locals": [], "assembled": [], "zero_faces": set()}

    class Counted(Subquotient):
        def __init__(self, *args):
            rec["built"].append(self)
            super().__init__(*args)

    class Recorded(diagrams._AQLocal):
        def __init__(self, *args):
            rec["locals"].append(self)
            super().__init__(*args)

    induced, cosimplicial = diagrams._induced, diagrams._cosimplicial

    def reading(T, srcq, tgtq, p):
        rec["read"].extend((srcq, tgtq))
        return induced(T, srcq, tgtq, p)

    def between_nonzero(block):
        def call(*args):
            B = block(*args)
            assert B.size, args
            return B
        return call

    def assembling(J, levels, top, dim, face0, last, p):
        for level in levels[1: top + 2]:
            for start, fs in level:
                if dim((start, fs)):
                    if not dim((J.arrows[fs[0]][1], fs[1:])):
                        rec["zero_faces"].add("first")
                    if not dim((start, fs[:-1])):
                        rec["zero_faces"].add("last")
        sizes, d = cosimplicial(J, levels, top, dim, between_nonzero(face0),
                                between_nonzero(last), p)
        rec["assembled"].append(sizes)
        return sizes, d

    monkeypatch.setattr(diagrams, "Subquotient", Counted)
    monkeypatch.setattr(diagrams, "_AQLocal", Recorded)
    monkeypatch.setattr(diagrams, "_induced", reading)
    monkeypatch.setattr(diagrams, "_cosimplicial", assembling)
    return rec


def _subquotients_read_once(rec) -> int:
    """The subquotients built are those the induced maps read, each once
    and nonzero; returns their number."""
    assert {id(sq) for sq in rec["built"]} == {id(sq) for sq in rec["read"]}
    cached = [(loc, key, sq) for loc in rec["locals"] for key, sq in loc._sub_cache.items()]
    assert len(rec["built"]) == len(cached)
    assert all(sq.dim == loc.dim(*key) > 0 for loc, key, sq in cached)
    # no complex is assembled for a (q, t) whose components are all zero
    assert rec["assembled"] and all(any(sizes.values()) for sizes in rec["assembled"])
    return len(cached)


@pytest.mark.parametrize("p", [2, 3])
def test_diagram_aq_builds_a_subquotient_per_read_component(monkeypatch, p):
    rec = _record_aq(monkeypatch)
    I, DV, DM = _span_aq_setup(p)
    diagram_aq_table(I, DV, DM, s_max=2, q_max=3)
    # one complex with coefficients k per algebra object, each read at
    # q = 0, 1, 2, 3 (one per algebra-and-module pair read before: 5 and 20)
    assert len(rec["locals"]) == 3
    assert _subquotients_read_once(rec) == 12


def _mixed_degree_span(p):
    """V and M are {3: 1} at z and {5: 1} at x and y, with zero maps: the
    component AQ(A(x), M(z)) of a chain x -> z is nonzero in other map
    degrees than its faces AQ(A(z), M(z)) and AQ(A(x), M(x))."""
    I = FiniteCategory.span()
    V3, V5 = GradedVectorSpace({3: 1}), GradedVectorSpace({5: 1})
    values = {"z": V3, "x": V5, "y": V5}
    zero = {f: GradedMap.zero(V5, V3, 0, p) for f in "ab"}
    return I, contravariant_diagram(I, values, zero, p), contravariant_diagram(I, values, zero, p)


def test_diagram_aq_builds_no_face_block_from_a_zero_component(monkeypatch):
    rec = _record_aq(monkeypatch)
    out = diagram_aq_table(*_mixed_degree_span(3), s_max=2, q_max=2)
    assert rec["zero_faces"] == {"first", "last"}
    assert any(table.entries for table in out["tables"].values())
    # every face of a nonzero chain is zero here: no map, no subquotient
    assert _subquotients_read_once(rec) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_diagram_aq_reads_the_degrees_of_every_chain(p):
    # the two chains x -> z and y -> z carry AQ^q(Lambda(e5), k[3]), nonzero
    # in map degree 3 - 5 (q + 1), where every object's own pair vanishes,
    # so each such degree holds a 2 in s = 1
    out = diagram_aq_table(*_mixed_degree_span(p), s_max=2, q_max=2)
    assert {q: table.entries for q, table in out["tables"].items()} == {
        0: {(0, 0): 3, (1, -2): 2},
        1: {(0, -5): 2, (0, -3): 1, (1, -7): 2},
        2: {(0, -10): 2, (0, -6): 1, (1, -12): 2},
    }
    assert out["kernel_formula"] == {0: {0: 3}, 1: {-5: 2, -3: 1}, 2: {-10: 2, -6: 1}}


def test_diagram_aq_rank_route_checks_dd(monkeypatch):
    # one wrong entry in one whole level delta(s), s >= 1, in a row that
    # delta(s + 1) reads; delta is sparse, so the fault is planted in a
    # K.Sparse, in an entry it lists (so the level stays block diagonal),
    # and reaches the sparse d*d product of the rank table
    delta = HochschildComplex.delta
    corrupted = {}

    def corrupt(self, s, t=None):
        key = (id(self), s, t)
        if key in corrupted:
            return corrupted[key]
        m = delta(self, s, t)
        if t is None and s >= 1 and not corrupted and m.size and s + 1 < self.levels:
            read = np.isin(m.rows, np.unique(delta(self, s + 1).cols)).nonzero()[0]
            if read.size:
                vals = m.vals.copy()
                vals[read[0]] += 1
                m = K.Sparse(m.shape, m.rows, m.cols, vals)
                corrupted[key] = m
        return m

    monkeypatch.setattr(HochschildComplex, "delta", corrupt)
    I, DV, DM = _span_aq_setup(3)
    with pytest.raises(CrossCheckError, match="d\\*d"):
        diagram_aq_table(I, DV, DM, s_max=2, q_max=2)
    assert corrupted


# a --f--> b --g--> c with h = g f, whose nerve has the composable pair
# (f, g); V and M are k[3] everywhere, f acts by 1 and g, h by 0
CHAIN_OF_TWO_ARROWS = {
    "category": {"objects": [{"id": "a", "lambda": 0}, {"id": "b", "lambda": 1},
                             {"id": "c", "lambda": 2}],
                 "arrows": [{"id": "f", "src": "a", "dst": "b"}, {"id": "g", "src": "b", "dst": "c"},
                            {"id": "h", "src": "a", "dst": "c"}]},
    "values": {o: {"dims": {"3": 1}} for o in "abc"},
    "maps": {"f": {"blocks": {"3": [[1]]}}, "g": {"blocks": {"3": [[0]]}},
             "h": {"blocks": {"3": [[0]]}}},
}


def _plant_cosimplicial_fault(monkeypatch):
    """Wrap ``_cosimplicial`` so that the first complex whose ``d[1]`` reads
    a row of ``d[0]`` gets 1 added to that row's first entry, so that
    ``d[1] @ d[0]`` no longer vanishes; returns the list of planted rows."""
    planted = []
    cosimplicial = diagrams._cosimplicial

    def planting(*args):
        sizes, d = cosimplicial(*args)
        p = args[-1]
        read = np.flatnonzero(d[1].any(axis=0)) if 1 in d else ()
        if not planted and len(read) and d[0].shape[1]:
            d[0] = d[0].copy()
            d[0][read[0], 0] = (d[0][read[0], 0] + 1) % p
            assert (d[1] @ d[0] % p).any()
            planted.append(read[0])
        return sizes, d

    monkeypatch.setattr(diagrams, "_cosimplicial", planting)
    return planted


@pytest.mark.parametrize("command", ["diagram-lim", "diagram-aq"])
def test_a_fault_in_the_cosimplicial_complex_exits_3(monkeypatch, tmp_path, capsys, command):
    p, data = 3, CHAIN_OF_TWO_ARROWS
    cat = FiniteCategory.from_json(data["category"])
    D = _vector_diagram(cat, data["values"], data["maps"], p)
    planted = _plant_cosimplicial_fault(monkeypatch)
    with pytest.raises(CrossCheckError, match="cosimplicial differential fails d\\*d = 0"):
        if command == "diagram-lim":
            derived_limit_dims(D, 6)
        else:
            diagram_aq_table(cat, D, D, s_max=3, q_max=2)
    assert planted
    planted.clear()
    if command == "diagram-lim":
        argv = ["-n", "6"]
    else:
        argv = ["--smax", "3", "--qmax", "2"]
        data = {"category": data["category"], "v_values": data["values"], "v_maps": data["maps"],
                "m_values": data["values"], "m_maps": data["maps"]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    assert main([command, "-p", str(p), *argv, str(path)]) == 3
    assert planted
    assert "cosimplicial differential fails d*d = 0" in capsys.readouterr().err


def test_diagram_aq_restricts_along_maps_into_larger_algebras():
    # A(z) has two generators and A(x), A(y) one each, so the algebra maps
    # A(x) -> A(z), A(y) -> A(z) land in a larger algebra; the module side is
    # injective, so every table sits in s = 0 and equals the kernel formula.
    p = 3
    I = FiniteCategory.span()
    Vz, V1 = GradedVectorSpace({3: 2}), GradedVectorSpace({3: 1})
    vmaps = {"a": GradedMap(V1, Vz, 0, {3: [[1], [0]]}, p),
             "b": GradedMap(V1, Vz, 0, {3: [[0], [1]]}, p)}
    DV = contravariant_diagram(I, {"z": Vz, "x": V1, "y": V1}, vmaps, p)
    M = GradedVectorSpace({3: 1})
    mmaps = {"a": GradedMap.identity(M, p), "b": GradedMap.identity(M, p)}
    DM = contravariant_diagram(I, {"z": M, "x": M, "y": M}, mmaps, p)
    assert injective_by_criterion(I, DM, 8)["injective"]
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=2)
    for q, table in out["tables"].items():
        assert table.entries and all(s == 0 for (s, t) in table.entries)
        assert {t: n for (s, t), n in table.items()} == out["kernel_formula"][q]


def test_derived_limit_of_a_face_ring_at_an_odd_prime():
    # the face-ring diagram of the boundary of a triangle: the limit is the
    # Stanley-Reisner ring and nothing sits above row 0; at p = 3 the signs
    # of the cosimplicial faces matter
    p, cap = 3, 6
    I, faces = FiniteCategory.face_poset(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
    J = I.opposite()
    algs = {name: MonomialAlgebra.polynomial(p, [(v, 2) for v in sorted(face)])
            if face else MonomialAlgebra.trivial(p) for name, face in faces.items()}
    maps = {f: {v: (v if v in algs[dst].names else "0") for v, _ in algs[src].generators}
            for f, (src, dst) in J.arrows.items()}
    D = AlgebraDiagram(J, algs, maps, p).linearize(cap)
    assert derived_limit_dims(D, cap).entries == {(0, 0): 1, (0, 2): 3, (0, 4): 6, (0, 6): 9}


def _chain_aq_setup(p):
    """0 < 1 < 2 with identity maps on k[3] for both V and M."""
    I = FiniteCategory.poset({"0": 0, "1": 1, "2": 2}, [("0", "1"), ("1", "2")])
    V = GradedVectorSpace({3: 1})
    maps = {f: GradedMap.identity(V, p) for f in I.arrows}
    DV = contravariant_diagram(I, {o: V for o in "012"}, maps, p)
    DM = contravariant_diagram(I, {o: V for o in "012"}, maps, p)
    return I, DV, DM


def test_diagram_aq_on_a_chain_of_three_objects():
    # 0 < 1 < 2 has chains of two arrows, so the middle faces and their signs
    # enter; identity maps make the module side injective
    out = diagram_aq_table(*_chain_aq_setup(3), s_max=3, q_max=2)
    for q, table in out["tables"].items():
        assert table.entries == {(0, -3 * q): 1}
        assert out["kernel_formula"][q] == {-3 * q: 1}


def _chain_of_three():
    return FiniteCategory.poset({"0": 0, "1": 1, "2": 2}, [("0", "1"), ("1", "2")])


def test_nerve_levels_truncation_and_cycles():
    I = _chain_of_three()
    levels = I.nerve()
    assert levels == [
        [("0", ()), ("1", ()), ("2", ())],
        [("0", ("0<1",)), ("0", ("0<2",)), ("1", ("1<2",))],
        [("0", ("0<1", "1<2"))],
    ]
    assert I.nerve(top=1) == levels[:2]
    cyclic = FiniteCategory({"x": 0, "y": 1}, {"f": ("x", "y"), "g": ("y", "x")},
                            {("f", "g"): "f", ("g", "f"): "g"})
    with pytest.raises(ValidationError, match="cycles"):
        cyclic.nerve()


def test_derived_limits_on_a_chain_with_a_composite():
    # over I^op the chain 0 < 1 < 2 has the initial object 2, so the limit
    # is F(2) and nothing sits above row 0; at p = 3 the face signs, face 0
    # and the composite 0 < 2 all enter d*d = 0 and the ranks
    p = 3
    I = _chain_of_three()
    F0, F1, F2 = (GradedVectorSpace({2: n}) for n in (2, 1, 2))
    a, b = np.array([[1], [2]]), np.array([[1, 1]])
    maps = {"0<1": GradedMap(F1, F0, 0, {2: a}, p),
            "1<2": GradedMap(F2, F1, 0, {2: b}, p),
            "0<2": GradedMap(F2, F0, 0, {2: (a @ b) % p}, p)}
    D = contravariant_diagram(I, {"0": F0, "1": F1, "2": F2}, maps, p)
    assert limit_dims(D, 4) == F2
    assert derived_limit_dims(D, 4).entries == {(0, 2): 2}


def nat_dims(DV, DM, p) -> dict:
    """``{t: dim Nat(V, M)_t}`` for the nonzero dimensions, with no
    Hochschild cochains: the kernel, through ``K.nullspace``, of
    ``x_j1 V(f) - M(f) x_j0`` for every arrow f: j0 -> j1 over the sum over
    objects j of Hom(V_j, M_j)_t, a block ``(M_j)_{d+t} x (V_j)_d`` per
    degree d of V_j, read column by column."""
    from fphomalg import _kernels as K

    J = DV.base
    objects = sorted(J.objects)
    out = {}
    for t in sorted({md - vd for o in objects for vd in DV.value(o).degrees()
                     for md in DM.value(o).degrees()}):
        def shape(j, d):
            return DM.value(j).dim(d + t), DV.value(j).dim(d)

        offs, n = {}, 0
        for j in objects:
            for d in DV.value(j).degrees():
                offs[(j, d)] = n
                n += shape(j, d)[0] * shape(j, d)[1]
        rows = [np.zeros((0, n), dtype=np.int64)]
        for f, (j0, j1) in sorted(J.arrows.items()):
            for d in DV.value(j0).degrees():
                (m1, v1), (m0, v0) = shape(j1, d), shape(j0, d)
                r = np.zeros((m1 * v0, n), dtype=np.int64)
                if (j1, d) in offs:  # vec(x V) = (V^T (x) 1) vec(x)
                    o = offs[(j1, d)]
                    r[:, o: o + m1 * v1] += np.kron(DV.map(f).block(d).T,
                                                    np.eye(m1, dtype=np.int64))
                o = offs[(j0, d)]  # vec(M x) = (1 (x) M) vec(x)
                r[:, o: o + m0 * v0] -= np.kron(np.eye(v0, dtype=np.int64), DM.map(f).block(d + t))
                rows.append(r)
        h = K.nullspace(np.concatenate(rows) % p, p).shape[1]
        if h:
            out[t] = h
    return out


def _ci_chain_of_two_arrows(p):
    """CI's chain a < b < c: V = M = k[3] everywhere, with the map of a < b
    the identity and those of b < c and a < c zero."""
    I = FiniteCategory.from_json({
        "objects": [{"id": o, "lambda": l} for o, l in zip("abc", range(3))],
        "arrows": [{"id": f, "src": s, "dst": d} for f, s, d in
                   (("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c"))]})
    V = GradedVectorSpace({3: 1})
    maps = {f: GradedMap(V, V, 0, {3: [[int(f == "f")]]}, p) for f in "fgh"}
    D = contravariant_diagram(I, dict.fromkeys("abc", V), maps, p)
    return I, D, D


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("setup", [_span_aq_setup, _ci_chain_of_two_arrows],
                         ids=["accept08-span", "ci-chain"])
def test_kernel_row_at_q0_is_the_natural_maps(p, setup):
    # ker d_0 at q = 0 is Nat(V, M), computed without Hochschild cochains
    I, DV, DM = setup(p)
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=0)
    assert out["kernel_formula"][0] == nat_dims(DV, DM, p) != {}


@st.composite
def aq_spans(draw):
    """A span x <- z -> y in I with V in odd degrees and M in degrees 1 to
    4, at most two dimensions each, and random maps of both."""
    p = draw(st.sampled_from([2, 3]))
    I = FiniteCategory.span()

    def diagram(degrees):
        values = {o: GradedVectorSpace({d: draw(st.integers(0, 2)) for d in
                                        draw(st.sets(st.sampled_from(degrees), min_size=1,
                                                     max_size=2))})
                  for o in "zxy"}
        maps = {f: GradedMap(values[end], values["z"], 0, {
            d: draw(arrays(np.int64, (values["z"].dim(d), values[end].dim(d)),
                           elements=st.integers(0, p - 1)))
            for d in values[end].degrees()}, p) for f, end in (("a", "x"), ("b", "y"))}
        return contravariant_diagram(I, values, maps, p)

    return p, I, diagram([1, 3, 5]), diagram([1, 2, 3, 4])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=aq_spans())
def test_kernel_row_at_q0_is_the_natural_maps_on_random_spans(case):
    p, I, DV, DM = case
    out = diagram_aq_table(I, DV, DM, s_max=1, q_max=0)
    assert out["kernel_formula"][0] == nat_dims(DV, DM, p)
