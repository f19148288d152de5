import numpy as np
import pytest

from fphomalg.diagrams import (
    AlgebraDiagram,
    FiniteCategory,
    VectorDiagram,
    contravariant_diagram,
    derived_limit_dims,
    diagram_aq_table,
    injective_by_criterion,
    limit_dims,
    validate_direct_category,
)
from fphomalg.errors import ValidationError
from fphomalg.linalg import BigradedTable, GradedMap, GradedVectorSpace
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


def test_diagram_aq_single_object_matches_aq():
    from fphomalg.homalg import aq_ass_dims, trivial_module
    p = 3
    I = FiniteCategory({"pt": 0}, {})
    V = GradedVectorSpace({3: 1})
    M = GradedVectorSpace({3: 1})
    DV = contravariant_diagram(I, {"pt": V}, {}, p)
    DM = contravariant_diagram(I, {"pt": M}, {}, p)
    out = diagram_aq_table(I, DV, DM, s_max=2, q_max=3)
    A = MonomialAlgebra.exterior(p, [("e3_0", 3)])
    ref = aq_ass_dims(A, trivial_module(A, degree=3), cap=12, s_max=3)
    for q in range(4):
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
    """Record every matrix passed to the kernel's rank, keeping it alive so
    that two calls on one differential show as one object twice."""
    from fphomalg import _kernels as K

    seen = []
    rank = K.rank

    def counting(a, *args, **kwargs):
        seen.append(a)
        return rank(a, *args, **kwargs)

    monkeypatch.setattr(K, "rank", counting)
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


def test_diagram_aq_on_a_chain_of_three_objects():
    # 0 < 1 < 2 has chains of two arrows, so the middle faces and their signs
    # enter; identity maps make the module side injective
    p = 3
    I = FiniteCategory.poset({"0": 0, "1": 1, "2": 2}, [("0", "1"), ("1", "2")])
    V = GradedVectorSpace({3: 1})
    maps = {f: GradedMap.identity(V, p) for f in I.arrows}
    DV = contravariant_diagram(I, {o: V for o in "012"}, maps, p)
    DM = contravariant_diagram(I, {o: V for o in "012"}, maps, p)
    out = diagram_aq_table(I, DV, DM, s_max=3, q_max=2)
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
