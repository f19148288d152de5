"""Acceptance suite: every criterion at its stated tolerance (exact
arithmetic throughout), one printed pass/fail line per criterion."""

import functools
import time

import numpy as np

from fphomalg.applications import (
    GroupAction,
    bu_to_bu1_input,
    emss_hypothesis_check,
    emss_tor_algebra,
    lie_formality_checklist,
    loop_cohomology_dims,
    stanley_reisner_dims,
)
from fphomalg.diagrams import (
    AlgebraDiagram,
    FiniteCategory,
    contravariant_diagram,
    derived_limit_dims,
    diagram_aq_table,
    injective_by_criterion,
)
from fphomalg.freelie import (
    Generator,
    bracket_closure_dims,
    check_axioms,
    free_lie_symbol_dims,
    lyndon_basis,
    restricted_basis,
    restricted_closure_dims,
    restricted_symbol_dims,
)
from fphomalg.homalg import aq_ass_dims, bar_homology_dims, ext_dims, tor_dims, trivial_module
from fphomalg.linalg import GradedMap, GradedVectorSpace
from fphomalg.monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra
from fphomalg.w1 import (
    free_w1_dims,
    mod2_postnikov_square_table,
    obstruction_line_vanishes,
    sym_zeta_dims,
    triviality_check,
)

PRIMES = (2, 3, 5)


def _gens(degs):
    names = "xyz"
    return [Generator(names[i], d) for i, d in enumerate(degs)]


def report(tag, ok, detail=""):
    line = f"{tag} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_free_functor_identity():
    """free W1 dims equal Sym_zeta of the restricted Lie dims, cap 15."""
    sets = [(2,), (3,), (2, 4), (2, 3), (5, 6), (2, 2, 6), (4,)]
    cap = 15
    t0 = time.perf_counter()
    checked = 0
    for p in PRIMES:
        for degs in sets:
            gens = _gens(degs)
            a = free_w1_dims(gens, cap, p)
            g = restricted_symbol_dims(gens, cap, p=p)
            b = sym_zeta_dims(g, cap, p)
            assert a == b, (p, degs, a.nonzero(), b.nonzero())
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "ACCEPT-01",
        checked == len(sets) * len(PRIMES) and elapsed < 60.0,
        f"{checked} (p, generator-set) pairs, cap {cap}, {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equality():
    """Lyndon/restricted symbol counts equal the closure oracles, cap 10."""
    sets = [(2,), (3,), (2, 2), (2, 3), (3, 5)]
    cap, wcap = 10, 10
    pairs = 0
    for p in PRIMES:
        for degs in sets:
            gens = _gens(degs)
            basis = lyndon_basis(gens, wcap, cap, p=p)
            counted = {}
            for b in basis:
                counted[b.v_degree] = counted.get(b.v_degree, 0) + 1
            oracle = bracket_closure_dims(gens, cap, p=p, weight_cap=wcap)
            assert counted == oracle.dims
            assert free_lie_symbol_dims(gens, cap, p=p, weight_cap=wcap) == oracle
            _, rdims = restricted_basis(gens, cap, p=p, weight_cap=wcap)
            roracle = restricted_closure_dims(gens, cap, p=p, weight_cap=wcap)
            assert rdims == roracle
            assert restricted_symbol_dims(gens, cap, p=p, weight_cap=wcap) == roracle
            pairs += 1
    report("ACCEPT-02", pairs == 15, f"{pairs} generator sets, basis = oracle exactly")


def test_criterion_03_axiom_suite():
    """Bracket/restriction axioms hold on >= 200 random elements per prime."""
    for p, degs in ((2, (2, 3)), (3, (2, 3)), (5, (2, 4))):
        rep = check_axioms(_gens(degs), degree_cap=14, trials=200, rng_seed=11, p=p)
        assert rep["all_pass"], rep
        for name in ("antisymmetry", "jacobi", "self_bracket_triple", "restriction_ad"):
            assert rep["checks"][name]["tested"] >= 200, (p, name, rep["checks"][name])
        if p == 2:
            assert rep["checks"]["additivity_p2"]["tested"] >= 200
    report("ACCEPT-03", True, "200 trials per prime, zero failures")


@functools.lru_cache(maxsize=1)
def _criterion_04_tables():
    rng = np.random.default_rng(23)
    instances = []
    # >= 10 randomized (V odd <= 2 gens, M odd) instances; odd modules over
    # odd exterior algebras force the trivial action, which is the
    # symmetric-bimodule case of the statement
    deg_choices = [(1,), (3,), (5,), (1, 3), (3, 3), (3, 5)]
    while len(instances) < 10:
        degs = deg_choices[len(instances) % len(deg_choices)]
        mdims = {}
        for _ in range(int(rng.integers(1, 3))):
            d = int(rng.choice([1, 3, 5, 7]))
            mdims[d] = int(rng.integers(1, 3))
        instances.append((degs, tuple(sorted(mdims.items()))))
    out = []
    for p in (2, 3):
        for degs, mdims in instances[: 5 if p == 2 else 10]:
            names = "xy"
            A = MonomialAlgebra.exterior(p, [(names[i], d) for i, d in enumerate(degs)])
            M = AlgebraModule.trivial(A, GradedVectorSpace(dict(mdims)))
            res = aq_ass_dims(A, M, cap=12, s_max=5)
            out.append((p, degs, mdims, res))
    return out


def test_criterion_04_aq_evenness():
    """AQ tables of odd exterior algebras with odd modules are even, with
    both Hochschild routes agreeing entry by entry (s_max 5, cap 12)."""
    tables = _criterion_04_tables()
    assert len(tables) >= 10
    for p, degs, mdims, res in tables:
        assert res.notes == [], (p, degs, res.notes)
        assert res.verdict.verdict == "even", (p, degs, mdims, res.table.entries)
    report("ACCEPT-04", True, f"{len(tables)} randomized instances, all even, routes agree")


def test_criterion_05_ext_periodicity():
    """Ext over k[x]/x^2 with |x| = 3: dimension one at (s, -3s), s <= 8."""
    for p in (2, 3):
        A = MonomialAlgebra.exterior(p, [("x", 3)])
        table = ext_dims(A, trivial_module(A), s_max=8)
        want = {(s, -3 * s): 1 for s in range(9)}
        assert table.entries == want, (p, table.entries)
    report("ACCEPT-05", True, "periodic strand golden at p in {2, 3}")


def test_criterion_06_tor_bar_loops():
    """Tor and bar agree and give the exterior loop series, exactly."""
    for p in PRIMES:
        A = MonomialAlgebra.polynomial(p, [("u", 2)])
        k = ModuleViaMap.augmentation(A)
        T = tor_dims(A, k, k, cap=10)
        B = bar_homology_dims(A, cap=10)
        assert T == B
        assert T.total_dims() == {0: 1, 1: 1}
        out = loop_cohomology_dims(GradedVectorSpace({2: 1, 4: 1}), 10, p)
        assert out["series"].nonzero() == {0: 1, 1: 1, 3: 1, 4: 1}
        assert out["routes_agree"]
    report("ACCEPT-06", True, "Koszul = bar, loop series exterior, p in {2, 3, 5}")


def _fat_edge_diagram(p, cap):
    I, faces = FiniteCategory.face_poset(["a", "b"], [["a", "b"]])
    J = I.opposite()
    algs = {}
    for name, face in faces.items():
        gens = [(v, 2) for v in sorted(face)]
        algs[name] = MonomialAlgebra.polynomial(p, gens) if gens else MonomialAlgebra.trivial(p)
    maps = {}
    for f, (src, dst) in J.arrows.items():
        small = algs[dst]
        maps[f] = {v: (v if v in small.names else "0") for v, _ in algs[src].generators}
    return I, AlgebraDiagram(J, algs, maps, p).linearize(cap)


def _boundary_triangle_diagram(p, cap):
    I, faces = FiniteCategory.face_poset(
        ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
    )
    J = I.opposite()
    algs = {}
    for name, face in faces.items():
        gens = [(v, 2) for v in sorted(face)]
        algs[name] = MonomialAlgebra.polynomial(p, gens) if gens else MonomialAlgebra.trivial(p)
    maps = {}
    for f, (src, dst) in J.arrows.items():
        small = algs[dst]
        maps[f] = {v: (v if v in small.names else "0") for v, _ in algs[src].generators}
    return I, AlgebraDiagram(J, algs, maps, p).linearize(cap)


def test_criterion_07_diagram_concentration():
    """Criterion-passing diagrams have derived limits only in column 0; the
    bundled non-injective cospan shows (1, 2): 1."""
    p, cap = 3, 10
    checked = 0
    # surjective arrow
    V1, V0 = GradedVectorSpace({2: 2}), GradedVectorSpace({2: 1})
    I = FiniteCategory.arrow()
    D = contravariant_diagram(
        I, {"0": V0, "1": V1}, {"f": GradedMap(V1, V0, 0, {2: [[1, 0]]}, p)}, p
    )
    cases = [(I, D)]
    cases.append(_fat_edge_diagram(p, cap))
    cases.append(_boundary_triangle_diagram(p, cap))
    for I, D in cases:
        assert len(I.objects) <= 8
        assert injective_by_criterion(I, D, cap)["injective"]
        table = derived_limit_dims(D, cap)
        assert all(s == 0 for (s, t) in table.entries), table.entries
        checked += 1
    # non-injective cospan with zero maps: lim^1 = (1, 2): 1
    k = GradedVectorSpace({2: 1})
    I = FiniteCategory.span()
    D = contravariant_diagram(
        I,
        {"z": k, "x": k, "y": k},
        {"a": GradedMap.zero(k, k, 0, p), "b": GradedMap.zero(k, k, 0, p)},
        p,
    )
    table = derived_limit_dims(D, cap)
    assert table.dim(1, 2) == 1
    report("ACCEPT-07", True, f"{checked} injective diagrams concentrated; cospan shows (1,2):1")


def test_criterion_08_diagram_aq():
    """Surjective span of exterior algebras with odd surjective modules:
    concentrated in column 0 and equal to the kernel formula per q."""
    for p in (2, 3):
        I = FiniteCategory.span()
        Vz, Vx, Vy = (GradedVectorSpace({3: 1}), GradedVectorSpace({3: 2}),
                      GradedVectorSpace({3: 1}))
        DV = contravariant_diagram(
            I, {"z": Vz, "x": Vx, "y": Vy},
            {"a": GradedMap(Vx, Vz, 0, {3: [[1, 0]]}, p),
             "b": GradedMap(Vy, Vz, 0, {3: [[1]]}, p)}, p)
        Mz, Mx, My = (GradedVectorSpace({3: 1}), GradedVectorSpace({3: 2}),
                      GradedVectorSpace({3: 1}))
        DM = contravariant_diagram(
            I, {"z": Mz, "x": Mx, "y": My},
            {"a": GradedMap(Mx, Mz, 0, {3: [[1, 0]]}, p),
             "b": GradedMap(My, Mz, 0, {3: [[1]]}, p)}, p)
        assert injective_by_criterion(I, DM, 10)["injective"]
        out = diagram_aq_table(I, DV, DM, s_max=2, q_max=3)
        for q, table in out["tables"].items():
            assert all(s == 0 for (s, t) in table.entries), (p, q, table.entries)
            row0 = {t: n for (s, t), n in table.items()}
            assert row0 == out["kernel_formula"][q], (p, q)
    report("ACCEPT-08", True, "span AQ concentrated at s=0, kernel formula matches, q <= 3")


def test_criterion_09_invariants_golden():
    """Mod-3 invariants of the sign action on two degree-2 classes."""
    action = GroupAction(3, [[[2, 0], [0, 2]]], [2, 2])
    rep = lie_formality_checklist(action, 12)
    assert rep["invariant_series"] == {0: 1, 4: 3, 8: 5, 12: 7}
    assert rep["polynomial_witness"] == {"degree": 8, "invariant_dim": 5, "free_dim": 6}
    assert rep["verdict"] == "formality criteria satisfied"
    report("ACCEPT-09", True, "series {0:1,4:3,8:5,12:7}, witness dim 5 < 6, criteria satisfied")


def test_criterion_10_face_ring_dual_paths():
    """Monomial counts equal face-poset limits on three complexes, cap 12."""
    cases = [
        (["v"], [["v"]]),
        (["a", "b"], [["a"], ["b"]]),
        (["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]),
    ]
    for vertices, facets in cases:
        out = stanley_reisner_dims(vertices, facets, 2, 12, 3)
        assert out["routes_agree"]
    report("ACCEPT-10", True, "3 complexes, both routes identical to cap 12")


def test_criterion_11_emss_goldens():
    """Surjectivity iff odd rank, exterior collapse pattern, square-zero witness."""
    for n in range(1, 10):
        rep = emss_hypothesis_check(bu_to_bu1_input(n, cap=8))
        assert rep["to_x"]["surjective"] == (n % 2 == 1), n
    out3 = emss_tor_algebra(bu_to_bu1_input(3, cap=12))
    totals3 = {d: n for d, n in out3["totals"].items() if d <= 8}
    assert totals3 == {0: 1, 3: 1, 5: 1, 8: 1}
    out2 = emss_tor_algebra(bu_to_bu1_input(2, cap=10))
    deg1 = [i for i, c in enumerate(out2["classes"]) if c["total"] == 1]
    assert len(deg1) == 1
    sq = [r for r in out2["squares"] if r["class"] == deg1[0]][0]
    assert sq["square"] == "zero"
    report("ACCEPT-11", True, "surjective iff n odd (n <= 9); collapse patterns and witness")


def test_criterion_12_obstruction_wiring():
    """Even AQ tables pass the obstruction check; the mod-2 Postnikov table
    fails triviality with the degree-2 witness."""
    tables = _criterion_04_tables()
    for p, degs, mdims, res in tables:
        rep = obstruction_line_vanishes(res.table)
        assert rep["pass"], (p, degs, rep)
    tri = triviality_check(mod2_postnikov_square_table(20))
    assert not tri["trivial"]
    assert tri["offenders"][0] == {"generator": "x2", "operation": "xi", "value": "x3"}
    report("ACCEPT-12", True,
           f"{len(tables)} even tables obstruction-free; nontrivial square witness (x2 -> x3)")
