import random

import numpy as np
import pytest

from fphomalg import _kernels as K
from fphomalg import applications
from fphomalg.applications import (
    EMSSInput,
    EMSSTorAlgebra,
    GroupAction,
    bu_to_bu1_input,
    emss_hypothesis_check,
    emss_tor_algebra,
    invariant_dims,
    invariants_closed_under_products,
    lie_formality_checklist,
    loop_cohomology_dims,
    stanley_reisner_dims,
)
from fphomalg import homalg
from fphomalg.errors import CapError, ValidationError
from fphomalg.homalg import tor_dims
from fphomalg.linalg import GradedVectorSpace
from fphomalg.monalg import ModuleViaMap, MonomialAlgebra


def minus_one_action(p):
    return GroupAction(p, [[[p - 1, 0], [0, p - 1]]], [2, 2])


def swap_action(p):
    return GroupAction(p, [[[0, 1], [1, 0]]], [2, 2])


def test_group_closure_and_validation():
    a = minus_one_action(3)
    assert a.order == 2
    s = swap_action(5)
    assert s.order == 2
    with pytest.raises(ValidationError):
        GroupAction(3, [[[1, 1], [0, 1]]], [2, 4])  # mixes degrees
    with pytest.raises(ValidationError):
        GroupAction(3, [[[0, 0], [0, 0]]], [2, 2])  # singular
    for order in (0, -2):
        with pytest.raises(ValidationError, match="order must be >= 1"):
            GroupAction(3, [[[2, 0], [0, 2]]], [2, 2], order=order)
    assert GroupAction(3, [[[2, 0], [0, 2]]], [2, 2], order=4).order == 4


def test_invariants_golden_minus_one():
    series, _ = invariant_dims(minus_one_action(3), 12)
    assert series.nonzero() == {0: 1, 4: 3, 8: 5, 12: 7}


def test_invariants_trivial_group_full_sym():
    triv = GroupAction(3, [[[1, 0], [0, 1]]], [2, 2])
    series, _ = invariant_dims(triv, 8)
    assert series.nonzero() == {0: 1, 2: 2, 4: 3, 6: 4, 8: 5}


def test_invariants_symmetric_group():
    series, _ = invariant_dims(swap_action(5), 8)
    assert series.nonzero() == {0: 1, 2: 1, 4: 2, 6: 2, 8: 3}


def test_invariants_products_stay_invariant():
    assert invariants_closed_under_products(minus_one_action(3), 8)
    assert invariants_closed_under_products(swap_action(5), 8)


def test_checklist_golden_f3():
    rep = lie_formality_checklist(minus_one_action(3), 12)
    assert not rep["p_divides_order"]
    assert rep["verdict"] == "formality criteria satisfied"
    assert rep["polynomial_verdict"] == "not_polynomial"
    assert rep["polynomial_witness"] == {
        "degree": 8, "invariant_dim": 5, "free_dim": 6
    }


def test_checklist_p_divides_order():
    # at p=2 the sign representation collapses; the abstract order of the
    # order-two Weyl group is declared explicitly
    action = GroupAction(2, [[[1, 0], [0, 1]]], [2, 2], order=2)
    rep = lie_formality_checklist(action, 8)
    assert rep["p_divides_order"]
    assert rep["verdict"] == "criteria not satisfied"


def test_checklist_polynomial_case():
    rep = lie_formality_checklist(swap_action(5), 8)
    assert rep["verdict"] == "formality criteria satisfied"
    assert rep["polynomial_verdict"] == "polynomial_up_to_cap"
    assert sorted(rep["generator_degrees"]) == [2, 4]


def signed_permutation(rng, n, p, signed):
    perm = rng.sample(range(n), n)
    return [[(rng.choice([1, p - 1]) if signed else 1) if perm[i] == j else 0
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_invariants_over_the_generators_are_those_over_every_element(seed):
    # a vector fixed by the generators is fixed by the group: the kernel of
    # the stack over the generators is the one over every element, and its
    # basis, read off one reduced echelon form, is the same array
    rng = random.Random(seed)
    p, n = rng.choice([2, 3, 5, 7]), rng.choice([2, 3, 4])
    # seed 0 has no generators: the trivial group fixes everything
    count = rng.choice([1, 2]) if seed else 0
    gens = [signed_permutation(rng, n, p, seed % 2) for _ in range(count)]
    action = GroupAction(p, gens, [2] * n)
    ring = action.ring
    # the reference: the stack over every group element
    maps = [ModuleViaMap(ring, ring, {
        ring.names[j]: {ring.monomial_of(ring.names[i]): int(g[i, j]) for i in range(n) if g[i, j]}
        for j in range(n)}) for g in action.elements]
    _, basis = invariant_dims(action, 8)
    for d in range(0, 9, 2):
        mons = ring.basis(d)
        eye = np.eye(len(mons), dtype=np.int64)
        ker = K.nullspace(np.concatenate([(mv.block(d) - eye) % p for mv in maps]), p)
        if ker.shape[1]:
            assert basis[d][1] == mons and np.array_equal(basis[d][0], ker), d
        else:
            assert d not in basis


def test_invariants_of_s4_at_p5_are_polynomial_on_degrees_2_to_8(tmp_path):
    # the permutation action of S4 on four degree-2 classes, given by the
    # adjacent transpositions: the invariant ring is polynomial on the
    # elementary symmetric functions
    import json

    from fphomalg.cli import main

    def swap(k):
        image = {k: k + 1, k + 1: k}
        return [[int(j == image.get(i, i)) for j in range(4)] for i in range(4)]

    swaps = [swap(k) for k in range(3)]
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"matrices": swaps, "degrees": [2, 2, 2, 2]}))
    out = tmp_path / "out.json"
    assert main(["lie-check", "-p", "5", "-n", "20", "--format", "json",
                 "-o", str(out), str(path)]) == 0
    report = json.loads(out.read_text())
    assert report["group_order"] == 24
    assert report["generator_degrees"] == [2, 4, 6, 8]
    assert report["polynomial_verdict"] == "polynomial_up_to_cap"


def test_stanley_reisner_point():
    out = stanley_reisner_dims(["v"], [["v"]], 2, 8, 3)
    assert out["series"].nonzero() == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


def test_stanley_reisner_two_points():
    out = stanley_reisner_dims(["a", "b"], [["a"], ["b"]], 2, 6, 2)
    assert out["series"].nonzero() == {0: 1, 2: 2, 4: 2, 6: 2}


def test_stanley_reisner_triangle_boundary():
    out = stanley_reisner_dims(
        ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]], 2, 8, 3
    )
    # degree 6 (k=3): all 10 monomials minus the full-support one
    assert out["series"][6] == 9


def test_emss_surjectivity_bu_n():
    for n in range(1, 10):
        inp = bu_to_bu1_input(n, cap=8)
        rep = emss_hypothesis_check(inp)
        assert rep["to_x"]["surjective"] == (n % 2 == 1), n
        assert rep["to_y"]["surjective"]


def test_emss_identity_map_check():
    B = MonomialAlgebra.polynomial(2, [("u", 2)])
    inp = EMSSInput(B, B, MonomialAlgebra.trivial(2),
                    {"u": "u"}, {"u": "0"}, cap=8)
    rep = emss_hypothesis_check(inp)
    assert rep["hypotheses_satisfied"]
    assert rep["to_x"]["generator_images_linear"]["u"]


def test_emss_tor_pu2_square_zero_witness():
    inp = bu_to_bu1_input(2, cap=10)
    out = emss_tor_algebra(inp)
    assert out["totals"] == {0: 1, 1: 1, 2: 1, 3: 1}
    deg1 = [i for i, c in enumerate(out["classes"]) if c["total"] == 1]
    assert len(deg1) == 1
    sq = [r for r in out["squares"] if r["class"] == deg1[0]]
    assert sq[0]["square"] == "zero"


def test_emss_tor_pu3_exterior_pattern():
    inp = bu_to_bu1_input(3, cap=12)
    out = emss_tor_algebra(inp)
    totals = {d: n for d, n in out["totals"].items() if d <= 8}
    assert totals == {0: 1, 3: 1, 5: 1, 8: 1}


def test_emss_builds_a_subquotient_per_needed_bidegree(monkeypatch):
    built = []

    class Counted(applications.Subquotient):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(applications, "Subquotient", Counted)
    inp = bu_to_bu1_input(3, p=2, cap=12)
    model = EMSSTorAlgebra(inp, 12)
    # one per bidegree of nonzero homology, none for the other nonzero chains
    assert set(model._sub_cache) == set(model.table.entries)
    assert len(built) == len(model.table.entries) == 4
    chains = [(s, t) for s in range(4) for t in range(13) if model.basis(s, t)]
    assert len(chains) == 18
    # squares build the bidegrees they land in on demand, each once
    squares = model.squares()
    assert len(built) == len(model._sub_cache) == 6
    assert [sq["square"] for sq in squares] == ["nonzero", "zero", "zero", "out of range"]


def test_emss_builds_no_differential_from_or_to_a_zero_space(monkeypatch):
    # the homology step and the subquotients read a missing map as zero,
    # and the subquotients a product lands in read the maps the homology
    # step built: no differential is built twice
    from fphomalg import homalg

    built, differential = [], homalg._KoszulChains.differential

    def recorded(chains, s, t):
        built.append((s, t))
        assert chains.basis(s, t) and chains.basis(s - 1, t), (s, t)
        return differential(chains, s, t)

    monkeypatch.setattr(homalg._KoszulChains, "differential", recorded)
    model = EMSSTorAlgebra(bu_to_bu1_input(3, p=2, cap=12), 12)
    squares = model.squares()
    assert built and len(set(built)) == len(built), built
    assert model.table.entries == {(0, 0): 1, (1, 4): 1, (1, 6): 1, (2, 10): 1}
    assert [sq["square"] for sq in squares] == ["nonzero", "zero", "zero", "out of range"]


def test_koszul_consumers_build_differentials_only_through_differentials(monkeypatch):
    # the resolution, Tor and the Eilenberg-Moore model rank every Koszul
    # differential as a whole level, and the model builds each one it reads
    # by degree through the one method that lists the nonzero ones
    differentials, differential, level = (homalg._KoszulChains.differentials,
                                          homalg._KoszulChains.differential,
                                          homalg._KoszulChains.level)
    inside, built = [], set()

    def through(chains, t, top):
        inside.append(chains.what)
        try:
            return differentials(chains, t, top)
        finally:
            inside.pop()

    def recorded(chains, s, t):
        assert inside == [chains.what], (chains.what, s, t)
        return differential(chains, s, t)

    def ranked(chains, s):
        assert inside == [], (chains.what, s)
        built.add(chains.what)
        return level(chains, s)

    monkeypatch.setattr(homalg._KoszulChains, "differentials", through)
    monkeypatch.setattr(homalg._KoszulChains, "differential", recorded)
    monkeypatch.setattr(homalg._KoszulChains, "level", ranked)
    A = MonomialAlgebra.mixed(3, [("u", 2)], [("x", 3)])
    homalg.ext_dims(A, homalg.trivial_module(A), s_max=2, cap=6)
    tor_dims(A, ModuleViaMap.identity(A), ModuleViaMap.augmentation(A), 6)
    EMSSTorAlgebra(bu_to_bu1_input(3, p=2, cap=12), 12).squares()
    assert built == {"resolution", "two-sided Koszul", "Koszul model"}


def test_emss_tor_identity_collapse():
    B = MonomialAlgebra.polynomial(3, [("u", 2)])
    inp = EMSSInput(B, B, B, {"u": "u"}, {"u": "u"}, cap=8)
    out = emss_tor_algebra(inp)
    # Tor = H_B in column 0
    assert all(s == 0 for (s, t) in out["table"].entries)
    assert out["totals"] == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


def test_loop_cohomology_examples():
    out = loop_cohomology_dims(GradedVectorSpace({2: 1}), 8, 3)
    assert out["series"].nonzero() == {0: 1, 1: 1}
    assert out["primitive_count"] == 1
    out = loop_cohomology_dims(GradedVectorSpace({4: 1}), 8, 2)
    assert out["series"].nonzero() == {0: 1, 3: 1}
    out = loop_cohomology_dims(GradedVectorSpace({2: 1, 4: 1}), 8, 5)
    assert out["series"].nonzero() == {0: 1, 1: 1, 3: 1, 4: 1}
    with pytest.raises(ValidationError):
        loop_cohomology_dims(GradedVectorSpace({3: 1}), 8, 3)


def test_exterior_series_char_independent():
    # the closed form loop_cohomology_dims compares with: the Hilbert series
    # of an exterior algebra, squarefree at p = 2 as at odd p
    def series(p, *degrees):
        ext = MonomialAlgebra.exterior(p, [(f"e{i}", d) for i, d in enumerate(degrees)])
        return homalg._series(ext, 5)

    for p in (2, 3):
        assert series(p, 1) == [1, 1, 0, 0, 0, 0]
        assert series(p, 1, 3) == [1, 1, 0, 1, 1, 0]


def test_emss_table_equals_tor():
    # both legs are k[t] with u -> t, v -> t^2, so the right term of the
    # Koszul model's differential is nonzero and its sign changes the table
    p, cap = 3, 8
    base = MonomialAlgebra.polynomial(p, [("u", 2), ("v", 4)])
    t = MonomialAlgebra.polynomial(p, [("t", 2)])
    legs = {"u": "t", "v": "t^2"}
    inp = EMSSInput(base, t, t, legs, legs, cap=cap)
    table = EMSSTorAlgebra(inp, cap).table
    assert table == tor_dims(base, inp.to_x, inp.to_y, cap)
    assert set(table.entries) == {(0, 0), (0, 2), (0, 4), (1, 4), (0, 6), (1, 6),
                                  (0, 8), (1, 8)}


def test_emss_refuses_a_model_over_the_cell_budget(monkeypatch):
    # the Koszul model shares Tor's chains and their budget; it is refused
    # before any differential is built
    p, cap = 3, 8
    base = MonomialAlgebra.polynomial(p, [("u", 2), ("v", 4)])
    t = MonomialAlgebra.polynomial(p, [("t", 2)])
    legs = {"u": "t", "v": "t^2"}
    inp = EMSSInput(base, t, t, legs, legs, cap=cap)
    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", 10)
    monkeypatch.setattr(homalg._KoszulChains, "differential", None)
    with pytest.raises(CapError, match=r"Koszul model differential from \(s, t\) = \(\d+, \d+\)"):
        EMSSTorAlgebra(inp, cap)


def emss_commutation_products(inp):
    """Check ``a b == (-1)^(s_a s_b) b a`` mod p on every pair of classes
    whose product is in range; return how many products were compared and
    how many of those are nonzero with both ``s`` odd."""
    model = EMSSTorAlgebra(inp, inp.cap)
    compared = odd_nonzero = 0
    for a in model.classes:
        for b in model.classes:
            ab = model.product(a, b)
            if ab is None:
                continue
            sign = (-1) ** (a["s"] * b["s"])
            assert np.array_equal(ab % inp.p, (sign * model.product(b, a)) % inp.p), (a, b)
            compared += 1
            odd_nonzero += bool(a["s"] % 2 and b["s"] % 2 and ab.any())
    return compared, odd_nonzero


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_emss_products_are_graded_commutative(n, p):
    compared, odd_nonzero = emss_commutation_products(bu_to_bu1_input(n, p=p))
    assert compared
    if n > 2:
        # the sign is seen: some product of two odd classes is nonzero
        assert odd_nonzero


def test_emss_products_are_graded_commutative_with_a_second_leg():
    # H_Y = k[t] with u -> t: the class of u dies, those of v and w multiply
    p = 3
    base = MonomialAlgebra.polynomial(p, [("u", 2), ("v", 4), ("w", 6)])
    inp = EMSSInput(base, MonomialAlgebra.trivial(p),
                    MonomialAlgebra.polynomial(p, [("t", 2)]),
                    {"u": "0", "v": "0", "w": "0"}, {"u": "t", "v": "0", "w": "0"}, cap=12)
    compared, odd_nonzero = emss_commutation_products(inp)
    assert compared and odd_nonzero
