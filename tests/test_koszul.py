"""The Koszul chains' array build against a dense reference.

Every differential of ``homalg._KoszulChains`` is a slice of one table of
entries built for all degrees at once.  These tests write each one again
densely, one chain at a time, from the chains' own bases and the image of
each chain under the differential (``image``, multiplied out from the
chains' ``terms`` monomial by monomial), and compare; and they plant a sign
fault in the one sign rule, ``_koszul_terms``, which every command on the
chains must report with exit 3, and which the generator-level ``d*d`` check
``_validate_dd`` must catch before any differential is built.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fphomalg import homalg
from fphomalg.applications import EMSSTorAlgebra, bu_to_bu1_input
from fphomalg.cli import main
from fphomalg.errors import CrossCheckError
from fphomalg.linalg import _matrix
from fphomalg.monalg import ModuleViaMap, MonomialAlgebra

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
primes = st.sampled_from([2, 3, 5])


def image(chains, b):
    """Terms ``(chain, coefficient)`` of the differential of the chain ``b =
    (S, monomial of B, monomial of C)``."""
    S, bm, cn = b
    B, C = chains.B, chains.C
    flip = chains.p != 2 and B.deg(bm) % 2  # d moves past the B-monomial
    for S2, sign, left, right in chains.terms[S]:
        if flip:
            sign = -sign
        lefts = B.mul_elements({bm: 1}, left).items() if left else ((bm, 1),)
        rights = C.mul_elements(right, {cn: 1}).items() if right else ((cn, 1),)
        for mm, cm in lefts:
            for nn, cn2 in rights:
                yield (S2, mm, nn), sign * cm * cn2


def dense_differential(chains, s, t):
    """The differential from ``(s, t)`` written densely through the image of
    each chain, as the chains wrote it before they were arrays."""
    return _matrix(chains.basis(s, t), chains.basis(s - 1, t),
                   lambda b: image(chains, b), chains.p)


def matches_dense(chains) -> bool:
    """Assert that the chains pass the generator-level ``d*d`` check and
    that every differential equals its dense reference; return whether some
    is nonzero, for the callers where one must be, so that the comparison is
    not vacuous."""
    homalg._validate_dd(chains)
    nonzero = False
    for s in range(1, len(chains.sizes)):
        for t in range(chains.cap + 1):
            d = chains.differential(s, t)
            assert d.shape == (chains.count(s - 1, t), chains.count(s, t))
            assert (np.diff(d.cols) >= 0).all() and (d.vals % chains.p).all()
            want = dense_differential(chains, s, t)
            assert np.array_equal(np.asarray(d), want), (chains.what, s, t)
            nonzero = nonzero or want.any()
    return nonzero


@st.composite
def strand_algebras(draw, p):
    """A polynomial, exterior, truncated or mixed algebra on one to three
    generators: each is polynomial or truncated by an exponent up to 4
    (exterior if odd at odd p)."""
    generators = list(zip("xyz", draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    caps = {}
    for name, d in generators:
        cap = 1 if p != 2 and d % 2 else draw(st.sampled_from([None, 1, 2, 3]))
        if cap is not None:
            caps[name] = cap
    return MonomialAlgebra(p, generators, caps=caps)


def linear_images(draw, names, targets, p):
    """Each name sent to a random linear form in ``targets``, written as an
    expression; some are sums of two or more monomials."""
    images = {}
    for name in names:
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(targets),
                               max_size=len(targets)))
        terms = [f"{c}*{v}" for c, v in zip(coeffs, targets) if c]
        images[name] = " + ".join(terms) or "0"
    return images


@SMALL
@given(p=primes, data=st.data(), sides=st.sampled_from(["kk", "k id", "id k", "id id"]))
def test_two_sided_chains_match_the_dense_reference(p, data, sides):
    A = data.draw(strand_algebras(p))
    side = {"k": ModuleViaMap.augmentation(A), "id": ModuleViaMap.identity(A)}
    left, right = sides.split() if " " in sides else ("k", "k")
    chains = homalg._KoszulChains("two-sided Koszul", A, side[left], side[right], 7)
    # with k on both sides every term has a zero coefficient
    assert matches_dense(chains) == (sides != "kk")


@SMALL
@given(p=primes, data=st.data(), s_max=st.integers(1, 4))
def test_resolution_chains_match_the_dense_reference(p, data, s_max):
    A = data.draw(strand_algebras(p))
    chains = homalg._KoszulChains("resolution", A, ModuleViaMap.identity(A),
                                  ModuleViaMap.augmentation(A), 8, s_max=s_max)
    assert matches_dense(chains)


@SMALL
@given(p=primes, data=st.data())
def test_chains_onto_a_face_ring_match_the_dense_reference(p, data):
    # a polynomial ring onto a Stanley-Reisner ring by random linear forms,
    # on either side: the products leave the faces and the images are sums
    vertices = "abcd"
    facets = data.draw(st.lists(st.sets(st.sampled_from(vertices), min_size=1),
                                min_size=1, max_size=4))
    R = MonomialAlgebra.stanley_reisner(p, list(vertices), [sorted(f) for f in facets])
    A = MonomialAlgebra.polynomial(p, [(f"u{i}", 2) for i in range(data.draw(st.integers(1, 3)))])
    to_r = ModuleViaMap(A, R, linear_images(data.draw, A.names, vertices, p))
    k = ModuleViaMap.augmentation(A)
    for M, N in ((k, to_r), (to_r, ModuleViaMap.identity(A)), (to_r, to_r)):
        matches_dense(homalg._KoszulChains("two-sided Koszul", A, M, N, 8))
    assert matches_dense(homalg._KoszulChains("two-sided Koszul", A, k,
                                              ModuleViaMap.identity(A), 8))


@SMALL
@given(p=st.sampled_from([3, 5]), data=st.data(), degree=st.sampled_from([1, 3]))
def test_chains_between_exterior_algebras_match_the_dense_reference(p, data, degree):
    # odd generators at odd p sent to sums of odd letters: every product
    # with a left or right image carries the sign of MonomialAlgebra.mul
    A = MonomialAlgebra.exterior(p, [("x", degree), ("y", degree)])
    E = MonomialAlgebra.exterior(p, [("a", degree), ("b", degree), ("c", degree)])
    to_e = ModuleViaMap(A, E, linear_images(data.draw, A.names, "abc", p))
    for M, N in ((to_e, to_e), (to_e, ModuleViaMap.identity(A))):
        matches_dense(homalg._KoszulChains("two-sided Koszul", A, M, N, 8))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_circle_model_matches_the_dense_reference(p, n):
    assert matches_dense(EMSSTorAlgebra(bu_to_bu1_input(n, p=p, cap=12), 12).chains)


def poly2(*names):
    return {"kind": "polynomial", "generators": [{"name": v, "degree": 2} for v in names]}


@pytest.mark.parametrize("command, data", [
    (["ext", "-p", "3", "-n", "6", "--smax", "3"], {"algebra": poly2("u", "v")}),
    (["tor", "-p", "3", "-n", "6"], {"base": poly2("u", "v"), "left": "id"}),
    (["emss", "-p", "3", "-n", "8"], {"preset": "diagonal-circle", "n": 2}),
])
def test_a_sign_fault_in_the_koszul_terms_exits_3(monkeypatch, tmp_path, capsys,
                                                   command, data):
    # the planted fault drops the sign the first strand's terms pick up
    # from a symbol on the second strand, so d*d no longer vanishes
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*command, str(path)]) == 0
    terms = homalg._koszul_terms

    def faulty(strands, S, p):
        for i, S2, sign, le, re in terms(strands, S, p):
            yield i, S2, -sign if i == 0 and S[1] else sign, le, re

    monkeypatch.setattr(homalg, "_koszul_terms", faulty)
    capsys.readouterr()
    assert main([*command, str(path)]) == 3
    assert "fails d*d = 0" in capsys.readouterr().err


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("algebra", ["polynomial", "truncated", "exterior"])
def test_the_generator_level_check_alone_catches_a_sign_fault(monkeypatch, p, algebra):
    # the planted fault of the test above, seen by _validate_dd on its own,
    # before the chains build their table of entries (whose d*d check would
    # also see it)
    terms = homalg._koszul_terms

    def faulty(strands, S, p):
        for i, S2, sign, le, re in terms(strands, S, p):
            yield i, S2, -sign if i == 0 and S[1] else sign, le, re

    monkeypatch.setattr(homalg, "_koszul_terms", faulty)
    A = {"polynomial": MonomialAlgebra.polynomial(p, [("u", 2), ("v", 2)]),
         "truncated": MonomialAlgebra(p, [("u", 2), ("v", 4)], caps={"u": 2, "v": 3}),
         "exterior": MonomialAlgebra.exterior(p, [("x", 1), ("y", 3)])}[algebra]
    for right in (ModuleViaMap.augmentation(A), ModuleViaMap.identity(A)):
        chains = homalg._KoszulChains("resolution", A, ModuleViaMap.identity(A), right, 6,
                                      s_max=3)
        with pytest.raises(CrossCheckError, match=r"resolution differential fails d\*d = 0"):
            homalg._validate_dd(chains)
        assert "_table" not in chains.__dict__


@st.composite
def algebras_of_two_strands(draw, p):
    """An exterior, truncated or polynomial algebra on two or three
    generators of degree 1 to 4; a truncated or polynomial one has even
    generators at odd p, where odd ones would be exterior."""
    kind = draw(st.sampled_from(["exterior", "truncated", "polynomial"]))
    degree = st.integers(1, 4) if p == 2 or kind == "exterior" else st.sampled_from([2, 4])
    generators = list(zip("xyz", draw(st.lists(degree, min_size=2, max_size=3))))
    if kind == "exterior":
        return MonomialAlgebra.exterior(p, generators)
    caps = {n: draw(st.integers(2, 3)) for n, _ in generators} if kind == "truncated" else {}
    return MonomialAlgebra(p, generators, caps=caps)


@SMALL
@given(p=primes, data=st.data(), s_max=st.integers(2, 5))
def test_the_generator_level_check_passes_on_clean_chains(p, data, s_max):
    A = data.draw(algebras_of_two_strands(p))
    identity = ModuleViaMap.identity(A)
    for chains in (homalg._KoszulChains("resolution", A, identity,
                                        ModuleViaMap.augmentation(A), 8, s_max=s_max),
                   homalg._KoszulChains("two-sided Koszul", A, identity, identity, 8)):
        homalg._validate_dd(chains)
        assert "_table" not in chains.__dict__
        # not vacuous: some generator's d lowers two strands, so d*d meets
        # the Koszul signs between strands and products of two images
        assert any(len({S2 for S2, *_ in chains.terms[S]}) >= 2
                   for stage in chains.tuples[2:] for S in stage)
