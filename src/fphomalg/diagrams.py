"""Finite direct categories and diagrams of graded spaces or algebras.

Diagrams that the statements quantify over are contravariant on a direct
category I; internally every computation runs on a covariant diagram over
the opposite category, so limits, derived limits (via the cosimplicial
replacement restricted to nondegenerate chains), and the diagram-level
Andre-Quillen tables share one chain calculus:

- ``FiniteCategory.nerve`` builds the levels of nondegenerate chains once;
- ``_offsets`` lays out the blocks of a direct sum (objects, matching
  arrows or chains);
- ``_equalizer`` writes the constraints ``F(h) x_src = x_dst`` whose kernel
  is a limit, for ``limit_dims`` and for the matching limits of the
  injectivity criterion;
- ``_cosimplicial`` assembles the cosimplicial differentials from a face-0
  block and a last-face block, with identity middle faces, for
  ``derived_limit_dims`` (identity and the diagram map) and
  ``diagram_aq_table`` (restriction and postcomposition on AQ^q, which is
  H^{q+1} of the Hochschild cochains of the chain's first algebra with
  coefficients k, tensored with its last module, for every q >= 0; the
  kernel row is the s = 0 row);
- ``face_ring_diagram`` builds sigma -> k[sigma] over a face poset, for the
  CLI's simplicial inputs and the face-ring cross-check.

The injectivity criterion checks, object by object, that the canonical map
to the matching limit over everything strictly below is surjective
degreewise.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import numpy as np

from . import _kernels as K
from .errors import CrossCheckError, ValidationError
from .homalg import HochschildComplex, _aq_refusal, _OverBudget
from .linalg import (
    BigradedTable,
    GradedMap,
    GradedVectorSpace,
    PrimeField,
    Subquotient,
    _homology,
    _matrix,
    json_int,
)
from .monalg import ModuleViaMap, MonomialAlgebra


class FiniteCategory:
    """Objects with a level function, non-identity arrows, composition table.

    ``comp[(f, g)]`` is the composite "g after f" for f: a -> b, g: b -> c.
    Identities are implicit.
    """

    def __init__(self, objects, arrows, comp=None):
        self.objects = {str(o): json_int(l, f"lambda of object {o!r}")
                        for o, l in dict(objects).items()}
        self.arrows = {str(f): (str(s), str(d)) for f, (s, d) in dict(arrows).items()}
        for f, (s, d) in self.arrows.items():
            if s not in self.objects or d not in self.objects:
                raise ValidationError(f"arrow {f!r} has unknown endpoint")
        self.comp = {(str(f), str(g)): str(h) for (f, g), h in dict(comp or {}).items()}

    # --- builders ------------------------------------------------------------

    @classmethod
    def arrow(cls):
        return cls({"0": 0, "1": 1}, {"f": ("0", "1")})

    @classmethod
    def span(cls):
        """x <- z -> y with the apex at level 0."""
        return cls({"z": 0, "x": 1, "y": 1}, {"a": ("z", "x"), "b": ("z", "y")})

    @classmethod
    def poset(cls, levels, relations):
        """Category of a poset: one arrow per strict relation.

        ``relations`` lists covering or general pairs (a, b) meaning a < b;
        arrows for all implied comparabilities and the full composition
        table are generated.
        """
        objs = {str(o): json_int(l, f"lambda of object {o!r}")
                for o, l in dict(levels).items()}
        less = {o: set() for o in objs}
        for a, b in relations:
            less[str(a)].add(str(b))
        changed = True
        while changed:
            changed = False
            for a in objs:
                for b in list(less[a]):
                    for c in less[b]:
                        if c not in less[a]:
                            less[a].add(c)
                            changed = True
        arrows = {}
        for a in objs:
            for b in less[a]:
                if a == b:
                    raise ValidationError("poset relation a < a")
                arrows[f"{a}<{b}"] = (a, b)
        comp = {}
        for a in objs:
            for b in less[a]:
                for c in less[b]:
                    comp[(f"{a}<{b}", f"{b}<{c}")] = f"{a}<{c}"
        return cls(objs, arrows, comp)

    @classmethod
    def face_poset(cls, vertices, facets):
        """Face poset of a simplicial complex, levels by cardinality."""
        verts = [str(v) for v in vertices]
        faces = {frozenset()}
        for f in facets:
            f = frozenset(str(v) for v in f)
            if not f <= set(verts):
                raise ValidationError("facet uses unknown vertex")
            for r in range(1, len(f) + 1):
                for sub in itertools.combinations(sorted(f), r):
                    faces.add(frozenset(sub))
        def name(face):
            return "{" + ",".join(sorted(face)) + "}"
        levels = {name(f): len(f) for f in faces}
        relations = [
            (name(a), name(b))
            for a in faces
            for b in faces
            if a < b
        ]
        return cls.poset(levels, relations), {name(f): f for f in faces}

    @classmethod
    def from_json(cls, obj):
        objects = {o["id"]: o.get("lambda", 0) for o in obj["objects"]}
        arrows = {a["id"]: (a["src"], a["dst"]) for a in obj.get("arrows", [])}
        comp = {}
        for row in obj.get("compositions", []):
            comp[(row["first"], row["then"])] = row["equals"]
        cat = cls(objects, arrows, comp)
        if not comp:
            cat._autocomplete_poset_like()
        return cat

    def _autocomplete_poset_like(self):
        """Fill the composition table when arrows are unique per (src, dst)."""
        by_pair = {}
        for f, (s, d) in self.arrows.items():
            if (s, d) in by_pair:
                return  # ambiguous; leave table as given
            by_pair[(s, d)] = f
        for f, (a, b) in self.arrows.items():
            for g, (b2, c) in self.arrows.items():
                if b == b2:
                    h = by_pair.get((a, c))
                    if h is not None:
                        self.comp[(f, g)] = h

    # --- structure ------------------------------------------------------------

    def opposite(self) -> "FiniteCategory":
        arrows = {f: (d, s) for f, (s, d) in self.arrows.items()}
        comp = {(g, f): h for (f, g), h in self.comp.items()}
        return FiniteCategory(self.objects, arrows, comp)

    def compose(self, f, g):
        h = self.comp.get((f, g))
        if h is None:
            raise ValidationError(f"missing composite of {f!r} then {g!r}")
        return h

    def arrows_into(self, obj):
        return [f for f, (_, d) in self.arrows.items() if d == obj]

    def arrows_between(self, a, b):
        return [f for f, (s, d) in self.arrows.items() if s == a and d == b]

    def nerve(self, top: int | None = None) -> list[list]:
        """Nondegenerate chains by length, built once.

        ``levels[s]`` lists the chains ``(start object, s composable
        arrows)``; the levels run to the longest chain, or to length ``top``
        at most.  A chain longer than the number of arrows repeats one, so
        the category has non-identity cycles: ``ValidationError``.
        """
        leaving = {}
        for f, (src, _) in sorted(self.arrows.items()):
            leaving.setdefault(src, []).append(f)
        levels = [[(o, ()) for o in sorted(self.objects)]]
        while top is None or len(levels) <= top:
            longer = [(start, fs + (f,)) for start, fs in levels[-1]
                      for f in leaving.get(self.chain_end((start, fs)), ())]
            if not longer:
                break
            if len(levels) > len(self.arrows):
                raise ValidationError("category has non-identity cycles")
            levels.append(longer)
        return levels

    def chain_end(self, chain):
        start, fs = chain
        return self.arrows[fs[-1]][1] if fs else start


def validate_direct_category(I: FiniteCategory) -> dict:
    """Level function strictly increases along non-identity arrows, and the
    composition table is closed and associative."""
    violations = []
    for f, (s, d) in I.arrows.items():
        if I.objects[s] >= I.objects[d]:
            violations.append({"kind": "level", "arrow": f,
                               "detail": f"{s} (level {I.objects[s]}) -> {d} (level {I.objects[d]})"})
    for f, (a, b) in I.arrows.items():
        for g, (b2, c) in I.arrows.items():
            if b == b2 and (f, g) not in I.comp:
                violations.append({"kind": "closure", "arrow": f,
                                   "detail": f"no composite for {f} then {g}"})
    for (f, g), h in I.comp.items():
        sa, sb = I.arrows[f]
        ta, tb = I.arrows[g]
        if sb != ta or I.arrows[h] != (sa, tb):
            violations.append({"kind": "composition", "arrow": h,
                               "detail": f"{f};{g} = {h} has mismatched endpoints"})
    for (f, g) in list(I.comp):
        for h, (s3, d3) in I.arrows.items():
            if d3 == I.arrows[f][0] and (h, f) in I.comp:
                left = I.comp.get((I.comp[(h, f)], g))
                right = I.comp.get((h, I.comp[(f, g)]))
                if left != right:
                    violations.append({"kind": "associativity", "arrow": h,
                                       "detail": f"({h};{f});{g} != {h};({f};{g})"})
    return {"valid": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# vector diagrams (covariant over their base)


class VectorDiagram:
    """Covariant functor from a finite category to graded vector spaces."""

    def __init__(self, base: FiniteCategory, values, maps, p: int):
        self.base = base
        self.p = PrimeField(p).p
        self.values = {str(o): v for o, v in values.items()}
        self.maps = {str(f): m for f, m in maps.items()}
        self.validate()

    def value(self, obj) -> GradedVectorSpace:
        return self.values[obj]

    def map(self, f) -> GradedMap:
        return self.maps[f]

    def validate(self):
        for o in self.base.objects:
            if o not in self.values:
                raise ValidationError(f"no value for object {o!r}")
        for f, (s, d) in self.base.arrows.items():
            m = self.maps.get(f)
            if m is None:
                raise ValidationError(f"no map for arrow {f!r}")
            if m.degree != 0:
                raise ValidationError("diagram maps must have degree 0")
            if m.source != self.values[s] or m.target != self.values[d]:
                raise ValidationError(f"map for {f!r} has wrong endpoints")
        for (f, g), h in self.base.comp.items():
            if self.maps[g].compose(self.maps[f]) != self.maps[h]:
                raise ValidationError(f"functoriality fails on {f!r} then {g!r}")


def contravariant_diagram(I: FiniteCategory, values, maps, p) -> VectorDiagram:
    """Package a contravariant diagram on I as a covariant one on I^op.

    ``maps[f]`` for f: a -> b in I must be the map value(b) -> value(a).
    """
    return VectorDiagram(I.opposite(), values, maps, p)


# ---------------------------------------------------------------------------
# the shared chain calculus


def _offsets(keys, dim):
    """Offsets of the blocks ``keys`` in a direct sum whose block of ``key``
    has dimension ``dim(key)``, and the total dimension."""
    offs = {}
    n = 0
    for key in keys:
        offs[key] = n
        n += dim(key)
    return offs, n


def _equalizer(n: int, constraints, p: int) -> np.ndarray:
    """Matrix whose kernel is the x in F_p^n with ``block @ x_src = x_dst``
    for every constraint ``(block, src, dst)``, where ``x_src`` and
    ``x_dst`` are the blocks of x starting at offsets src and dst."""
    rows = [np.zeros((0, n), dtype=np.int64)]
    for block, src, dst in constraints:
        r = np.zeros((block.shape[0], n), dtype=np.int64)
        r[:, src: src + block.shape[1]] = block
        i = np.arange(block.shape[0])
        r[i, dst + i] = (r[i, dst + i] - 1) % p
        rows.append(r)
    return np.concatenate(rows, axis=0)


def _cosimplicial(J: FiniteCategory, levels, top: int, dim, face0, last, p: int):
    """One internal degree of the cosimplicial replacement on the
    nondegenerate chains ``levels`` of ``J`` (from ``FiniteCategory.nerve``).

    The component of a chain has dimension ``dim(chain)``.  The differential
    ``d_s`` sends level s to level s + 1; on a chain of s + 1 arrows, face 0
    drops the first arrow ``f`` and acts by the block ``face0(f, face)``,
    the middle faces compose two adjacent arrows and are identity blocks with
    sign (-1)^k, and the last face drops the last arrow ``f`` and acts by
    ``last(face, f)`` with sign (-1)^(s+1).  ``face0`` and ``last`` are
    called only between two nonzero components.  Returns the sizes of levels
    0..top and ``d_0, ..., d_top``, as ``_homology`` takes them.
    """
    spaces = [_offsets(levels[s] if s < len(levels) else (), dim) for s in range(top + 2)]
    d = {}
    for s in range(top + 1):
        src = spaces[s][0]
        mat = np.zeros((spaces[s + 1][1], spaces[s][1]), dtype=np.int64)
        for c, off in spaces[s + 1][0].items():
            n = dim(c)
            if n == 0:
                continue
            start, fs = c
            face = (J.arrows[fs[0]][1], fs[1:])
            if face in src and dim(face):
                B = face0(fs[0], face)
                mat[off: off + n, src[face]: src[face] + B.shape[1]] += B
            diag = np.arange(n)
            for k in range(1, s + 1):
                face = (start, fs[: k - 1] + (J.compose(fs[k - 1], fs[k]),) + fs[k + 1:])
                if face in src:
                    mat[off + diag, src[face] + diag] += -1 if k % 2 else 1
            face = (start, fs[:-1])
            if face in src and dim(face):
                B = last(face, fs[-1])
                mat[off: off + n, src[face]: src[face] + B.shape[1]] += (
                    (-1 if (s + 1) % 2 else 1) * B)
        d[s] = mat % p
    return {s: spaces[s][1] for s in range(top + 1)}, d


def _degrees(D: VectorDiagram, cap: int) -> list[int]:
    """Internal degrees at most ``cap`` where some value is nonzero."""
    return sorted({t for v in D.values.values() for t in v.degrees() if t <= cap})


def limit_dims(D: VectorDiagram, cap: int) -> GradedVectorSpace:
    """Degreewise limit of a covariant diagram (equalizer of all arrows)."""
    dims = {}
    for t in _degrees(D, cap):
        offs, n = _offsets(sorted(D.base.objects), lambda o: D.value(o).dim(t))
        cons = _equalizer(n, [(D.map(f).block(t), offs[s], offs[dst])
                              for f, (s, dst) in sorted(D.base.arrows.items())], D.p)
        k = K.nullspace(cons, D.p).shape[1]
        if k:
            dims[t] = k
    return GradedVectorSpace(dims)


def derived_limit_dims(D: VectorDiagram, cap: int) -> BigradedTable:
    """Derived limits via the normalized cosimplicial replacement.

    Entry ``(s, t)`` is the dimension of the s-th derived limit in internal
    degree ``t``; for direct index categories the nondegenerate chain
    complex is finite, so no truncation in ``s`` is needed.  Every component
    is the value at the end of its chain: face 0 is the identity and the
    last face applies the map of the dropped arrow.
    """
    J = D.base
    levels = J.nerve()
    entries = {}
    for t in _degrees(D, cap):
        def dim(c):
            return D.value(J.chain_end(c)).dim(t)

        sizes, d = _cosimplicial(
            J, levels, len(levels) - 1, dim,
            lambda f, face: np.eye(dim(face), dtype=np.int64),
            lambda face, f: D.map(f).block(t), D.p)
        for s, h in _homology("cosimplicial", sizes, d, D.p).items():
            entries[(s, t)] = h
    return BigradedTable(entries)


# ---------------------------------------------------------------------------
# injectivity criterion


def matching_surjectivity(I: FiniteCategory, D: VectorDiagram, obj, cap: int) -> dict:
    """Surjectivity of value(obj) -> lim over the matching category below.

    ``D`` is the covariant avatar over I^op of a contravariant diagram on
    the direct category I.  The matching category has one object per
    non-identity arrow ``g: j -> obj`` of I.
    """
    gs = I.arrows_into(obj)
    if not gs:
        return {"object": obj, "surjective": True, "degrees_checked": [], "vacuous": True}
    # limit constraints: for h: j -> j' with g' o h = g, F(h) x_{g'} = x_g
    # (D.map(h) goes F(j') -> F(j) in the op encoding)
    triangles = [(h, g2, g) for g in gs for g2 in gs
                 for h in I.arrows_between(I.arrows[g][0], I.arrows[g2][0])
                 if I.comp.get((h, g2)) == g]
    results = []
    for d in range(cap + 1):
        offs, n = _offsets(sorted(gs), lambda g: D.value(I.arrows[g][0]).dim(d))
        if n == 0:
            continue
        cons = _equalizer(n, [(D.map(h).block(d), offs[g2], offs[g])
                              for h, g2, g in triangles], D.p)
        ker = K.nullspace(cons, D.p)
        if ker.shape[1] == 0:
            results.append((d, True))
            continue
        # cone map components F(obj) -> F(j) via D.map(g)
        src_dim = D.value(obj).dim(d)
        cone = np.zeros((n, src_dim), dtype=np.int64)
        for g in gs:
            block = D.map(g).block(d)
            if block.size:
                cone[offs[g]: offs[g] + block.shape[0], :] = block
        if cons.size and cone.size and ((cons @ cone) % D.p).any():
            raise CrossCheckError("cone map does not land in the matching limit")
        # image sits inside the limit, so surjectivity is a rank comparison
        results.append((d, K.rank(cone, D.p) == ker.shape[1]))
    failed = [d for d, ok in results if not ok]
    return {
        "object": obj,
        "surjective": not failed,
        "degrees_checked": [d for d, _ in results],
        "failed_degrees": failed,
        "vacuous": False,
    }


def injective_by_criterion(I: FiniteCategory, D: VectorDiagram, cap: int) -> dict:
    """Surjectivity onto the matching limit at every object implies the
    diagram is injective; reports per-object verdicts."""
    report = validate_direct_category(I)
    if not report["valid"]:
        raise ValidationError(f"base category is not direct: {report['violations']}")
    per_object = [matching_surjectivity(I, D, o, cap) for o in sorted(I.objects)]
    return {
        "injective": all(r["surjective"] for r in per_object),
        "objects": per_object,
    }


# ---------------------------------------------------------------------------
# algebra-valued diagrams


class AlgebraDiagram:
    """Covariant diagram of monomial algebras; the map of each arrow is a
    ``ModuleViaMap`` given by generator images."""

    def __init__(self, base: FiniteCategory, values, maps, p: int):
        self.base = base
        self.p = p
        self.values = {str(o): v for o, v in values.items()}
        self.maps = {}
        for f, images in maps.items():
            src, dst = base.arrows[str(f)]
            self.maps[str(f)] = ModuleViaMap(self.values[src], self.values[dst], images)

    def linearize(self, cap: int) -> VectorDiagram:
        """Matrices of the algebra maps on monomial bases, degree by degree."""
        spaces = {o: GradedVectorSpace({d: len(A.basis(d)) for d in range(cap + 1)})
                  for o, A in self.values.items()}
        maps = {f: GradedMap(spaces[s], spaces[dst], 0,
                             {d: self.maps[f].block(d) for d in range(cap + 1)
                              if spaces[s].dim(d) and spaces[dst].dim(d)}, self.p)
                for f, (s, dst) in self.base.arrows.items()}
        return VectorDiagram(self.base, spaces, maps, self.p)


def face_ring_diagram(vertices, facets, degree: int, cap: int, p: int):
    """The diagram sigma -> k[sigma] (polynomial on the vertices of sigma in
    ``degree``) over the face poset I of a simplicial complex, whose limit
    is the face ring.

    Returns I, its faces by name, and the covariant avatar over I^op
    linearized through ``cap``: for sigma < tau the map k[tau] -> k[sigma]
    sends the vertices outside sigma to 0.
    """
    I, faces = FiniteCategory.face_poset(vertices, facets)
    J = I.opposite()
    algs = {name: MonomialAlgebra.polynomial(p, [(v, degree) for v in sorted(face)])
            for name, face in faces.items()}
    maps = {f: {v: (v if v in algs[dst].names else "0") for v, _ in algs[src].generators}
            for f, (src, dst) in J.arrows.items()}
    return I, faces, AlgebraDiagram(J, algs, maps, p).linearize(cap)


# ---------------------------------------------------------------------------
# diagram-level Andre-Quillen tables


class _AQLocal:
    """AQ^q spaces of one exterior algebra with coefficients k.

    For every q >= 0, AQ^q in map degree t is the cohomology of the
    algebra's Hochschild cochains at ``(q + 1, t)``.  For q = 0 that is
    HH^1: into the trivial module k a 1-cocycle is a derivation and none is
    inner, so AQ^0 is the derivations, one per generator of degree ``-t``.
    Into a trivial module M, AQ^q in map degree t is the sum over the
    degrees ``md`` of M of AQ^q(A; k) in map degree ``t - md`` tensored with
    ``M_md``.  The dimension is read off the complex's rank table
    (``HochschildComplex.cohomology_dim``); a ``Subquotient`` with
    representatives and class coordinates is built only for a restriction,
    once per ``(q, t)``.
    """

    def __init__(self, A: MonomialAlgebra, q_max: int):
        # AQ^q reads delta(q + 1, t), into level q + 2
        try:
            self.hc = HochschildComplex(A, q_max + 2)
        except _OverBudget as err:
            raise _aq_refusal(err, "diagram-aq", "table q =", "--qmax") from None
        self._sub_cache = {}

    def subquotient(self, q: int, t: int) -> Subquotient:
        key = (q, t)
        if key not in self._sub_cache:
            d_out = self.hc.delta(q + 1, t)
            d_in = self.hc.delta(q, t)
            self._sub_cache[key] = Subquotient(d_out, d_in, self.hc.p)
        return self._sub_cache[key]

    def dim(self, q: int, t: int) -> int:
        return self.hc.cohomology_dim(q + 1, t)


def _exterior_from_space(p, V: GradedVectorSpace) -> MonomialAlgebra:
    gens = []
    for d in V.degrees():
        if d % 2 == 0 and p != 2:
            raise ValidationError("diagram AQ expects odd-degree algebra generators")
        for i in range(V.dim(d)):
            gens.append((f"e{d}_{i}", d))
    return MonomialAlgebra.exterior(p, gens)


def _names_by_degree(alg) -> dict[int, list[str]]:
    """Generator names of each degree, in generator order."""
    out: dict[int, list[str]] = {}
    for name, d in alg.generators:
        out.setdefault(d, []).append(name)
    return out


def _linear_algebra_map(src_alg, dst_alg, block_by_degree) -> ModuleViaMap:
    """The algebra map sending the generators of each degree to linear
    combinations of the target's generators, given by degreewise blocks
    with entries in [0, p)."""
    images = {}
    by_degree_names = _names_by_degree(dst_alg)
    for d, names in _names_by_degree(src_alg).items():
        block = block_by_degree(d)
        for j, name in enumerate(names):
            vec = {}
            for i, tname in enumerate(by_degree_names.get(d, [])):
                c = int(block[i, j]) if block.size else 0
                if c:
                    vec[dst_alg.monomial_of(tname)] = c
            images[name] = vec
    return ModuleViaMap(src_alg, dst_alg, images)


def _word_map_matrix(hc_src, hc_tgt, phi: ModuleViaMap, level, t, p):
    """Cochain-level restriction along an algebra map.

    ``hc_src`` is the complex of A1, ``hc_tgt`` that of A0, with an algebra
    map phi: A0 -> A1.  Returns the matrix of w -> phi^{(x) level}(w) from
    the words of ``hc_tgt`` in cochain bidegree ``(level, t)`` to those of
    ``hc_src``; its transpose is psi -> psi o phi^{(x) level}.
    """
    src_letters = hc_src.abar_index
    # build per-letter images once
    letter_imgs = [(phi.image(mon), d) for mon, d in hc_tgt.abar]

    def image(wi):
        # expand phi(w) as a combination of source words
        expansion = {(): 1}
        for li in hc_tgt.words[level][wi].tolist():
            img, d = letter_imgs[li]
            new = {}
            for word, c in expansion.items():
                for mon, cm in img.items():
                    key = word + (src_letters[(mon, d)],)
                    new[key] = (new.get(key, 0) + c * cm) % p
            expansion = {k: v for k, v in new.items() if v}
        return ((hc_src.word_index(word), c) for word, c in expansion.items())

    return _matrix(hc_tgt.basis(level, t), hc_src.basis(level, t), image, p)


def _induced(T: np.ndarray, srcq: Subquotient, tgtq: Subquotient, p: int) -> np.ndarray:
    """Matrix on class coordinates of the cochain map ``T`` between two
    nonzero subquotients: the target coordinates of the images of the
    source representatives, solved in one ``coords`` call."""
    return tgtq.coords((T @ srcq.representatives()) % p)


def diagram_aq_table(I: FiniteCategory, DV: VectorDiagram, DM: VectorDiagram,
                     s_max: int = 4, q_max: int = 3) -> dict:
    """Per AQ-degree q, the cochain complex over nondegenerate chains
    with components AQ^q(A(first), M(last)) and cosimplicial differential;
    returns ``{q: BigradedTable}`` plus the kernel-formula row.

    Every component, q = 0 included, is AQ^q = H^{q+1} of the Hochschild
    cochains of its first algebra with coefficients k (``_AQLocal``, one
    per object) tensored with its last module: in map degree t, the sum
    over the degrees ``md`` of M of AQ^q(A; k) in map degree ``t - md``
    tensored with ``M_md``.  Face 0, the restriction along the first
    arrow's algebra map (``_word_map_matrix``), the middle faces and the
    last face, the last arrow's module map, all keep ``md``, so the
    complex of map degree t is the sum over ``md`` of complexes whose face
    0 is the restriction on AQ^q(-; k) tensored with the identity of
    ``M_md`` and whose last face is the identity tensored with the module
    map in degree ``md``.  The kernel-formula row, ker(d_0), is the s = 0
    row of the q-table.

    ``DV``/``DM`` are the covariant avatars over the opposite of the direct
    category ``I``; the algebras are exterior on the V values objectwise.
    """
    if s_max < 0:
        raise ValidationError(f"smax must be >= 0 for diagram AQ, got {s_max}")
    J = DV.base
    p = DV.p
    report = validate_direct_category(I)
    if not report["valid"]:
        raise ValidationError("diagram AQ needs a valid direct category")
    notes = []
    for o in J.objects:
        for d in DM.value(o).degrees():
            if d % 2 == 0:
                notes.append(f"module at {o} not odd (degree {d})")
                break

    algs = {o: _exterior_from_space(p, DV.value(o)) for o in J.objects}
    phi = {f: _linear_algebra_map(algs[src], algs[dst], DV.map(f).block)
           for f, (src, dst) in J.arrows.items()}
    levels = J.nerve(top=s_max + 1)
    top = min(len(levels) - 1, s_max)
    chains = [c for level in levels[: top + 1] for c in level]

    @functools.cache
    def local(o) -> _AQLocal:
        """The AQ spaces of A(o), built only for an object that starts a
        chain ending at a nonzero module."""
        return _AQLocal(algs[o], q_max)

    @functools.cache
    def restriction(f, q, t):
        """AQ^q(A(j1); k) -> AQ^q(A(j0); k) in map degree t along the arrow
        f: j0 -> j1."""
        j0, j1 = J.arrows[f]
        src, tgt = local(j1), local(j0)
        # psi -> psi o phi on cochains, from the complex of A(j1) to that of A(j0)
        T = _word_map_matrix(src.hc, tgt.hc, phi[f], q + 1, t, p)
        return _induced(T.T, src.subquotient(q, t), tgt.subquotient(q, t), p)

    # the module degrees, and every map degree where AQ^q(A(j0); k) of a
    # chain j0 -> ... -> js with M(js) nonzero may be nonzero: where the
    # cochains of A(j0) at levels 0..q_max + 1 are (AQ^q reads level q + 1)
    mdegrees = sorted({md for o in J.objects for md in DM.value(o).degrees()})
    kdegrees = sorted({t for c in chains if not DM.value(J.chain_end(c)).is_zero()
                       for t in local(c[0]).hc.t_range(range(q_max + 2))})

    tables = {}
    kernel_rows = {}
    for q in range(q_max + 1):
        entries = Counter()
        for md in mdegrees:
            for t in kdegrees:
                # the component of a chain j0 -> ... -> js is AQ^q(A(j0); k)
                # in map degree t tensored with M(js)_md
                def dim(c):
                    width = DM.value(J.chain_end(c)).dim(md)
                    return width * local(c[0]).dim(q, t) if width else 0

                if not any(map(dim, chains)):
                    continue
                sizes, d = _cosimplicial(
                    J, levels, top, dim,
                    lambda f, face: np.kron(restriction(f, q, t), np.eye(
                        DM.value(J.chain_end(face)).dim(md), dtype=np.int64)),
                    lambda face, f: np.kron(np.eye(local(face[0]).dim(q, t), dtype=np.int64),
                                            DM.map(f).block(md)), p)
                for s, h in _homology("diagram AQ cosimplicial", sizes, d, p).items():
                    entries[(s, t + md)] += h
        tables[q] = BigradedTable(entries)
        # the kernel formula: ker(d_0) is the s = 0 row
        kernel_rows[q] = {t: h for (s, t), h in tables[q].items() if s == 0}
    return {"tables": tables, "kernel_formula": kernel_rows, "notes": notes}
