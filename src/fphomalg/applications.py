"""Worked pipelines: Weyl-invariant subrings with the formality checklist,
face-ring limits with a dual-path cross-check, Eilenberg-Moore Tor algebras
with product probes, and loop-space dimension series.

Everything here composes the lower modules; the outputs that correspond to
spectral-sequence conclusions are labelled as collapse predictions, since
convergence itself is a topological input this library does not model.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as K
from .diagrams import face_ring_diagram, limit_dims
from .errors import CapError, CrossCheckError, ValidationError
from .homalg import _KoszulChains, _series, bar_homology_dims, tor_dims
from .linalg import (
    BigradedTable,
    GradedVectorSpace,
    HilbertSeries,
    PrimeField,
    Subquotient,
    free_commutative_series,
    json_int,
)
from .monalg import ModuleViaMap, MonomialAlgebra

GROUP_ORDER_BOUND = 10_000


# ---------------------------------------------------------------------------
# group actions on polynomial rings


class GroupAction:
    """Finite matrix group acting degreewise on a span of even generators.

    ``ring`` is the polynomial ring on those generators, whose monomial
    bases and products the induced action and the invariants are read in.

    ``order``, at least 1, overrides the closure count: the abstract group
    order matters for the divisibility test even when the matrix image mod p
    is smaller (a sign-representation collapses at p = 2, for instance).
    """

    def __init__(self, p: int, matrices, degrees, order: int | None = None):
        self.p = PrimeField(p).p
        self.declared_order = json_int(order, "order") if order is not None else None
        if self.declared_order is not None and self.declared_order < 1:
            raise ValidationError(f"group order must be >= 1, got {self.declared_order}")
        self.degrees = [json_int(d, "degree") for d in degrees]
        if any(d % 2 for d in self.degrees):
            raise ValidationError("group actions are supported on even-degree generators")
        self.ring = MonomialAlgebra.polynomial(
            self.p, [(f"x{i}", d) for i, d in enumerate(self.degrees)])
        n = len(self.degrees)
        self.generator_matrices = []
        for m in matrices:
            rows = [[json_int(v, "matrix entry") for v in row] for row in m]
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValidationError(f"matrix rows of lengths {[len(r) for r in rows]} "
                                      f"do not make a square matrix on {n} variables")
            a = K.as_modp(rows, p)
            if K.rank(a, p) != n:
                raise ValidationError("group generator matrix is not invertible")
            for i in range(n):
                for j in range(n):
                    if a[i, j] and self.degrees[i] != self.degrees[j]:
                        raise ValidationError("matrix mixes variables of different degrees")
            self.generator_matrices.append(a)
        self.elements = self._closure()

    def _closure(self):
        n = len(self.degrees)
        ident = np.eye(n, dtype=np.int64)
        seen = {ident.tobytes(): ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.generator_matrices:
                    prod = (h @ g) % self.p
                    key = prod.tobytes()
                    if key not in seen:
                        seen[key] = prod
                        nxt.append(prod)
                        if len(seen) > GROUP_ORDER_BOUND:
                            raise CapError("group closure exceeded the order bound")
            frontier = nxt
        return list(seen.values())

    @property
    def order(self) -> int:
        if self.declared_order is not None:
            if self.declared_order % len(self.elements):
                raise ValidationError(
                    "declared group order is not a multiple of the matrix-image order"
                )
            return self.declared_order
        return len(self.elements)

    @classmethod
    def from_json(cls, obj):
        return cls(json_int(obj["p"], "p"), obj["matrices"], obj["degrees"], obj.get("order"))


def invariant_dims(action: GroupAction, cap: int):
    """Degreewise fixed subspace of the induced action on the symmetric
    algebra, solved as ``(g - 1)v = 0`` over the group's generators: a
    vector fixed by each generator is fixed by the group they generate.
    Returns the series and, per degree, the fixed basis with the monomials
    its rows index."""
    ring, p = action.ring, action.p
    n = len(ring.names)
    # g acts as the algebra map x_j -> sum_i g[i, j] x_i
    maps = [ModuleViaMap(ring, ring, {
        ring.names[j]: {ring.monomial_of(ring.names[i]): int(g[i, j]) for i in range(n) if g[i, j]}
        for j in range(n)}) for g in action.generator_matrices]
    dims = {}
    basis = {}
    for d in range(cap + 1):
        mons = ring.basis(d)
        if not mons:
            continue
        eye = np.eye(len(mons), dtype=np.int64)
        # eye[:0] has no rows: with no generators every vector is fixed
        ker = K.nullspace(np.concatenate([eye[:0], *((mv.block(d) - eye) % p for mv in maps)]), p)
        if ker.shape[1]:
            dims[d] = ker.shape[1]
            basis[d] = (ker, mons)
    series = HilbertSeries({d: n for d, n in dims.items()}, cap)
    return series, basis


def invariants_closed_under_products(action: GroupAction, cap: int) -> bool:
    """Products of fixed basis elements stay in the fixed span (subring)."""
    series, basis = invariant_dims(action, cap)
    for d1, (k1, mons1) in basis.items():
        for d2, (k2, mons2) in basis.items():
            d = d1 + d2
            if d > cap or d not in basis:
                if d <= cap and series[d] == 0:
                    return False
                continue
            k, mons = basis[d]
            idx = {m: i for i, m in enumerate(mons)}
            for c1 in range(k1.shape[1]):
                poly1 = {m: int(k1[i, c1]) for i, m in enumerate(mons1) if k1[i, c1]}
                for c2 in range(k2.shape[1]):
                    poly2 = {m: int(k2[i, c2]) for i, m in enumerate(mons2) if k2[i, c2]}
                    prod = action.ring.mul_elements(poly1, poly2)
                    vec = np.zeros(len(mons), dtype=np.int64)
                    for m, c in prod.items():
                        vec[idx[m]] = c
                    if K.solve(k, vec, action.p) is None:
                        return False
    return True


def _polynomial_detection(action: GroupAction, cap: int):
    """Greedy minimal generators of the invariant ring and the verdict.

    Compares the free polynomial series on the greedy generator degrees
    against the invariant series: a degree where the invariants are
    strictly smaller certifies a relation; equality up to the cap is only
    conclusive up to the cap.
    """
    p, ring = action.p, action.ring
    series, basis = invariant_dims(action, cap)
    chosen: list[tuple[int, dict]] = []
    # per degree, the generated span in echelon form: {lowest monomial:
    # column}, each column normalised to a 1 at its lowest monomial
    spans: dict[int, dict] = {0: {ring.one(): {ring.one(): 1}}}

    def extend(d, col):
        """Reduce ``col`` against the span in degree ``d`` once
        (``_kernels.eliminate``) and store what is left; whether it grew."""
        echelon = spans.setdefault(d, {})
        low = K.eliminate(col, max(col), echelon, p)
        if low is None:
            return False
        inv = pow(col[low], p - 2, p)
        echelon[low] = {m: c * inv % p for m, c in col.items()}
        return True

    for d in range(1, cap + 1):
        inv_dim = series[d]
        if inv_dim == 0:
            continue
        # extend the generated span into degree d
        for d1 in sorted(spans):
            for gd, gvec in chosen:
                if gd == d - d1:
                    for col in spans[d1].values():
                        extend(d, ring.mul_elements(col, gvec))
        rank = len(spans.get(d, ()))
        if rank > inv_dim:
            raise CrossCheckError("generated span exceeds the invariant space")
        ker, mons = basis[d]
        for col in range(ker.shape[1]):
            if rank == inv_dim:
                break
            cand = {mons[i]: int(ker[i, col]) for i in range(len(mons)) if ker[i, col]}
            if extend(d, dict(cand)):
                chosen.append((d, cand))
                rank += 1
        if rank != inv_dim:
            raise CrossCheckError("could not realize the invariant deficit with new generators")
    gen_degrees = sorted(d for d, _ in chosen)
    free = free_commutative_series(
        [(d, sum(1 for dd, _ in chosen if dd == d)) for d in sorted(set(gen_degrees))],
        cap,
        p,
    )
    witness = None
    for d in range(cap + 1):
        if series[d] < free[d]:
            witness = {"degree": d, "invariant_dim": series[d], "free_dim": free[d]}
            break
        if series[d] > free[d]:
            raise CrossCheckError("invariant series exceeds the free series on its generators")
    if witness:
        verdict = "not_polynomial"
    else:
        verdict = "polynomial_up_to_cap"
    return {
        "generator_degrees": gen_degrees,
        "verdict": verdict,
        "witness": witness,
        "series": series.nonzero(),
    }


def lie_formality_checklist(action: GroupAction, cap: int) -> dict:
    """Checklist for two-fold-loop formality of a compact group's
    classifying space at p: the group-order condition (which is what the
    statement needs), the invariant series, and a polynomiality
    semidecision (reported for context; not required)."""
    p = action.p
    order = action.order
    order_ok = order % p != 0
    detection = _polynomial_detection(action, cap)
    return {
        "p": p,
        "group_order": order,
        "p_divides_order": not order_ok,
        "invariant_series": detection["series"],
        "polynomial_verdict": detection["verdict"],
        "polynomial_witness": detection["witness"],
        "generator_degrees": detection["generator_degrees"],
        "verdict": (
            "formality criteria satisfied" if order_ok else "criteria not satisfied"
        ),
    }


# ---------------------------------------------------------------------------
# face rings


def stanley_reisner_dims(vertices, facets, degree: int, cap: int, p: int) -> dict:
    """Hilbert series of the face ring, computed two ways and compared.

    Route one counts monomials whose support is a face; route two takes the
    categorical limit of ``sigma -> Sym(V_sigma)`` over the face poset.
    A mismatch raises ``CrossCheckError``.
    """
    if len(vertices) > 12:
        raise CapError("face rings supported for at most 12 vertices")
    # route 2 (below) is the limit of this diagram over the face poset
    _, named_faces, D = face_ring_diagram(vertices, facets, degree, cap, p)
    faces = named_faces.values()
    # route 1: monomial count; support-exactly-sigma monomials of polynomial
    # degree k number C(k-1, |sigma|-1)
    coeffs = [0] * (cap + 1)
    coeffs[0] = 1
    for face in faces:
        r = len(face)
        if r == 0:
            continue
        k = r
        while k * degree <= cap:
            coeffs[k * degree] += math.comb(k - 1, r - 1)
            k += 1
    direct = HilbertSeries(coeffs, cap)

    lim = limit_dims(D, cap)
    via_limit = HilbertSeries({d: lim.dim(d) for d in lim.degrees() if d <= cap}, cap)
    if direct != via_limit:
        raise CrossCheckError(
            f"face ring routes disagree: monomials {direct.nonzero()} vs limit {via_limit.nonzero()}"
        )
    return {
        "series": direct,
        "faces": sorted("".join(sorted(f)) for f in faces),
        "routes_agree": True,
    }


# ---------------------------------------------------------------------------
# Eilenberg-Moore data


class EMSSInput:
    """Polynomial base with two maps given on generators."""

    def __init__(self, base: MonomialAlgebra, x: MonomialAlgebra, y: MonomialAlgebra,
                 to_x, to_y, cap: int = 12):
        for alg, label in ((base, "base"), (x, "x"), (y, "y")):
            if alg.kind != "polynomial" or any(d % 2 for _, d in alg.generators):
                raise ValidationError(f"{label} must be polynomial on even generators")
        self.base, self.x, self.y = base, x, y
        self.p = base.p
        self.cap = cap
        self.to_x = ModuleViaMap(base, x, to_x)
        self.to_y = ModuleViaMap(base, y, to_y)

    @classmethod
    def from_json(cls, obj):
        p = json_int(obj["p"], "p")
        base = MonomialAlgebra.from_json({**obj["base"], "p": p, "kind": "polynomial"})
        x = MonomialAlgebra.from_json({**obj["x"], "p": p, "kind": "polynomial"})
        y = MonomialAlgebra.from_json({**obj["y"], "p": p, "kind": "polynomial"})
        return cls(base, x, y, obj["to_x"], obj["to_y"], json_int(obj.get("cap", 12), "cap"))


def bu_to_bu1_input(n: int, p: int = 2, cap: int = 12) -> EMSSInput:
    """Classifying-space data for the diagonal circle in the unitary group:
    base on classes c_1..c_n (degrees 2..2n) mapping to binomial multiples
    of powers of the degree-2 class, second leg the point."""
    base = MonomialAlgebra.polynomial(p, [(f"c{i}", 2 * i) for i in range(1, n + 1)])
    x = MonomialAlgebra.polynomial(p, [("t", 2)])
    to_x = {}
    for i in range(1, n + 1):
        c = math.comb(n, i) % p
        to_x[f"c{i}"] = f"{c}*t^{i}" if c else "0"
    y = MonomialAlgebra.trivial(p)
    to_y = {f"c{i}": "0" for i in range(1, n + 1)}
    return EMSSInput(base, x, y, to_x, to_y, cap)


def emss_hypothesis_check(inp: EMSSInput, cap: int | None = None) -> dict:
    """Degreewise surjectivity of both maps plus the generator-image shape.

    Surjectivity is checked on monomial images; the generator condition
    reports whether each given image is linear in the target generators,
    and notes that surjectivity alone permits re-choosing polynomial
    generators to repair non-linear images.
    """
    cap = inp.cap if cap is None else cap
    report = {}
    for label, mv in (("to_x", inp.to_x), ("to_y", inp.to_y)):
        fail_degree = None
        for d in range(1, cap + 1):
            tdim = len(mv.target.basis(d))
            if tdim and K.rank(mv.block(d), inp.p) < tdim:
                fail_degree = d
                break
        linear = {}
        for name, _ in inp.base.generators:
            img = mv.image_of(name)
            linear[name] = all(sum(mon) <= 1 for mon in img)
        report[label] = {
            "surjective": fail_degree is None,
            "first_failure_degree": fail_degree,
            "generator_images_linear": linear,
            "repairable_by_generator_change": fail_degree is None,
        }
    report["hypotheses_satisfied"] = all(
        report[l]["surjective"] for l in ("to_x", "to_y")
    )
    return report


class EMSSTorAlgebra:
    """Koszul model ``H_X (x) Lambda(one class per base generator) (x) H_Y``
    with homology classes, their products, and nilpotence probes.

    The model is the two-sided Koszul complex of ``tor_dims(base, to_x,
    to_y)``: its chains, ``basis`` and differentials are those of
    ``homalg._KoszulChains``, and every symbol tuple is a 0/1 tuple, one
    exterior class per base generator.
    """

    def __init__(self, inp: EMSSInput, cap: int):
        self.inp = inp
        self.cap = cap
        self.p = inp.p
        self.chains = _KoszulChains("Koszul model", inp.base, inp.to_x, inp.to_y, cap)
        self.basis = self.chains.basis
        # the top exterior degree, even where the chains stop below it
        self.max_s = len(inp.base.generators)
        self._sub_cache: dict[tuple, Subquotient] = {}
        self._build()

    def _subquotient(self, s, t):
        """Homology at ``(s, t)`` with class coordinates, built once from
        the differentials at ``t``, which ``_maps[t]`` keeps once built; a
        missing one is zero."""
        key = (s, t)
        if key not in self._sub_cache:
            if t not in self._maps:
                self._maps[t] = self.chains.differentials(t, self.max_s)
            d = self._maps[t]
            n = self.chains.count(s, t)
            d_out = np.asarray(d[s]) if s in d else np.zeros((0, n), dtype=np.int64)
            d_in = np.asarray(d[s + 1]) if s + 1 in d else np.zeros((n, 0), dtype=np.int64)
            self._sub_cache[key] = Subquotient(d_out, d_in, self.p)
        return self._sub_cache[key]

    def _build(self):
        """The table, read off the chains' ranks, and the classes, degree by
        degree."""
        self.table_entries = {}
        self.classes = []
        self._maps = {}
        for t in range(0, self.cap + 1):
            for s, h in self.chains.homology(t, self.max_s + 1).items():
                self.table_entries[(s, t)] = h
                sub = self._subquotient(s, t)
                reps = sub.representatives()
                for c in range(sub.dim):
                    self.classes.append({"s": s, "t": t, "total": t - s,
                                         "index": c, "rep": reps[:, c]})
        self.table = BigradedTable(self.table_entries)

    def _mul_elements(self, s1, t1, vec1, s2, t2, vec2):
        """Product of two chains, as a vector in bidegree (s1+s2, t1+t2)."""
        out_basis = self.basis(s1 + s2, t1 + t2)
        oidx = {b: i for i, b in enumerate(out_basis)}
        out = np.zeros(len(out_basis), dtype=np.int64)
        b1 = self.basis(s1, t1)
        b2 = self.basis(s2, t2)
        X, Y = self.inp.x, self.inp.y
        for i1, c1 in enumerate(vec1):
            if not c1:
                continue
            S1, xm1, yn1 = b1[i1]
            for i2, c2 in enumerate(vec2):
                if not c2:
                    continue
                S2, xm2, yn2 = b2[i2]
                if any(a and b for a, b in zip(S1, S2)):
                    continue
                merged = tuple(a + b for a, b in zip(S1, S2))
                # shuffle sign of the odd exterior symbols: the classes of
                # S2 that come before each class of S1
                inv = before = 0
                for a, b in zip(S1, S2):
                    inv += a * before
                    before += b
                sgn = -1 if (inv % 2 and self.p != 2) else 1
                for mm, cm in X.mul_elements({xm1: 1}, {xm2: 1}).items():
                    for nn, cn in Y.mul_elements({yn1: 1}, {yn2: 1}).items():
                        key = (merged, mm, nn)
                        if key in oidx:
                            out[oidx[key]] = (
                                out[oidx[key]] + sgn * c1 * c2 * cm * cn
                            ) % self.p
        return out

    def product(self, cls1, cls2):
        """Coordinates of the product class, or None when out of range."""
        s, t = cls1["s"] + cls2["s"], cls1["t"] + cls2["t"]
        if t > self.cap or s > self.max_s:
            return None
        vec = self._mul_elements(cls1["s"], cls1["t"], cls1["rep"],
                                 cls2["s"], cls2["t"], cls2["rep"])
        if not len(vec):
            return np.zeros(0, dtype=np.int64)
        return self._subquotient(s, t).coords(vec)

    def squares(self):
        out = []
        for i, c in enumerate(self.classes):
            sq = self.product(c, c)
            if sq is None:
                out.append({"class": i, "total": c["total"], "square": "out of range"})
            else:
                out.append({
                    "class": i,
                    "total": c["total"],
                    "square": "zero" if not sq.any() else "nonzero",
                })
        return out

    def totals(self):
        return self.table.total_dims()


def emss_tor_algebra(inp: EMSSInput, cap: int | None = None) -> dict:
    """Tor of the Eilenberg-Moore data with its ring structure probes.

    The table is the collapse prediction for the fiber-product cohomology;
    convergence of the underlying spectral sequence is assumed, not checked.
    """
    cap = inp.cap if cap is None else cap
    model = EMSSTorAlgebra(inp, cap)
    squares = model.squares()
    return {
        "table": model.table,
        "totals": model.totals(),
        "classes": [
            {"s": c["s"], "t": c["t"], "total": c["total"]} for c in model.classes
        ],
        "squares": squares,
        "label": "collapse prediction (convergence assumed)",
        "model": model,
    }


# ---------------------------------------------------------------------------
# loop-space series


def loop_cohomology_dims(V: GradedVectorSpace, cap: int, p: int) -> dict:
    """Loop-space cohomology series for a space with polynomial cohomology
    on even positive generators: exterior on the desuspension.

    Computed as Tor over the polynomial algebra collapsed to total degree,
    cross-checked against the bar construction and against the closed-form
    exterior series; disagreement raises ``CrossCheckError``.
    """
    for d in V.degrees():
        if d <= 0 or d % 2:
            raise ValidationError("input must be concentrated in even positive degrees")
    gens = []
    i = 0
    for d in V.degrees():
        for _ in range(V.dim(d)):
            gens.append((f"u{i}", d))
            i += 1
    A = MonomialAlgebra.polynomial(p, gens)
    # bar first: its differentials outgrow the Koszul chains', so the cell
    # budget refuses an oversized cap before either route does any work
    bar = bar_homology_dims(A, cap)
    k = ModuleViaMap.augmentation(A)
    tor = tor_dims(A, k, k, cap)
    if tor != bar:
        raise CrossCheckError("Koszul and bar routes disagree on loop cohomology")
    totals = tor.total_dims()
    ext = MonomialAlgebra.exterior(p, [(name, d - 1) for name, d in gens])
    expected = HilbertSeries(_series(ext, cap), cap)
    got = HilbertSeries({d: n for d, n in totals.items() if 0 <= d <= cap}, cap)
    if got != expected:
        raise CrossCheckError(
            f"loop series {got.nonzero()} differs from the exterior series {expected.nonzero()}"
        )
    primitives = GradedVectorSpace({d - 1: n for d, n in V.dims.items()})
    return {
        "series": got,
        "primitive_dims": primitives,
        "primitive_count": primitives.total_dim(),
        "routes_agree": True,
    }
