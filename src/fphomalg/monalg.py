"""Monomial graded-commutative algebras over F_p and their modules.

An algebra presents: generators with degrees, per-generator exponent caps
(none for polynomial, 1 for exterior, n-1 for truncation by x^n), and for
face rings the list of facets.  Monomials are exponent tuples; products
carry the Koszul sign from reordering odd-degree letters.

Modules carry explicit generator action tables, validated on construction:
graded commutation of the actions and annihilation of the defining
relations, degreewise up to the module's window.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError
from .linalg import GradedMap, GradedVectorSpace, PrimeField, _matrix, json_int

KINDS = (
    "polynomial",
    "exterior",
    "mixed",
    "truncated",
    "stanley_reisner",
)


class MonomialAlgebra:
    """Graded-commutative algebra with a monomial basis per degree."""

    def __init__(self, p, generators, caps=None, facets=None, kind=None):
        self.p = PrimeField(p).p
        self.generators = [(str(n), int(d)) for n, d in generators]
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate generator names")
        self.names = names
        self.degrees = [d for _, d in self.generators]
        if any(d < 1 for d in self.degrees):
            raise ValidationError("generator degrees must be positive")
        caps = dict(caps or {})
        unknown = sorted(set(map(str, caps)) - set(names))
        if unknown:
            raise ValidationError(f"exponent caps name no generator: {unknown}")
        self.caps: list[int | None] = []
        for n, d in self.generators:
            cap = caps.get(n)
            if cap is not None:
                cap = int(cap)
                if cap < 1:
                    raise ValidationError(f"exponent cap for {n!r} must be >= 1")
            if self.p != 2 and d % 2 == 1:
                # graded commutativity forces odd squares to vanish at odd p
                if cap is None or cap > 1:
                    if cap is not None:
                        raise ValidationError(
                            f"odd-degree generator {n!r} must have exponent cap 1 at odd p"
                        )
                    cap = 1
            self.caps.append(cap)
        self.facets = None
        if facets is not None:
            idx = {n: i for i, n in enumerate(names)}
            self.facets = [frozenset(idx[str(v)] for v in f) for f in facets]
        self.kind = kind or self._infer_kind()
        self._basis_cache: dict[int, list[tuple]] = {}
        self._odd_last_first = [i for i, d in enumerate(self.degrees) if d % 2][::-1]

    def _infer_kind(self):
        if self.facets is not None:
            return "stanley_reisner"
        if all(c is None for c in self.caps):
            return "polynomial"
        if all(c == 1 for c in self.caps):
            return "exterior"
        if any(c is None for c in self.caps):
            return "mixed"
        return "truncated"

    # --- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, p, generators):
        alg = cls(p, generators)
        if alg.kind != "polynomial":
            raise ValidationError("polynomial algebras need even generators at odd p")
        return alg

    @classmethod
    def exterior(cls, p, generators):
        gens = [(n, d) for n, d in generators]
        return cls(p, gens, caps={n: 1 for n, _ in gens}, kind="exterior")

    @classmethod
    def mixed(cls, p, poly_gens, ext_gens):
        gens = list(poly_gens) + list(ext_gens)
        caps = {str(n): 1 for n, _ in ext_gens}
        return cls(p, gens, caps=caps, kind="mixed")

    @classmethod
    def truncated(cls, p, generators, truncations):
        if not isinstance(truncations, dict):
            raise ValidationError("truncation must map generator names to exponents, "
                                  f"got {truncations!r}")
        caps = {str(n): json_int(e, f"truncation of {n!r}") - 1
                for n, e in truncations.items()}
        return cls(p, generators, caps=caps, kind="truncated")

    @classmethod
    def stanley_reisner(cls, p, vertices, facets, degree=2):
        gens = [(str(v), degree) for v in vertices]
        return cls(p, gens, facets=facets, kind="stanley_reisner")

    @classmethod
    def trivial(cls, p):
        """The ground field as an algebra (no generators)."""
        return cls(p, [])

    @classmethod
    def from_json(cls, obj):
        p = json_int(obj["p"], "p")
        kind = obj.get("kind", "polynomial")
        gens = [(g["name"], json_int(g["degree"], f"degree of {g['name']!r}"))
                for g in obj.get("generators", [])]
        if kind == "polynomial":
            return cls.polynomial(p, gens)
        if kind == "exterior":
            return cls.exterior(p, gens)
        if kind == "mixed":
            caps = {str(n): 1 for n in obj.get("exterior", [])}
            return cls(p, gens, caps=caps, kind="mixed")
        if kind == "truncated":
            return cls.truncated(p, gens, obj.get("truncation", {}))
        if kind == "stanley_reisner":
            return cls.stanley_reisner(
                p, obj["vertices"], obj["facets"], json_int(obj.get("degree", 2), "degree")
            )
        raise ValidationError(f"unsupported algebra kind {kind!r} in JSON")

    # --- basis and products -------------------------------------------------

    def one(self):
        return (0,) * len(self.names)

    def deg(self, mon) -> int:
        return sum(e * d for e, d in zip(mon, self.degrees))

    def _face(self, supp) -> bool:
        """Whether the generators indexed by ``supp`` may multiply to a
        nonzero monomial: always, unless ``supp`` lies in no facet."""
        return self.facets is None or any(supp <= f for f in self.facets)

    def _support_ok(self, mon) -> bool:
        return self._face(frozenset(i for i, e in enumerate(mon) if e))

    def basis(self, d: int) -> list[tuple]:
        """The monomials of degree ``d``, sorted.  A Stanley-Reisner
        enumeration stops as soon as the generators used so far lie in no
        facet, so it costs what the basis holds, not the polynomial ring."""
        d = int(d)
        if d < 0:
            return []
        if d in self._basis_cache:
            return self._basis_cache[d]
        out = []

        def rec(i, remaining, mon, supp):
            if remaining == 0:
                if supp or self._face(supp):  # a nonempty one was checked as it grew
                    out.append(mon + (0,) * (len(self.names) - len(mon)))
                return
            if i == len(self.names):
                return
            cap = self.caps[i]
            deg = self.degrees[i]
            e = 0
            while e * deg <= remaining and (cap is None or e <= cap):
                if e == 1:
                    supp = supp | {i}
                    if not self._face(supp):
                        break
                rec(i + 1, remaining - e * deg, mon + (e,), supp)
                e += 1

        rec(0, d, (), frozenset())
        out.sort()
        self._basis_cache[d] = out
        return out

    def is_finite_dimensional(self) -> bool:
        return all(c is not None for c in self.caps)

    def top_degree(self):
        if not self.is_finite_dimensional():
            return None
        return sum(c * d for c, d in zip(self.caps, self.degrees))

    def monomial_of(self, name: str) -> tuple:
        i = self.names.index(name)
        return tuple(1 if j == i else 0 for j in range(len(self.names)))

    def mul(self, m1, m2) -> dict:
        """Product of two monomials: ``{}`` or ``{monomial: sign}``."""
        out = tuple(a + b for a, b in zip(m1, m2))
        for e, cap in zip(out, self.caps):
            if cap is not None and e > cap:
                return {}
        if not self._support_ok(out):
            return {}
        # the odd letters of m2 move past the later odd letters of m1
        sign_exp = later = 0
        if self.p != 2:
            for j in self._odd_last_first:
                sign_exp += m2[j] * later
                later += m1[j]
        return {out: (-1) ** sign_exp % self.p}

    def mul_elements(self, x: dict, y: dict) -> dict:
        out: dict[tuple, int] = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                for m, s in self.mul(m1, m2).items():
                    out[m] = (out.get(m, 0) + c1 * c2 * s) % self.p
        return {m: c for m, c in out.items() if c}

    def image_of_monomial(self, mon, images) -> dict:
        """``images[0]^mon[0] * images[1]^mon[1] * ...`` in this algebra,
        multiplied in that order: the image of the monomial ``mon`` under an
        algebra map sending the i-th source generator to ``images[i]``."""
        out = {self.one(): 1}
        for img, e in zip(images, mon):
            for _ in range(e):
                out = self.mul_elements(out, img)
        return out

    def element_degree(self, x: dict):
        degs = {self.deg(m) for m in x}
        if len(degs) > 1:
            raise ValidationError("inhomogeneous algebra element")
        return degs.pop() if degs else None

    def parse_element(self, expr: str) -> dict:
        """Parse `3*u^2*v + w` style expressions over the generators."""
        import re

        expr = str(expr).strip()
        if expr in ("", "0"):
            return {}
        expr = expr.replace("-", "+-")
        out: dict[tuple, int] = {}
        for term in expr.split("+"):
            term = term.strip()
            if not term:
                continue
            coeff = 1
            if term.startswith("-"):
                coeff = -1
                term = term[1:].strip()
            mon = [0] * len(self.names)
            for factor in term.split("*"):
                factor = factor.strip()
                if not factor:
                    continue
                if re.fullmatch(r"\d+", factor):
                    coeff *= int(factor)
                    continue
                m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
                if m is None or m.group(1) not in self.names:
                    raise ValidationError(f"cannot parse factor {factor!r}")
                mon[self.names.index(m.group(1))] += int(m.group(2) or 1)
            key = tuple(mon)
            for e, cap in zip(key, self.caps):
                if cap is not None and e > cap:
                    coeff = 0
            if not self._support_ok(key):
                coeff = 0
            if coeff % self.p:
                out[key] = (out.get(key, 0) + coeff) % self.p
        return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# modules


class AlgebraModule:
    """Graded module over a monomial algebra with explicit generator actions.

    ``action[name]`` is a ``GradedMap`` of degree ``deg(name)`` on the
    underlying space.  Construction validates graded commutation of the
    generator actions and annihilation of the defining relations on the
    window; monomials act by composing generator actions in generator
    order, so associativity reduces to those checks.
    """

    def __init__(self, algebra, space: GradedVectorSpace, action=None):
        self.algebra = algebra
        self.p = algebra.p
        self.space = space
        self.action: dict[str, GradedMap] = {}
        for name, mp in (action or {}).items():
            if name not in [n for n, _ in algebra.generators]:
                raise ValidationError(f"action for unknown generator {name!r}")
            self.action[str(name)] = mp
        self.validate()

    @classmethod
    def trivial(cls, algebra, space: GradedVectorSpace):
        return cls(algebra, space, {})

    @classmethod
    def regular(cls, algebra: MonomialAlgebra, cap: int):
        """The algebra as a module over itself, truncated at ``cap``."""
        space = GradedVectorSpace({d: len(algebra.basis(d)) for d in range(cap + 1)})
        action = {}
        for name, gdeg in algebra.generators:
            gmon = algebra.monomial_of(name)
            blocks = {d: _matrix(algebra.basis(d), algebra.basis(d + gdeg),
                                 lambda m: algebra.mul(gmon, m).items(), algebra.p)
                      for d in range(cap + 1 - gdeg)}
            action[name] = GradedMap(space, space, gdeg, blocks, algebra.p)
        return cls(algebra, space, action)

    def gen_action(self, name: str) -> GradedMap:
        if name in self.action:
            return self.action[name]
        gdeg = dict(self.algebra.generators)[name]
        return GradedMap.zero(self.space, self.space, gdeg, self.p)

    def act_vec(self, name: str, d: int, vec: np.ndarray):
        """Image of a degree-``d`` coordinate vector under one generator."""
        block = self.gen_action(name).block(d)
        return (block @ vec) % self.p

    def act_monomial(self, mon, d: int, vec: np.ndarray):
        """Apply a monomial as left multiplication.

        Generator actions compose right-to-left so that the operator of
        ``x^a y^b`` (canonical order) is ``act(x)^a o act(y)^b``.
        """
        cur_d, cur = d, vec
        for (name, gdeg), e in reversed(list(zip(self.algebra.generators, mon))):
            for _ in range(e):
                cur = self.act_vec(name, cur_d, cur)
                cur_d += gdeg
        return cur_d, cur

    def act_element(self, x: dict, d: int, vec: np.ndarray):
        """Apply a homogeneous algebra element; returns (degree, vector).

        ``vec`` may also be a matrix of column vectors."""
        deg = self.algebra.element_degree(x)
        if deg is None:
            return None, None
        out = np.zeros((self.space.dim(d + deg),) + vec.shape[1:], dtype=np.int64)
        for mon, c in x.items():
            _, img = self.act_monomial(mon, d, vec)
            out = (out + c * img) % self.p
        return d + deg, out

    def validate(self):
        """Graded commutation, exponent caps and non-face products, over
        the generators that act: a zero action commutes with every map, its
        powers vanish, and a product containing it vanishes."""
        if not self.space.degrees():
            return
        acting = [(name, d) for name, d in self.algebra.generators if name in self.action]
        # graded commutation g.(h.m) = (-1)^{|g||h|} h.(g.m)
        for a, da in acting:
            for b, db in acting:
                sign = -1 if (self.p != 2 and da % 2 and db % 2) else 1
                left = self.action[a].compose(self.action[b])
                right = self.action[b].compose(self.action[a]).scale(sign)
                if left != right:
                    raise ValidationError(
                        f"module actions of {a!r} and {b!r} do not graded-commute"
                    )
        # relations: exponent caps annihilate
        for (name, _), cap in zip(self.algebra.generators, self.algebra.caps):
            if cap is None or name not in self.action:
                continue
            power = GradedMap.identity(self.space, self.p)
            for _ in range(cap + 1):
                power = self.action[name].compose(power)
            if not power.is_zero():
                raise ValidationError(f"relation {name}^{cap + 1} = 0 not respected")
        if self.algebra.facets is not None:
            for f_out in self._nonface_products():
                if not f_out.is_zero():
                    raise ValidationError("non-face monomial acts nontrivially")

    def _nonface_products(self):
        """Actions of the non-faces of size 2 and 3 whose generators all
        act (any other product vanishes)."""
        # non-faces of size <= 3 cover every minimal non-face seen in practice
        acting = [i for i, name in enumerate(self.algebra.names) if name in self.action]
        out = []
        for r in (2, 3):
            for comb in itertools.combinations(acting, r):
                supp = frozenset(comb)
                if any(supp <= f for f in self.algebra.facets):
                    continue
                mp = GradedMap.identity(self.space, self.p)
                for i in comb:
                    mp = self.action[self.algebra.names[i]].compose(mp)
                out.append(mp)
        return out


class ModuleViaMap:
    """A target algebra made into a module via an algebra map.

    ``images`` sends each source generator name to an element expression in
    the target algebra.  The module basis is the target's monomial basis;
    source generators act by multiplication with their image.  ``image``
    maps a source monomial and ``block(d)`` is the degree-``d`` matrix on
    the monomial bases.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.p = source.p
        if target.p != source.p:
            raise ValidationError("algebra map across different primes")
        if not isinstance(images, dict):
            raise ValidationError(f"generator images must be an object, got {images!r}")
        self.images: dict[str, dict] = {}
        sdeg = dict(source.generators)
        for name, _ in source.generators:
            if name not in images:
                raise ValidationError(f"missing image for generator {name!r}")
            expr = images[name]
            vec = target.parse_element(expr) if isinstance(expr, str) else expr
            if not isinstance(vec, dict) or any(
                    not isinstance(m, tuple) or len(m) != len(target.names) for m in vec):
                raise ValidationError(f"image of {name!r} must be an expression, got {expr!r}")
            d = target.element_degree(vec)
            if d is not None and d != sdeg[name]:
                raise ValidationError(
                    f"image of {name!r} has degree {d}, expected {sdeg[name]}"
                )
            self.images[name] = dict(vec)
        self._validate_relations()

    def _validate_relations(self):
        for (name, _), cap in zip(self.source.generators, self.source.caps):
            if cap is None:
                continue
            if self.target.image_of_monomial((cap + 1,), [self.images[name]]):
                raise ValidationError(f"map does not respect {name}^{cap + 1} = 0")

    def image_of(self, name: str) -> dict:
        return self.images[name]

    def image(self, mon) -> dict:
        """Image in the target of the source monomial ``mon``."""
        return self.target.image_of_monomial(
            mon, [self.images[name] for name in self.source.names])

    def block(self, d: int) -> np.ndarray:
        """Matrix of the map from the degree-``d`` monomials of the source
        to those of the target."""
        return _matrix(self.source.basis(d), self.target.basis(d),
                       lambda mon: self.image(mon).items(), self.p)

    @classmethod
    def augmentation(cls, source):
        """The ground field as a module via the augmentation."""
        return cls(source, MonomialAlgebra.trivial(source.p),
                   {n: "0" for n, _ in source.generators})

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra,
                   {n: {algebra.monomial_of(n): 1} for n, _ in algebra.generators})
