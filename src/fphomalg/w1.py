"""Free W1-algebra bookkeeping: admissible monomials, dimension series,
structure-table triviality, and the obstruction-line predicate.

The free W1-algebra on a generator list is the free graded-commutative
algebra on admissible symbols ``zeta^e xi^i b`` where ``b`` runs over the
Lyndon/self-bracket symbols, ``xi`` iterates ``d -> p d - p + 1`` on odd
degrees (every degree at p = 2), and ``zeta`` (odd p only) sends an odd
degree ``d`` to ``p d - p + 2``.  ``_w1_symbols`` walks those symbols
once: ``freelie.restriction_tower`` on each ``freelie.lie_symbols`` entry,
plus zeta of each odd degree.

The three dimension routes all start from ``lie_symbols`` and walk
``restriction_tower``.  ``free_w1_dims`` and ``free_w1_dims_via_sym_zeta``
(``Sym(g + zeta g)`` on the restricted-symbol dimensions) also share
``free_commutative_series``, so they check only the zeta bookkeeping.  The
checks that stay independent are the restricted closure oracle of
``freelie`` (against ``restricted_symbol_dims`` and ``restricted_basis``)
and ``free_w1_dims_enumerated``, which enumerates monomials instead of
multiplying series.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CapError, ValidationError
from .freelie import lie_symbols, parse_or_pass, restricted_symbol_dims, restriction_tower
from .linalg import (
    BigradedTable,
    GradedVectorSpace,
    HilbertSeries,
    PrimeField,
    free_commutative_series,
    json_int,
)

# Longest explicit symbol list ``w1_generator_symbols`` builds; the counts
# (``w1_symbol_counts``) have no such bound.
MAX_LISTED_SYMBOLS = 20_000


def zeta_degree(d: int, p: int) -> int:
    return p * d - p + 2


def xi_degree(d: int, p: int) -> int:
    return p * d - p + 1


def zeta_space(V: GradedVectorSpace, p: int) -> GradedVectorSpace:
    """Image space of zeta: each odd summand V^i lands in degree pi - p + 2.

    At p = 2 the operation does not exist and the zero space is returned.
    """
    PrimeField(p)
    if p == 2:
        return GradedVectorSpace()
    dims: dict[int, int] = {}
    for d, n in V.dims.items():
        if d % 2 == 1:
            z = zeta_degree(d, p)
            dims[z] = dims.get(z, 0) + n
    return GradedVectorSpace(dims)


def sym_zeta_dims(V: GradedVectorSpace, cap: int, p: int) -> HilbertSeries:
    """Series of the free graded-commutative algebra on ``V + zeta V``."""
    W = V + zeta_space(V, p)
    for d in W.degrees():
        if d <= 0:
            raise ValidationError("series requires positive degrees")
    return free_commutative_series([(d, W.dim(d)) for d in W.degrees()], cap, p)


@dataclass(frozen=True)
class W1Monomial:
    """Admissible free W1-algebra generator symbol ``zeta^e xi^i b``."""

    epsilon: int
    xi_power: int
    lie_symbol: str
    lie_degree: int
    degree: int

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValidationError("zeta exponent must be 0 or 1")
        if self.xi_power < 0:
            raise ValidationError("xi power must be nonnegative")

    @property
    def label(self) -> str:
        out = ""
        if self.epsilon:
            out += "zeta "
        if self.xi_power:
            out += f"xi^{self.xi_power} "
        return out + self.lie_symbol


def _w1_symbols(gens, cap: int, p: int, weight_cap: int | None):
    """The admissible symbols ``zeta^e xi^i b`` within the caps, as
    ``(b, e, i, degree)``, where ``b`` is a ``lie_symbols`` triple
    ``(v_degree, weight, count)`` standing for ``count`` Lie symbols."""
    PrimeField(p)
    for b in lie_symbols(parse_or_pass(gens), cap, p=p, weight_cap=weight_cap):
        for i, d, _ in restriction_tower(b[0], b[1], p, cap, weight_cap):
            yield b, 0, i, d
            if p != 2 and d % 2 == 1 and zeta_degree(d, p) <= cap:
                yield b, 1, i, zeta_degree(d, p)


def w1_symbol_counts(gens, cap: int, p: int,
                     weight_cap: int | None = None) -> dict[int, int]:
    """Aggregated count of admissible symbols per degree (``_w1_symbols``),
    which scales to the large Lyndon counts of low-degree generators."""
    counts: dict[int, int] = {}
    for (_, _, count), _, _, d in _w1_symbols(gens, cap, p, weight_cap):
        counts[d] = counts.get(d, 0) + count
    return dict(sorted(counts.items()))


def w1_generator_symbols(gens, cap: int, p: int,
                         weight_cap: int | None = None) -> list[W1Monomial]:
    """Explicit labelled symbol list for small inputs (display, tests)."""
    walk = list(_w1_symbols(gens, cap, p, weight_cap))
    total = sum(count for (_, _, count), *_ in walk)
    if total > MAX_LISTED_SYMBOLS:
        raise CapError(f"{total} symbols exceed the explicit-list bound {MAX_LISTED_SYMBOLS}")
    symbols = [W1Monomial(e, i, f"l[{vdeg}w{weight}#{j}]", vdeg, d)
               for (vdeg, weight, count), e, i, d in walk for j in range(count)]
    return sorted(symbols, key=lambda s: (s.degree, s.lie_symbol, s.xi_power, s.epsilon))


def free_w1_dims(gens, cap: int, p: int,
                 weight_cap: int | None = None) -> HilbertSeries:
    """Dimension series of the free W1-algebra via admissible symbols.

    Counts graded-commutative monomials on the symbol set assembled by
    ``w1_symbol_counts`` (odd symbols square to zero at odd p).  Must agree
    with ``sym_zeta_dims`` applied to the free shifted restricted Lie
    dimensions, which shares its tower and series; the dedicated tests
    enforce that identity.
    """
    counts = w1_symbol_counts(gens, cap, p, weight_cap)
    return free_commutative_series(sorted(counts.items()), cap, p)


def free_w1_dims_enumerated(gens, cap: int, p: int,
                            weight_cap: int | None = None) -> HilbertSeries:
    """Third route for small inputs: explicit monomial enumeration on the
    symbols of ``w1_generator_symbols``, with no series product."""
    symbols = w1_generator_symbols(gens, cap, p, weight_cap)
    counts = [0] * (cap + 1)

    def rec(i: int, degree: int):
        if i == len(symbols):
            counts[degree] += 1
            return
        s = symbols[i]
        remaining_min = s.degree
        if degree + remaining_min > cap:
            counts[degree] += 1  # no later symbol fits: symbols sorted by degree
            return
        rec(i + 1, degree)
        if p != 2 and s.degree % 2 == 1:
            if degree + s.degree <= cap:
                rec(i + 1, degree + s.degree)
        else:
            d = degree + s.degree
            while d <= cap:
                rec(i + 1, d)
                d += s.degree

    rec(0, 0)
    return HilbertSeries(counts, cap)


def free_w1_dims_via_sym_zeta(gens, cap: int, p: int,
                              weight_cap: int | None = None) -> HilbertSeries:
    """The series route: ``Sym(g + zeta g)`` on the restricted dimensions."""
    g = restricted_symbol_dims(parse_or_pass(gens), cap, p=p, weight_cap=weight_cap)
    return sym_zeta_dims(g, cap, p)


def trivial_lie_w1_dims(V: GradedVectorSpace, cap: int, p: int) -> HilbertSeries:
    """Series of the free W1-algebra on an already-structured input.

    ``free_w1_dims`` treats its argument as plain generators and builds the
    free shifted restricted Lie algebra first (self-brackets and all).
    When the input is a shifted restricted Lie algebra with trivial bracket
    and restriction -- the polynomial-cohomology pipeline, where an even
    input forces both to vanish -- the associated free W1-algebra is just
    ``Sym(V + zeta V)``, which collapses to ``Sym(V)`` for even ``V``.
    """
    return sym_zeta_dims(V, cap, p)


# ---------------------------------------------------------------------------
# structure tables


_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*\*?\s*)?([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?\s*$")


def _poly_is_zero(expr) -> bool:
    if expr is None:
        return True
    s = str(expr).strip()
    return s in ("", "0")


def _poly_degree(expr: str, degrees: dict[str, int]):
    """Degree of a homogeneous polynomial expression in the generators."""
    total = None
    for term in re.split(r"[+-]", expr):
        if not term.strip() or term.strip() == "0":
            continue
        deg = 0
        for factor in term.split("*"):
            m = _TERM_RE.match(factor)
            if m is None:
                raise ValidationError(f"cannot parse term {factor!r}")
            if m.group(2) is not None:
                name = m.group(2)
                if name not in degrees:
                    raise ValidationError(f"unknown generator {name!r} in {expr!r}")
                deg += degrees[name] * int(m.group(3) or 1)
        if total is None:
            total = deg
        elif total != deg:
            raise ValidationError(f"inhomogeneous value {expr!r}")
    return total


class W1StructureTable:
    """Tabulated xi/zeta/bracket values on the generators of an algebra.

    Values are polynomial expressions in the generators ("0" or missing
    means zero).  Degree rules are validated on construction.
    """

    def __init__(self, p: int, generators, xi=None, zeta=None, bracket=None):
        self.p = PrimeField(p).p
        self.generators = [(str(n), int(d)) for n, d in generators]
        self.degrees = dict(self.generators)
        if len(self.degrees) != len(self.generators):
            raise ValidationError("duplicate generator names")
        self.xi = {str(k): str(v) for k, v in (xi or {}).items()}
        self.zeta = {str(k): str(v) for k, v in (zeta or {}).items()}
        self.bracket = {self._pair(k): str(v) for k, v in (bracket or {}).items()}
        if self.p == 2 and any(not _poly_is_zero(v) for v in self.zeta.values()):
            raise ValidationError("zeta does not exist at p = 2")
        self._validate()

    @staticmethod
    def _pair(key) -> tuple[str, str]:
        if isinstance(key, str):
            parts = [s.strip() for s in key.split(",")]
            if len(parts) != 2:
                raise ValidationError(f"bracket key {key!r} must name two generators")
            return parts[0], parts[1]
        a, b = key
        return str(a), str(b)

    def _validate(self):
        for name in list(self.xi) + list(self.zeta):
            if name not in self.degrees:
                raise ValidationError(f"operation tabulated on unknown generator {name!r}")
        for a, b in self.bracket:
            if a not in self.degrees or b not in self.degrees:
                raise ValidationError(f"bracket tabulated on unknown pair ({a}, {b})")
        for name, expr in self.xi.items():
            if _poly_is_zero(expr):
                continue
            d = self.degrees[name]
            if self.p != 2 and d % 2 == 0:
                raise ValidationError(f"xi({name}) must vanish: even degree at odd p")
            want = xi_degree(d, self.p)
            got = _poly_degree(expr, self.degrees)
            if got != want:
                raise ValidationError(f"xi({name}) has degree {got}, expected {want}")
        for name, expr in self.zeta.items():
            if _poly_is_zero(expr):
                continue
            d = self.degrees[name]
            if d % 2 == 0:
                raise ValidationError(f"zeta({name}) must vanish on even degree")
            want = zeta_degree(d, self.p)
            got = _poly_degree(expr, self.degrees)
            if got != want:
                raise ValidationError(f"zeta({name}) has degree {got}, expected {want}")
        for (a, b), expr in self.bracket.items():
            if _poly_is_zero(expr):
                continue
            want = self.degrees[a] + self.degrees[b] - 1
            got = _poly_degree(expr, self.degrees)
            if got != want:
                raise ValidationError(f"[{a},{b}] has degree {got}, expected {want}")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "xi": dict(self.xi),
            "zeta": dict(self.zeta),
            "bracket": {f"{a},{b}": v for (a, b), v in self.bracket.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "W1StructureTable":
        return cls(
            json_int(obj["p"], "p"),
            [(g["name"], g["degree"]) for g in obj["generators"]],
            obj.get("xi"),
            obj.get("zeta"),
            obj.get("bracket"),
        )


def triviality_check(table: W1StructureTable) -> dict:
    """All tabulated xi/zeta/bracket values zero?

    A necessary condition for the structure to be pulled back from a
    commutative ring on even polynomial generators, where every operation
    is trivial.
    """
    offenders = []
    for name, expr in sorted(table.xi.items()):
        if not _poly_is_zero(expr):
            offenders.append({"generator": name, "operation": "xi", "value": expr})
    for name, expr in sorted(table.zeta.items()):
        if not _poly_is_zero(expr):
            offenders.append({"generator": name, "operation": "zeta", "value": expr})
    for (a, b), expr in sorted(table.bracket.items()):
        if not _poly_is_zero(expr):
            offenders.append({"generator": f"{a},{b}", "operation": "bracket", "value": expr})
    return {
        "trivial": not offenders,
        "offenders": offenders,
        "generator_count": len(table.generators),
    }


def mod2_postnikov_square_table(cap: int = 20) -> W1StructureTable:
    """Structure table of the mod-2 cohomology of the second Postnikov
    stage with fundamental group of order two: polynomial generators in
    degrees ``2^n + 1`` (and 2), with the degree-doubling square acting as
    ``xi(x_d) = x_{2d - 1}``."""
    degs = [2]
    while 2 * degs[-1] - 1 <= cap:
        degs.append(2 * degs[-1] - 1)
    generators = [(f"x{d}", d) for d in degs]
    xi = {}
    for d in degs:
        if 2 * d - 1 <= cap:
            xi[f"x{d}"] = f"x{2 * d - 1}"
    return W1StructureTable(2, generators, xi=xi)


# ---------------------------------------------------------------------------
# obstruction line


def obstruction_line_vanishes(T: BigradedTable) -> dict:
    """Evenness of an AQ table kills the lifting obstructions.

    Obstruction groups sit in bidegrees ``(t, t - 1)`` whose parity is odd,
    so an even table has no support there.  The report lists every
    odd-parity entry as a witness when the check fails.
    """
    verdict = T.parity_verdict()
    witnesses = [
        {"s": s, "t": t, "dim": n}
        for (s, t), n in T.items()
        if (s + t) % 2 == 1
    ]
    line = [
        {"s": s, "t": t, "dim": n}
        for (s, t), n in T.items()
        if s == t + 1
    ]
    return {
        "pass": not witnesses,
        "empty": verdict.empty,
        "parity": verdict.verdict,
        "witnesses": witnesses,
        "obstruction_line_entries": line,
        "implication": "table is even => all (t, t-1) obstruction groups vanish",
    }
