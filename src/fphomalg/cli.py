"""Command-line frontend: one subcommand per pipeline, JSON in,
table/json/csv out.  Exit codes: 0 success, 2 validation or input error,
3 internal cross-check mismatch."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import applications as apps
from . import diagrams as dg
from . import freelie, homalg, w1
from .errors import CrossCheckError, ValidationError
from .linalg import (BigradedTable, GradedMap, GradedVectorSpace, HilbertSeries, PrimeField,
                     dump_json, json_int)
from .monalg import AlgebraModule, ModuleViaMap, MonomialAlgebra

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fphomalg",
        description="exact homological algebra over prime fields",
    )
    parser.add_argument("command", choices=list(HANDLERS))
    parser.add_argument("-p", "--prime", type=int, default=2)
    parser.add_argument("-n", "--cap", type=int, default=12)
    parser.add_argument("--smax", type=int, default=5)
    parser.add_argument("--qmax", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--weight-cap", type=int, default=None)
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("-o", "--out", default=None)
    parser.add_argument("input", help="path to the JSON input file")
    return parser


# The least value of each numeric option (flag, attribute); a lower one is
# refused while parsing, before any input is read.
AT_LEAST = {("-n", "cap"): 0, ("--smax", "smax"): 0, ("--qmax", "qmax"): 0,
            ("--seed", "seed"): 0, ("--trials", "trials"): 1, ("--weight-cap", "weight_cap"): 1}


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ValidationError(f"input file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON in {path}: {e}") from e


def _gens(obj):
    if isinstance(obj, dict) and "generators" in obj:
        obj = obj["generators"]
    return freelie.parse_generators(obj)


def _algebra(obj, p):
    data = dict(obj)
    data.setdefault("p", p)
    return MonomialAlgebra.from_json(data)


def _module(obj, A):
    if obj in (None, "k"):
        return homalg.trivial_module(A)
    space = GradedVectorSpace.from_json(obj)
    return AlgebraModule(A, space)


def _module_via_map(obj, A):
    if obj in (None, "k"):
        return ModuleViaMap.augmentation(A)
    if obj == "id":
        return ModuleViaMap.identity(A)
    if not isinstance(obj, dict) or not {"target", "images"} <= obj.keys():
        raise ValidationError('a tor side is "k", "id" or an object with "target" and "images"')
    target = _algebra(obj["target"], A.p)
    return ModuleViaMap(A, target, obj["images"])


def _vector_diagram(cat, values, maps, p):
    """Contravariant diagram on ``cat`` from JSON values and maps; the map
    of f: a -> b goes values[b] -> values[a]."""
    p = PrimeField(p).p
    values = {o: GradedVectorSpace.from_json(v) for o, v in values.items()}
    graded = {}
    for f, m in maps.items():
        src, dst = cat.arrows[f]
        blocks = {json_int(d, f"block key of map {f!r}"):
                  [[json_int(v, f"entry of map {f!r}") for v in row] for row in b]
                  for d, b in m.get("blocks", {}).items()}
        graded[f] = GradedMap(values[dst], values[src],
                              json_int(m.get("degree", 0), f"degree of map {f!r}"), blocks, p)
    return dg.contravariant_diagram(cat, values, graded, p)


def _diagram(obj, p, cap):
    """Base category and covariant diagram of a ``diagram-lim``/``injective``
    input: a simplicial complex (its face-ring diagram) or a vector diagram."""
    if "vertices" in obj:
        I, _, D = dg.face_ring_diagram(obj["vertices"], obj["facets"],
                                       json_int(obj.get("degree", 2), "degree"), cap, p)
        return I, D
    cat = dg.FiniteCategory.from_json(obj["category"])
    return cat, _vector_diagram(cat, obj["values"], obj.get("maps", {}), p)


# --- command handlers ---------------------------------------------------------


def _weight_cap(args):
    return freelie.DEFAULT_WEIGHT_CAP if args.weight_cap is None else args.weight_cap


def cmd_free_lie(data, args):
    gens = _gens(data)
    wc = _weight_cap(args)
    count = freelie.free_lie_symbol_dims(gens, args.cap, p=args.prime, weight_cap=wc)
    oracle = freelie.bracket_closure_dims(gens, args.cap, p=args.prime, weight_cap=wc)
    if count != oracle:
        raise CrossCheckError(
            f"symbol count {count.dims} disagrees with closure oracle {oracle.dims}"
        )
    return {
        "kind": "graded",
        "graded": count,
        "report": {"dims": count.to_json(), "oracle_agrees": True, "weight_cap": wc},
    }


def cmd_restricted(data, args):
    gens = _gens(data)
    wc = _weight_cap(args)
    symbols, dims = freelie.restricted_basis(
        gens, args.cap, p=args.prime, weight_cap=wc
    )
    return {
        "kind": "graded",
        "graded": dims,
        "report": {
            "dims": dims.to_json(),
            "symbols": [
                {"label": s.label, "degree": s.v_degree, "xi_power": s.xi_power}
                for s in symbols
            ],
            "oracle_agrees": True,
        },
    }


def cmd_free_w1(data, args):
    gens = _gens(data)
    series = w1.free_w1_dims(gens, args.cap, args.prime, args.weight_cap)
    other = w1.free_w1_dims_via_sym_zeta(gens, args.cap, args.prime, args.weight_cap)
    if series != other:
        raise CrossCheckError(
            f"symbol route {series.nonzero()} disagrees with series route {other.nonzero()}"
        )
    # both routes walk the restriction tower; the closure oracle does not
    freelie.check_restricted_counts(gens, args.cap, p=args.prime, weight_cap=args.weight_cap)
    return {
        "kind": "series",
        "series": series,
        "report": {"series": series.to_json(), "routes_agree": True},
    }


def cmd_axioms(data, args):
    gens = _gens(data)
    report = freelie.check_axioms(
        gens, degree_cap=args.cap, trials=args.trials, rng_seed=args.seed, p=args.prime
    )
    if not report["all_pass"]:
        raise CrossCheckError(f"axiom check failed: {report}")
    return {"kind": "report", "report": report}


def cmd_ext(data, args):
    A = _algebra(data["algebra"], args.prime)
    M = _module(data.get("module"), A)
    table = homalg.ext_dims(A, M, s_max=args.smax, cap=args.cap)
    return _table_result(table)


def cmd_hochschild(data, args):
    A = _algebra(data["algebra"], args.prime)
    M = _module(data.get("module"), A)
    table = homalg.hochschild_dims(A, M, s_max=args.smax, cap=args.cap)
    return _table_result(table, extra={"routes_agree": True})


def cmd_aq(data, args):
    A = _algebra(data["algebra"], args.prime)
    M = _module(data.get("module"), A)
    res = homalg.aq_ass_dims(A, M, cap=args.cap, s_max=args.smax)
    return _table_result(res.table, extra={"parity": res.verdict.to_json(),
                                           "notes": res.notes})


def cmd_tor(data, args):
    A = _algebra(data["base"], args.prime)
    M = _module_via_map(data.get("left"), A)
    N = _module_via_map(data.get("right"), A)
    table = homalg.tor_dims(A, M, N, cap=args.cap)
    return _table_result(table, extra={"totals": table.total_dims()})


def cmd_bar(data, args):
    A = _algebra(data.get("algebra", data), args.prime)
    table = homalg.bar_homology_dims(A, cap=args.cap, s_max=args.smax * 4)
    return _table_result(table, extra={"totals": table.total_dims()})


def cmd_diagram_lim(data, args):
    _, D = _diagram(data, args.prime, args.cap)
    lim = dg.limit_dims(D, args.cap)
    table = dg.derived_limit_dims(D, args.cap)
    row0 = {t: n for (s, t), n in table.items() if s == 0}
    if row0 != {d: lim.dim(d) for d in lim.degrees()}:
        raise CrossCheckError("derived limit row 0 disagrees with the limit")
    return _table_result(table, extra={"limit": lim.to_json()})


def cmd_injective(data, args):
    I, D = _diagram(data, args.prime, args.cap)
    report = dg.injective_by_criterion(I, D, args.cap)
    table = dg.derived_limit_dims(D, args.cap)
    higher = [(s, t) for (s, t) in table.entries if s > 0]
    if report["injective"] and higher:
        raise CrossCheckError(
            f"criterion passed but higher derived limits exist at {higher}"
        )
    report["higher_derived_support"] = higher
    return {"kind": "report", "report": report}


def cmd_diagram_aq(data, args):
    cat = dg.FiniteCategory.from_json(data["category"])
    DV = _vector_diagram(cat, data["v_values"], data.get("v_maps", {}), args.prime)
    DM = _vector_diagram(cat, data["m_values"], data.get("m_maps", {}), args.prime)
    out = dg.diagram_aq_table(cat, DV, DM, s_max=args.smax, q_max=args.qmax)
    report = {
        "tables": {str(q): t.to_json() for q, t in out["tables"].items()},
        "kernel_formula": {str(q): k for q, k in out["kernel_formula"].items()},
        "notes": out["notes"],
    }
    return {"kind": "report", "report": report}


def cmd_invariants(data, args):
    action = apps.GroupAction.from_json({**data, "p": data.get("p", args.prime)})
    series, basis = apps.invariant_dims(action, args.cap)
    return {
        "kind": "series",
        "series": series,
        "report": {
            "series": series.to_json(),
            "group_order": action.order,
            "basis_counts": {str(d): v[0].shape[1] for d, v in basis.items()},
        },
    }


def cmd_lie_check(data, args):
    action = apps.GroupAction.from_json({**data, "p": data.get("p", args.prime)})
    report = apps.lie_formality_checklist(action, args.cap)
    return {"kind": "report", "report": report}


def cmd_stanley_reisner(data, args):
    out = apps.stanley_reisner_dims(
        data["vertices"], data["facets"], json_int(data.get("degree", 2), "degree"),
        args.cap, args.prime,
    )
    return {
        "kind": "series",
        "series": out["series"],
        "report": {"series": out["series"].to_json(), "routes_agree": True,
                   "faces": out["faces"]},
    }


def cmd_emss(data, args):
    if data.get("preset") == "diagonal-circle":
        inp = apps.bu_to_bu1_input(json_int(data["n"], "n"), p=args.prime, cap=args.cap)
    elif "preset" in data:
        raise ValidationError(
            f"unknown emss preset {data['preset']!r} (the one known preset is 'diagonal-circle')")
    else:
        inp = apps.EMSSInput.from_json({**data, "p": data.get("p", args.prime)})
    checks = apps.emss_hypothesis_check(inp, cap=args.cap)
    out = apps.emss_tor_algebra(inp, cap=args.cap)
    return _table_result(
        out["table"],
        extra={
            "hypotheses": checks,
            "totals": out["totals"],
            "squares": out["squares"],
            "label": out["label"],
        },
    )


def cmd_loops(data, args):
    V = GradedVectorSpace.from_json(data)
    out = apps.loop_cohomology_dims(V, args.cap, args.prime)
    return {
        "kind": "series",
        "series": out["series"],
        "report": {
            "series": out["series"].to_json(),
            "primitive_dims": out["primitive_dims"].to_json(),
            "routes_agree": True,
        },
    }


def cmd_obstruction(data, args):
    table = BigradedTable.from_json(data if isinstance(data, list) else data["table"])
    report = w1.obstruction_line_vanishes(table)
    return {"kind": "report", "report": report}


HANDLERS = {
    "free-lie": cmd_free_lie,
    "restricted": cmd_restricted,
    "free-w1": cmd_free_w1,
    "axioms": cmd_axioms,
    "ext": cmd_ext,
    "hochschild": cmd_hochschild,
    "aq": cmd_aq,
    "tor": cmd_tor,
    "bar": cmd_bar,
    "diagram-lim": cmd_diagram_lim,
    "diagram-aq": cmd_diagram_aq,
    "injective": cmd_injective,
    "invariants": cmd_invariants,
    "lie-check": cmd_lie_check,
    "stanley-reisner": cmd_stanley_reisner,
    "emss": cmd_emss,
    "loops": cmd_loops,
    "obstruction": cmd_obstruction,
}


def _table_result(table: BigradedTable, extra=None):
    report = {"table": table.to_json(), "parity": table.parity_verdict().to_json()}
    report.update(extra or {})
    return {"kind": "table", "table": table, "report": report}


def _render_table_text(result) -> str:
    lines = []
    if result["kind"] == "table":
        table = result["table"]
        lines.append(f"{'s':>4} {'t':>6} {'dim':>5}")
        for (s, t), n in table.items():
            lines.append(f"{s:>4} {t:>6} {n:>5}")
        verdict = table.parity_verdict()
        lines.append(f"parity: {verdict.verdict}" + (" (empty)" if verdict.empty else ""))
        for key in ("totals", "notes", "label"):
            if key in result["report"]:
                lines.append(f"{key}: {result['report'][key]}")
    elif result["kind"] in ("series", "graded"):
        obj = result.get("series") or result.get("graded")
        pairs = obj.nonzero() if isinstance(obj, HilbertSeries) else obj.dims
        lines.append(f"{'degree':>8} {'dim':>5}")
        for d, n in sorted(pairs.items()):
            lines.append(f"{d:>8} {n:>5}")
    else:
        lines.append(dump_json(result["report"]))
    return "\n".join(lines) + "\n"


def _render_csv(result) -> str:
    if result["kind"] == "table":
        return result["table"].to_csv()
    if result["kind"] in ("series", "graded"):
        obj = result.get("series") or result.get("graded")
        pairs = obj.nonzero() if isinstance(obj, HilbertSeries) else obj.dims
        out = ["degree,dim"]
        out += [f"{d},{n}" for d, n in sorted(pairs.items())]
        return "\n".join(out) + "\n"
    raise ValidationError("csv output is only available for table and series results")


@functools.cache
def _parser():
    """The parser, built once per process: building it costs more than
    parsing with it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        for (flag, name), low in AT_LEAST.items():
            value = getattr(args, name)
            if value is not None and value < low:
                parser.error(f"{flag} must be >= {low}, got {value}")
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        data = _load(args.input)
        result = HANDLERS[args.command](data, args)
        if args.format == "json":
            text = dump_json(result["report"]) + "\n"
        elif args.format == "csv":
            text = _render_csv(result)
        else:
            text = _render_table_text(result)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except CrossCheckError as e:
        print(f"cross-check mismatch: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except (KeyError, TypeError) as e:
        print(f"malformed input: {e!r}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
