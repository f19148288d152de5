"""In-process tracer for the benchmark's per-layer metrics.

The tracer wraps the public entry points of each ``fphomalg`` module from
the outside; no file under ``src/`` knows about it.  A wrapper is installed
on every name the entry point is looked up under at call time: the defining
module, each module that bound it with ``from ... import``, the class that
owns a method, and the CLI handler table.  ``uninstall`` puts the original
objects back, so untraced passes run the unmodified program.

Each span records its self time (its duration minus the wrapped calls made
inside it).  Bookkeeping done by a wrapper after its call (matrix digests,
density counts) is charged to no span.  Layer self times therefore add up
to the traced time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "homalg", "monalg", "kernels", "freelie", "w1", "diagrams",
          "applications", "linalg")

# Metric keys whose self time is reported as ``<key>_s``.
TIMED_KEYS = (
    "homalg.hochschild.basis", "homalg.hochschild.delta",
    "homalg.hochschild.verify_dd", "homalg.hochschild.cohomology",
    "homalg.ext", "homalg.derivations", "homalg.tor", "homalg.bar",
    "monalg.mul", "monalg.act", "kernels.rref",
    "freelie.tensor", "freelie.closure", "freelie.span", "freelie.lyndon",
    "w1.series", "diagrams.derived_limit", "diagrams.criterion", "diagrams.aq",
    "applications.invariants", "applications.emss", "applications.face_ring",
    "applications.loops", "linalg.subquotient",
)

COUNTS = ("homalg.cochain_words", "monalg.mul_calls", "kernels.rref_calls",
          "kernels.rref_entries", "freelie.tensor_init_calls",
          "crosscheck.route2_calls")

# Entry points that must fire on each workload; a rename or a dead binding
# would otherwise read as a zero layer metric.
EXPECTED = {
    "aq-exterior": ("homalg.hochschild.basis", "homalg.hochschild.delta",
                    "homalg.hochschild.verify_dd", "homalg.hochschild.cohomology",
                    "homalg.ext", "homalg.derivations", "monalg.mul", "monalg.act",
                    "kernels.rref", "kernels.rank"),
    "lie-closure": ("freelie.tensor", "freelie.closure", "freelie.span",
                    "freelie.lyndon", "kernels.rref"),
    "bar-koszul": ("homalg.bar", "homalg.tor", "monalg.mul", "kernels.rref",
                   "applications.loops"),
    "command-sweep": ("cli.main", "cli.handler", "w1.series", "w1.obstruction",
                      "diagrams.derived_limit", "diagrams.criterion", "diagrams.aq",
                      "applications.invariants", "applications.emss",
                      "applications.face_ring", "applications.loops",
                      "linalg.subquotient", "homalg.ext", "homalg.hochschild",
                      "homalg.tor", "homalg.bar", "freelie.closure",
                      "freelie.axioms", "kernels.rref"),
}


RATIOS = ("monalg.mul_distinct_frac", "kernels.rref_density", "kernels.rank_repeat_frac",
          "trace.overhead_frac")


def unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def _under(fname):
    return lambda stack: any(f == fname for f, _ in stack)


def _parent(prefix):
    return lambda stack: bool(stack) and stack[-1][0].startswith(prefix)


def _always(stack):
    return True


def _cochain_words(tracer, args, kwargs, result):
    tracer.counts["homalg.cochain_words"] += sum(len(level) for level in args[0].words)


def _mul_pair(tracer, args, kwargs, result):
    tracer.mul_pairs.add((id(args[0]), args[1], args[2]))


def _rref_shape(tracer, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    m = np.asarray(args[0], dtype=np.int64)
    tracer.counts["kernels.rref_entries"] += m.size
    tracer.rref_nnz += int(np.count_nonzero(m % p))


def _rank_repeat(tracer, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    m = np.ascontiguousarray(np.asarray(args[0], dtype=np.int64) % p)
    digest = (p, m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest())
    tracer.rank_calls += 1
    if digest in tracer.ranked:
        tracer.rank_repeats += 1
    tracer.ranked.add(digest)


def entry_points(fp):
    """(owner, attribute, key, call counter, route-2 predicate, hook) rows.

    ``fp`` maps module names to the imported ``fphomalg`` modules.  The
    route-2 predicate sees the stack of open spans and says whether this
    call is the second, cross-checking route of a dual computation.
    """
    homalg, monalg, K = fp["homalg"], fp["monalg"], fp["_kernels"]
    freelie, w1, dg, apps = fp["freelie"], fp["w1"], fp["diagrams"], fp["applications"]
    HC = homalg.HochschildComplex
    in_hochschild = _under("homalg.hochschild_dims")
    return [
        (fp["cli"], "main", "cli.main", None, None, None),
        (HC, "__init__", "homalg.hochschild.basis", None, in_hochschild, _cochain_words),
        (HC, "basis", "homalg.hochschild.basis", None, in_hochschild, None),
        (HC, "t_range", "homalg.hochschild.basis", None, in_hochschild, None),
        (HC, "delta", "homalg.hochschild.delta", None, in_hochschild, None),
        (HC, "verify_dd", "homalg.hochschild.verify_dd", None, in_hochschild, None),
        (HC, "cohomology_dim", "homalg.hochschild.cohomology", None, in_hochschild, None),
        (homalg, "hochschild_dims", "homalg.hochschild", None, None, None),
        (homalg, "aq_ass_dims", "homalg.hochschild", None, None, None),
        (homalg, "ext_dims", "homalg.ext", None, None, None),
        (homalg, "derivations_dims", "homalg.derivations", None, None, None),
        (homalg, "tor_dims", "homalg.tor", None, None, None),
        (homalg, "bar_homology_dims", "homalg.bar", None,
         _parent("applications.loop_cohomology_dims"), None),
        (monalg.MonomialAlgebra, "mul", "monalg.mul", "monalg.mul_calls", None, _mul_pair),
        (monalg.MonomialAlgebra, "mul_elements", "monalg.algebra", None, None, None),
        (monalg.MonomialAlgebra, "basis", "monalg.algebra", None, None, None),
        (monalg.AlgebraModule, "gen_action", "monalg.act", None, None, None),
        (monalg.AlgebraModule, "act_vec", "monalg.act", None, None, None),
        (monalg.AlgebraModule, "act_monomial", "monalg.act", None, None, None),
        (monalg.AlgebraModule, "act_element", "monalg.act", None, None, None),
        (K, "rref", "kernels.rref", "kernels.rref_calls", None, _rref_shape),
        (K, "rank", "kernels.rank", None, None, _rank_repeat),
        (K, "nullspace", "kernels.solve", None, None, None),
        (K, "solve", "kernels.solve", None, None, None),
        (freelie.TensorElement, "__init__", "freelie.tensor",
         "freelie.tensor_init_calls", None, None),
        (freelie.TensorElement, "__add__", "freelie.tensor", None, None, None),
        (freelie.TensorElement, "scale", "freelie.tensor", None, None, None),
        (freelie, "tensor_mul", "freelie.tensor", None, None, None),
        (freelie, "shifted_bracket", "freelie.tensor", None, None, None),
        (freelie, "restriction_power", "freelie.tensor", None, None, None),
        (freelie, "expand_bracketing", "freelie.tensor", None, None, None),
        (freelie, "bracket_closure_dims", "freelie.closure", None, _always, None),
        (freelie, "restricted_closure_dims", "freelie.closure", None, _always, None),
        (freelie, "span_dims", "freelie.span", None, None, None),
        (freelie, "_reduce_basis", "freelie.span", None, None, None),
        (freelie, "_lyndon_candidates", "freelie.lyndon", None, None, None),
        (freelie, "lyndon_basis", "freelie.lyndon", None, None, None),
        (freelie, "restricted_basis", "freelie.lyndon", None, None, None),
        (freelie, "free_lie_symbol_dims", "freelie.lyndon", None, None, None),
        (freelie, "lie_symbols", "freelie.lyndon", None, None, None),
        (freelie, "restricted_symbol_dims", "freelie.lyndon", None, None, None),
        (freelie, "check_axioms", "freelie.axioms", None, None, None),
        (w1, "free_w1_dims", "w1.series", None, None, None),
        (w1, "free_w1_dims_via_sym_zeta", "w1.series", None, _always, None),
        (w1, "sym_zeta_dims", "w1.series", None, None, None),
        (w1, "obstruction_line_vanishes", "w1.obstruction", None, None, None),
        (dg, "limit_dims", "diagrams.limit", None, None, None),
        (dg, "derived_limit_dims", "diagrams.derived_limit", None, _parent("cli."), None),
        (dg, "injective_by_criterion", "diagrams.criterion", None, None, None),
        (dg, "matching_surjectivity", "diagrams.criterion", None, None, None),
        (dg, "diagram_aq_table", "diagrams.aq", None, None, None),
        (dg.AlgebraDiagram, "linearize", "diagrams.linearize", None, None, None),
        (apps, "invariant_dims", "applications.invariants", None, None, None),
        (apps, "lie_formality_checklist", "applications.invariants", None, None, None),
        (apps, "emss_hypothesis_check", "applications.emss", None, None, None),
        (apps, "emss_tor_algebra", "applications.emss", None, None, None),
        (apps, "stanley_reisner_dims", "applications.face_ring", None, None, None),
        (apps, "loop_cohomology_dims", "applications.loops", None, None, None),
        (fp["linalg"].Subquotient, "__init__", "linalg.subquotient", None, None, None),
        (fp["linalg"].Subquotient, "coords", "linalg.subquotient", None, None, None),
    ]


class Tracer:
    """Span and counter accumulator; one per traced run."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rref_nnz = 0
        self.rank_calls = 0
        self.rank_repeats = 0
        self.mul_distinct = 0
        self.route2_s = 0.0
        self.route2_depth = 0
        self.stack: list[list] = []  # [function name, child time]
        self.ranked: set = set()
        self.mul_pairs: set = set()
        self._patches: list[tuple] = []

    # --- installation -------------------------------------------------------

    def install(self):
        import fphomalg.cli  # noqa: F401  (loads every module the CLI uses)

        fp = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
              if name.startswith("fphomalg.") and name.count(".") == 1}
        for owner, attr, key, counter, route2, hook in entry_points(fp):
            self._wrap(fp, owner, attr, key, counter, route2, hook)
        handlers = fp["cli"].HANDLERS
        for command, fn in list(handlers.items()):
            wrapper = self._wrapper(fn, "cli." + fn.__name__, "cli.handler",
                                    None, None, None)
            self._patches.append((handlers, command, fn, True))
            handlers[command] = wrapper

    def _wrap(self, fp, owner, attr, key, counter, route2, hook):
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise RuntimeError(f"entry point {owner.__name__}.{attr} is gone")
            orig = owner.__dict__[attr]
            fname = f"{owner.__module__.split('.')[-1]}.{owner.__name__}.{attr}"
            targets = [owner]
        else:
            if not hasattr(owner, attr):
                raise RuntimeError(f"entry point {owner.__name__}.{attr} is gone")
            orig = getattr(owner, attr)
            fname = f"{owner.__name__.split('.')[-1]}.{attr}"
            # every module-level binding of the same object, so that
            # ``from .homalg import tor_dims`` call sites are traced too
            targets = [m for m in fp.values()
                       if any(v is orig for v in vars(m).values())]
        if not isinstance(orig, types.FunctionType):
            raise RuntimeError(f"entry point {fname} is not a plain function")
        wrapper = self._wrapper(orig, fname, key, counter, route2, hook)
        for target in targets:
            names = [attr] if isinstance(target, type) else [
                n for n, v in vars(target).items() if v is orig]
            for name in names:
                self._patches.append((target, name, orig, False))
                setattr(target, name, wrapper)

    def uninstall(self):
        for target, name, orig, is_dict in reversed(self._patches):
            if is_dict:
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._patches.clear()

    # --- spans --------------------------------------------------------------

    def _wrapper(self, fn, fname, key, counter, route2, hook):
        perf = time.perf_counter
        stack = self.stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        self_s.setdefault(key, 0.0)
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = perf()
            if not stack:
                self._new_job()
            is_route2 = route2 is not None and route2(stack)
            root2 = is_route2 and self.route2_depth == 0
            if is_route2:
                self.route2_depth += 1
            frame = [fname, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if is_route2:
                    self.route2_depth -= 1
                    if root2:
                        self.route2_s += t1 - t0
                self_s[key] += (t1 - t0) - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += t1 - t_enter
            if root2 and _counts_as_route(fname):
                counts["crosscheck.route2_calls"] += 1
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            if stack:
                stack[-1][1] += perf() - t1
            return result

        return traced

    def _new_job(self):
        """Repeat and distinct-pair sets are per CLI job."""
        self.mul_distinct += len(self.mul_pairs)
        self.mul_pairs.clear()
        self.ranked.clear()

    # --- results ------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected entry points that never fired."""
        return [k for k in EXPECTED[workload] if not self.calls.get(k)]

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics, averaged over ``passes`` traced passes."""
        self._new_job()
        out = {}
        for key in TIMED_KEYS:
            out[key + "_s"] = self.self_s.get(key, 0.0) / passes
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[layer + ".self_s"] = total / passes
        out["cli.overhead_s"] = self.self_s.get("cli.main", 0.0) / passes
        out["cli.handler_s"] = self.self_s.get("cli.handler", 0.0) / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        calls = self.counts["monalg.mul_calls"]
        out["monalg.mul_distinct_frac"] = self.mul_distinct / calls if calls else 0.0
        entries = self.counts["kernels.rref_entries"]
        out["kernels.rref_density"] = self.rref_nnz / entries if entries else 0.0
        out["kernels.rank_repeat_frac"] = (self.rank_repeats / self.rank_calls
                                           if self.rank_calls else 0.0)
        out["crosscheck.route2_s"] = self.route2_s / passes
        return out


def _counts_as_route(fname: str) -> bool:
    """One route-2 call per dual computation: the Hochschild cochain route
    is counted once, at its construction, not once per method."""
    return not fname.startswith("homalg.HochschildComplex.") or fname.endswith("__init__")
