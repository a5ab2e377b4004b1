"""Per-layer tracing of the bumpless library, installed from outside.

``install()`` wraps every public module-level function of each layer,
and the public methods of ``rings.Poly`` and ``monomial.MonomialIdeal``,
then rebinds each wrapped function in every ``bumpless`` module that
imported it by name (``transition`` and ``cli`` import ``buchberger``,
``schubert`` imports ``exact_divide``, ...), so no call path skips its
span.  Spans nest on one stack; a span's self time is its duration minus
the durations of the spans it directly contains.  The benchmark opens a
root span around each case, so the self times of all spans add up to the
traced wall time of the cases.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "perms",
    "bpd",
    "asm",
    "rings",
    "groebner",
    "cache",
    "monomial",
    "schubert",
    "transition",
    "cli",
)
TRACED_CLASSES = {"rings": ("Poly",), "monomial": ("MonomialIdeal",)}
ROOT = "bench.case"

# Per-layer metrics reported by name: (metric, unit).
METRICS = (
    ("groebner.buchberger_calls", "count"),
    ("groebner.buchberger_self_s", "s"),
    ("groebner.basis_elems", "count"),
    ("groebner.intersect_self_s", "s"),
    ("groebner.is_groebner_self_s", "s"),
    ("groebner.fulton_generators_self_s", "s"),
    ("cache.load_calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.load_self_s", "s"),
    ("cache.store_self_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("rings.parse_poly_calls", "count"),
    ("rings.parse_poly_self_s", "s"),
    ("rings.exact_divide_calls", "count"),
    ("rings.exact_divide_self_s", "s"),
    ("rings.map_variables_self_s", "s"),
    ("schubert.schubert_poly_self_s", "s"),
    ("schubert.grothendieck_poly_self_s", "s"),
    ("schubert.bpd_schubert_poly_self_s", "s"),
    ("schubert.memo_entries", "count"),
    ("monomial.multidegree_self_s", "s"),
    ("monomial.k_polynomial_self_s", "s"),
    ("monomial.minimal_primes_self_s", "s"),
    ("monomial.irreducible_components_self_s", "s"),
    ("monomial.multiplicity_at_self_s", "s"),
    ("monomial.associated_primes_self_s", "s"),
    ("bpd.enumerate_calls", "count"),
    ("bpd.tilings", "count"),
    ("bpd.enumerate_self_s", "s"),
    ("asm.perm_set_self_s", "s"),
    ("asm.join_self_s", "s"),
    ("transition.cases", "count"),
    ("cli.main_self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# The metric each workload must see nonzero, or the tracer missed a path.
HEADLINES = {
    "ideal_sweep": (
        "groebner.buchberger_calls",
        "groebner.buchberger_self_s",
        "groebner.intersect_self_s",
        "groebner.fulton_generators_self_s",
        "cache.store_self_s",
        "cache.bytes_written",
        "monomial.minimal_primes_self_s",
        "monomial.irreducible_components_self_s",
        "monomial.multiplicity_at_self_s",
        "bpd.enumerate_calls",
        "asm.perm_set_self_s",
        "asm.join_self_s",
        "transition.cases",
    ),
    "poly_identities": (
        "rings.exact_divide_calls",
        "rings.exact_divide_self_s",
        "rings.map_variables_self_s",
        "schubert.schubert_poly_self_s",
        "schubert.grothendieck_poly_self_s",
        "schubert.bpd_schubert_poly_self_s",
        "schubert.memo_entries",
        "monomial.multidegree_self_s",
        "monomial.k_polynomial_self_s",
        "groebner.is_groebner_self_s",
        "bpd.tilings",
        "transition.cases",
    ),
    "query_stream": (
        "cache.load_calls",
        "cache.load_self_s",
        "rings.parse_poly_calls",
        "rings.parse_poly_self_s",
        "monomial.multidegree_self_s",
        "monomial.associated_primes_self_s",
        "asm.perm_set_self_s",
        "transition.cases",
        "cli.main_self_s",
    ),
}


class Tracer:
    """Span stack and per-span totals: calls and self seconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "groebner.basis_elems": 0,
            "cache.hits": 0,
            "bpd.tilings": 0,
        }
        self._stack = [0.0]
        self._roots: dict = {}
        self._after = {
            "groebner.buchberger": self._count_basis,
            "cache.load_basis": self._count_hit,
            "bpd.enumerate_bpds": self._count_tilings,
        }

    def _count_basis(self, result):
        self.counts["groebner.basis_elems"] += len(result)

    def _count_hit(self, result):
        if result is not None:
            self.counts["cache.hits"] += 1

    def _count_tilings(self, result):
        self.counts["bpd.tilings"] += len(result)

    def _record(self, name: str, elapsed: float, child: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        self._stack[-1] += elapsed

    def wrap(self, name: str, fn):
        stack = self._stack
        after = self._after.get(name)
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                record(name, elapsed, stack.pop())
            if after is not None:
                after(result)
            return result

        return traced

    def case(self, fn, *args):
        """Run one benchmark case as a root span."""
        root = self._roots.get(fn)
        if root is None:
            root = self._roots[fn] = self.wrap(ROOT, fn)
        return root(*args)

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it is bound."""
        modules = {
            layer: importlib.import_module(f"bumpless.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        setattr(cls, attr, self.wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name == "bumpless" or name.startswith("bumpless."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])

    def metrics(self, wall_s: float, extra: dict) -> dict:
        """Every per-layer metric by name, from the totals of one traced pass.

        ``extra`` carries what the tracer cannot see from call boundaries:
        ``cache.bytes_written`` and ``schubert.memo_entries``.  The caller
        adds ``trace.overhead_frac``, which needs an untraced run.
        """
        calls, self_s = self.calls, self.self_s
        load_calls = calls.get("cache.load_basis", 0)
        values = {
            "groebner.buchberger_calls": calls.get("groebner.buchberger", 0),
            "groebner.buchberger_self_s": self_s.get("groebner.buchberger", 0.0),
            "groebner.basis_elems": self.counts["groebner.basis_elems"],
            "groebner.intersect_self_s": self_s.get("groebner.intersect_ideals", 0.0)
            + self_s.get("groebner.intersect_many", 0.0),
            "groebner.is_groebner_self_s": self_s.get("groebner.is_groebner", 0.0),
            "groebner.fulton_generators_self_s": self_s.get(
                "groebner.fulton_generators", 0.0
            ),
            "cache.load_calls": load_calls,
            "cache.hit_ratio": self.counts["cache.hits"] / load_calls
            if load_calls
            else 0.0,
            "cache.load_self_s": self_s.get("cache.load_basis", 0.0),
            "cache.store_self_s": self_s.get("cache.store_basis", 0.0),
            "rings.parse_poly_calls": calls.get("rings.parse_poly", 0),
            "rings.parse_poly_self_s": self_s.get("rings.parse_poly", 0.0),
            "rings.exact_divide_calls": calls.get("rings.exact_divide", 0),
            "rings.exact_divide_self_s": self_s.get("rings.exact_divide", 0.0),
            "rings.map_variables_self_s": self_s.get("rings.map_variables", 0.0),
            "schubert.schubert_poly_self_s": self_s.get("schubert.schubert_poly", 0.0),
            "schubert.grothendieck_poly_self_s": self_s.get(
                "schubert.grothendieck_poly", 0.0
            ),
            "schubert.bpd_schubert_poly_self_s": self_s.get(
                "schubert.bpd_schubert_poly", 0.0
            ),
            "monomial.multidegree_self_s": self_s.get("monomial.multidegree", 0.0),
            "monomial.k_polynomial_self_s": self_s.get("monomial.k_polynomial", 0.0),
            "monomial.minimal_primes_self_s": self_s.get(
                "monomial.minimal_primes", 0.0
            ),
            "monomial.irreducible_components_self_s": self_s.get(
                "monomial.irreducible_components", 0.0
            ),
            "monomial.multiplicity_at_self_s": self_s.get(
                "monomial.multiplicity_at", 0.0
            ),
            "monomial.associated_primes_self_s": self_s.get(
                "monomial.associated_primes", 0.0
            ),
            "bpd.enumerate_calls": calls.get("bpd.enumerate_bpds", 0),
            "bpd.tilings": self.counts["bpd.tilings"],
            "bpd.enumerate_self_s": self_s.get("bpd.enumerate_bpds", 0.0),
            "asm.perm_set_self_s": self_s.get("asm.perm_set", 0.0),
            "asm.join_self_s": self_s.get("asm.join", 0.0),
            "transition.cases": sum(
                n for k, n in calls.items() if k.startswith("transition.verify_")
            ),
            "cli.main_self_s": self_s.get("cli.main", 0.0),
            "bench.self_s": self_s.get(ROOT, 0.0),
            "trace.spans": sum(calls.values()),
            "trace.wall_s": wall_s,
            "trace.self_sum_ratio": sum(self_s.values()) / wall_s if wall_s else 0.0,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        values.update(extra)
        return values
