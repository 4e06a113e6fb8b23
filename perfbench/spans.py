"""Spans around the calls into each module's public functions.

The tracer replaces each traced function, wherever a kspoly module binds
it, with a wrapper that records a span: name, start, end and parent.
Calls made through those bindings, from the benchmark, the CLI or one
kspoly function to another, all nest.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.

Counts come from the traced calls' inputs and outputs only, so they depend
on no hardware.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from math import comb
from time import perf_counter_ns

import harness  # noqa: F401  (puts src/ on sys.path)


def _arg(bound, name):
    return bound.arguments[name]


def _enumeration_candidates(b, out):
    k = _arg(b, "spec").k
    return {"gf2.enumeration_candidates":
            sum(comb(k, t) for t in range(_arg(b, "max_weight") + 1))}


# span name -> (module, functions, count hook).  A hook maps the bound
# arguments and the return value to count increments.
LAYERS = {
    "datasets.load_polytope": ("datasets", ["load_polytope"], None),
    "raysystem.build_basis_table": (
        "raysystem", ["build_basis_table"],
        lambda b, out: {"raysystem.bases_built": len(out.bases)}),
    "raysystem.build_profile_matrix": ("raysystem", ["build_profile_matrix"],
                                       None),
    "raysystem.symbol_from_word": ("raysystem", ["symbol_from_word"], None),
    "raysystem.ray_basis_symbol": ("raysystem", ["ray_basis_symbol"], None),
    "gf2.gf2_nullspace": ("gf2", ["gf2_nullspace"], None),
    "gf2.dual_weight_distribution": (
        "gf2", ["dual_weight_distribution"],
        lambda b, out: {"gf2.dual_codewords": out.total()}),
    "gf2.macwilliams_transform": (
        "gf2", ["macwilliams_transform"],
        lambda b, out: {"gf2.krawtchouk_kernels":
                        (_arg(b, "n") + 1) * len(_arg(b, "dual").counts)}),
    "gf2.is_minimal_word": ("gf2", ["is_minimal_word"], None),
    "gf2.enumerate_words": ("gf2", ["enumerate_words"],
                            _enumeration_candidates),
    "contextuality.find_ks_assignment": (
        "contextuality", ["find_ks_assignment"],
        lambda b, out: {"contextuality.search_bases": len(_arg(b, "bases"))}),
    "contextuality.incidence_nullspace_proofs": (
        "contextuality", ["incidence_nullspace_proofs"],
        lambda b, out: {"contextuality.incidence_span": 1 << out.nullity,
                        "contextuality.sub_proofs": len(out.proofs)}),
    "contextuality.classify_decomposition": (
        "contextuality", ["classify_decomposition"], None),
    "contextuality.verify_parity_proof": (
        "contextuality", ["verify_parity_proof"], None),
    "geometry.rayset": ("geometry", ["icosian_600cell", "build_120cell_rays",
                                     "e8_rays"], None),
    "geometry.orthogonality_graph": (
        "geometry", ["orthogonality_graph"],
        lambda b, out: {"geometry.dot_products": out.n * (out.n - 1) // 2,
                        "geometry.edges": out.n_edges}),
    "geometry.enumerate_bases": (
        "geometry", ["enumerate_bases"],
        lambda b, out: {"geometry.cliques": len(out)}),
    "geometry.saturated": ("geometry", ["saturated"], None),
    "geometry.coxeter_projection": ("geometry", ["coxeter_projection"], None),
    "geometry.pentadecagon_classes": ("geometry", ["pentadecagon_classes"],
                                      None),
    "geometry.match_labeling": ("geometry", ["match_labeling"], None),
    "geometry.rigidity_demo": ("geometry", ["rigidity_demo"], None),
    "cli.main": ("cli", ["main"], None),
}

# find_ks_assignment spans are split by outcome: an assignment found, or
# none (refuted or out of budget)
SEARCH = "contextuality.find_ks_assignment"
SPAN_NAMES = sorted(set(LAYERS) - {SEARCH}
                    | {SEARCH + ".refute", SEARCH + ".assign"})
COUNT_NAMES = sorted(["raysystem.bases_built", "gf2.dual_codewords",
                      "gf2.krawtchouk_kernels", "gf2.enumeration_candidates",
                      "contextuality.search_bases",
                      "contextuality.budget_exhausted",
                      "contextuality.incidence_span",
                      "contextuality.sub_proofs", "geometry.dot_products",
                      "geometry.edges", "geometry.cliques",
                      "cli.output_bytes"])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)
        from kspoly.contextuality import SearchBudgetExceeded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except SearchBudgetExceeded:
                span[0] = SEARCH + ".refute"
                self.counts["contextuality.budget_exhausted"] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                self._open.pop()
            if name == SEARCH:
                span[0] = SEARCH + (".refute" if out is None else ".assign")
            if hook is not None:
                self.counts.update(hook(signature.bind(*args, **kwargs), out))
            return out

        return traced

    def install(self) -> None:
        import kspoly.cli  # noqa: F401  (loads every kspoly module)

        modules = [m for n, m in sys.modules.items()
                   if n == "kspoly" or n.startswith("kspoly.")]
        for name, (module, functions, hook) in LAYERS.items():
            for fn_name in functions:
                fn = getattr(sys.modules[f"kspoly.{module}"], fn_name)
                traced = self._wrap(name, fn, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
                            self._saved.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def self_ns(self, first: int = 0, last: int | None = None) -> Counter:
        """Self time by span name over spans[first:last]."""
        spans = self.spans[first:last]
        child_ns = Counter()
        for name, start, end, parent in spans:
            if parent >= first:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent) in enumerate(spans, first):
            out[name] += end - start - child_ns[i]
        return out
