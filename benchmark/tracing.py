"""Spans around the package's public functions, installed from outside.

`install` wraps each function in `WRAPPED` and rebinds the wrapper in
every loaded `maxentbn` module that binds the original, since modules
import each other's names directly (the package namespace, and for
example `graphops` binding `model.neighbor_graph`).  Calls to
`scipy.optimize.linprog` made from `maxentbn.consistency` get a span too.
Spans are kept in memory; `layer_metrics` reduces them when the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

WRAPPED = {
    "model": ("parse_model", "neighbor_graph", "build_network"),
    "graphops": ("parse_graph_text", "decompose", "fill_in_greedy", "fill_in_anneal", "maximal_cliques",
                 "rip_order", "d_separated"),
    "engine": ("solve_decomposed", "query"),
    "mce": ("mce_dual_solve", "successive_solve"),
    "dist": ("residuals",),
    "consistency": ("global_consistent", "local_check"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    op: str | None       # the benchmark operation that caused it
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self.op: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name
            if name == "engine.solve_decomposed" and not kwargs.get("record", True):
                label = "engine.solve_norecord"
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _annotate(span, kwargs, out)
            return out
        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        import scipy.optimize
        linprog = scipy.optimize.linprog
        wrapped_lp = self._wrap("consistency.lp", linprog)

        def lp_from_consistency(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == f"{package.__name__}.consistency":
                return wrapped_lp(*args, **kwargs)
            return linprog(*args, **kwargs)

        self._restore.append((scipy.optimize, "linprog", linprog))
        scipy.optimize.linprog = lp_from_consistency

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()


def _annotate(span: Span, kwargs, out) -> None:
    """Counts read off a call's arguments and result."""
    if span.name == "engine.solve_decomposed":
        span.info = {"cycles": out.cycles, "updates": len(out.trace.events)}
    elif span.name == "mce.successive_solve":
        span.info = {"updates": len(out[1].events)}
    elif span.name == "graphops.decompose":
        span.info = {"cost": out.cost}
    elif span.name == "consistency.lp":
        mats = [kwargs.get("A_eq"), kwargs.get("A_ub")]
        span.info = {"bytes": sum(getattr(a, "nbytes", 0) for a in mats)}


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], rounds: dict[str, range]) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one round of each workload, each read on the
    workload that exercises the layer; `rounds` gives each workload's
    slice of `spans`."""
    own = self_seconds(spans)

    def total(workloads, name, key=None):
        out = 0.0
        for w in workloads:
            for i in rounds[w]:
                if spans[i].name == name:
                    out += own[i] if key is None else spans[i].info.get(key, 1)
        return out

    def peak(workload, name, key):
        return max((spans[i].info[key] for i in rounds[workload] if spans[i].name == name),
                   default=0)

    every = list(rounds)
    ds, fj, st = ["decomposed-solve"], ["full-joint"], ["structure"]
    ms = lambda w, n: (total(w, n) * 1e3, "ms")
    solve_s = total(ds, "engine.solve_decomposed")
    updates = total(ds, "engine.solve_decomposed", "updates")
    return {
        "model.parse_ms": ((total(every, "model.parse_model")
                            + total(every, "graphops.parse_graph_text")) * 1e3, "ms"),
        "model.neighbor_graph_ms": ms(st, "model.neighbor_graph"),
        "graphops.fill_in_greedy_ms": ms(st, "graphops.fill_in_greedy"),
        "graphops.maximal_cliques_ms": ms(st, "graphops.maximal_cliques"),
        "graphops.rip_order_ms": ms(st, "graphops.rip_order"),
        "graphops.fill_in_anneal_ms": ms(st, "graphops.fill_in_anneal"),
        "graphops.d_separated_ms": ms(st, "graphops.d_separated"),
        "graphops.clique_states": (total(ds, "graphops.decompose", "cost"), "count"),
        "engine.solve_decomposed_ms": (solve_s * 1e3, "ms"),
        "engine.query_ms": ms(ds, "engine.query"),
        "engine.cycles": (total(ds, "engine.solve_decomposed", "cycles"), "count"),
        "engine.updates": (updates, "count"),
        "engine.updates_per_s": (updates / solve_s if solve_s else 0.0, "1/s"),
        "engine.solve_norecord_ms": ms(ds, "engine.solve_norecord"),
        "mce.dual_solve_ms": ms(fj, "mce.mce_dual_solve"),
        "mce.successive_solve_ms": ms(fj, "mce.successive_solve"),
        "mce.successive_updates": (total(fj, "mce.successive_solve", "updates"), "count"),
        "dist.residuals_ms": ms(fj, "dist.residuals"),
        "dist.residuals_calls": (total(fj, "dist.residuals", "calls"), "count"),
        "consistency.global_consistent_ms": ms(fj, "consistency.global_consistent"),
        "consistency.local_check_ms": ms(st, "consistency.local_check"),
        "consistency.lp_ms": ((total(fj, "consistency.lp") + total(st, "consistency.lp")) * 1e3,
                              "ms"),
        "consistency.lp_calls": (total(fj + st, "consistency.lp", "calls"), "count"),
        "consistency.lp_matrix_mb": (peak("full-joint", "consistency.lp", "bytes") / 1e6, "MB"),
    }
