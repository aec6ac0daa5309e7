"""Max-entropy and minimum-cross-entropy distributions for constraint
networks with directed cycles.

The package parses constraint files over binary variables, derives the
(possibly cyclic) directed network and its undirected neighbor graph,
decomposes the neighbor graph into an acyclic hypergraph of cliques,
checks constraint consistency globally or clique-locally, and computes
the constrained max-entropy distribution either exactly (convex dual) or
by successive single-constraint updating, full-joint or decomposed.

Importing the package loads no numpy and executes only `model`, which
parses both text formats: a constraint file to a `Model`, a graph file
to a `NeighborGraph`.  `options`, `graphops`, `dist`, `mce`,
`consistency` and `engine` are in `sys.modules` from the start but run
their code on the first access to one of their attributes, through the
package or directly; `dist`, `mce`, `consistency` and `engine` import
numpy then.  The package resolves each exported name in its home module
when it is read.
"""

import importlib.util
import sys

from . import model  # what parsing reads, so imported at once

# every exported name, by the submodule it comes from
_EXPORTS = {
    "model": ("BeliefNetwork", "ConditionalConstraint", "Constraint", "Literal",
              "MarginalConstraint", "Model", "NeighborGraph", "ParseError", "build_network",
              "neighbor_graph", "parse_graph_text", "parse_model", "validate_scope_rule"),
    "options": ("ConvergenceError", "SolverOptions", "UnreachableConstraintError"),
    "graphops": ("AnnealOptions", "Decomposition", "RipOrder", "d_separated", "decompose",
                 "fill_in_anneal", "fill_in_greedy", "graham_acyclic", "maximal_cliques",
                 "rip_order"),
    "dist": ("JointTable", "ResidualEntry", "ResidualReport", "check_ci", "check_mrf",
             "marginalize", "probability", "residuals", "uniform"),
    "mce": ("UpdateTrace", "conditional_update", "mce_dual_solve", "successive_solve"),
    "consistency": ("ConsistencyReport", "LinearSystem", "UndecidedLPError", "global_consistent",
                    "local_check", "to_linear"),
    "engine": ("BenchReport", "SolveReport", "bench", "query", "solve_decomposed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _lazy_module(name: str):
    """Register submodule `name` in `sys.modules`, to be executed on its
    first attribute access (the `importlib.util.LazyLoader` recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


options, graphops, dist, mce, consistency, engine = map(
    _lazy_module, ("options", "graphops", "dist", "mce", "consistency", "engine"))


def __getattr__(name: str):
    # not bound here, so the package reads what the home module binds now
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
