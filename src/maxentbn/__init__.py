"""Max-entropy and minimum-cross-entropy distributions for constraint
networks with directed cycles.

The package parses constraint files over binary variables, derives the
(possibly cyclic) directed network and its undirected neighbor graph,
decomposes the neighbor graph into an acyclic hypergraph of cliques,
checks constraint consistency globally or clique-locally, and computes
the constrained max-entropy distribution either exactly (convex dual) or
by successive single-constraint updating, full-joint or decomposed.
"""

from .model import (BeliefNetwork, ConditionalConstraint, Constraint,
                    ConstraintSet, Literal, MarginalConstraint, Model,
                    NeighborGraph, ParseError, build_network, neighbor_graph,
                    parse_model, serialize_model, validate_scope_rule)
from .dist import (JointTable, ResidualEntry, ResidualReport, check_ci,
                   check_mrf, conditional, marginalize, probability,
                   residuals, serialize_table, uniform)
from .mce import (ConvergenceError, SolverOptions, UnreachableConstraintError,
                  UpdateTrace, conditional_update, mce_dual_solve,
                  successive_solve)
from .graphops import (AnnealOptions, Decomposition, Hypergraph, RipOrder,
                       d_separated, decompose, fill_in_anneal, fill_in_greedy,
                       graham_acyclic, maximal_cliques, parse_graph_text,
                       rip_order)
from .consistency import (ConsistencyReport, LinearSystem, global_consistent,
                          local_check, to_linear)
from .engine import BenchReport, SolveReport, bench, query, solve_decomposed

__version__ = "0.1.0"
