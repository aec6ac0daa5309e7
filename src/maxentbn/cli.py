"""Command-line front end, and every text format of a result.

Verbs: validate, check, decompose, dsep, solve, query, bench.
Exit codes: 0 success, 1 detected inconsistency or non-convergence,
2 usage or parse errors.  The library returns data; the `format_*`
functions here write it as the verbs print it.
"""

from __future__ import annotations

import argparse
import sys

from . import consistency, dist, engine, graphops, mce, model, options


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str) -> model.Model:
    return model.parse_model(_read(path))


def _names(spec: str | None) -> list[str]:
    if not spec:
        return []
    return [p.strip() for p in spec.split(",") if p.strip()]


def _literals(spec: str | None) -> list[model.Literal]:
    return [model.Literal(p[1:], False) if p.startswith("~") else model.Literal(p, True)
            for p in _names(spec)]


def _decompose(args, m: model.Model | None = None) -> graphops.Decomposition:
    """The decomposition --fill and --seed choose: of model `m`, or, with
    none, of the graph file the model argument names.  The input is read
    first, so a missing or malformed one is reported before a bad seed."""
    g = graphops.parse_graph_text(_read(args.model)).as_neighbor_graph() if m is None else None
    seed = {} if args.seed is None else {"seed": args.seed}
    opts = graphops.AnnealOptions(**seed) if args.fill == "anneal" else None
    if g is None:
        return graphops.decompose(m, args.fill, opts)
    return graphops.fill_in_anneal(g, opts) if opts else graphops.fill_in_greedy(g)


def _solver_opts(args) -> options.SolverOptions:
    return options.SolverOptions(
        tolerance=args.tol,
        max_iterations=getattr(args, "max_iterations", options.SolverOptions.max_iterations),
        max_cycles=args.max_cycles,
        schedule=args.schedule)


def _state_row(table: dist.JointTable, s: int, sep: str) -> str:
    """State `s` of `table`: its bits, `sep`, then its probability."""
    return f"{s:0{len(table.scope)}b}{sep}{table.probs[s]:.6f}"


def _clique_label(clique) -> str:
    """`{A,B}`: a clique's names, sorted."""
    return "{" + ",".join(sorted(clique)) + "}"


def format_table(table: dist.JointTable, fmt: str = "text") -> str:
    """A `scope` header, then one `<bits> <probability>` row per state; in
    `tsv`, each row is the scope, the bits and the probability, tab-separated."""
    scope = " ".join(table.scope)
    if fmt == "tsv":
        lines = [f"{scope}\t" + _state_row(table, s, "\t") for s in range(table.size)]
    else:
        lines = [f"scope {scope}"] + [_state_row(table, s, " ") for s in range(table.size)]
    return "\n".join(lines) + "\n"


def format_trace(trace: mce.UpdateTrace) -> str:
    """One `<cycle> <constraint> <residual before>` line per update, tab-separated."""
    lines = []
    for e in trace.events:
        r = "undefined" if e.residual_before is None else f"{e.residual_before:.6g}"
        lines.append(f"{e.cycle}\t{e.constraint}\t{r}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_decomposition(d: graphops.Decomposition) -> str:
    fill = sorted(tuple(sorted(e)) for e in d.fill_in)
    lines = ["fill-in: " + (", ".join("(%s,%s)" % e for e in fill) if fill else "none"),
             "cliques: " + "; ".join(map(_clique_label, d.cliques))]
    rip_bits = [_clique_label(s) + ("" if a is None else f"<-{a}")
                for s, a in zip(d.rip.order, d.rip.anchors)]
    lines.append("rip order: " + " ".join(rip_bits))
    lines.append(f"cost: {d.cost}")
    return "\n".join(lines) + "\n"


def format_report(report: consistency.ConsistencyReport, m: model.Model,
                  show_witnesses: bool = False) -> str:
    lines = ["consistent" if report.consistent else "inconsistent"]
    for clique, _ in report.witnesses:
        scope = ",".join(m.ordered_scope(clique))
        count = sum(1 for c in m.constraints if c.scope <= clique)
        lines.append(f"clique {{{scope}}}: {count} constraints")
    if report.culprit is not None:
        # a clique that fails alone is a culprit pair of itself
        lines.append("culprit: " + " vs ".join(map(_clique_label, dict.fromkeys(report.culprit))))
    if report.note:
        lines.append(f"note: {report.note}")
    if show_witnesses:
        lines += [format_table(table).rstrip("\n") for _, table in report.witnesses]
    return "\n".join(lines) + "\n"


def format_bench(b: engine.BenchReport) -> str:
    return (f"tolerance: {b.tolerance:g}\n"
            f"dual solve: {b.dual_seconds * 1e3:.3f} ms\n"
            f"decomposed successive: {b.successive_seconds * 1e3:.3f} ms\n"
            f"speedup: {b.speedup:.2f}x\n"
            f"max marginal deviation: {b.max_marginal_deviation:.2e}\n")


def _cmd_validate(args) -> int:
    m = _load_model(args.model)
    for w in model.validate_scope_rule(m):
        print(f"warning: {w}")
    print(f"ok: {len(m.names)} variables, {len(m.constraints)} constraints")
    return 0


def _cmd_check(args) -> int:
    m = _load_model(args.model)
    if args.local:
        report = consistency.local_check(m, _decompose(args, m))
    else:
        report = consistency.global_consistent(m)
    print(format_report(report, m, show_witnesses=args.witness), end="")
    return 0 if report.consistent else 1


def _cmd_decompose(args) -> int:
    d = _decompose(args, None if args.graph else _load_model(args.model))
    print(format_decomposition(d), end="")
    return 0


def _cmd_dsep(args) -> int:
    given = _names(args.given)
    if args.given is not None and not given:
        raise ValueError(f"--given {args.given!r} names no variable")
    m = _load_model(args.model)
    net = model.build_network(m)
    sep = graphops.d_separated(net, args.x, args.y, given)
    print("separated" if sep else "not separated")
    return 0


def _cmd_solve(args) -> int:
    m = _load_model(args.model)
    opts = _solver_opts(args)
    if args.method == "dual":
        table = mce.mce_dual_solve(dist.uniform(m.names), m.constraints, opts)
        print(format_table(table, args.format), end="")
        print("converged: yes")
        return 0
    if args.method == "successive":
        table, trace = mce.successive_solve(dist.uniform(m.names), m.constraints, opts)
        print(format_table(table, args.format), end="")
        print(f"converged: {'yes' if trace.converged else 'no'} "
              f"({trace.cycles} cycles, {len(trace.events)} updates)")
        if args.trace:
            print(format_trace(trace), end="")
        return 0 if trace.converged else 1
    report = engine.solve_decomposed(m, _decompose(args, m), opts, record=args.trace)
    for state in report.cliques:
        if args.format == "text":
            print("clique " + ",".join(state.scope))
        print(format_table(state.table, args.format), end="")
    print(_outcome(report))
    if report.error:
        return 1
    if args.trace:
        print(format_trace(report.trace), end="")
    return 0 if report.converged else 1


def _outcome(report: engine.SolveReport) -> str:
    """A decomposed solve's closing line: its error, or its convergence."""
    if report.error:
        return f"error: {report.error}"
    return (f"converged: {'yes' if report.converged else 'no'} ({report.cycles} cycles, "
            f"max residual {max(report.final_residuals, default=0.0):.3g})")


def _cmd_query(args) -> int:
    event = _literals(args.event)
    if not event:
        raise ValueError(f"--event {args.event!r} names no literal")
    given = _literals(args.given)
    if args.given is not None and not given:
        raise ValueError(f"--given {args.given!r} names no literal")
    m = _load_model(args.model)
    report = engine.solve_decomposed(m, _decompose(args, m), _solver_opts(args), record=False)
    if not report.converged:
        print(f"error: {report.error or 'solve did not converge'}", file=sys.stderr)
        return 1
    p = engine.query(report, event, given)
    ev = ",".join(str(l) for l in event)
    if given:
        gv = ",".join(str(l) for l in given)
        print(f"P({ev}|{gv}) = {p:.6f}")
    else:
        print(f"P({ev}) = {p:.6f}")
    return 0


def _cmd_bench(args) -> int:
    m = _load_model(args.model)
    timing, report, _ = engine.bench(m, _decompose(args, m),
                                     options.SolverOptions(tolerance=args.tol))
    if not report.converged:  # a speedup to an unfinished solve means nothing
        print(_outcome(report))
        return 1
    print(format_bench(timing), end="")
    return 0


# Flags some mode leaves unread parse to None when absent, so that a given
# one can be refused.  Their defaults, but --seed's, which `_decompose`
# leaves to AnnealOptions, so importing this module executes no graphops.
_DEFAULTS = {"trace": False, "schedule": options.SolverOptions.schedule, "fill": "greedy",
             "max_cycles": options.SolverOptions.max_cycles,
             "max_iterations": options.SolverOptions.max_iterations}
_UNREAD = {"solve --method dual": ("trace", "schedule", "max_cycles", "fill", "seed"),
           "solve --method successive": ("max_iterations", "fill", "seed"),
           "solve --method decomposed": ("max_iterations",),
           "check without --local": ("fill", "seed"),
           "greedy fill-in": ("seed",)}


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        """Parse, refuse the flags the chosen mode does not read, then fill
        in the defaults of those left unset."""
        ns = super().parse_args(args, namespace)
        mode = (f"solve --method {ns.method}" if ns.verb == "solve" else
                "check without --local" if ns.verb == "check" and not ns.local else "")
        search = getattr(ns, "fill", None)
        for m in (mode, "greedy fill-in" if search in (None, "greedy") else ""):
            given = [f for f in _UNREAD.get(m, ()) if getattr(ns, f, None) is not None]
            if given:
                self.error(f"{m} does not read --{', --'.join(given).replace('_', '-')}")
        vars(ns).update((f, v) for f, v in _DEFAULTS.items() if getattr(ns, f, v) is None)
        return ns


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxentbn",
        description="Max-entropy distributions for constraint networks with "
                    "directed cycles: solving, decomposition, consistency "
                    "checking, and separation queries.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-cycles", type=int, default=None, dest="max_cycles")
        p.add_argument("--schedule", default=None,
                       choices=[options.SCHEDULE_GRADIENT, options.SCHEDULE_ROUND_ROBIN])

    def add_fill_flags(p):
        p.add_argument("--fill", choices=["greedy", "anneal"], default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("validate", help="parse a model and report scope-rule warnings")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="constraint-consistency check")
    p.add_argument("model")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--global", dest="local", action="store_false", default=False,
                      help="full state-space check (default)")
    mode.add_argument("--local", dest="local", action="store_true",
                      help="clique-local check over a decomposition")
    add_fill_flags(p)
    p.add_argument("--witness", action="store_true", help="print witness tables")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="fill-in, cliques, and RIP order")
    p.add_argument("model")
    add_fill_flags(p)
    p.add_argument("--graph", action="store_true",
                   help="input is a graph file (nodes/edge lines), not a model")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("dsep", help="d-separation read off the network's graph, not the solution")
    p.add_argument("model")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("solve", help="compute the max-entropy distribution")
    p.add_argument("model")
    p.add_argument("--method", choices=["dual", "successive", "decomposed"],
                   default="decomposed")
    add_fill_flags(p)
    p.add_argument("--trace", action="store_true", default=None)
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.add_argument("--max-iterations", type=int, default=None, dest="max_iterations",
                   help="dual optimizer iterations (--method dual)")
    add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("query", help="probability query against the solved model")
    p.add_argument("model")
    p.add_argument("--event", required=True, help="comma-separated literals, e.g. A,~B")
    p.add_argument("--given")
    add_fill_flags(p)
    add_solver_flags(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="time the dual solve against decomposed updating")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=options.DEFAULT_SUCCESSIVE_TOL)
    add_fill_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except model.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (options.ConvergenceError, options.UnreachableConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
