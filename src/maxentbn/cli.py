"""Command-line front end.

Verbs: validate, check, decompose, dsep, solve, query, bench.
Exit codes: 0 success, 1 detected inconsistency or non-convergence,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import consistency, dist, engine, graphops, mce, model


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str) -> model.Model:
    return model.parse_model(_read(path))


def _literals(spec: str) -> list[model.Literal]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("~"):
            out.append(model.Literal(part[1:], False))
        else:
            out.append(model.Literal(part, True))
    return out


def _names(spec: str | None) -> list[str]:
    if not spec:
        return []
    return [p.strip() for p in spec.split(",") if p.strip()]


def _solver_opts(args) -> mce.SolverOptions:
    return mce.SolverOptions(
        tolerance=args.tol,
        max_iterations=getattr(args, "max_iterations", mce.SolverOptions.max_iterations),
        max_cycles=args.max_cycles,
        schedule=args.schedule)


def _print_table(table: dist.JointTable, fmt: str, label: str = "") -> None:
    if fmt == "tsv":
        scope = " ".join(table.scope)
        for s in range(table.size):
            bits = f"{s:0{len(table.scope)}b}"
            print(f"{scope}\t{bits}\t{table.probs[s]:.6f}")
    else:
        if label:
            print(label)
        print(dist.serialize_table(table), end="")


def _cmd_validate(args) -> int:
    m = _load_model(args.model)
    for w in model.validate_scope_rule(m):
        print(f"warning: {w}")
    print(f"ok: {len(m.variables)} variables, {len(m.constraints)} constraints")
    return 0


def _cmd_check(args) -> int:
    m = _load_model(args.model)
    if args.local:
        d = graphops.decompose(m, method=args.fill, opts=graphops.AnnealOptions(seed=args.seed))
        report = consistency.local_check(m, d)
    else:
        report = consistency.global_consistent(m)
    print(consistency.format_report(report, m, show_witnesses=args.witness), end="")
    return 0 if report.consistent else 1


def _cmd_decompose(args) -> int:
    if args.graph:
        g = graphops.parse_graph_text(_read(args.model)).as_neighbor_graph()
        if args.fill == "anneal":
            d = graphops.fill_in_anneal(g, graphops.AnnealOptions(seed=args.seed))
        else:
            d = graphops.fill_in_greedy(g)
    else:
        m = _load_model(args.model)
        d = graphops.decompose(m, method=args.fill, opts=graphops.AnnealOptions(seed=args.seed))
    print(graphops.format_decomposition(d), end="")
    return 0


def _cmd_dsep(args) -> int:
    m = _load_model(args.model)
    net = model.build_network(m)
    sep = graphops.d_separated(net, args.x, args.y, _names(args.given))
    print("separated" if sep else "not separated")
    return 0


def _cmd_solve(args) -> int:
    m = _load_model(args.model)
    opts = _solver_opts(args)
    if args.method == "dual":
        table = mce.mce_dual_solve(dist.uniform(m.names), m.constraints, opts)
        _print_table(table, args.format)
        print("converged: yes")
        return 0
    if args.method == "successive":
        table, trace = mce.successive_solve(dist.uniform(m.names), m.constraints, opts)
        _print_table(table, args.format)
        print(f"converged: {'yes' if trace.converged else 'no'} "
              f"({trace.cycles} cycles, {len(trace.events)} updates)")
        if args.trace:
            print(trace.to_tsv(), end="")
        return 0 if trace.converged else 1
    d = graphops.decompose(m, method=args.fill, opts=graphops.AnnealOptions(seed=args.seed))
    report = engine.solve_decomposed(m, d, opts)
    for state in report.cliques:
        _print_table(state.table, args.format, label="clique " + ",".join(state.scope))
    if report.error:
        print(f"error: {report.error}")
        return 1
    print(f"converged: {'yes' if report.converged else 'no'} "
          f"({report.cycles} cycles, max residual "
          f"{max(report.final_residuals, default=0.0):.3g})")
    if args.trace:
        print(report.trace.to_tsv(), end="")
    return 0 if report.converged else 1


def _cmd_query(args) -> int:
    m = _load_model(args.model)
    d = graphops.decompose(m, method=args.fill, opts=graphops.AnnealOptions(seed=args.seed))
    report = engine.solve_decomposed(m, d, _solver_opts(args))
    if not report.converged:
        print(f"error: {report.error or 'solve did not converge'}", file=sys.stderr)
        return 1
    event = _literals(args.event)
    given = _literals(args.given) if args.given else []
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
    d = graphops.decompose(m, method=args.fill, opts=graphops.AnnealOptions(seed=args.seed))
    report, _, _ = engine.bench(m, d, mce.SolverOptions(tolerance=args.tol))
    print(engine.format_bench(report), end="")
    return 0


# Flags some mode leaves unread parse to None when absent, so that a given
# one can be refused.  Their defaults; the fill-in search reads --seed only
# when annealing.
_DEFAULTS = {"trace": False, "schedule": mce.SCHEDULE_GRADIENT, "max_cycles": 1000,
             "max_iterations": 500, "fill": "greedy", "seed": 0}
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
        p.add_argument("--schedule", choices=[mce.SCHEDULE_GRADIENT, mce.SCHEDULE_ROUND_ROBIN],
                       default=None)

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
    p.add_argument("--fill", choices=["greedy", "anneal"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--witness", action="store_true", help="print witness tables")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="fill-in, cliques, and RIP order")
    p.add_argument("model")
    p.add_argument("--fill", choices=["greedy", "anneal"], default="greedy")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--graph", action="store_true",
                   help="input is a graph file (nodes/edge lines), not a model")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("dsep", help="generalized d-separation query")
    p.add_argument("model")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("solve", help="compute the max-entropy distribution")
    p.add_argument("model")
    p.add_argument("--method", choices=["dual", "successive", "decomposed"],
                   default="decomposed")
    p.add_argument("--fill", choices=["greedy", "anneal"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", action="store_true", default=None)
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.add_argument("--max-iterations", type=int, default=None, dest="max_iterations",
                   help="dual optimizer iterations (--method dual)")
    add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("query", help="probability query against the solved model")
    p.add_argument("model")
    p.add_argument("--event", required=True, help="comma-separated literals, e.g. A,~B")
    p.add_argument("--given", default="")
    p.add_argument("--fill", choices=["greedy", "anneal"], default="greedy")
    p.add_argument("--seed", type=int, default=None)
    add_solver_flags(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="time the dual solve against decomposed updating")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--fill", choices=["greedy", "anneal"], default="greedy")
    p.add_argument("--seed", type=int, default=None)
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
    except (mce.ConvergenceError, mce.UnreachableConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
