"""The three workloads as fixed lists of operations, each with its check.

An operation runs the program on inputs parsed during set-up and returns
the program's own objects; `extract` turns those into plain data and
`check` compares that data with the oracles.  Both run outside the timed
interval.

The lists are shaped for a steady median.  Most operations of a round
take about the same time (the middle group), and as many take clearly
less as take clearly more, so the median of a run is the median of the
middle group's samples over all rounds, not the time of whichever
operation happens to sit in the middle.  Calls of a few milliseconds are
batched into one operation, and operations whose time depends on the
seed stay out of the middle group.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gen
import oracles

SOLVE_TOL = 1e-4
# Every solve in these lists converges well inside this cap; the default
# cap of 100 cycles is too low from ring-10 up.
MAX_CYCLES = 5000
DUAL_RESIDUAL = 1e-7

# Fields are fixed per (generator, size) family; the seed flips
# polarities (see gen.py).  Families are chosen so that every decomposed
# solve takes about 1 s: one cycle costs about n^2, so the cycles run from
# 64 on ring-16 to 266 on ring-8.  Sizes without an entry use family 0; a
# spec may name its family as a third element.
FAMILY = {("ring", 9): 3, ("ring", 10): 6, ("ring", 12): 7, ("ring", 14): 6,
          ("ring", 16): 32, ("grid", 3): 3}

# One round of each workload.  An entry is (verb, input, *arguments); a
# list of entries is one batched operation, timed as a whole.  Rings have
# 5-variable cliques on long join trees; grids have 7-variable cliques
# holding 16 or more constraints.  Times are on a 2-vCPU x86 VM.
ROUNDS = {
    # every solve takes about 1 s
    "decomposed-solve": [("solve", ("ring", n)) for n in (8, 9, 10, 12, 14, 16)]
                        + [("solve", ("grid", 3))],
    "full-joint": [
        # below the middle
        [("global", ("fig21",), True), ("global", ("mining",), True),
         ("global", ("inconsistent-quad",), False), ("global", ("contradiction",), False),
         ("global", ("contra", 8), False)],
        [("dual", ("fig21",)), ("dual", ("mining",)), ("global", ("ring", 8), True)],
        [("successive", ("fig21",)), ("successive", ("mining",))],
        # the middle, about 0.2 s each
        ("dual", ("ring", 10)),
        ("dual", ("grid", 3)),
        ("global", ("ring", 10), True),
        [("dual", ("ring", 6)), ("dual", ("ring", 8))],
        [("global", ("grid", 3), True), ("global", ("contra", 10), False)],
        # above; successive_solve stops at 6 variables, since ring-8 takes 11 s
        ("dual", ("ring", 12)),
        ("successive", ("ring", 6)),
        ("global", ("ring", 12), True),
    ],
    "structure": [
        # below the middle
        [("local", ("contra", 10), False), ("local", ("contra", 14), False)],
        [("dsep", 4), ("dsep", 5), ("dsep", 6)],
        # the middle, about 0.25 s each
        [("decompose", ("ring", 18)), ("local", ("ring", 10), True)],
        ("local", ("grid", 4), True),
        [("local", ("ring", 14, 0), True), ("local", ("ring", 14, 1), True),
         ("decompose", ("ring", 16))],
        [("local", ("ring", 14, 2), True), ("local", ("grid", 3), True),
         ("decompose", ("grid", 5)), ("decompose", ("grid", 6))],
        # above.  Separated d-separation queries enumerate every simple
        # path, whose count grows about fourfold per column, and the
        # direction choices of two-way arcs on each path vary with the
        # drawn orientation: 3 x 8 takes 0.08-0.5 s by seed, and at 3 x 9
        # one seed took 0.7 s and another 4.9 s, so the list stops at 3 x 8.
        [("decompose", ("ring", 20)), ("dsep", 7), ("dsep", 8)],
        [("decompose", ("ring", 21)), ("anneal", ("sixring",), 3), ("anneal", ("ring", 6), 1)],
    ],
}

WORKLOADS = tuple(ROUNDS)


@dataclass
class Op:
    name: str
    inputs: list[tuple[str, str]]   # (kind, text); kind "model" or "graph" says how to parse
    run: Callable[[Any, dict], Any]  # (package, parsed inputs by text) -> output
    extract: Callable[[Any], Any]
    check: Callable[[Any], list[str]]


def _op(name: str, kind: str, text: str, run, extract, check) -> Op:
    """An operation on one input; `run` takes (package, parsed input)."""
    return Op(name, [(kind, text)], lambda mx, parsed: run(mx, parsed[text]), extract, check)


def _batch(ops: list[Op]) -> Op:
    """Several short operations timed as one."""
    return Op(" + ".join(op.name for op in ops), [i for op in ops for i in op.inputs],
              lambda mx, parsed: [op.run(mx, parsed) for op in ops],
              lambda outs: [op.extract(out) for op, out in zip(ops, outs)],
              lambda datas: [p for op, data in zip(ops, datas) for p in op.check(data)])




def _text(spec: tuple, seed: int, models_dir: str) -> str:
    make = {"ring": gen.ring_text, "grid": gen.grid_text, "contra": gen.contradiction_text}
    if spec[0] in make:
        family = spec[2] if len(spec) > 2 else FAMILY.get(
            ("ring" if spec[0] == "contra" else spec[0], spec[1]), 0)
        return make[spec[0]](spec[1], family, seed)
    ext = ".graph" if spec[0] == "sixring" else ".cn"
    with open(os.path.join(models_dir, spec[0] + ext)) as f:
        return f.read()


def _label(spec: tuple) -> str:
    if spec[0] in ("ring", "contra"):
        return f"{spec[0]}-{spec[1]}" + (f"/{spec[2]}" if len(spec) > 2 else "")
    if spec[0] == "grid":
        return f"grid-3x{spec[1]}"
    return spec[0]


class Reference:
    """Benchmark-side facts about one model text, computed on first use."""

    def __init__(self, text: str):
        self.names, self.cons = oracles.read_model(text)
        self._joint = None

    @property
    def joint(self) -> np.ndarray:
        if self._joint is None:
            self._joint = oracles.me_reference(self.names, self.cons)
        return self._joint


def _decomposition(d) -> dict:
    return {"fill": set(d.fill_in), "cliques": list(d.cliques), "order": list(d.rip.order),
            "anchors": list(d.rip.anchors), "cost": d.cost}


def _check_decomposition(ref: Reference, data: dict) -> list[str]:
    return oracles.check_decomposition(ref.names, ref.cons, data["fill"], data["cliques"],
                                       data["order"], data["anchors"], data["cost"])


def _check_tables_vs_reference(ref: Reference, tables, bound: float) -> list[str]:
    bad = []
    scope = tuple(ref.names)
    for sc, probs in tables:
        gap = float(np.abs(oracles.marginal(ref.joint, scope, sc) - probs).max())
        if gap > bound:
            bad.append(f"marginal on {sc} is {gap:.2e} from the reference joint")
    return bad


def _check_residuals(ref: Reference, tables, tol: float) -> list[str]:
    bad = []
    for c in ref.cons:
        homes = [(sc, p) for sc, p in tables if c.scope <= set(sc)]
        if not homes:
            bad.append(f"no table covers constraint scope {sorted(c.scope)}")
        for sc, p in homes:
            r = oracles.residual(p, sc, c)
            if r > tol:
                bad.append(f"residual {r:.2e} on {sc} exceeds {tol:g}")
    for sc, p in tables:
        if p.min() < 0.0 or abs(float(p.sum()) - 1.0) > 1e-9:
            bad.append(f"table on {sc} is not a distribution")
    return bad


# -- decomposed-solve -----------------------------------------------------

def _solve_op(spec, text) -> Op:
    ref = Reference(text)
    names = ref.names
    if spec[0] == "ring":
        pair, cond = (names[1], names[2]), (names[3], names[4])
    else:  # grid: G0_0-G1_0 and G1_1-G1_2 are neighbour pairs
        pair, cond = ("G0_0", "G1_0"), ("G1_1", "G1_2")
    queries = [([(names[0], True)], []), ([(pair[0], True), (pair[1], False)], []),
               ([(cond[0], True)], [(cond[1], True)]), ([(cond[1], False)], [(cond[0], False)])]

    def run(mx, model):
        d = mx.decompose(model, method="greedy")
        report = mx.solve_decomposed(model, d, mx.SolverOptions(tolerance=SOLVE_TOL,
                                                                max_cycles=MAX_CYCLES))
        answers = [mx.query(report, [mx.Literal(n, p) for n, p in ev],
                            [mx.Literal(n, p) for n, p in given]) for ev, given in queries]
        return d, report, answers

    def extract(out):
        d, report, answers = out
        data = _decomposition(d)
        data.update(tables=[(s.scope, np.array(s.table.probs)) for s in report.cliques],
                    edges=[(e.child, e.parent, e.separator) for e in report.join_edges],
                    converged=report.converged, error=report.error, answers=list(answers))
        return data

    def check(data):
        bad = _check_decomposition(ref, data)
        if not data["converged"] or data["error"]:
            bad.append(f"solve did not converge: {data['error']}")
        tables = data["tables"]
        bad += _check_residuals(ref, tables, SOLVE_TOL * (1 + 1e-9))
        for child, parent, sep in data["edges"]:
            (sc, pc), (sp, pp) = tables[child], tables[parent]
            gap = np.abs(oracles.marginal(pc, sc, sep) - oracles.marginal(pp, sp, sep)).max()
            if gap > oracles.SEPARATOR_TOL:
                bad.append(f"separator {sep} disagrees by {gap:.2e}")
        bad += _check_tables_vs_reference(ref, tables, oracles.ANSWER_BOUND)
        scope = tuple(names)
        for (ev, given), got in zip(queries, data["answers"]):
            want = oracles.event_probability(ref.joint, scope, ev, given)
            if abs(got - want) > oracles.ANSWER_BOUND:
                bad.append(f"query {ev}|{given} = {got:.6f}, reference {want:.6f}")
        return bad

    return _op(f"solve {_label(spec)}", "model", text, run, extract, check)


# -- full-joint ------------------------------------------------------------

def _joint_op(spec, text, method: str) -> Op:
    ref = Reference(text)

    def run(mx, model):
        prior = mx.uniform(model.names)
        if method == "dual":
            return mx.mce_dual_solve(prior, model.constraints)
        opts = mx.SolverOptions(tolerance=SOLVE_TOL, max_cycles=MAX_CYCLES)
        return mx.successive_solve(prior, model.constraints, opts)

    def extract(result):
        table, converged = (result, True) if method == "dual" else (result[0], result[1].converged)
        return {"tables": [(tuple(table.scope), np.array(table.probs))], "converged": converged}

    def check(data):
        bad = [] if data["converged"] else ["solve did not converge"]
        tol = DUAL_RESIDUAL if method == "dual" else SOLVE_TOL * (1 + 1e-9)
        bad += _check_residuals(ref, data["tables"], tol)
        bound = 1e-6 if method == "dual" else oracles.ANSWER_BOUND
        return bad + _check_tables_vs_reference(ref, data["tables"], bound)

    return _op(f"{method} {_label(spec)}", "model", text, run, extract, check)


def _verdict_check(ref: Reference, expected: bool, data: dict) -> list[str]:
    if data["verdict"] != expected:
        return [f"verdict {data['verdict']}, constructed {expected}"]
    bad = []
    if expected and not data["tables"]:
        bad.append("consistent verdict without a witness")
    for sc, p in data["tables"]:
        bad += oracles.check_witness(p, sc, ref.cons)
    return bad


def _global_op(spec, text, expected: bool) -> Op:
    ref = Reference(text)

    def extract(rep):
        return {"verdict": rep.consistent,
                "tables": [(w.scope, np.array(w.probs)) for _, w in rep.witnesses]}

    return _op(f"global {_label(spec)}", "model", text,
              lambda mx, model: mx.global_consistent(model), extract,
              lambda data: _verdict_check(ref, expected, data))


# -- structure -------------------------------------------------------------

def _decompose_op(spec, text) -> Op:
    ref = Reference(text)
    return _op(f"decompose {_label(spec)}", "model", text,
              lambda mx, model: mx.decompose(model, method="greedy"),
              _decomposition, lambda data: _check_decomposition(ref, data))


def _graph_edges(text: str) -> tuple[list[str], set[frozenset[str]]]:
    nodes, edges = [], set()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "nodes":
            nodes += parts[1:]
        elif parts and parts[0] == "edge":
            edges.add(frozenset(parts[1:]))
    return nodes, edges


def _anneal_op(spec, text, seed: int, restarts: int) -> Op:
    if spec[0] == "sixring":
        kind, (nodes, edges) = "graph", _graph_edges(text)
    else:
        kind, ref = "model", Reference(text)
        nodes, edges = ref.names, None

    def graph_of(mx, parsed):
        return parsed.as_neighbor_graph() if kind == "graph" else mx.neighbor_graph(parsed)

    def run(mx, parsed):
        g = graph_of(mx, parsed)
        return mx.fill_in_anneal(g, mx.AnnealOptions(seed=seed, restarts=restarts)), (mx, g)

    def extract(out):
        d, (mx, g) = out
        data = _decomposition(d)
        data["greedy_cost"] = mx.fill_in_greedy(g).cost
        return data

    def check(data):
        cons = [] if kind == "graph" else ref.cons
        bad = oracles.check_decomposition(nodes, cons, data["fill"], data["cliques"],
                                          data["order"], data["anchors"], data["cost"], edges)
        if data["cost"] > data["greedy_cost"]:
            bad.append(f"anneal cost {data['cost']} above greedy {data['greedy_cost']}")
        return bad

    return _op(f"anneal {_label(spec)}", kind, text, run, extract, check)


def _local_op(spec, text, expected: bool) -> Op:
    ref = Reference(text)

    def run(mx, model):
        d = mx.decompose(model, method="greedy")
        return d, mx.local_check(model, d)

    def extract(out):
        d, rep = out
        data = _decomposition(d)
        data.update(verdict=rep.consistent,
                    tables=[(w.scope, np.array(w.probs)) for _, w in rep.witnesses])
        return data

    def check(data):
        bad = _check_decomposition(ref, data) + _verdict_check(ref, expected, data)
        tables = {frozenset(sc): (sc, p) for sc, p in data["tables"]}
        if data["verdict"] and set(tables) != set(data["order"]):
            bad.append("witnesses do not match the cliques")
            return bad
        for i in range(1, len(data["order"]) if data["verdict"] else 0):
            (sc, pc), (sp, pp) = tables[data["order"][i]], tables[data["order"][data["anchors"][i]]]
            sep = tuple(n for n in sc if n in sp)
            gap = np.abs(oracles.marginal(pc, sc, sep) - oracles.marginal(pp, sp, sep)).max()
            if gap > oracles.WITNESS_TOL:
                bad.append(f"witnesses disagree on {sep} by {gap:.2e}")
        return bad

    return _op(f"local {_label(spec)}", "model", text, run, extract, check)


def _dsep_op(height: int, seed: int) -> Op:
    """Queries from the middle of the first column to the middle of the
    last, given nothing, one cut column, part of one, or two columns."""
    text = gen.dsep_grid_text(height, seed)
    names, cons = oracles.read_model(text)
    arcs = {(p, c.target[0]) for c in cons for p, _ in c.cond}
    x, y, mid = "G1_0", f"G1_{height - 1}", height // 2
    column = [f"G{r}_{mid}" for r in range(3)]
    queries = [(x, y, ()), (x, y, tuple(column)), (x, y, tuple(column[:2])),
               (x, y, tuple(column + [f"G{r}_{mid - 1}" for r in range(3)]))]

    def run(mx, model):
        net = mx.build_network(model)
        return [mx.d_separated(net, a, b, z) for a, b, z in queries]

    def check(data):
        bad = []
        for (a, b, z), got in zip(queries, data["verdicts"]):
            if got != oracles.moral_separated(names, arcs, a, b, z):
                bad.append(f"d_separated({a}, {b}, {z}) = {got}, moral graph says otherwise")
        return bad

    return _op(f"dsep grid-3x{height}", "model", text, run,
              lambda verdicts: {"verdicts": list(verdicts)}, check)


def _make(entry: tuple, seed: int, models_dir: str) -> Op:
    verb, arg, *extra = entry
    if verb == "dsep":
        return _dsep_op(arg, seed)
    text = _text(arg, seed, models_dir)
    if verb == "solve":
        return _solve_op(arg, text)
    if verb in ("dual", "successive"):
        return _joint_op(arg, text, verb)
    if verb == "global":
        return _global_op(arg, text, *extra)
    if verb == "decompose":
        return _decompose_op(arg, text)
    if verb == "anneal":
        return _anneal_op(arg, text, seed, *extra)
    if verb == "local":
        return _local_op(arg, text, *extra)
    raise ValueError(f"unknown verb {verb!r}")


def build(workload: str, seed: int, models_dir: str) -> list[Op]:
    """One round of `workload` for `seed`; the first op is the warm-up."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    make = lambda e: _make(e, seed, models_dir)
    return [_batch([make(e) for e in entry]) if isinstance(entry, list) else make(entry)
            for entry in ROUNDS[workload]]


def corrupt(data):
    """Spoil one result (each part of a batch) in a way every check must
    notice."""
    if isinstance(data, list):
        return [corrupt(d) for d in data]
    if data.get("tables"):
        sc, p = data["tables"][0]
        p = p.copy()
        hi, lo = int(p.argmax()), int(p.argmin())
        p[hi] -= 0.02
        p[lo] += 0.02
        data["tables"][0] = (sc, p)
    if "verdict" in data:
        data["verdict"] = not data["verdict"]
    if "verdicts" in data:
        data["verdicts"][0] = not data["verdicts"][0]
    if "cost" in data:
        data["cost"] += 1
    return data
