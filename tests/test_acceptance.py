"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Every model here is small (at most 6 variables) and the whole
suite completes in seconds.
"""

import numpy as np
import pytest

import helpers
from maxentbn import (AnnealOptions, JointTable,
                      SolverOptions, bench, build_network, check_ci, check_mrf,
                      conditional_update, d_separated, decompose,
                      fill_in_anneal, fill_in_greedy, global_consistent,
                      graham_acyclic, local_check, marginalize, mce_dual_solve,
                      neighbor_graph, residuals, rip_order, solve_decomposed,
                      successive_solve, uniform)
from maxentbn.consistency import nonneg_feasible, rank_nontrivial, to_linear
from maxentbn.graphops import NeighborGraph
from maxentbn.mce import DualProblem, SCHEDULE_ROUND_ROBIN


def fs(*names):
    return frozenset(names)


def done(n, detail=""):
    print(f"criterion {n}: PASS" + (f" ({detail})" if detail else ""))


def test_c01_two_cycle_exact_solve():
    m = helpers.fig21()
    t = mce_dual_solve(uniform(("A", "B")), m.constraints)
    np.testing.assert_allclose(t.probs, [0.2808, 0.1836, 0.1071, 0.4285],
                               atol=1.5e-3)
    assert residuals(t, m.constraints).max_magnitude <= 1e-8
    assert abs(float(t.probs.sum()) - 1.0) <= 1e-9
    done(1)


def test_c02_two_cycle_successive_updating():
    m = helpers.fig21()
    two_each, trace = successive_solve(
        uniform(("A", "B")), m.constraints,
        SolverOptions(schedule=SCHEDULE_ROUND_ROBIN, max_cycles=2))
    assert len(trace.events) == 4  # two applications of each, mu=0.7 first
    assert [str(e.constraint) for e in trace.events] == [
        "P(A|B)=0.7", "P(B|A)=0.8", "P(A|B)=0.7", "P(B|A)=0.8"]
    np.testing.assert_allclose(two_each.probs, [0.2807, 0.1808, 0.1075, 0.4299],
                               atol=2e-3)
    exact = mce_dual_solve(uniform(("A", "B")), m.constraints)
    converged, trace = successive_solve(uniform(("A", "B")), m.constraints,
                                        SolverOptions(tolerance=1e-6))
    assert trace.converged
    np.testing.assert_allclose(converged.probs, exact.probs, atol=1e-4)
    done(2)


def test_c03_initial_dual_gradients():
    rep = residuals(uniform(("A", "B")), helpers.fig21().constraints)
    assert abs(rep.universal - 0.0) <= 1e-12
    assert abs(rep.entries[0].magnitude - 0.2) <= 1e-12
    assert abs(rep.entries[1].magnitude - 0.3) <= 1e-12
    done(3, "magnitudes (0, 0.2, 0.3)")


def test_c04_inconsistency_detection():
    m = helpers.quad()
    ls = to_linear(m.constraints, m.names)
    assert not rank_nontrivial(ls)          # rank test: only the zero solution
    assert nonneg_feasible(ls) is None      # feasibility test: no distribution
    assert not global_consistent(m).consistent
    done(4)


def test_c05_mining_decomposition():
    m = helpers.mining()
    g = neighbor_graph(m)
    assert g.edges == {fs("A", "C"), fs("A", "D"), fs("B", "C"),
                       fs("B", "D"), fs("C", "D")}
    d = decompose(m)
    assert d.fill_in == frozenset()
    assert d.cliques == (fs("A", "C", "D"), fs("B", "C", "D"))
    assert d.cost == 16
    done(5)


def test_c06_sixring_decomposition():
    nodes = tuple("ABCDEF")
    g = NeighborGraph(nodes, frozenset(frozenset(e) for e in helpers.SIXRING_EDGES))
    raw_cover = (fs("A", "C", "F"), fs("B", "D", "E"),
                 fs("C", "D"), fs("E", "F"))
    assert not graham_acyclic(raw_cover)
    accepted_optima = {frozenset({fs("D", "F")}), frozenset({fs("C", "E")})}
    greedy = fill_in_greedy(g)
    assert greedy.fill_in == frozenset({fs("D", "F")})  # the reference chord
    results = [greedy] + [fill_in_anneal(g, AnnealOptions(seed=s))
                          for s in (0, 1, 7)]
    for d in results:
        assert len(d.fill_in) == 1
        assert d.fill_in in accepted_optima
        assert len(d.cliques) == 4 and all(len(c) == 3 for c in d.cliques)
        assert d.cost == 32
        assert graham_acyclic(d.cliques)
    done(6)


def test_c07_local_consistency():
    m = helpers.mining()
    assert local_check(m, decompose(m)).consistent
    bad = helpers.contradiction()
    report = local_check(bad, decompose(bad))
    assert not report.consistent
    assert set(report.culprit) == {fs("A", "B"), fs("B", "C")}
    done(7)


def test_c08_decomposed_solve_mining():
    m = helpers.mining()
    d = decompose(m)
    report = solve_decomposed(m, d)
    assert report.converged and report.cycles >= 5
    acd, bcd = report.cliques[0].table, report.cliques[1].table
    np.testing.assert_allclose(acd.probs, helpers.MINING_ACD, atol=5e-3)
    np.testing.assert_allclose(bcd.probs, helpers.MINING_BCD, atol=5e-3)
    acd5, bcd5 = helpers.TABLE71[5]
    cut = solve_decomposed(m, d, SolverOptions(max_cycles=5))
    np.testing.assert_allclose(cut.cliques[0].table.probs, acd5, atol=7e-3)
    np.testing.assert_allclose(cut.cliques[1].table.probs, bcd5, atol=7e-3)
    cd0 = marginalize(acd, ("C", "D"))
    cd1 = marginalize(bcd, ("C", "D"))
    np.testing.assert_allclose(cd0.probs, cd1.probs, atol=1e-3)
    done(8, f"{report.cycles} cycles")


def test_c09_d_separation():
    net = build_network(helpers.mining())
    assert d_separated(net, "A", "B", {"C", "D"})
    assert not d_separated(net, "A", "C", set())
    assert not d_separated(net, "A", "B", {"C"})
    done(9)


def test_c10_mrf_and_ci_properties():
    m = helpers.mining()
    joint = mce_dual_solve(uniform(m.names), m.constraints,
                           SolverOptions(tolerance=1e-10))
    assert check_mrf(joint, neighbor_graph(m), tol=1e-6)
    assert check_ci(joint, "A", "B", ("C", "D"), tol=1e-6)
    done(10)


def test_c11_acyclicity_and_local_check_property_suite():
    rng = np.random.default_rng(1106)
    reducible = orderable = 0
    for _ in range(220):
        h = helpers.random_hypergraph(rng)
        a = graham_acyclic(h)
        b = rip_order(h) is not None
        assert a == b
        reducible += a
        orderable += not b
    assert reducible >= 40 and orderable >= 40  # both outcomes well represented

    verdicts = {True: 0, False: 0}
    for trial in range(110):
        m = helpers.random_model(rng)
        got = local_check(m, decompose(m)).consistent
        want = global_consistent(m).consistent
        assert got == want, f"model {trial}: local {got} vs global {want}"
        verdicts[want] += 1
    assert verdicts[True] >= 15 and verdicts[False] >= 15
    done(11, f"{reducible} acyclic hypergraphs; "
            f"{verdicts[True]} consistent / {verdicts[False]} inconsistent models")


def test_c12_oracle_equivalence():
    rng = np.random.default_rng(1207)
    opts = SolverOptions(tolerance=1e-11)
    for trial in range(100):
        k = int(rng.integers(2, 5))
        scope = tuple("WXYZ"[:k])
        prior = JointTable(scope, helpers.random_positive_table(rng, k))
        target = scope[rng.integers(k)]
        others = [v for v in scope if v != target]
        size = int(rng.integers(1, len(others) + 1))
        cond = ",".join(("" if rng.integers(2) else "~") + v
                        for v in rng.choice(others, size=size, replace=False))
        cc = helpers.cc(target, cond, float(rng.uniform(0.05, 0.95)))
        via_rule = conditional_update(prior, cc)
        via_dual = mce_dual_solve(prior, (cc,), opts)
        np.testing.assert_allclose(via_rule.probs, via_dual.probs, atol=1e-8,
                                   err_msg=f"trial {trial}: {cc}")

    m = helpers.mining()
    prob = DualProblem(uniform(m.names), m.constraints)
    for _ in range(10):
        lam = rng.normal(scale=0.5, size=len(m.constraints))
        g = prob.gradient(lam)
        fd = np.empty_like(g)
        h = 1e-6
        for i in range(len(lam)):
            e = np.zeros_like(lam)
            e[i] = h
            fd[i] = (prob.objective(lam + e) - prob.objective(lam - e)) / (2 * h)
        scale = max(1.0, float(np.abs(g).max()))
        np.testing.assert_allclose(g / scale, fd / scale, atol=1e-5)
    done(12)


def test_c13_benchmark_decomposed_vs_dual():
    m = helpers.mining()
    report, _, _ = bench(m, decompose(m), SolverOptions(tolerance=1e-4),
                         repeats=5)
    print(f"criterion 13: measured speedup {report.speedup:.2f}x "
          f"(dual {report.dual_seconds * 1e3:.2f} ms, "
          f"successive {report.successive_seconds * 1e3:.2f} ms)")
    assert report.speedup > 1.0
    done(13, f"speedup {report.speedup:.2f}x")
