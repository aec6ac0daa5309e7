import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import subset_marginal_update
from maxentbn import engine, mce
from maxentbn import (JointTable, Literal, SolverOptions, bench, check_ci,
                      check_mrf, decompose, fill_in_greedy, global_consistent, marginalize,
                      mce_dual_solve, neighbor_graph, query, solve_decomposed,
                      successive_solve, uniform)
from maxentbn.cli import format_trace
from maxentbn.dist import residuals
from maxentbn.engine import SOLVER_TABLE_VARS
from maxentbn.graphops import constraint_homes, merge_cliques
from maxentbn.mce import (SCHEDULE_ROUND_ROBIN, TraceEvent, UnreachableConstraintError,
                         UpdateLog, UpdateTrace, conditional_update)


def fs(*names):
    return frozenset(names)


def unreachable_model():
    return helpers.model_of(
        "ABC",
        helpers.cc("B", "A", 1.0), helpers.cc("B", "~A", 1.0),
        helpers.cc("C", "~B", 0.5), helpers.mc("~B", 0.0))


def zero_chain_model():
    """The chain A -> B -> ... -> I with P(A)=0.3, P(X|prev)=0.7 and
    P(X|~prev)=0.4, except P(E|D)=1: two solver tables, and the zero that
    P(E|D)=1 puts in them sends updates through the guarded Hugin pass."""
    names = "ABCDEFGHI"
    cons = [helpers.mc("A", 0.3)]
    for prev, x in zip(names, names[1:]):
        cons += [helpers.cc(x, prev, 1.0 if x == "E" else 0.7), helpers.cc(x, "~" + prev, 0.4)]
    return helpers.model_of(names, *cons)


class TestSubsetMarginalUpdate:
    def test_identity(self):
        rng = np.random.default_rng(51)
        t = JointTable(("B", "C", "D"), helpers.random_positive_table(rng, 3))
        out = subset_marginal_update(t, marginalize(t, ("C", "D")))
        np.testing.assert_allclose(out.probs, t.probs, atol=1e-12)

    def test_uniform_block_scaling(self):
        new = JointTable(("C", "D"), np.array([0.4, 0.3, 0.2, 0.1]))
        out = subset_marginal_update(uniform(("B", "C", "D")), new)
        np.testing.assert_allclose(
            out.probs, [0.2, 0.15, 0.1, 0.05, 0.2, 0.15, 0.1, 0.05], atol=1e-12)

    def test_reference_marginal_transfer(self):
        acd = JointTable(("A", "C", "D"), helpers.MINING_ACD)
        cd = marginalize(acd, ("C", "D"))
        out = subset_marginal_update(uniform(("B", "C", "D")), cd)
        np.testing.assert_allclose(marginalize(out, ("C", "D")).probs,
                                   [0.5341, 0.2788, 0.0714, 0.1157], atol=1e-12)

    def test_exact_marginal_after_update(self):
        rng = np.random.default_rng(52)
        t = JointTable(("A", "B", "C"), helpers.random_positive_table(rng, 3))
        new = JointTable(("C", "A"), helpers.random_positive_table(rng, 2))
        out = subset_marginal_update(t, new)
        np.testing.assert_allclose(marginalize(out, ("C", "A")).probs, new.probs,
                                   atol=1e-12)

    def test_unreachable(self):
        t = JointTable(("A", "B"), np.array([0.5, 0.5, 0.0, 0.0]))
        new = JointTable(("A",), np.array([0.2, 0.8]))
        with pytest.raises(UnreachableConstraintError):
            subset_marginal_update(t, new)


class TestSolveDecomposed:
    def setup_method(self):
        self.model = helpers.mining()
        self.d = decompose(self.model)

    def test_mining_matches_exact_tables(self):
        report = solve_decomposed(self.model, self.d)
        assert report.converged
        assert report.cycles >= 5
        acd, bcd = report.cliques[0].table, report.cliques[1].table
        assert acd.scope == ("A", "C", "D") and bcd.scope == ("B", "C", "D")
        np.testing.assert_allclose(acd.probs, helpers.MINING_ACD, atol=5e-3)
        np.testing.assert_allclose(bcd.probs, helpers.MINING_BCD, atol=5e-3)

    def test_mining_cycle5_snapshot_near_reference_trajectory(self):
        cut = solve_decomposed(self.model, self.d, SolverOptions(max_cycles=5))
        acd5, bcd5 = helpers.TABLE71[5]
        np.testing.assert_allclose(cut.cliques[0].table.probs, acd5, atol=7e-3)
        np.testing.assert_allclose(cut.cliques[1].table.probs, bcd5, atol=7e-3)

    # Max abs deviations from TABLE71: round-robin 1.56e-4, 6.02e-3, 1.80e-3
    # and 3.32e-3 at cycles 2-5; gradient 6.09e-3, 5.03e-3, 1.17e-2 and
    # 4.24e-3, so the default schedule leaves the paper's trajectory at
    # cycle 4 and that cycle is not pinned for it; its cycle 5 is the test
    # above.
    @pytest.mark.parametrize("schedule,cycle,atol", [
        (SCHEDULE_ROUND_ROBIN, 2, 5e-4), (SCHEDULE_ROUND_ROBIN, 3, 7e-3),
        (SCHEDULE_ROUND_ROBIN, 4, 7e-3), (SCHEDULE_ROUND_ROBIN, 5, 7e-3),
        ("gradient", 2, 7e-3), ("gradient", 3, 7e-3)])
    def test_mining_cut_near_reference_trajectory(self, schedule, cycle, atol):
        opts = SolverOptions(max_cycles=cycle, schedule=schedule)
        cut = solve_decomposed(self.model, self.d, opts)
        acd, bcd = helpers.TABLE71[cycle]
        np.testing.assert_allclose(cut.cliques[0].table.probs, acd, atol=atol)
        np.testing.assert_allclose(cut.cliques[1].table.probs, bcd, atol=atol)

    @staticmethod
    def cut_solves_match_oracle(m, opts):
        """The solve cut at each c <= its cycle count against the list
        oracle cut at c."""
        d = decompose(m)
        report = solve_decomposed(m, d, opts)
        assert report.cycles >= 2
        for c in range(1, report.cycles + 1):
            cut = dataclasses.replace(opts, max_cycles=c)
            got = [s.table for s in solve_decomposed(m, d, cut).cliques]
            tables = helpers.solve_decomposed_oracle(m, d.rip, cut)[0]
            assert [t.scope for t in got] == [t.scope for t in tables]
            for t, want in zip(got, tables):
                np.testing.assert_allclose(t.probs, want.probs, rtol=0, atol=1e-12)
        return report

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    def test_snapshots_are_the_tables_of_shorter_runs(self, schedule):
        self.cut_solves_match_oracle(self.model, SolverOptions(schedule=schedule))

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    def test_snapshots_on_several_tables(self, schedule):
        m = helpers.ring_model(10, 10)
        assert len(merge_cliques(decompose(m), SOLVER_TABLE_VARS)[0].order) >= 2
        report = self.cut_solves_match_oracle(
            m, SolverOptions(schedule=schedule, max_cycles=8))
        assert report.cycles == 8

    def test_separator_marginals_agree(self):
        report = solve_decomposed(self.model, self.d)
        cd0 = marginalize(report.cliques[0].table, ("C", "D"))
        cd1 = marginalize(report.cliques[1].table, ("C", "D"))
        np.testing.assert_allclose(cd0.probs, cd1.probs, atol=1e-3)

    def test_constraint_assignment_first_fit(self):
        report = solve_decomposed(self.model, self.d)
        by_clique = {frozenset(state.scope): {str(c) for c in state.constraints}
                     for state in report.cliques}
        assert "P(A)=0.2" in by_clique[fs("A", "C", "D")]
        assert "P(B)=0.7" in by_clique[fs("B", "C", "D")]
        assert "P(D|B,C)=0.8" in by_clique[fs("B", "C", "D")]

    def test_constraint_without_home_raises(self):
        m = helpers.homeless()
        with pytest.raises(ValueError, match=helpers.HOMELESS_ERROR):
            solve_decomposed(m, fill_in_greedy(neighbor_graph(m)))

    def test_constraints_satisfied_at_convergence(self):
        report = solve_decomposed(self.model, self.d)
        assert max(report.final_residuals) <= 1e-4
        for state in report.cliques:
            own = tuple(state.constraints)
            assert residuals(state.table, own).max_magnitude <= 1e-4

    def test_single_clique_equals_successive(self):
        m = helpers.fig21()
        d = decompose(m)
        assert d.cliques == (fs("A", "B"),)
        report = solve_decomposed(m, d)
        table, trace = successive_solve(uniform(("A", "B")), m.constraints)
        np.testing.assert_allclose(report.cliques[0].table.probs, table.probs,
                                   atol=1e-12)
        assert report.converged == trace.converged

    def test_single_clique_round_robin_equals_successive(self):
        # c02's reference: two interleaved applications of each constraint
        m = helpers.fig21()
        opts = SolverOptions(schedule=SCHEDULE_ROUND_ROBIN, max_cycles=2)
        report = solve_decomposed(m, decompose(m), opts)
        table, trace = successive_solve(uniform(("A", "B")), m.constraints, opts)
        np.testing.assert_allclose(report.cliques[0].table.probs, table.probs,
                                   atol=1e-12)
        assert ([str(e.constraint) for e in report.trace.events]
                == [str(e.constraint) for e in trace.events]
                == ["P(A|B)=0.7", "P(B|A)=0.8", "P(A|B)=0.7", "P(B|A)=0.8"])
        np.testing.assert_allclose([e.residual_before for e in report.trace.events],
                                   [e.residual_before for e in trace.events], atol=1e-12)

    def test_generated_ring_is_consistent_by_construction(self):
        n = 6
        m = helpers.ring_model(n, seed=3)
        rng = np.random.default_rng(3)
        h, coupling = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        states = np.arange(1 << n)
        spins = np.array([2 * ((states >> (n - 1 - i)) & 1) - 1 for i in range(n)])
        energy = (h @ spins + sum(coupling[i] * spins[i] * spins[(i + 1) % n]
                                  for i in range(n)))
        mrf = np.exp(energy)
        joint = JointTable(m.names, mrf / mrf.sum())
        assert len(m.constraints) == 4 * n
        assert residuals(joint, m.constraints).max_magnitude <= 1e-12

    def test_generated_ring10_solves_under_default_options(self):
        m = helpers.ring_model(10, seed=10)
        report = solve_decomposed(m, decompose(m))
        assert report.converged
        assert report.cycles > 100  # beyond the former default cap
        exact = mce_dual_solve(uniform(m.names), m.constraints)
        for state in report.cliques:
            np.testing.assert_allclose(
                state.table.probs, marginalize(exact, state.scope).probs, atol=5e-3)

    def test_empty_constraint_set(self):
        m = helpers.model_of("AB")  # no constraints at all
        from maxentbn.graphops import fill_in_greedy
        d = fill_in_greedy(neighbor_graph(m))
        report = solve_decomposed(m, d)
        assert report.converged
        for state in report.cliques:
            np.testing.assert_allclose(state.table.probs,
                                       uniform(state.scope).probs)

    def test_cycle_cap_flags_nonconvergence(self):
        report = solve_decomposed(self.model, self.d, SolverOptions(max_cycles=1))
        assert not report.converged
        assert report.cycles == 1

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    @pytest.mark.parametrize("m", helpers.one_update_models(), ids=["K=1", "K=2"])
    def test_converged_at_the_cycle_cap(self, m, schedule):
        report = solve_decomposed(m, decompose(m), SolverOptions(max_cycles=1, schedule=schedule))
        assert report.converged and report.error is None
        assert report.cycles == 1 and len(report.trace.events) == len(m.constraints)
        assert max(report.final_residuals) <= 1e-12

    def test_monotone_greedy_schedule_replay(self, monkeypatch):
        # replay the trace with reference operations: the applied
        # constraint must carry the largest residual magnitude each step,
        # and eager propagation reproduces each updated table on the
        # constraint's home clique, captured right after its update as
        # that clique's marginal of the solver's merged table
        m, d = self.model, self.d
        rip = merge_cliques(d, SOLVER_TABLE_VARS)[0]
        home_scope = {c: m.ordered_scope(d.rip.order[h])
                      for c, h in zip(m.constraints, constraint_homes(m, d))}
        updated = []
        apply = mce.Kernel.apply

        def captured(kernel, p, s1, s0):
            apply(kernel, p, s1, s0)
            merged = JointTable(m.ordered_scope(rip.order[kernel.table]),
                                p[kernel.lo:kernel.hi])
            updated.append(marginalize(merged, home_scope[kernel.constraint]).probs)

        monkeypatch.setattr(mce.Kernel, "apply", captured)
        report = solve_decomposed(self.model, self.d,
                                  SolverOptions(max_cycles=3))
        monkeypatch.undo()
        assert len(updated) == len(report.trace.events)
        states = {i: uniform(s.scope) for i, s in enumerate(report.cliques)}
        home = {}
        for i, s in enumerate(report.cliques):
            for c in s.constraints:
                home[str(c)] = i
        neighbors = {}
        for e in report.join_edges:
            neighbors.setdefault(e.child, []).append((e.parent, e.separator))
            neighbors.setdefault(e.parent, []).append((e.child, e.separator))
        for ev, table in zip(report.trace.events, updated):
            mags = {}
            for key, i in home.items():
                rep = residuals(states[i], tuple(report.cliques[i].constraints))
                for entry in rep.entries:
                    mags[str(entry.constraint)] = entry.magnitude
            applied = str(ev.constraint)
            assert mags[applied] == pytest.approx(max(mags.values()), abs=1e-12)
            if ev.residual_before is not None:
                assert abs(ev.residual_before) == pytest.approx(mags[applied],
                                                                abs=1e-12)
            i = home[applied]
            states[i] = conditional_update(states[i], ev.constraint)
            # eager outward propagation
            stack = [(i, -1)]
            while stack:
                node, came = stack.pop()
                for other, sep in neighbors.get(node, []):
                    if other == came:
                        continue
                    new = marginalize(states[node], sep)
                    old = marginalize(states[other], sep)
                    if np.abs(new.probs - old.probs).max() > 1e-15:
                        states[other] = subset_marginal_update(states[other], new)
                        stack.append((other, node))
            np.testing.assert_allclose(states[i].probs, table, rtol=0, atol=1e-12)

    def test_matches_full_joint_marginals(self):
        # converged clique tables sit on the exact joint's marginals
        models = [helpers.mining(), helpers.fig21()]
        rng = np.random.default_rng(53)
        while len(models) < 5:
            m = helpers.random_model(rng, n_vars=4, n_conditionals=3,
                                     n_marginals=1)
            if global_consistent(m).consistent:
                models.append(m)
        for m in models:
            d = decompose(m)
            report = solve_decomposed(m, d, SolverOptions(tolerance=1e-6,
                                                          max_cycles=5000))
            assert report.converged, m
            joint = mce_dual_solve(uniform(m.names), m.constraints,
                                   SolverOptions(tolerance=1e-10))
            for state in report.cliques:
                exact = marginalize(joint, state.scope)
                np.testing.assert_allclose(state.table.probs, exact.probs,
                                           atol=1e-3)

    def test_three_clique_chain_propagation(self):
        # chain of cliques {A,B} - {B,C} - {C,D}: an update at one end must
        # reach the far end through two separator hops
        m = helpers.model_of(
            "ABCD",
            helpers.cc("B", "A", 0.9), helpers.cc("B", "~A", 0.3),
            helpers.cc("C", "B", 0.8), helpers.cc("C", "~B", 0.4),
            helpers.cc("D", "C", 0.7), helpers.cc("D", "~C", 0.2),
            helpers.mc("A", 0.6))
        d = decompose(m)
        assert len(d.cliques) == 3
        report = solve_decomposed(m, d, SolverOptions(tolerance=1e-7,
                                                      max_cycles=5000))
        assert report.converged
        joint = mce_dual_solve(uniform(m.names), m.constraints,
                               SolverOptions(tolerance=1e-10))
        for state in report.cliques:
            exact = marginalize(joint, state.scope)
            np.testing.assert_allclose(state.table.probs, exact.probs, atol=1e-4)
        # adjacent cliques agree on their separators
        for e in report.join_edges:
            child = marginalize(report.cliques[e.child].table, e.separator)
            parent = marginalize(report.cliques[e.parent].table, e.separator)
            np.testing.assert_allclose(child.probs, parent.probs, atol=1e-9)

    def test_reconstructed_joint_is_markov(self):
        # glue the converged cliques along the separator and check the
        # Markov property and the reference independence on the result
        m = self.model
        report = solve_decomposed(m, self.d, SolverOptions(tolerance=1e-8,
                                                           max_cycles=5000))
        acd, bcd = report.cliques[0].table, report.cliques[1].table
        cd = marginalize(bcd, ("C", "D"))
        probs = np.empty(16)
        for s in range(16):
            a, b = (s >> 3) & 1, (s >> 2) & 1
            c, dd = (s >> 1) & 1, s & 1
            p_acd = acd.probs[(a << 2) | (c << 1) | dd]
            p_bcd = bcd.probs[(b << 2) | (c << 1) | dd]
            p_cd = cd.probs[(c << 1) | dd]
            probs[s] = p_acd * p_bcd / p_cd if p_cd > 0 else 0.0
        joint = JointTable(("A", "B", "C", "D"), probs / probs.sum())
        assert check_mrf(joint, neighbor_graph(m), tol=1e-6)
        assert check_ci(joint, "A", "B", ("C", "D"), tol=1e-6)

    def test_unreachable_constraint_reported(self):
        m = unreachable_model()
        d = decompose(m)
        report = solve_decomposed(m, d, SolverOptions(max_cycles=50))
        assert report.error is not None or not report.converged


class TestDecomposedAgainstOracle:
    """`solve_decomposed` against the former list loop, which marginalizes
    both cliques of every separator afresh after each update, run on the
    same merged tables."""

    @staticmethod
    def agree(m, opts):
        d = decompose(m)
        report = solve_decomposed(m, d, opts)
        rip, groups = merge_cliques(d, SOLVER_TABLE_VARS)
        merged, trace, error = helpers.solve_decomposed_oracle(m, rip, opts)
        tables = [marginalize(merged[g], s.scope) for g, s in zip(groups, report.cliques)]
        got, want = report.trace.events, trace.events
        assert [str(e.constraint) for e in got] == [str(e.constraint) for e in want]
        assert ((report.cycles, report.converged, report.error)
                == (trace.cycles, trace.converged, error))
        assert ([e.residual_before is None for e in got]
                == [e.residual_before is None for e in want])
        for a, b in zip(got, want):
            if a.residual_before is not None:
                assert a.residual_before == pytest.approx(b.residual_before, rel=0, abs=1e-12)
        for state, table in zip(report.cliques, tables):
            np.testing.assert_allclose(state.table.probs, table.probs, rtol=0, atol=1e-12)
        return report

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    @pytest.mark.parametrize("name,max_cycles", [
        ("fig21", 1000), ("mining", 1000), ("quad", 40), ("contradiction", 1000),
        ("unreachable", 50), ("ring6/0", 80), ("ring6/1", 15), ("ring6/2", 15),
        ("ring8/0", 10), ("ring8/1", 10), ("ring8/2", 10), ("zero-chain", 1000)])
    def test_trace_matches(self, name, max_cycles, schedule):
        if name.startswith("ring"):
            n, seed = name[4:].split("/")
            m = helpers.ring_model(int(n), int(seed))
        elif name == "unreachable":
            m = unreachable_model()
        elif name == "zero-chain":
            m = zero_chain_model()
            assert len(merge_cliques(decompose(m), SOLVER_TABLE_VARS)[0].order) == 2
        else:
            m = getattr(helpers, name)()
        report = self.agree(m, SolverOptions(schedule=schedule, max_cycles=max_cycles))
        if name == "zero-chain":  # a zero in the tables: the pass is the guarded one
            assert report.converged and min(s.table.probs.min() for s in report.cliques) == 0.0
        if report.error is None:
            for e in report.join_edges:
                child = marginalize(report.cliques[e.child].table, e.separator)
                parent = marginalize(report.cliques[e.parent].table, e.separator)
                np.testing.assert_allclose(child.probs, parent.probs, rtol=0, atol=1e-12)

    def test_random_models(self):
        # every third model has one value moved to the boundary, 0 or 1
        rng = np.random.default_rng(61)
        outcomes = set()
        for i in range(50):
            m = helpers.random_model(rng)
            if i % 3 == 0:
                cs = list(m.constraints)
                j = int(rng.integers(len(cs)))
                cs[j] = dataclasses.replace(cs[j], value=float(rng.integers(2)))
                m = helpers.Model(m.names, tuple(cs))
            for schedule in ("gradient", SCHEDULE_ROUND_ROBIN):
                opts = SolverOptions(schedule=schedule, max_cycles=20)
                report = self.agree(m, opts)
                outcomes.add("error" if report.error else report.converged)
                # recording reads the loop's state and never changes it
                quiet = solve_decomposed(m, decompose(m), opts, record=False)
                assert ((quiet.cycles, quiet.converged, quiet.error, quiet.final_residuals)
                        == (report.cycles, report.converged, report.error,
                            report.final_residuals))
                for a, b in zip(quiet.cliques, report.cliques):
                    np.testing.assert_array_equal(a.table.probs, b.table.probs)
                assert quiet.trace.events == ()
        assert outcomes == {"error", True, False}


class TestMergedAgainstFineTree:
    """The solve on merged tables against the list oracle run on the
    cliques of the decomposition itself.  In exact arithmetic both are
    one sequence of I-projections, so on interior models they apply the
    same constraints, before the same residuals, to the same tables."""

    @staticmethod
    def agree(m, opts):
        d = decompose(m)
        assert len(merge_cliques(d, SOLVER_TABLE_VARS)[0].order) >= 2
        report = solve_decomposed(m, d, opts)
        tables, trace, error = helpers.solve_decomposed_oracle(m, d.rip, opts)
        assert report.error is None and error is None
        got, want = report.trace.events, trace.events
        assert [e.constraint for e in got] == [e.constraint for e in want]
        assert (report.cycles, report.converged) == (trace.cycles, trace.converged)
        np.testing.assert_allclose([e.residual_before for e in got],
                                   [e.residual_before for e in want], rtol=0, atol=1e-12)
        final = [residuals(tables[h], (c,)).max_magnitude
                 for c, h in zip(m.constraints, constraint_homes(m, d))]
        np.testing.assert_allclose(report.final_residuals, final, rtol=0, atol=1e-12)
        for state, table in zip(report.cliques, tables):
            np.testing.assert_allclose(state.table.probs, table.probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    @pytest.mark.parametrize("model,max_cycles", [
        ("ring8", 12), ("ring9", 8), ("ring10", 8), ("ring12", 5), ("ring14", 4),
        ("ring16", 3), ("grid3", 3)])
    def test_benchmark_shapes(self, model, max_cycles, schedule):
        n = int(model[4:])
        m = helpers.ring_model(n, n) if model.startswith("ring") else helpers.grid_model(n)
        self.agree(m, SolverOptions(schedule=schedule, max_cycles=max_cycles))

    def test_random_models(self):
        rng = np.random.default_rng(62)
        agreed = 0
        while agreed < 12:
            m = helpers.random_model(rng, n_vars=int(rng.integers(7, 9)))
            if len(merge_cliques(decompose(m), SOLVER_TABLE_VARS)[0].order) < 2:
                continue
            for schedule in ("gradient", SCHEDULE_ROUND_ROBIN):
                self.agree(m, SolverOptions(schedule=schedule, max_cycles=20))
            agreed += 1

    def test_disconnected_components(self):
        # two 4-variable components do not fit one table: the solver's
        # two tables share an empty separator and send no messages
        m = helpers.model_of("ABCDEFGH", helpers.cc("D", "A,B,C", 0.3), helpers.mc("A", 0.2),
                             helpers.cc("H", "E,F,G", 0.6), helpers.cc("G", "E", 0.9))
        self.agree(m, SolverOptions(max_cycles=50))
        report = solve_decomposed(m, decompose(m))
        assert report.converged
        assert query(report, [Literal("A")]) == pytest.approx(0.2, abs=1e-4)
        assert query(report, [Literal("G")], [Literal("E")]) == pytest.approx(0.9, abs=1e-4)


class TestRecordedTrace:
    """A recorded solve keeps each update as a row of three flat columns
    and builds its TraceEvents when they are read."""

    def test_memory_per_update(self, monkeypatch):
        m = helpers.ring_model(8, 0)
        d = decompose(m)
        solve_decomposed(m, d)  # lazy set-up outside the measurement

        def peak(record):
            gc.collect()
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                report = solve_decomposed(m, d, record=record)
                return tracemalloc.get_traced_memory()[1] - base, report
            finally:
                if not tracing:
                    tracemalloc.stop()

        quiet, _ = peak(False)
        with monkeypatch.context() as mp:
            mp.setattr(mce, "TraceEvent", None)  # the solve builds no TraceEvent
            loud, report = peak(True)
        log = report.trace.events
        updates = len(log)
        assert isinstance(log, UpdateLog) and updates > 1000
        columns = (log._kernels, log._residuals)
        assert [len(c) for c in columns] == [updates] * 2
        assert sum(c.itemsize for c in columns) == 16
        # the recording keeps nothing per cycle, so the bound allows
        # 24 B an update, where one tuple and one TraceEvent an update
        # took about 200 B
        assert loud - quiet < 24 * updates

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    def test_events_read_as_a_sequence(self, schedule):
        m = helpers.mining()
        d = decompose(m)
        opts = SolverOptions(schedule=schedule)
        trace = solve_decomposed(m, d, opts).trace
        want = helpers.solve_decomposed_oracle(m, d.rip, opts)[1].events
        events = trace.events
        got = list(events)
        assert len(events) == len(got) == len(want) > 10
        for a, b in zip(got, want):
            assert (a.cycle, a.constraint) == (b.cycle, b.constraint)
            assert a.residual_before == pytest.approx(b.residual_before, rel=0, abs=1e-12)
        assert events[-1] == got[-1] and events[-len(got)] == got[0]
        assert events[3:10:2] == tuple(got[3:10:2])
        assert events[::-1] == tuple(reversed(got))
        with pytest.raises(IndexError):
            events[len(got)]
        assert events == tuple(got) and tuple(got) == events

    def test_recorded_trace_compares_and_hashes_as_its_events(self):
        m = helpers.mining()
        trace = solve_decomposed(m, decompose(m)).trace
        plain = UpdateTrace(tuple(trace.events), trace.converged, trace.cycles)
        assert isinstance(trace.events, UpdateLog)
        assert trace == plain and plain == trace and hash(trace) == hash(plain)
        assert trace.events != list(trace.events)  # a list is no tuple of events

    def test_undefined_residual_reads_none(self):
        c1, c2 = helpers.cc("B", "A", 0.8), helpers.mc("A,~B", 0.1)
        log = UpdateLog([c1, c2])
        log.append(1, math.nan)
        log.append(0, -0.25)
        log.append(0, 0.5)  # two kernels, so the third update is in cycle 2
        assert list(log) == [TraceEvent(1, c2, None), TraceEvent(1, c1, -0.25),
                             TraceEvent(2, c1, 0.5)]
        assert format_trace(UpdateTrace(log, False, 2)) == (
            f"1\t{c2}\tundefined\n1\t{c1}\t-0.25\n2\t{c1}\t0.5\n")


class TestQuery:
    def test_two_cycle_marginal(self):
        m = helpers.fig21()
        report = solve_decomposed(m, decompose(m))
        p = query(report, [Literal("A")])
        assert p == pytest.approx(0.5356, abs=2e-3)

    def test_mining_separator_event(self):
        m = helpers.mining()
        report = solve_decomposed(m, decompose(m))
        p = query(report, [Literal("C"), Literal("D")])
        assert p == pytest.approx(0.1157, abs=5e-3)

    def test_impossible_event(self):
        m = helpers.fig21()
        report = solve_decomposed(m, decompose(m))
        assert query(report, [Literal("A"), Literal("A", False)]) == 0.0

    def test_conditional_query(self):
        m = helpers.fig21()
        report = solve_decomposed(m, decompose(m))
        p = query(report, [Literal("A")], [Literal("B")])
        assert p == pytest.approx(0.7, abs=1e-3)

    def test_cross_clique_query_rejected(self):
        m = helpers.mining()
        report = solve_decomposed(m, decompose(m))
        with pytest.raises(ValueError, match="span multiple cliques"):
            query(report, [Literal("A"), Literal("B")])


class TestBench:
    def test_two_cycle_methods_agree(self):
        m = helpers.fig21()
        b, report, joint = bench(m, decompose(m))
        assert report.converged
        np.testing.assert_allclose(report.cliques[0].table.probs, joint.probs,
                                   atol=1e-4)
        assert b.max_marginal_deviation <= 1e-4

    def test_empty_constraints_instant(self):
        m = helpers.model_of("AB")
        from maxentbn.graphops import fill_in_greedy
        b, report, joint = bench(m, fill_in_greedy(neighbor_graph(m)))
        np.testing.assert_allclose(joint.probs, uniform(("A", "B")).probs)
        assert report.converged

    def test_times_every_solve_it_runs(self, monkeypatch):
        # the returned report is the last timed run's: no untimed extra solve
        calls = []
        real = engine.solve_decomposed

        def spy(*args, **kwargs):
            calls.append(kwargs.get("record"))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_decomposed", spy)
        m = helpers.mining()
        b, report, _ = bench(m, decompose(m), repeats=4)
        assert calls == [False] * 4
        want = real(m, decompose(m), SolverOptions(tolerance=b.tolerance))
        assert (report.converged, report.cycles, report.error) == \
            (want.converged, want.cycles, want.error)
        assert report.final_residuals == want.final_residuals
        for got, ref in zip(report.cliques, want.cliques):
            assert got.scope == ref.scope
            np.testing.assert_array_equal(got.table.probs, ref.table.probs)

    def test_needs_a_timed_run(self):
        m = helpers.mining()
        for repeats in (0, True, 2.0, "3"):  # a bool would run once
            with pytest.raises(ValueError, match="repeats must be at least 1"):
                bench(m, decompose(m), repeats=repeats)

    def test_mining_reports_ratio(self):
        m = helpers.mining()
        b, report, joint = bench(m, decompose(m))
        assert b.dual_seconds > 0 and b.successive_seconds > 0
        assert b.speedup == pytest.approx(b.dual_seconds / b.successive_seconds)
        assert b.max_marginal_deviation < 1e-3
