import numpy as np
import pytest
import scipy.linalg

import helpers
from maxentbn import consistency
from helpers import marginalization_matrix, project_space, solution_space
from maxentbn import (ConstraintSet, Decomposition, JointTable, RipOrder, decompose,
                      fill_in_greedy, global_consistent, local_check, neighbor_graph,
                      pairwise_consistent, to_linear)
from maxentbn.consistency import LinearSystem, nonneg_feasible, rank_nontrivial
from maxentbn.dist import marginalize, residuals


def fs(*names):
    return frozenset(names)


def rows_parallel(row: np.ndarray, target: np.ndarray) -> bool:
    """True when the rows define the same hyperplane (scalar multiples)."""
    n1, n2 = np.linalg.norm(row), np.linalg.norm(target)
    if n1 == 0 or n2 == 0:
        return n1 == n2
    cos = float(row @ target) / (n1 * n2)
    return abs(abs(cos) - 1.0) < 1e-12


class TestToLinear:
    def test_two_cycle_row(self):
        m = helpers.fig21()
        ls = to_linear(m.constraints, ("A", "B"))
        row = ls.matrix[0]  # P(A|B)=0.7
        np.testing.assert_allclose(row, [0.0, -0.7, 0.0, 0.3], atol=1e-15)

    def test_mining_conditional_rows_match_reference_equations(self):
        # reference homogeneous equations for the four P(C|.,.) cells on
        # scope (A, C, D), states 000..111
        reference = [
            np.array([1.0, 0, -9.0, 0, 0, 0, 0, 0]),   # P(C|~A,~D)=0.1
            np.array([0, 1.0, 0, -4.0, 0, 0, 0, 0]),   # P(C|~A,D)=0.2
            np.array([0, 0, 0, 0, 1.0, 0, -4.0, 0]),   # P(C|A,~D)=0.2
            np.array([0, 0, 0, 0, 0, 3.0, 0, -2.0]),   # P(C|A,D)=0.6
        ]
        cs = ConstraintSet(helpers.mining().constraints.conditionals[:4])
        ls = to_linear(cs, ("A", "C", "D"))
        assert len(ls.matrix) == 4
        for target in reference:
            assert any(rows_parallel(r, target) for r in ls.matrix)

    def test_marginal_row_homogeneous(self):
        cs = ConstraintSet((helpers.mc("A", 0.2),))
        ls = to_linear(cs, ("A", "B"))
        np.testing.assert_allclose(ls.matrix[0], [-0.2, -0.2, 0.8, 0.8],
                                   atol=1e-15)

    def test_empty_constraints(self):
        ls = to_linear(ConstraintSet(), ("A",))
        assert ls.constraints == () and ls.matrix.shape == (0, 2)

    def test_scope_filtering(self):
        m = helpers.mining()
        ls = to_linear(m.constraints, ("A", "C", "D"))
        # P(A), the C-family, but not P(B) or the D-family
        assert len(ls.constraints) == len(ls.matrix) == 5

    def test_row_nullspace_matches_constraint(self):
        # any table satisfying the constraint lies in the row's kernel
        rng = np.random.default_rng(41)
        from maxentbn.mce import conditional_update
        for _ in range(10):
            t = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
            cc = helpers.cc("A", "B", float(rng.uniform(0.1, 0.9)))
            sat = conditional_update(t, cc)
            ls = to_linear(ConstraintSet((cc,)), ("A", "B"))
            assert abs(ls.matrix[0] @ sat.probs) < 1e-12


class TestGlobalConsistent:
    def test_contradictory_quad(self):
        report = global_consistent(helpers.quad())
        assert not report.consistent
        assert report.rank_ok is False  # null space is trivial

    def test_quad_fails_both_tests(self):
        ls = to_linear(helpers.quad().constraints, ("A", "B"))
        assert not rank_nontrivial(ls)
        assert nonneg_feasible(ls) is None

    def test_two_cycle_consistent(self):
        report = global_consistent(helpers.fig21())
        assert report.consistent and report.rank_ok and report.feasible
        (_, witness), = report.witnesses
        assert residuals(witness, helpers.fig21().constraints).max_magnitude < 1e-8

    def test_empty_constraints_consistent(self):
        m = helpers.model_of("AB")
        report = global_consistent(m)
        assert report.consistent

    def test_mining_consistent(self):
        assert global_consistent(helpers.mining()).consistent


class TestSolutionSpace:
    def cs_acd(self):
        return ConstraintSet(helpers.mining().constraints.conditionals[:4])

    def test_reference_dimension_and_member(self):
        ss = solution_space(to_linear(self.cs_acd(), ("A", "C", "D")))
        assert ss.dimension == 4
        assert ss.contains(np.array([9.0, 0, 1, 0, 0, 0, 0, 0]))
        # the full reference general solution for one choice of constants
        k1, k2, k3, k4 = 0.3, 1.0, -0.7, 2.0
        vec = np.array([9 * k1, 4 * k2, k1, k2, 4 * k3, 2 * k4, k3, 3 * k4])
        assert ss.contains(vec)

    def test_non_member_rejected(self):
        ss = solution_space(to_linear(self.cs_acd(), ("A", "C", "D")))
        assert not ss.contains(np.array([1.0, 0, 1, 0, 0, 0, 0, 0]))

    def test_no_rows_full_dimension(self):
        ss = solution_space(to_linear(ConstraintSet(), ("A",)))
        assert ss.dimension == 2

    def test_dimension_is_rank_arithmetic(self):
        ls = to_linear(helpers.quad().constraints, ("A", "B"))
        assert solution_space(ls).dimension == 0

    def test_basis_satisfies_rows(self):
        ls = to_linear(helpers.mining().constraints, tuple("ABCD"))
        ss = solution_space(ls)
        resid = np.abs(ls.matrix @ ss.basis)
        assert resid.max() < 1e-10


class TestProjectSpace:
    def test_reference_projection_relations(self):
        # Projecting the general solution (9k1, 4k2, k1, k2, 4k3, 2k4, k3,
        # 3k4) onto (C, D) gives (9k1+4k3, 4k2+2k4, k1+k3, k2+3k4), so the
        # arbitrary constants stay linearly recoverable from the projected
        # entries.
        cs = ConstraintSet(helpers.mining().constraints.conditionals[:4])
        ss = solution_space(to_linear(cs, ("A", "C", "D")))
        k1, k2, k3, k4 = 0.5, 0.25, 0.125, 0.0625
        vec = np.array([9 * k1, 4 * k2, k1, k2, 4 * k3, 2 * k4, k3, 3 * k4])
        assert ss.contains(vec)
        m = marginalization_matrix(("A", "C", "D"), ("C", "D"))
        proj = m @ vec  # states ~C~D, ~CD, C~D, CD
        np.testing.assert_allclose(
            proj, [9 * k1 + 4 * k3, 4 * k2 + 2 * k4, k1 + k3, k2 + 3 * k4],
            atol=1e-12)
        assert proj[0] - 4 * proj[2] == pytest.approx(5 * k1, abs=1e-12)
        assert 9 * proj[2] - proj[0] == pytest.approx(5 * k3, abs=1e-12)
        assert 3 * proj[1] - 2 * proj[3] == pytest.approx(10 * k2, abs=1e-12)
        assert 4 * proj[3] - proj[1] == pytest.approx(10 * k4, abs=1e-12)
        # the projection operator maps the space onto a 4-dimensional span
        ps = project_space(ss, ("C", "D"))
        assert ps.dimension == 4
        assert ps.contains(proj)

    def test_identity_projection(self):
        cs = ConstraintSet((helpers.cc("A", "B", 0.7),))
        ss = solution_space(to_linear(cs, ("A", "B")))
        ps = project_space(ss, ("A", "B"))
        assert ps.dimension == ss.dimension

    def test_zero_dimensional(self):
        ls = to_linear(helpers.quad().constraints, ("A", "B"))
        ss = solution_space(ls)
        ps = project_space(ss, ("A",))
        assert ps.dimension == 0

    def test_commutes_with_marginalization(self):
        # projecting basis vectors equals marginalizing distributions
        # built from them
        rng = np.random.default_rng(42)
        cs = ConstraintSet((helpers.cc("A", "B", 0.6),))
        ss = solution_space(to_linear(cs, ("A", "B", "C")))
        m = marginalization_matrix(("A", "B", "C"), ("B", "C"))
        for _ in range(5):
            coeffs = rng.normal(size=ss.dimension)
            vec = ss.basis @ coeffs
            direct = m @ vec
            # same sum, state by state, as summing out A explicitly
            explicit = vec[:4] + vec[4:]
            np.testing.assert_allclose(direct, explicit, atol=1e-12)


class TestPairwise:
    def test_mining_cliques_consistent(self):
        ok, wits = pairwise_consistent(helpers.mining(), fs("A", "C", "D"),
                                       fs("B", "C", "D"))
        assert ok
        wi, wj = wits
        np.testing.assert_allclose(marginalize(wi, ("C", "D")).probs,
                                   marginalize(wj, ("C", "D")).probs, atol=1e-8)
        assert residuals(wi, ConstraintSet(tuple(
            c for c in helpers.mining().constraints
            if c.scope <= fs("A", "C", "D")))).max_magnitude < 1e-8

    def test_forced_contradiction(self):
        ok, wits = pairwise_consistent(helpers.contradiction(), fs("A", "B"),
                                       fs("B", "C"))
        assert not ok and wits is None

    def test_disjoint_cliques(self):
        m = helpers.model_of("ABCD", helpers.cc("A", "B", 0.7),
                             helpers.cc("C", "D", 0.2))
        ok, _ = pairwise_consistent(m, fs("A", "B"), fs("C", "D"))
        assert ok


class TestLocalCheck:
    def test_mining(self):
        m = helpers.mining()
        report = local_check(m, decompose(m))
        assert report.consistent
        assert report.culprit is None

    def test_contradiction_culprit(self):
        m = helpers.contradiction()
        report = local_check(m, decompose(m))
        assert not report.consistent
        assert set(report.culprit) == {fs("A", "B"), fs("B", "C")}

    def test_joint_lp_decides(self, monkeypatch):
        # a consistent decomposition needs only the joint LP; the clique
        # and pairwise LPs run after an infeasible one, to name the culprit
        calls = []
        tree_witnesses = consistency._tree_witnesses

        def counted(*args):
            calls.append(1)
            return tree_witnesses(*args)

        monkeypatch.setattr(consistency, "_tree_witnesses", counted)
        for m in (helpers.mining(), helpers.ring_model(6, 0)):
            calls.clear()
            assert local_check(m, decompose(m)).consistent
            assert len(calls) == 1
        calls.clear()
        m = helpers.contradiction()
        report = local_check(m, decompose(m))
        assert report.culprit == (fs("B", "C"), fs("A", "B")) and report.note == ""
        assert len(calls) == 3  # joint, first clique, second against its anchor

    def test_constraint_without_home_raises(self, monkeypatch):
        # P(A,C) fits in no clique; leaving it out of every clique's rows
        # would call this inconsistent set consistent
        m = helpers.homeless()
        assert not global_consistent(m).consistent

        def no_lp(*args):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(consistency, "_tree_witnesses", no_lp)
        with pytest.raises(ValueError, match=helpers.HOMELESS_ERROR):
            local_check(m, fill_in_greedy(neighbor_graph(m)))

    def test_cyclic_cover_raises(self):
        # c06's raw sixring cover, with an order and anchors that only
        # look like a running-intersection order
        cover = (fs("A", "C", "F"), fs("B", "D", "E"), fs("C", "D"), fs("E", "F"))
        d = Decomposition(frozenset(), cover, RipOrder(cover, (None, 0, 0, 0)), 32)
        m = helpers.model_of("ABCDEF", helpers.cc("A", "C", 0.5))
        with pytest.raises(ValueError, match="not acyclic"):
            local_check(m, d)

    def test_single_clique_matches_global(self):
        m = helpers.fig21()
        report = local_check(m, decompose(m))
        assert report.consistent == global_consistent(m).consistent

    def test_witnesses_satisfy_and_calibrate(self):
        m = helpers.mining()
        report = local_check(m, decompose(m))
        tables = dict(report.witnesses)
        for clique, table in report.witnesses:
            own = ConstraintSet(tuple(c for c in m.constraints if c.scope <= clique))
            assert residuals(table, own).max_magnitude < 1e-8
        acd = tables[fs("A", "C", "D")]
        bcd = tables[fs("B", "C", "D")]
        np.testing.assert_allclose(marginalize(acd, ("C", "D")).probs,
                                   marginalize(bcd, ("C", "D")).probs, atol=1e-8)

    def test_agreement_with_global(self):
        # clique-local checking decides exactly what the full state-space
        # check decides, across consistent and inconsistent random models
        rng = np.random.default_rng(43)
        verdicts = {True: 0, False: 0}
        for trial in range(110):
            m = helpers.random_model(rng)
            d = decompose(m)
            got = local_check(m, d).consistent
            want = global_consistent(m).consistent
            assert got == want, f"trial {trial}: local {got}, global {want}"
            verdicts[want] += 1
        assert verdicts[True] >= 15 and verdicts[False] >= 15


class TestRankPretest:
    def test_trivial_nullspace_skips_feasibility(self):
        report = global_consistent(helpers.quad())
        assert report.rank_ok is False
        assert report.feasible is None  # skipped; verdict already settled

    def test_fewer_rows_than_states_needs_no_svd(self, monkeypatch):
        # 32 rows on 256 states: the rank is below the number of states
        # whatever the singular values are
        def refuse(*args, **kwargs):
            raise AssertionError("svdvals called")

        monkeypatch.setattr(scipy.linalg, "svdvals", refuse)
        report = global_consistent(helpers.ring_model(8, 0))
        assert report.rank_ok and report.consistent


class TestDenseOracles:
    """The feasibility LP without its -I block and the singular-value rank
    test decide what the former dense forms decide."""

    @staticmethod
    def models():
        rng = np.random.default_rng(44)
        out = [helpers.fig21(), helpers.mining(), helpers.quad(), helpers.contradiction()]
        out += [helpers.ring_model(6, s) for s in range(3)]
        out += [helpers.random_model(rng) for _ in range(80)]
        return out

    def test_reports_and_witnesses_match(self, monkeypatch):
        verdicts = {True: 0, False: 0}
        for m in self.models():
            d = decompose(m)
            got = [global_consistent(m), local_check(m, d)]
            with monkeypatch.context() as mp:
                mp.setattr(consistency, "_solve_feasible", helpers.solve_feasible_dense)
                mp.setattr(consistency, "rank_nontrivial", helpers.rank_nontrivial_nullspace)
                want = [global_consistent(m), local_check(m, d)]
            for g, w in zip(got, want):
                assert (g.consistent, g.rank_ok, g.feasible, g.culprit) == \
                    (w.consistent, w.rank_ok, w.feasible, w.culprit)
                verdicts[g.consistent] += 1
                if not g.consistent:
                    continue
                for _, table in g.witnesses:
                    # a witness at t = 0 may leave a conditioning event at
                    # zero mass, so the rows are checked, not the residuals
                    rows = to_linear(m.constraints, table.scope).matrix
                    assert np.abs(rows @ table.probs).max(initial=0.0) < 1e-8
                    assert table.probs.min() >= 0.0
                    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
                # the smallest entry is the LP's optimum t on both sides
                smallest = min(t.probs.min() for _, t in g.witnesses)
                assert smallest == pytest.approx(
                    min(t.probs.min() for _, t in w.witnesses), abs=1e-9)
        assert verdicts[True] >= 20 and verdicts[False] >= 20

    def test_lp_input_matches_block_builder(self, monkeypatch):
        # every equality system handed to the LP, for the global, the
        # joint-tree and the culprit problems, equals the one the former
        # block-matrix builder stacks from the same tables
        calls = []
        tree, solve = consistency._tree_witnesses, consistency._solve_feasible

        def tree_captured(systems, anchors):
            calls.append([systems, anchors])
            return tree(systems, anchors)

        def solve_captured(a_eq, b_eq):
            calls[-1] += [a_eq, b_eq]
            return solve(a_eq, b_eq)

        monkeypatch.setattr(consistency, "_tree_witnesses", tree_captured)
        monkeypatch.setattr(consistency, "_solve_feasible", solve_captured)
        kinds = {"global": 0, "tree": 0, "culprit": 0}
        for m in self.models():
            for kind, check in (("global", lambda: global_consistent(m)),
                                ("tree", lambda: local_check(m, decompose(m)))):
                calls.clear()
                check()
                for n, (systems, anchors, a_eq, b_eq) in enumerate(calls):
                    want_a, want_b = helpers.tree_lp_dense(systems, anchors)
                    assert np.array_equal(a_eq, want_a)
                    assert np.array_equal(b_eq, want_b)
                    kinds["culprit" if n else kind] += 1
        assert kinds["global"] >= 80 and kinds["tree"] >= 80 and kinds["culprit"] >= 20, kinds

    def test_rank_pretest_matches_null_space(self):
        # row matrices of every rank, with as many rows as states or more
        # (as quad has) as well as fewer, and the encodings of random models
        rng = np.random.default_rng(45)
        systems = [to_linear(helpers.quad().constraints, ("A", "B"))]
        for _ in range(150):
            n = int(rng.integers(1, 4))
            scope = tuple("ABC"[:n])
            k = int(rng.integers(1, 2 * (1 << n) + 1))
            r = int(rng.integers(0, min(k, 1 << n) + 1))
            m = rng.normal(size=(k, r)) @ rng.normal(size=(r, 1 << n))
            systems.append(LinearSystem(scope, (None,) * k, m))
        for _ in range(60):
            # as many rows as states or more, one singular value 10^-e and
            # the others in [0.1, 1]: the rank is full iff 10^-e clears the
            # relative tolerance NULLSPACE_TOL = 1e-10
            n = int(rng.integers(1, 4))
            k = (1 << n) + int(rng.integers(0, 3))
            u, _ = np.linalg.qr(rng.normal(size=(k, 1 << n)))
            v, _ = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))
            sv = rng.uniform(0.1, 1.0, 1 << n)
            sv[0] = 10.0 ** -float(rng.choice([4, 6, 8, 12, 14]))
            systems.append(LinearSystem(tuple("ABC"[:n]), (None,) * k, (u * sv) @ v.T))
        for _ in range(60):
            mdl = helpers.random_model(rng, n_vars=int(rng.integers(2, 4)),
                                       n_conditionals=8, n_marginals=2)
            systems.append(to_linear(mdl.constraints, mdl.names))
        outcomes = {True: 0, False: 0}
        for ls in systems:
            got = rank_nontrivial(ls)
            assert got == helpers.rank_nontrivial_nullspace(ls)
            outcomes[got] += 1
        assert min(outcomes.values()) >= 50
