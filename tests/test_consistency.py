import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import helpers
from maxentbn import consistency
from helpers import marginalization_matrix, project_space, solution_space
from maxentbn import (Decomposition, JointTable, RipOrder, decompose,
                      fill_in_greedy, global_consistent, local_check, neighbor_graph,
                      parse_model, to_linear)
from maxentbn.consistency import (LinearSystem, UndecidedLPError, nonneg_feasible,
                                  rank_nontrivial)
from maxentbn.dist import SCOPE_CAP, marginalize, residuals


MODELS = Path(__file__).resolve().parent.parent / "models"
# helpers.ring_model(6, 0) with one value raised by 1e-5, which HiGHS leaves undecided
NEAR_DEGENERATE = Path(__file__).resolve().parent / "near-degenerate-ring-6.cn"


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
        cs = helpers.conditionals(helpers.mining())[:4]
        ls = to_linear(cs, ("A", "C", "D"))
        assert len(ls.matrix) == 4
        for target in reference:
            assert any(rows_parallel(r, target) for r in ls.matrix)

    def test_marginal_row_homogeneous(self):
        cs = (helpers.mc("A", 0.2),)
        ls = to_linear(cs, ("A", "B"))
        np.testing.assert_allclose(ls.matrix[0], [-0.2, -0.2, 0.8, 0.8],
                                   atol=1e-15)

    def test_empty_constraints(self):
        ls = to_linear((), ("A",))
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
            ls = to_linear((cc,), ("A", "B"))
            assert abs(ls.matrix[0] @ sat.probs) < 1e-12

    def test_system_is_its_scope_and_constraints(self):
        # the rows are derived, not stored, so a system compares and hashes
        # by what it encodes
        m = helpers.mining()
        ls = to_linear(m.constraints, ("A", "C", "D"))
        same = LinearSystem(("A", "C", "D"), ls.constraints)
        assert ls == same and hash(ls) == hash(same)
        assert ls != LinearSystem(("A", "D", "C"), ls.constraints)
        assert ls != to_linear(m.constraints, ("A", "B", "C", "D"))
        np.testing.assert_array_equal(ls.matrix, same.matrix)

    def test_checks_read_no_dense_rows(self, monkeypatch):
        # with fewer rows than states the rank test needs no dense rows, and
        # the LPs write each row from its sides
        def dense(self):
            raise AssertionError("dense rows built")

        want = {"mining": True, "ring-8": True, "contradiction": False}
        models = {"mining": helpers.mining(), "ring-8": helpers.ring_model(8, 0),
                  "contradiction": helpers.contradiction()}
        monkeypatch.setattr(consistency.LinearSystem, "matrix", property(dense))
        for name, m in models.items():
            assert global_consistent(m).consistent == want[name], name
            assert local_check(m, decompose(m)).consistent == want[name], name


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

    def test_scope_cap_refused_before_any_table(self):
        m = helpers.ring_model(SCOPE_CAP + 1, 0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{SCOPE_CAP + 1} variables exceed the "
                                                 f"global-check cap {SCOPE_CAP}"):
                global_consistent(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 << (SCOPE_CAP + 1)) // 100  # one float per state is 16 MB

    def test_mining_consistent(self):
        assert global_consistent(helpers.mining()).consistent


class TestSolutionSpace:
    def cs_acd(self):
        return helpers.conditionals(helpers.mining())[:4]

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
        ss = solution_space(to_linear((), ("A",)))
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
        cs = helpers.conditionals(helpers.mining())[:4]
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
        cs = (helpers.cc("A", "B", 0.7),)
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
        cs = (helpers.cc("A", "B", 0.6),)
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
    """The two-table relaxation that `local_check`'s culprit search runs:
    `_tree_witnesses` on two cliques, the second anchored at the first."""

    @staticmethod
    def pair(model, clique_i, clique_j):
        systems = [to_linear(model.constraints, model.ordered_scope(c))
                   for c in (clique_i, clique_j)]
        sol = consistency._tree_witnesses(systems, (None, 0))
        return sol and [JointTable(ls.scope, p) for ls, p in zip(systems, sol)]

    def test_mining_cliques_consistent(self):
        wi, wj = self.pair(helpers.mining(), fs("A", "C", "D"), fs("B", "C", "D"))
        np.testing.assert_allclose(marginalize(wi, ("C", "D")).probs,
                                   marginalize(wj, ("C", "D")).probs, atol=1e-8)
        assert residuals(wi, tuple(c for c in helpers.mining().constraints
                                   if c.scope <= fs("A", "C", "D"))).max_magnitude < 1e-8

    def test_forced_contradiction(self):
        assert self.pair(helpers.contradiction(), fs("A", "B"), fs("B", "C")) is None

    def test_disjoint_cliques(self):
        m = helpers.model_of("ABCD", helpers.cc("A", "B", 0.7),
                             helpers.cc("C", "D", 0.2))
        assert self.pair(m, fs("A", "B"), fs("C", "D"))


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
        calls.clear()
        m = helpers.quad()  # one clique: the joint LP that failed is that clique's own
        report = local_check(m, decompose(m))
        assert report.culprit == (fs("A", "B"), fs("A", "B")) and len(calls) == 1

    def test_pairwise_checks_pass_but_tree_fails(self):
        # no clique fails alone or against its anchor, so no culprit is
        # named, and the note says why
        m = parse_model(helpers.PAIRWISE_BLIND_TEXT)
        report = local_check(m, decompose(m))
        assert not report.consistent and report.culprit is None
        assert report.note.startswith("anchor-pairwise checks passed")
        assert not global_consistent(m).consistent

    def test_undecided_relaxations_name_no_culprit(self, monkeypatch):
        # the joint LP proves the set infeasible; relaxations that HiGHS
        # leaves undecided prove nothing, so the search goes on past them
        # and the verdict stands, with a note naming them
        statuses = []

        def stub(*args, **kwargs):
            statuses.append(4 if statuses else 2)
            return scipy.optimize.OptimizeResult(status=statuses[-1], message="stub")

        monkeypatch.setattr(scipy.optimize, "linprog", stub)
        m = helpers.mining()
        report = local_check(m, decompose(m))
        assert (report.consistent, report.feasible, report.culprit) == (False, False, None)
        assert report.note == ("no relaxation was proven infeasible: "
                               "the consistency LP over {A,C,D} is undecided: stub; "
                               "the consistency LP over {B,C,D} {A,C,D} is undecided: stub")
        assert statuses == [2, 4, 4]

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
        # c06's raw sixring cover: it has no running-intersection order,
        # so no decomposition of it, and no local check, can be made
        cover = (fs("A", "C", "F"), fs("B", "D", "E"), fs("C", "D"), fs("E", "F"))
        with pytest.raises(ValueError, match="not acyclic"):
            Decomposition(frozenset(), cover)

    def test_chain_contradiction_reaches_no_hand_built_order(self):
        # P(C) would have to be 0.9 through B and 0.1 through D.  An order
        # (AB, CD, BC) with anchors (None, 0, 0) checked CD against AB
        # alone and answered consistent; the order now comes from the
        # cliques, so BC sits between them
        m = helpers.model_of("ABCD", helpers.cc("B", "A", 0.5),
                             helpers.cc("C", "B", 0.9), helpers.cc("C", "~B", 0.9),
                             helpers.cc("C", "D", 0.1), helpers.cc("C", "~D", 0.1))
        cover = (fs("A", "B"), fs("C", "D"), fs("B", "C"))
        with pytest.raises(TypeError):
            Decomposition(frozenset(), cover, RipOrder(cover, (None, 0, 0)), 12)
        d = Decomposition(frozenset(), cover)
        assert d.rip == RipOrder((fs("A", "B"), fs("B", "C"), fs("C", "D")), (None, 0, 1))
        assert d.cost == 12
        assert not local_check(m, d).consistent
        assert not global_consistent(m).consistent

    def test_single_clique_matches_global(self):
        m = helpers.fig21()
        report = local_check(m, decompose(m))
        assert report.consistent == global_consistent(m).consistent

    def test_witnesses_satisfy_and_calibrate(self):
        m = helpers.mining()
        report = local_check(m, decompose(m))
        tables = dict(report.witnesses)
        for clique, table in report.witnesses:
            own = tuple(c for c in m.constraints if c.scope <= clique)
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
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        report = global_consistent(helpers.ring_model(8, 0))
        assert report.rank_ok and report.consistent

    def test_square_system_runs_the_svd(self, monkeypatch):
        # the companion of the test above: 4 rows on 4 states take the SVD
        # through the attribute that test patches, so that patch is live
        calls = []
        svd = np.linalg.svd

        def record(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", record)
        report = global_consistent(helpers.quad())
        assert calls == [(4, 4)]
        assert report.rank_ok is False and not report.consistent


class TestPresolve:
    """HiGHS presolves the LPs that couple tables through separator rows
    and skips it on one table, where it costs more than it saves."""

    @staticmethod
    def spy(monkeypatch):
        settings = []
        linprog = scipy.optimize.linprog

        def record(*args, **kwargs):
            settings.append(kwargs["options"]["presolve"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", record)
        return settings

    def test_one_table_lps_skip_presolve(self, monkeypatch):
        settings = self.spy(monkeypatch)
        m = helpers.ring_model(8, 0)
        assert global_consistent(m).consistent
        assert nonneg_feasible(to_linear(m.constraints, ("A", "B"))) is not None
        assert settings == [False, False]

    def test_tree_lps_keep_presolve(self, monkeypatch):
        settings = self.spy(monkeypatch)
        m = helpers.mining()
        d = decompose(m)
        assert len(d.cliques) == 2 and local_check(m, d).consistent
        assert settings == [True]
        settings.clear()
        # the tree LP fails, the first clique passes alone, and the
        # culprit search couples each later clique with its anchor
        m = helpers.contradiction()
        d = decompose(m)
        assert local_check(m, d).culprit is not None
        assert len(d.cliques) >= 2 and len(settings) >= 3
        assert settings == [True, False] + [True] * (len(settings) - 2)

    def test_presolve_changes_no_status_or_optimum(self, monkeypatch):
        # the one-table LP of each draw, solved both ways: the same status
        # and the same largest smallest entry t, so a witness minimum of 0
        # still marks a set whose feasible distributions all have zeros
        outcomes = []
        linprog = scipy.optimize.linprog

        def both(*args, **kwargs):
            res = {p: linprog(*args, **{**kwargs, "options": {"presolve": p}})
                   for p in (True, False)}
            outcomes.append([(r.status, r.x[-1] if r.status == 0 else None)
                             for r in res.values()])
            return res[kwargs["options"]["presolve"]]

        monkeypatch.setattr(scipy.optimize, "linprog", both)
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = helpers.random_model(rng)
            nonneg_feasible(to_linear(m.constraints, m.names))
        statuses = {0: 0, 2: 0}
        zeros = 0
        for (s_on, t_on), (s_off, t_off) in outcomes:
            assert s_on == s_off
            statuses[s_on] += 1
            if s_on == 0:
                assert t_off == pytest.approx(t_on, abs=1e-12)
                zeros += t_on < 1e-12
        # four consistent draws have a zero in every feasible distribution
        assert (statuses, zeros) == ({0: 240, 2: 60}, 4)


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

    @staticmethod
    def edge_cases():
        """Sets at the edge of what HiGHS decides, and a decomposition with
        an empty separator: the near-degenerate file; ring-6 sets with one
        value moved by 1e-5, proven inconsistent (0 lowered), caught only
        by the joint LP (4 raised), or with an undecided culprit LP (11
        raised, 21 lowered); and two independent components, consistent
        and not."""
        ring = helpers.ring_model(6, 0)

        def nudged(k, step):
            cs = list(ring.constraints)
            cs[k] = dataclasses.replace(cs[k], value=cs[k].value + step)
            return dataclasses.replace(ring, constraints=tuple(cs))

        apart = [helpers.cc("B", "A", 0.3), helpers.cc("D", "C", 0.6)]
        out = [parse_model(NEAR_DEGENERATE.read_text())]
        out += [nudged(k, step) for k, step in ((0, -1e-5), (4, 1e-5), (11, 1e-5), (21, -1e-5))]
        out += [helpers.model_of("ABCD", *apart),
                helpers.model_of("ABCD", *apart, helpers.cc("D", "C", 0.2))]
        d = decompose(out[-1])
        assert len(d.cliques) == 2 and d.rip.separator(1) == frozenset()
        return out

    @staticmethod
    def capture(monkeypatch):
        """Per tree LP, [its systems, its anchors, the keyword arguments
        `scipy.optimize.linprog` is called with], in call order."""
        calls = []
        tree, linprog = consistency._tree_witnesses, scipy.optimize.linprog

        def tree_captured(systems, anchors):
            calls.append([systems, anchors])
            return tree(systems, anchors)

        def linprog_captured(*args, **kwargs):
            assert not args
            calls[-1].append(kwargs)
            return linprog(**kwargs)

        monkeypatch.setattr(consistency, "_tree_witnesses", tree_captured)
        monkeypatch.setattr(scipy.optimize, "linprog", linprog_captured)
        return calls

    @staticmethod
    def assert_objective(kwargs, systems):
        """Everything but the rows, as the reference implies: maximize t,
        the last of n + 1 columns, with x = y + t*1, y >= 0, 0 <= t <= 1;
        HiGHS with its presolve only where separator rows couple tables."""
        assert sorted(kwargs) == ["A_eq", "b_eq", "bounds", "c", "method", "options"]
        n = sum(ls.size for ls in systems)
        c = np.zeros(n + 1)
        c[-1] = -1.0
        assert kwargs["c"].dtype == c.dtype and kwargs["c"].tobytes() == c.tobytes()
        assert kwargs["bounds"] == [(0.0, None)] * n + [(0.0, 1.0)]
        assert kwargs["method"] == "highs"
        assert kwargs["options"] == {"presolve": len(systems) > 1}

    @staticmethod
    def checked(check):
        """Run a check; an LP that HiGHS leaves undecided was captured first."""
        try:
            check()
        except UndecidedLPError:
            pass

    def test_reports_and_witnesses_match(self, monkeypatch):
        linprog = scipy.optimize.linprog

        def dense(*args, **kwargs):
            if "A_ub" in kwargs:  # the reference's own LP, with its -I block
                return linprog(*args, **kwargs)
            x = helpers.solve_feasible_dense(kwargs["A_eq"][:, :-1].toarray(), kwargs["b_eq"])
            if x is None:
                return scipy.optimize.OptimizeResult(status=2)
            return scipy.optimize.OptimizeResult(status=0, x=np.append(x, 0.0))

        verdicts = {True: 0, False: 0}
        for m in self.models():
            d = decompose(m)
            got = [global_consistent(m), local_check(m, d)]
            with monkeypatch.context() as mp:
                mp.setattr(scipy.optimize, "linprog", dense)
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
        # every LP handed to HiGHS, for the global, the joint-tree and the
        # culprit problems, has the equality system the former block-matrix
        # builder stacks from the same tables
        calls = self.capture(monkeypatch)
        # chains whose last variable is held at 0.9 by its left neighbour
        # and at 0.1 by its right one: the culprit search pairs every
        # clique with its anchor up to the last
        chains = []
        for n in range(5, 9):
            v = "ABCDEFGH"[:n]
            links = [helpers.cc(b, a, 0.5) for i in range(n - 3) for a, b in
                     ((v[i], v[i + 1]), ("~" + v[i], v[i + 1]))]
            x, y, z = v[-3:]
            chains.append(helpers.model_of(v, *links, helpers.cc(y, x, 0.9),
                                           helpers.cc(y, "~" + x, 0.9), helpers.cc(y, z, 0.1),
                                           helpers.cc(y, "~" + z, 0.1)))
        kinds = {"global": 0, "tree": 0, "culprit": 0}
        for m in self.models() + chains + self.edge_cases():
            for kind, check in (("global", lambda: global_consistent(m)),
                                ("tree", lambda: local_check(m, decompose(m)))):
                calls.clear()
                self.checked(check)
                for n, (systems, anchors, kwargs) in enumerate(calls):
                    want_a, want_b = helpers.tree_lp_dense(systems, anchors)
                    assert np.array_equal(kwargs["A_eq"][:, :-1].toarray(), want_a)
                    assert np.array_equal(kwargs["b_eq"], want_b)
                    self.assert_objective(kwargs, systems)
                    kinds["culprit" if n else kind] += 1
        assert kinds["global"] >= 80 and kinds["tree"] >= 80 and kinds["culprit"] >= 20, kinds

    def test_sparse_lp_input_matches_dense_csc(self, monkeypatch):
        # the LP handed to HiGHS is, array for array and byte for byte, the
        # CSC form of the former dense build (zero coefficients dropped too)
        calls = self.capture(monkeypatch)
        rng = np.random.default_rng(46)
        shipped = [parse_model(p.read_text()) for p in sorted(MODELS.glob("*.cn"))]
        generated = ([helpers.ring_model(n, n) for n in (6, 9, 12)]
                     + [helpers.grid_model(h, h) for h in (2, 3, 4)]
                     + [helpers.random_model(rng) for _ in range(40)])
        checked = 0
        for m in shipped + generated + self.edge_cases():
            calls.clear()
            self.checked(lambda: global_consistent(m))
            self.checked(lambda: local_check(m, decompose(m)))
            for systems, anchors, kwargs in calls:
                want_a, want_b = helpers.tree_lp_csc(systems, anchors)
                a_aug = kwargs["A_eq"]
                assert a_aug.format == "csc" and a_aug.shape == want_a.shape
                for name in ("data", "indices", "indptr"):
                    got, want = getattr(a_aug, name), getattr(want_a, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                b_eq = kwargs["b_eq"]
                assert b_eq.dtype == want_b.dtype and b_eq.tobytes() == want_b.tobytes()
                self.assert_objective(kwargs, systems)
                checked += 1
        assert checked >= 2 * len(shipped + generated + self.edge_cases())

    def test_rank_pretest_matches_null_space(self):
        # row matrices of every rank, with as many rows as states or more
        # (as quad has) as well as fewer, and the encodings of random models;
        # a LinearSystem derives its rows, so arbitrary rows ride a stand-in
        def rows(scope, m):
            return SimpleNamespace(scope=scope, constraints=(None,) * len(m),
                                   size=1 << len(scope), matrix=m)

        rng = np.random.default_rng(45)
        systems = [to_linear(helpers.quad().constraints, ("A", "B"))]
        for _ in range(150):
            n = int(rng.integers(1, 4))
            scope = tuple("ABC"[:n])
            k = int(rng.integers(1, 2 * (1 << n) + 1))
            r = int(rng.integers(0, min(k, 1 << n) + 1))
            m = rng.normal(size=(k, r)) @ rng.normal(size=(r, 1 << n))
            systems.append(rows(scope, m))
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
            systems.append(rows(tuple("ABC"[:n]), (u * sv) @ v.T))
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
