import dataclasses

import numpy as np
import pytest

import helpers
from helpers import conditional, jeffrey_update
from maxentbn import dist, mce
from maxentbn import (ConvergenceError, JointTable, Literal,
                      SolverOptions, UnreachableConstraintError,
                      conditional_update, decompose, mce_dual_solve,
                      residuals, solve_decomposed, successive_solve, uniform)
from maxentbn.cli import format_trace
from maxentbn.dist import PROB_FLOOR, probability
from maxentbn.mce import DualProblem, SCHEDULE_ROUND_ROBIN
from maxentbn.model import ConditionalConstraint


class TestJeffrey:
    def test_uniform_two_vars(self):
        out = jeffrey_update(uniform(("A", "B")), helpers.mc("A", 0.2))
        np.testing.assert_allclose(out.probs, [0.4, 0.4, 0.1, 0.1], atol=1e-15)

    def test_uniform_three_vars(self):
        out = jeffrey_update(uniform(("A", "C", "D")), helpers.mc("A", 0.2))
        np.testing.assert_allclose(out.probs, [0.2] * 4 + [0.05] * 4, atol=1e-15)

    def test_identity_when_satisfied(self):
        rng = np.random.default_rng(21)
        t = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
        v = probability(t, [Literal("A")])
        out = jeffrey_update(t, helpers.mc("A", v))
        np.testing.assert_allclose(out.probs, t.probs, atol=1e-15)

    def test_boundary_hard_conditioning(self):
        out = jeffrey_update(uniform(("A", "B")), helpers.mc("A", 1.0))
        np.testing.assert_allclose(out.probs, [0.0, 0.0, 0.5, 0.5])

    def test_unreachable(self):
        t = JointTable(("A", "B"), np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(UnreachableConstraintError):
            jeffrey_update(t, helpers.mc("A", 0.3))


class TestConditionalUpdate:
    def test_closed_form_values(self):
        out = conditional_update(uniform(("A", "B")), helpers.cc("A", "B", 0.7))
        np.testing.assert_allclose(out.probs, helpers.COND_UPDATE_07, atol=1e-12)

    def test_constraint_holds_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            t = JointTable(("A", "B", "C"), helpers.random_positive_table(rng, 3))
            cc = helpers.cc("A", "B,~C", float(rng.uniform(0.05, 0.95)))
            out = conditional_update(t, cc)
            got = conditional(out, cc.target, list(cc.condition))
            assert got == pytest.approx(cc.value, abs=1e-12)
            assert out.probs.min() >= 0.0
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_untouched_outside_event_ratios(self):
        # states outside the conditioning event keep their mutual ratios
        rng = np.random.default_rng(23)
        t = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
        out = conditional_update(t, helpers.cc("A", "B", 0.7))
        assert (out.probs[0] / out.probs[2]) == pytest.approx(
            t.probs[0] / t.probs[2], rel=1e-12)

    def test_identity_when_satisfied(self):
        out = conditional_update(uniform(("A", "B")), helpers.cc("A", "B", 0.5))
        np.testing.assert_allclose(out.probs, uniform(("A", "B")).probs, atol=1e-15)

    def test_two_each_interleaved_matches_reference(self):
        t = uniform(("A", "B"))
        mu0 = helpers.cc("A", "B", 0.7)
        mu1 = helpers.cc("B", "A", 0.8)
        for _ in range(2):
            t = conditional_update(t, mu0)
            t = conditional_update(t, mu1)
        np.testing.assert_allclose(t.probs, helpers.FIG21_TWO_EACH, atol=2e-3)

    def test_negated_target(self):
        out = conditional_update(uniform(("A", "B")),
                                 helpers.cc("~A", "B", 0.3))
        np.testing.assert_allclose(out.probs, helpers.COND_UPDATE_07, atol=1e-12)

    def test_boundary_mu(self):
        out = conditional_update(uniform(("A", "B")), helpers.cc("A", "B", 1.0))
        assert conditional(out, Literal("A"), [Literal("B")]) == 1.0
        out = conditional_update(uniform(("A", "B")), helpers.cc("A", "B", 0.0))
        assert conditional(out, Literal("A"), [Literal("B")]) == 0.0

    def test_zero_mass_event(self):
        t = JointTable(("A", "B"), np.array([0.5, 0.0, 0.5, 0.0]))
        with pytest.raises(UnreachableConstraintError):
            conditional_update(t, helpers.cc("A", "B", 0.7))


class TestDualSolve:
    def test_two_cycle_reference_solution(self):
        m = helpers.fig21()
        t = mce_dual_solve(uniform(("A", "B")), m.constraints)
        np.testing.assert_allclose(t.probs, [0.2808, 0.1836, 0.1071, 0.4285],
                                   atol=1.5e-3)
        assert residuals(t, m.constraints).max_magnitude <= 1e-8
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_constraints_returns_prior(self):
        t = uniform(("A", "B"))
        assert mce_dual_solve(t, ()) is t

    def test_single_constraint_matches_closed_form(self):
        cs = (helpers.cc("A", "B", 0.7),)
        t = mce_dual_solve(uniform(("A", "B")), cs)
        np.testing.assert_allclose(t.probs, helpers.COND_UPDATE_07, atol=1e-6)

    def test_inconsistent_raises(self):
        m = helpers.quad()
        with pytest.raises(ConvergenceError):
            mce_dual_solve(uniform(("A", "B")), m.constraints,
                           SolverOptions(max_iterations=60))

    def test_iteration_cap_named(self):
        # mining is consistent and converges with a fourth Newton step; a
        # run cut short by its cap says so instead of blaming the model
        m = helpers.mining()
        with pytest.raises(ConvergenceError,
                           match=r"^dual solve reached its 3-iteration cap at max residual "
                                 r"3\.26e-07 \(tolerance 1e-08\)") as exc:
            mce_dual_solve(uniform(m.names), m.constraints, SolverOptions(max_iterations=3))
        assert "stalled" not in str(exc.value)
        mce_dual_solve(uniform(m.names), m.constraints, SolverOptions(max_iterations=4))

    def test_out_of_scope_constraint_refused_alike(self):
        # the dual, successive updating and the residual reader all read
        # the constraint's sides over the prior's scope, so all refuse it
        prior, cs = uniform(("A",)), (helpers.cc("B", "A", 0.7),)
        messages = []
        for route in (mce_dual_solve, successive_solve, residuals):
            with pytest.raises(ValueError) as exc:
                route(prior, cs)
            messages.append(str(exc.value))
        assert messages == ["variable 'B' not in scope ('A',)"] * 3

    def test_requires_positive_prior(self):
        t = JointTable(("A",), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            mce_dual_solve(t, (helpers.mc("A", 0.4),))

    def test_nonuniform_prior_cross_entropy(self):
        # single-constraint projection from a random prior equals the
        # closed-form update of that same prior
        rng = np.random.default_rng(24)
        prior = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
        cc = helpers.cc("B", "A", 0.6)
        via_dual = mce_dual_solve(prior, (cc,),
                                  SolverOptions(tolerance=1e-11))
        via_rule = conditional_update(prior, cc)
        np.testing.assert_allclose(via_dual.probs, via_rule.probs, atol=1e-9)


class TestSolverOptions:
    @pytest.mark.parametrize("field", ["max_cycles", "max_iterations"])
    def test_caps_at_least_one(self, field):
        with pytest.raises(ValueError, match="iteration caps must be at least 1"):
            SolverOptions(**{field: 0})

    # True is a numbers.Integral, and max_cycles=True would run one cycle
    @pytest.mark.parametrize("field", ["max_cycles", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, "3", None, True], ids=repr)
    def test_caps_are_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverOptions(**{field: value})

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule 'x'"):
            SolverOptions(schedule="x")

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
    def test_tolerance_positive_and_finite(self, tol):
        # at an infinite tolerance every solve would stop before its first update
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverOptions(tolerance=tol)

    # True would compare as 1.0, at which a solve stops before its first
    # update, and a string would fail the comparison with a TypeError
    @pytest.mark.parametrize("tol", [True, False, "0.1", float("nan"), float("inf")], ids=repr)
    def test_tolerance_is_a_real_number(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverOptions(tolerance=tol)

    @pytest.mark.parametrize("tol", [1, np.float64(1e-6), np.float32(1e-3)], ids=repr)
    def test_tolerance_takes_any_positive_real(self, tol):
        assert SolverOptions(tolerance=tol).tolerance == tol


class TestDualProblem:
    def test_gradient_matches_finite_differences(self):
        m = helpers.mining()
        prob = DualProblem(uniform(m.names), m.constraints)
        rng = np.random.default_rng(25)
        for _ in range(5):
            lam = rng.normal(scale=0.5, size=len(m.constraints))
            g = prob.gradient(lam)
            h = 1e-6
            fd = np.empty_like(g)
            for i in range(len(lam)):
                e = np.zeros_like(lam)
                e[i] = h
                fd[i] = (prob.objective(lam + e) - prob.objective(lam - e)) / (2 * h)
            scale = max(1.0, np.abs(g).max())
            np.testing.assert_allclose(g / scale, fd / scale, atol=1e-5)

    def test_hessian_is_negative_semidefinite(self):
        m = helpers.fig21()
        prob = DualProblem(uniform(("A", "B")), m.constraints)
        rng = np.random.default_rng(26)
        for _ in range(5):
            lam = rng.normal(size=2)
            eig = np.linalg.eigvalsh(prob.hessian(prob.evaluate(lam)[1]))
            assert eig.max() <= 1e-12

    def test_solution_is_stationary(self):
        # at the optimum, log(p/q)+1 lies in the row space of the
        # constraint matrix plus the normalization row
        m = helpers.mining()
        prior = uniform(m.names)
        t = mce_dual_solve(prior, m.constraints, SolverOptions(tolerance=1e-11))
        prob = DualProblem(prior, m.constraints)
        rows = np.vstack([prob.matrix, np.ones(t.size)])
        grad = np.log(t.probs / prior.probs) + 1.0
        coef, *_ = np.linalg.lstsq(rows.T, grad, rcond=None)
        assert np.abs(rows.T @ coef - grad).max() < 1e-6


@pytest.fixture
def evaluations(monkeypatch):
    """The multipliers of every `DualProblem.evaluate` call, in order."""
    seen = []
    evaluate = DualProblem.evaluate

    def counted(self, lam):
        seen.append(np.array(lam).tobytes())
        return evaluate(self, lam)

    monkeypatch.setattr(DualProblem, "evaluate", counted)
    return seen


class TestDualEvaluations:
    @pytest.mark.parametrize("m", [helpers.mining(), helpers.ring_model(8, 0)],
                             ids=["mining", "ring8"])
    def test_one_evaluation_per_point(self, evaluations, m):
        # CG and Newton share each point's value and family member; the
        # line search re-reads a few points, so this is not exactly one
        mce_dual_solve(uniform(m.names), m.constraints)
        assert len(evaluations) <= 1.2 * len(set(evaluations))

    @pytest.mark.parametrize("m", [helpers.contradiction(), helpers.quad()],
                             ids=["contradiction", "quad"])
    def test_inconsistent_set_is_certified(self, evaluations, m):
        with pytest.raises(ConvergenceError, match="^the constraint set is inconsistent: "):
            mce_dual_solve(uniform(m.names), m.constraints)
        assert len(evaluations) <= 50

    def test_certificate_matches_global_check(self):
        # weak duality: no consistent draw is certified, and every
        # inconsistent one is; a 10-iteration CG stage keeps this quick,
        # and Newton still takes nearly every consistent draw to its optimum
        from maxentbn.consistency import global_consistent
        rng = np.random.default_rng(11)
        certified = inconsistent = 0
        for _ in range(300):
            m = helpers.random_model(rng)
            consistent = global_consistent(m).consistent
            inconsistent += not consistent
            try:
                mce_dual_solve(uniform(m.names), m.constraints,
                               SolverOptions(max_iterations=10))
            except ConvergenceError as exc:
                if str(exc).startswith("the constraint set is inconsistent: "):
                    assert not consistent, m
                    certified += 1
        assert certified == inconsistent == 60

    @pytest.mark.parametrize("m", [helpers.mining(), helpers.ring_model(8, 0)],
                             ids=["mining", "ring8"])
    def test_sides_built_once(self, monkeypatch, m):
        # one encoding and one scan, however many Newton steps the solve
        # takes: the Newton stop reads its points with the prebuilt scan
        calls = []
        sides = dist.constraint_sides

        def counted(scope, c):
            calls.append(c)
            return sides(scope, c)

        monkeypatch.setattr(dist, "constraint_sides", counted)
        mce_dual_solve(uniform(m.names), m.constraints)
        assert len(calls) == 2 * len(m.constraints)

    def test_flat_objective_above_tolerance_stalls(self):
        # draw 190 of default_rng(11) is consistent and forces no zero, yet
        # Newton's objective goes flat at a max residual above 1e-8
        rng = np.random.default_rng(11)
        for _ in range(191):
            m = helpers.random_model(rng)
        prob = DualProblem(uniform(m.names), m.constraints)
        assert mce._newton_polish(prob, np.zeros(len(m.constraints)), 1e-8, 500)[1] == "stalled"
        with pytest.raises(ConvergenceError, match=r"^dual solve stalled at max residual \S+ "
                           r"\(tolerance 1e-08\); the constraint set may contain boundary "
                           r"constraints$"):
            mce_dual_solve(uniform(m.names), m.constraints)

    def test_point_mass_at_the_bound_solves(self):
        # the solution puts all mass on one state of a uniform prior, so
        # KL* = log 4 = -log min(prior): the dual tends to the bound from
        # below and must never pass it
        m = helpers.model_of("AB", helpers.mc("A", 1.0), helpers.cc("B", "A", 1.0))
        t = mce_dual_solve(uniform(m.names), m.constraints)
        assert DualProblem(uniform(m.names), m.constraints).bound == np.log(4.0)
        np.testing.assert_allclose(t.probs, [0.0, 0.0, 0.0, 1.0], atol=1e-8)


class TestSuccessive:
    def test_round_robin_two_cycles_matches_reference(self):
        m = helpers.fig21()
        t, trace = successive_solve(
            uniform(("A", "B")), m.constraints,
            SolverOptions(schedule=SCHEDULE_ROUND_ROBIN, max_cycles=2))
        np.testing.assert_allclose(t.probs, helpers.FIG21_TWO_EACH, atol=2e-3)
        assert not trace.converged  # approximation only, more steps needed
        applied = [e.constraint for e in trace.events]
        assert [str(c) for c in applied] == [
            "P(A|B)=0.7", "P(B|A)=0.8", "P(A|B)=0.7", "P(B|A)=0.8"]

    def test_converges_to_dual_solution(self):
        m = helpers.fig21()
        exact = mce_dual_solve(uniform(("A", "B")), m.constraints)
        t, trace = successive_solve(uniform(("A", "B")), m.constraints)
        assert trace.converged
        np.testing.assert_allclose(t.probs, exact.probs, atol=1e-4)

    def test_single_constraint_one_application(self):
        cs = (helpers.cc("A", "B", 0.7),)
        t, trace = successive_solve(uniform(("A", "B")), cs)
        assert trace.converged
        assert len(trace.events) == 1
        np.testing.assert_allclose(t.probs, helpers.COND_UPDATE_07, atol=1e-12)

    def test_empty_constraints(self):
        t, trace = successive_solve(uniform(("A",)), ())
        assert trace.converged and len(trace.events) == 0

    def test_gradient_schedule_picks_max(self):
        m = helpers.fig21()
        _, trace = successive_solve(uniform(("A", "B")), m.constraints)
        # at uniform the 0.8 constraint has the larger residual (0.3 vs 0.2)
        assert str(trace.events[0].constraint) == "P(B|A)=0.8"
        assert trace.events[0].residual_before == pytest.approx(-0.3, abs=1e-12)

    def test_cycle_cap_flags_nonconvergence(self):
        m = helpers.quad()
        t, trace = successive_solve(uniform(("A", "B")), m.constraints,
                                    SolverOptions(max_cycles=5))
        assert not trace.converged
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    @pytest.mark.parametrize("m", helpers.one_update_models(), ids=["K=1", "K=2"])
    def test_converged_at_the_cycle_cap(self, m, schedule):
        t, trace = successive_solve(uniform(m.names), m.constraints,
                                    SolverOptions(max_cycles=1, schedule=schedule))
        assert trace.converged
        assert trace.cycles == 1 and len(trace.events) == len(m.constraints)
        assert residuals(t, m.constraints).max_magnitude <= 1e-12

    def test_trace_tsv(self):
        cs = (helpers.cc("A", "B", 0.7),)
        _, trace = successive_solve(uniform(("A", "B")), cs)
        lines = format_trace(trace).strip().split("\n")
        assert lines[0].split("\t")[:2] == ["1", "P(A|B)=0.7"]

    def test_recorded_trace_repr_is_stable(self):
        # a recorded trace, and a decomposed report holding one, print
        # the same on every run: no object address in their reprs
        m = helpers.fig21()
        traces = [successive_solve(uniform(("A", "B")), m.constraints)[1] for _ in range(2)]
        reports = [solve_decomposed(m, decompose(m)) for _ in range(2)]
        for a, b in (traces, reports):
            assert repr(a) == repr(b) and "0x" not in repr(a)
        assert f"events=UpdateLog({len(traces[0].events)} updates)" in repr(traces[0])


class TestOracleEquivalence:
    def test_single_conditional_equals_dual(self):
        # closed-form rule vs exact convex solve on random instances
        rng = np.random.default_rng(27)
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

    def test_successive_limit_equals_dual_on_random_models(self):
        # full-joint successive updating and the dual solver agree on
        # consistent models whose solutions stay interior
        from maxentbn.consistency import global_consistent
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 8:
            m = helpers.random_model(rng, n_vars=4,
                                     n_conditionals=int(rng.integers(2, 5)),
                                     n_marginals=1)
            if not global_consistent(m).consistent:
                continue
            exact = mce_dual_solve(uniform(m.names), m.constraints,
                                   SolverOptions(tolerance=1e-10))
            if exact.probs.min() < 1e-3:
                continue  # near-boundary solutions converge too slowly
            approx, trace = successive_solve(
                uniform(m.names), m.constraints,
                SolverOptions(tolerance=1e-6, max_cycles=5000))
            assert trace.converged
            np.testing.assert_allclose(approx.probs, exact.probs, atol=1e-4)
            checked += 1

    def test_updates_normalized_and_exact(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            prior = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
            c = (helpers.cc("A", "B", float(rng.uniform(0.05, 0.95)))
                 if rng.integers(2) else
                 helpers.mc("A", float(rng.uniform(0.05, 0.95))))
            out = conditional_update(prior, c)
            assert out.probs.min() >= 0.0
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert residuals(out, (c,)).max_magnitude <= 1e-12


class TestKernelAgainstOracle:
    """The one closed-form rule against the former numpy rules, kept in
    helpers as oracles: Jeffrey's rule for cells, the tilt for
    conditionals."""

    @staticmethod
    def _random_constraint(rng, scope):
        k = len(scope)
        value = float(rng.choice([0.0, 1.0, rng.uniform(0.02, 0.98)]))
        names = list(rng.choice(scope, size=int(rng.integers(1, k + 1)), replace=False))
        lits = ",".join(("" if rng.integers(2) else "~") + v for v in names)
        if len(names) == 1 or rng.integers(3) == 0:
            return helpers.mc(lits, value)
        target, cond = lits.split(",", 1)
        return helpers.cc(target, cond, value)

    @staticmethod
    def _outcome(update, prior, c):
        try:
            return update(prior, c).probs
        except UnreachableConstraintError:
            return None

    def test_positive_tables(self):
        rng = np.random.default_rng(41)
        kinds = set()
        for trial in range(400):
            k = int(rng.integers(1, 5))
            scope = tuple("WXYZ"[:k])
            prior = JointTable(scope, helpers.random_positive_table(rng, k))
            c = self._random_constraint(rng, scope)
            kinds.add((type(c).__name__, c.value in (0.0, 1.0)))
            got = conditional_update(prior, c)
            want = helpers.oracle_update(prior, c)
            np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-12,
                                       err_msg=f"trial {trial}: {c}")
        assert len(kinds) == 4  # both kinds, interior and boundary values

    def test_tables_with_zeros_raise_alike(self):
        rng = np.random.default_rng(42)
        raised = agreed = 0
        for trial in range(600):
            k = int(rng.integers(1, 4))
            scope = tuple("XYZ"[:k])
            p = helpers.random_positive_table(rng, k)
            p[rng.random(p.size) < 0.5] = 0.0
            if p.sum() == 0.0:
                continue
            prior = JointTable(scope, p / p.sum())
            c = self._random_constraint(rng, scope)
            got = self._outcome(conditional_update, prior, c)
            want = self._outcome(helpers.oracle_update, prior, c)
            assert (got is None) == (want is None), f"trial {trial}: {c} on {p}"
            if got is None:
                raised += 1
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                agreed += 1
        assert raised > 50 and agreed > 50


class TestSuccessiveAgainstOracle:
    """`successive_solve` against the former residuals()-driven loop."""

    @pytest.mark.parametrize("schedule", ["gradient", SCHEDULE_ROUND_ROBIN])
    @pytest.mark.parametrize("name,max_cycles", [
        ("fig21", 1000), ("mining", 1000), ("quad", 40),
        ("ring6/0", 15), ("ring6/1", 15)])
    def test_trace_matches(self, name, max_cycles, schedule):
        if name.startswith("ring6"):
            m = helpers.ring_model(6, int(name.split("/")[1]))
        else:
            m = getattr(helpers, name)()
        opts = SolverOptions(schedule=schedule, max_cycles=max_cycles)
        prior = uniform(m.names)
        t, trace = successive_solve(prior, m.constraints, opts)
        t_ref, trace_ref = helpers.successive_solve_oracle(prior, m.constraints, opts)
        assert format_trace(trace) == format_trace(trace_ref)
        assert (trace.converged, trace.cycles) == (trace_ref.converged, trace_ref.cycles)
        np.testing.assert_allclose(t.probs, t_ref.probs, rtol=0, atol=1e-12)

    @staticmethod
    def outcome(solve, prior, cs, opts):
        try:
            return solve(prior, cs, opts)
        except UnreachableConstraintError as exc:
            return str(exc)

    def test_random_models(self):
        # the models of test_engine's TestDecomposedAgainstOracle: every
        # third has one value moved to the boundary, 0 or 1, so the joint
        # gains zero entries and the scan meets events of zero mass
        rng = np.random.default_rng(61)
        outcomes, with_zeros = set(), 0
        for i in range(50):
            m = helpers.random_model(rng)
            if i % 3 == 0:
                cs = list(m.constraints)
                j = int(rng.integers(len(cs)))
                cs[j] = dataclasses.replace(cs[j], value=float(rng.integers(2)))
                m = helpers.Model(m.names, tuple(cs))
            prior = uniform(m.names)
            for schedule in ("gradient", SCHEDULE_ROUND_ROBIN):
                opts = SolverOptions(schedule=schedule, max_cycles=20)
                got = self.outcome(successive_solve, prior, m.constraints, opts)
                want = self.outcome(helpers.successive_solve_oracle, prior, m.constraints,
                                    opts)
                if isinstance(want, str):
                    assert got == want
                    outcomes.add("error")
                    continue
                (t, trace), (t_ref, trace_ref) = got, want
                # residuals near zero may differ from the oracle's in the
                # last bit, and in sign, so format_trace() is compared by field
                assert ([(e.cycle, str(e.constraint), e.residual_before is None)
                         for e in trace.events]
                        == [(e.cycle, str(e.constraint), e.residual_before is None)
                            for e in trace_ref.events])
                for a, b in zip(trace.events, trace_ref.events):
                    if a.residual_before is not None:
                        assert a.residual_before == pytest.approx(b.residual_before,
                                                                  rel=0, abs=1e-12)
                assert (trace.converged, trace.cycles) == (trace_ref.converged,
                                                           trace_ref.cycles)
                np.testing.assert_allclose(t.probs, t_ref.probs, rtol=0, atol=1e-12)
                outcomes.add(trace.converged)
                with_zeros += bool(t.probs.min() < PROB_FLOOR)
        assert outcomes == {"error", True, False}
        assert with_zeros >= 10

    @staticmethod
    def raise_alike(names, cs):
        prior = uniform(names)
        for schedule in ("gradient", SCHEDULE_ROUND_ROBIN):
            opts = SolverOptions(schedule=schedule)
            with pytest.raises(UnreachableConstraintError) as ref:
                helpers.successive_solve_oracle(prior, cs, opts)
            with pytest.raises(UnreachableConstraintError) as got:
                successive_solve(prior, cs, opts)
            assert str(got.value) == str(ref.value)

    def test_unreachable_raises(self):
        m = helpers.contradiction()
        self.raise_alike(m.names, m.constraints)

    def test_empty_event_raises(self):
        # a directly built conditional whose condition holds in no state:
        # its residual is undefined even on a positive joint
        empty = ConditionalConstraint(Literal("A"), (Literal("B"), Literal("B", False)), 0.5)
        self.raise_alike(("A", "B"), (helpers.mc("B", 0.3), empty))
