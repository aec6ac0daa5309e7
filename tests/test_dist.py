import itertools

import numpy as np
import pytest

import helpers
from helpers import conditional
from maxentbn import (ConditionalConstraint, JointTable, Literal,
                      MarginalConstraint, NeighborGraph,
                      check_ci, check_mrf, marginalize,
                      neighbor_graph, residuals, uniform)
from maxentbn import SolverOptions, decompose, solve_decomposed
from maxentbn.cli import format_table
from maxentbn.dist import (constraint_sides, event_mask, join_layout, probability,
                           project_index)
from maxentbn.engine import JoinEdge
from maxentbn.graphops import merge_cliques


def table(scope, values):
    return JointTable(tuple(scope), np.asarray(values, dtype=float))


class TestUniform:
    def test_two_vars(self):
        t = uniform(("A", "B"))
        np.testing.assert_allclose(t.probs, [0.25, 0.25, 0.25, 0.25])

    def test_one_var(self):
        np.testing.assert_allclose(uniform(("A",)).probs, [0.5, 0.5])

    def test_cap(self):
        with pytest.raises(ValueError, match="scope size"):
            uniform(tuple(f"v{i}" for i in range(21)))


class TestJointTable:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            table("AB", [0.5, 0.5, 0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            table("AB", [0.6, 0.6, -0.1, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # every comparison with NaN is False, so the sign and sum tests
        # alone would let an all-NaN table through
        with pytest.raises(ValueError, match="non-finite"):
            table("AB", [bad] * 4)
        with pytest.raises(ValueError, match="non-finite"):
            table("AB", [0.5, 0.5, 0.0, bad])

    @pytest.mark.parametrize("scope, probs, message", [
        ((), [1.0], "empty scope"),
        (("A", "B", "A"), [0.125] * 8, "repeated variables"),
        (tuple(f"v{i}" for i in range(21)), [1.0], "21 variables exceeds cap 20"),
        (("A", "B"), [0.5, 0.5], r"expected 4 probabilities, got \(2,\)"),
    ], ids=["empty", "repeated", "over-cap", "shape"])
    def test_rejects_bad_scope_or_shape(self, scope, probs, message):
        with pytest.raises(ValueError, match=message):
            JointTable(scope, np.array(probs))

    def test_state_order_last_var_lsb(self):
        # index 1 flips only the last scope variable
        t = table("AB", [0.1, 0.2, 0.3, 0.4])
        assert probability(t, [Literal("A", False), Literal("B", True)]) == pytest.approx(0.2)
        assert probability(t, [Literal("A", True), Literal("B", False)]) == pytest.approx(0.3)


class TestMarginalize:
    def test_reference_acd_to_cd(self):
        t = table("ACD", helpers.MINING_ACD)
        cd = marginalize(t, ("C", "D"))
        np.testing.assert_allclose(cd.probs, [0.5341, 0.2788, 0.0714, 0.1157],
                                   atol=1e-12)

    def test_reference_bcd_to_cd(self):
        # the reference BCD table sums to 0.9998; renormalize, then compare
        # against the raw block sums scaled by the same factor
        raw = helpers.MINING_BCD
        t = table("BCD", raw / raw.sum())
        cd = marginalize(t, ("C", "D"))
        expected = np.array([0.5341, 0.2787, 0.0713, 0.1157]) / raw.sum()
        np.testing.assert_allclose(cd.probs, expected, atol=1e-12)
        np.testing.assert_allclose(cd.probs, [0.5341, 0.2787, 0.0713, 0.1157],
                                   atol=3e-4)

    def test_identity(self):
        t = table("ACD", helpers.MINING_ACD)
        np.testing.assert_allclose(marginalize(t, ("A", "C", "D")).probs, t.probs)

    def test_reorders_scope(self):
        t = table("AB", [0.1, 0.2, 0.3, 0.4])
        ba = marginalize(t, ("B", "A"))
        np.testing.assert_allclose(ba.probs, [0.1, 0.3, 0.2, 0.4])

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="not in scope"):
            marginalize(uniform(("A",)), ("B",))

    def test_empty_subscope(self):
        with pytest.raises(ValueError, match="empty subscope"):
            marginalize(uniform(("A",)), ())

    def test_normalization_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = JointTable(("A", "B", "C"), helpers.random_positive_table(rng, 3))
            m = marginalize(t, ("B",))
            assert abs(m.probs.sum() - 1.0) < 1e-9

    def test_commutes(self):
        rng = np.random.default_rng(4)
        t = JointTable(tuple("ABCD"), helpers.random_positive_table(rng, 4))
        via = marginalize(marginalize(t, ("A", "B", "C")), ("A", "C"))
        direct = marginalize(t, ("A", "C"))
        np.testing.assert_allclose(via.probs, direct.probs, atol=1e-12)


class TestProjectIndex:
    def test_matches_bit_by_bit_restriction(self):
        scope = ("A", "B", "C", "D")
        for sub in [("C",), ("D", "A"), ("B", "C", "D"), ("D", "C", "B", "A")]:
            got = project_index(scope, sub)
            for state in range(16):
                bits = dict(zip(scope, f"{state:04b}"))
                assert got[state] == int("".join(bits[n] for n in sub), 2)

    def test_empty_sub_maps_to_zero(self):
        assert project_index(("A", "B"), ()).tolist() == [0, 0, 0, 0]

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="not in scope"):
            project_index(("A",), ("B",))


class TestJoinLayout:
    """`join_layout` on the fine join tree `d` and the solver tree
    `merge_cliques(d, 6)`, each edge against the definitions: a separator
    is a set's overlap with every earlier set of the order, and an empty
    one has no edge."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(23)
        return ([helpers.ring_model(n, 0) for n in (4, 8, 12)]
                + [helpers.grid_model(h, 0) for h in (2, 4)]
                + [helpers.random_model(rng) for _ in range(40)])

    def test_edges_match_definitions(self):
        trees = left_out = 0
        for m in self._models():
            d = decompose(m)
            for rip in (d.rip, merge_cliques(d, 6)[0]):
                scopes = [m.ordered_scope(c) for c in rip.order]
                offsets, edges = join_layout(scopes, rip.anchors)
                assert offsets[0] == 0 and len(offsets) == len(scopes) + 1
                assert [hi - lo for lo, hi in zip(offsets, offsets[1:])] == [
                    2 ** len(s) for s in scopes]
                seps = {i: m.ordered_scope(helpers.separator_oracle(rip, i))
                        for i in range(1, len(scopes))}
                assert [e[:3] for e in edges] == [
                    (i, rip.anchors[i], sep) for i, sep in seps.items() if sep]
                for i, j, sep, sub_i, sub_j in edges:
                    np.testing.assert_array_equal(sub_i, project_index(scopes[i], sep))
                    np.testing.assert_array_equal(sub_j, project_index(scopes[j], sep))
                left_out += sum(not sep for sep in seps.values())
                trees += len(rip.order) > 1
        assert trees > 20 and left_out > 0  # some draws have a variable in no constraint

    def test_separator_in_the_childs_order_and_empty_left_out(self):
        scopes = [("A", "B", "C"), ("C", "B", "D"), ("E",)]
        offsets, edges = join_layout(scopes, [None, 0, 0])
        assert offsets == [0, 8, 16, 18]
        assert [e[:3] for e in edges] == [(1, 0, ("C", "B"))]
        np.testing.assert_array_equal(edges[0][3], project_index(scopes[1], ("C", "B")))
        np.testing.assert_array_equal(edges[0][4], project_index(scopes[0], ("C", "B")))

    def test_report_join_edges_are_the_fine_trees(self):
        for m in self._models():
            d = decompose(m)
            report = solve_decomposed(m, d, SolverOptions(max_cycles=1), record=False)
            assert report.join_edges == tuple(
                JoinEdge(i, d.rip.anchors[i], m.ordered_scope(d.rip.separator(i)))
                for i in range(1, len(d.rip.order)))


class TestConstraintSides:
    def test_conditional_splits_its_event(self):
        a, b = constraint_sides(("A", "B"), helpers.cc("A", "B", 0.7))
        assert a.tolist() == [False, False, False, True]
        assert b.tolist() == [False, True, False, False]

    def test_cell_splits_everything(self):
        a, b = constraint_sides(("A", "B"), helpers.mc("A,~B", 0.3))
        assert a.tolist() == [False, False, True, False]
        assert (b == ~a).all()


class TestConditional:
    def test_reference_solution_satisfies_constraints(self):
        t = table("AB", [0.2808, 0.1836, 0.1071, 0.4285])
        assert conditional(t, Literal("A"), [Literal("B")]) == pytest.approx(0.7, abs=1e-4)
        assert conditional(t, Literal("B"), [Literal("A")]) == pytest.approx(0.8, abs=1e-4)

    def test_uniform(self):
        assert conditional(uniform(("A", "B")), Literal("A"), [Literal("B")]) == 0.5

    def test_zero_mass_condition(self):
        t = table("AB", [0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="undefined"):
            conditional(t, Literal("A"), [Literal("B")])


class TestResiduals:
    def test_two_cycle_at_uniform(self):
        rep = residuals(uniform(("A", "B")), helpers.fig21().constraints)
        assert rep.universal == pytest.approx(0.0, abs=1e-12)
        assert rep.entries[0].residual == pytest.approx(-0.2, abs=1e-12)
        assert rep.entries[1].residual == pytest.approx(-0.3, abs=1e-12)
        assert [e.magnitude for e in rep.entries] == pytest.approx([0.2, 0.3], abs=1e-12)

    def test_marginal_gradient_at_uniform(self):
        cs = (helpers.mc("A", 0.2),)
        rep = residuals(uniform(("A", "C", "D")), cs)
        assert rep.entries[0].residual == pytest.approx(0.3, abs=1e-12)

    def test_self_consistent_table_all_zero(self):
        t = table("AB", helpers.FIG21_JOINT)
        rep = residuals(t, helpers.fig21().constraints)
        assert rep.max_magnitude < 1e-9

    def test_undefined_counts_as_one(self):
        t = table("AB", [0.5, 0.0, 0.5, 0.0])
        rep = residuals(t, helpers.fig21().constraints)
        assert rep.entries[0].residual is None
        assert rep.entries[0].magnitude == 1.0

    def test_zero_residuals_iff_satisfied(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = JointTable(("A", "B"), helpers.random_positive_table(rng, 2))
            cs = (
                helpers.cc("A", "B", conditional(t, Literal("A"), [Literal("B")])),
                helpers.mc("B", probability(t, [Literal("B")])),
            )
            assert residuals(t, cs).max_magnitude < 1e-9

    def test_matches_mask_oracle(self):
        # the (a, b)-side reading against the former event-mask reading on
        # random tables of 1-4 variables, half of them with zero entries,
        # under conditionals and cells at v in {0, 1, interior}
        rng = np.random.default_rng(9)
        seen = {"undefined": 0, "defined": 0, "cell": 0, "conditional": 0}
        for _ in range(400):
            n = int(rng.integers(1, 5))
            scope = tuple("ABCD"[:n])
            probs = helpers.random_positive_table(rng, n)
            if rng.random() < 0.5:
                probs[rng.random(probs.size) < 0.75] = 0.0
                probs[rng.integers(probs.size)] += 0.1
                probs /= probs.sum()
            t = JointTable(scope, probs)
            cs = []
            for _ in range(int(rng.integers(1, 6))):
                v = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
                names = list(rng.permutation(scope)[:int(rng.integers(1, n + 1))])
                lits = tuple(Literal(str(x), bool(rng.integers(2))) for x in names)
                if rng.random() < 0.5:
                    cs.append(MarginalConstraint(lits, v))
                    seen["cell"] += 1
                else:
                    cs.append(ConditionalConstraint(lits[0], lits[1:], v))
                    seen["conditional"] += 1
            got = residuals(t, tuple(cs))
            want = helpers.residuals_masks(t, tuple(cs))
            for g, w in zip(got.entries, want.entries):
                assert (g.current is None) == (w.current is None)
                if w.current is None:
                    seen["undefined"] += 1
                    assert g.residual is None and g.magnitude == 1.0
                else:
                    seen["defined"] += 1
                    assert g.current == pytest.approx(w.current, rel=0, abs=1e-12)
                    assert g.residual == pytest.approx(w.residual, rel=0, abs=1e-12)
            assert got.max_magnitude == pytest.approx(want.max_magnitude, rel=0, abs=1e-12)
        assert min(seen.values()) >= 30, seen


def brute_force_ci(t: JointTable, x: str, y: str, given, tol: float) -> bool:
    """Independent check by explicit enumeration of conditioning states."""
    given = tuple(given)
    for bits in itertools.product((False, True), repeat=len(given)):
        g = [Literal(v, b) for v, b in zip(given, bits)]
        pg = probability(t, g)
        if pg <= tol:
            continue
        for bx, by in itertools.product((False, True), repeat=2):
            pxy = probability(t, g + [Literal(x, bx), Literal(y, by)]) / pg
            px = probability(t, g + [Literal(x, bx)]) / pg
            py = probability(t, g + [Literal(y, by)]) / pg
            if abs(pxy - px * py) > tol:
                return False
    return True


class TestCheckCI:
    def test_mining_exact_joint(self):
        t = table("ABCD", helpers.MINING_JOINT)
        assert check_ci(t, "A", "B", ("C", "D"), tol=1e-6)

    def test_uniform_independent(self):
        assert check_ci(uniform(("A", "B")), "A", "B")

    def test_correlated(self):
        t = table("AB", [0.5, 0.0, 0.0, 0.5])
        assert not check_ci(t, "A", "B")

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="variable 'Z' not in scope"):
            check_ci(uniform(("A", "B")), "A", "B", ("Z",))

    def test_sets_must_be_disjoint(self):
        t = uniform(("A", "B", "C"))
        for x, y, given in (("A", "A", ()), ("A", "B", ("A",)), ("A", "B", ("C", "B"))):
            with pytest.raises(ValueError, match="must be disjoint"):
                check_ci(t, x, y, given)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(120):
            # grid-valued tables make exact independence reachable
            raw = rng.integers(0, 4, size=8).astype(float)
            if raw.sum() == 0:
                continue
            if rng.random() < 0.3:
                # product tables: independent by construction
                pa = rng.integers(1, 4, size=2).astype(float)
                pb = rng.integers(1, 4, size=2).astype(float)
                pc = rng.integers(1, 4, size=2).astype(float)
                raw = np.einsum("i,j,k->ijk", pa, pb, pc).reshape(-1)
            t = JointTable(("A", "B", "C"), raw / raw.sum())
            for given in ((), ("C",)):
                got = check_ci(t, "A", "B", given, tol=1e-9)
                want = brute_force_ci(t, "A", "B", given, tol=1e-9)
                assert got == want
                hits += got
        assert hits > 10  # both outcomes exercised


class TestCheckMRF:
    def test_mining_joint_is_mrf(self):
        t = table("ABCD", helpers.MINING_JOINT)
        g = neighbor_graph(helpers.mining())
        assert check_mrf(t, g, tol=1e-6)

    def test_two_cycle_joint_is_mrf(self):
        t = table("AB", helpers.FIG21_JOINT)
        g = neighbor_graph(helpers.fig21())
        assert check_mrf(t, g, tol=1e-6)

    def test_scope_must_be_the_nodes(self):
        g = neighbor_graph(helpers.fig21())
        for scope in ("A", "ABC"):
            with pytest.raises(ValueError, match="cover exactly the graph nodes"):
                check_mrf(uniform(tuple(scope)), g)

    def test_edgeless_graph_fails(self):
        t = table("ABCD", helpers.MINING_JOINT)
        g = NeighborGraph(("A", "B", "C", "D"), frozenset())
        assert not check_mrf(t, g, tol=1e-6)


class TestSerialize:
    def test_format(self):
        t = table("AB", [0.25, 0.25, 0.125, 0.375])
        assert format_table(t) == (
            "scope A B\n00 0.250000\n01 0.250000\n10 0.125000\n11 0.375000\n")


class TestEventMask:
    def test_contradiction_is_empty(self):
        m = event_mask(("A", "B"), [Literal("A"), Literal("A", False)])
        assert not m.any()

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match=r"variable 'C' not in scope \('A', 'B'\)"):
            event_mask(("A", "B"), [Literal("A"), Literal("C", False)])
