import itertools
import time

import numpy as np
import pytest

import helpers
from maxentbn import (AnnealOptions, BeliefNetwork, Literal, NeighborGraph,
                      build_network, check_ci, d_separated, decompose,
                      fill_in_anneal, fill_in_greedy, graham_acyclic,
                      maximal_cliques, mce_dual_solve, neighbor_graph,
                      parse_graph_text, rip_order, uniform)
from maxentbn import engine, graphops
from maxentbn.consistency import global_consistent
from maxentbn.cli import format_decomposition
from maxentbn.graphops import clique_cost
from maxentbn.mce import SolverOptions


def sixring() -> NeighborGraph:
    nodes = tuple("ABCDEF")
    return NeighborGraph(nodes, frozenset(frozenset(e) for e in helpers.SIXRING_EDGES))


def fs(*names):
    return frozenset(names)


def undirected_separated(g: NeighborGraph, x: str, y: str, se: set) -> bool:
    """Vertex separation in the neighbor graph: no x-y path avoiding se."""
    adj = g.adjacency()
    frontier, seen = [x], {x} | set(se)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w == y:
                return False
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return True


class TestMaximalCliques:
    def test_mining(self):
        g = neighbor_graph(helpers.mining())
        assert maximal_cliques(g) == [fs("A", "C", "D"), fs("B", "C", "D")]

    def test_sixring(self):
        assert maximal_cliques(sixring()) == [
            fs("A", "C", "F"), fs("B", "D", "E"), fs("C", "D"), fs("E", "F")]

    def test_single_vertex(self):
        g = NeighborGraph(("A",), frozenset())
        assert maximal_cliques(g) == [fs("A")]

    def test_isolated_vertices_are_singletons(self):
        g = NeighborGraph(("A", "B", "C"), frozenset({fs("A", "B")}))
        assert maximal_cliques(g) == [fs("A", "B"), fs("C")]

    def test_complete_graph(self):
        nodes = tuple("ABCD")
        edges = frozenset(frozenset(p) for p in itertools.combinations(nodes, 2))
        assert maximal_cliques(NeighborGraph(nodes, edges)) == [fs(*nodes)]


class TestGraham:
    def test_sixring_cover_not_acyclic(self):
        h = (fs("A", "C", "F"), fs("B", "D", "E"), fs("C", "D"), fs("E", "F"))
        assert not graham_acyclic(h)

    def test_chorded_cover_acyclic(self):
        h = (fs("A", "C", "F"), fs("B", "D", "E"),
             fs("C", "D", "F"), fs("D", "E", "F"))
        assert graham_acyclic(h)

    def test_single_hyperedge(self):
        assert graham_acyclic((fs("A", "C", "D"),))

    def test_duplicate_hyperedges(self):
        assert graham_acyclic((fs("A", "B"), fs("A", "B")))

    def test_empty_hypergraph(self):
        assert graham_acyclic(())

    def test_refuses_bad_hyperedges(self):
        # an empty clique is refused by both searches and so by a Decomposition
        for refuse in (rip_order, graham_acyclic,
                       lambda cliques: graphops.Decomposition(frozenset(), cliques)):
            with pytest.raises(ValueError, match="empty hyperedge"):
                refuse((fs("A"), fs()))


class TestRipOrder:
    def test_mining_cliques(self):
        r = rip_order((fs("A", "C", "D"), fs("B", "C", "D")))
        assert r is not None
        assert r.order == (fs("A", "C", "D"), fs("B", "C", "D"))
        assert r.anchors == (None, 0)
        assert r.separator(1) == fs("C", "D")

    def test_sixring_cover_has_none(self):
        h = (fs("A", "C", "F"), fs("B", "D", "E"), fs("C", "D"), fs("E", "F"))
        assert rip_order(h) is None

    def test_single_hyperedge(self):
        r = rip_order((fs("A"),))
        assert r.order == (fs("A"),) and r.anchors == (None,)

    def test_anchor_contains_separator(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = helpers.random_hypergraph(rng)
            r = rip_order(h)
            if r is None:
                continue
            for i in range(1, len(r.order)):
                assert r.separator(i) <= r.order[r.anchors[i]]

    def test_separator_matches_union_oracle(self):
        # the separator read off the anchor equals the overlap with every
        # earlier set, on random hypergraphs that have a RIP order
        rng = np.random.default_rng(1106)
        orderable = separators = 0
        for _ in range(400):
            h = helpers.random_hypergraph(rng, max_edges=10)
            r = rip_order(h)
            if r is None:
                continue
            orderable += 1
            for i in range(len(r.order)):
                assert r.separator(i) == helpers.separator_oracle(r, i)
                separators += bool(r.separator(i))
        assert orderable >= 100 and separators >= 200

    def test_equivalence_with_graham(self):
        # acyclicity via reduction coincides with orderability
        rng = np.random.default_rng(32)
        acyclic = cyclic = 0
        for _ in range(250):
            h = helpers.random_hypergraph(rng)
            reducible = graham_acyclic(h)
            orderable = rip_order(h) is not None
            assert reducible == orderable
            acyclic += reducible
            cyclic += not reducible
        assert acyclic >= 40 and cyclic >= 40

    def test_matches_bfs_oracle_and_graham(self):
        rng = np.random.default_rng(36)
        acyclic = cyclic = oracle_runs = 0
        for _ in range(2000):
            h = helpers.random_hypergraph(rng, max_edges=14)
            r = rip_order(h)
            assert (r is not None) == graham_acyclic(h)
            if len(h) <= 10:
                assert (r is None) == (helpers.rip_order_bfs(h) is None)
                oracle_runs += 1
            if r is None:
                cyclic += 1
                continue
            acyclic += 1
            assert sorted(map(sorted, r.order)) == sorted(map(sorted, h))
            assert r.anchors[0] is None
            for i in range(1, len(r.order)):
                assert r.anchors[i] < i
                assert r.separator(i) <= r.order[r.anchors[i]]
        assert acyclic >= 300 and cyclic >= 300 and oracle_runs >= 1000

    def test_generated_rings_decompose(self):
        for n in range(6, 25):
            m = helpers.ring_model(n, seed=n)
            d = decompose(m)
            r = d.rip
            assert sorted(map(sorted, r.order)) == sorted(map(sorted, d.cliques))
            for i in range(1, len(r.order)):
                assert r.anchors[i] < i
                assert r.separator(i) <= r.order[r.anchors[i]]
            assert graham_acyclic(d.cliques)


class TestDecomposition:
    """A `Decomposition` takes a fill-in and a clique cover and derives
    its running-intersection order and cost from the cover."""

    def test_rebuilt_from_its_cliques(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = helpers.random_model(rng)
            for method in ("greedy", "anneal"):
                d = decompose(m, method)
                assert graphops.Decomposition(d.fill_in, d.cliques) == d

    def test_builds_exactly_when_a_rip_order_exists(self):
        rng = np.random.default_rng(37)
        built = refused = 0
        for _ in range(400):
            h = helpers.random_hypergraph(rng, max_edges=10)
            r = rip_order(h)
            if r is None:
                with pytest.raises(ValueError, match="not acyclic"):
                    graphops.Decomposition(frozenset(), h)
                refused += 1
            else:
                d = graphops.Decomposition(frozenset(), h)
                assert d.rip == r and d.cost == clique_cost(h)
                built += 1
        assert built >= 60 and refused >= 60


class TestMergeCliques:
    """`merge_cliques` groups the cliques of a decomposition into the
    tables the decomposed solver runs on."""

    @staticmethod
    def check(d, max_vars):
        r, groups = graphops.merge_cliques(d, max_vars)
        assert len(groups) == len(d.rip.order)
        first = {}
        for i, g in enumerate(groups):
            first.setdefault(g, i)
            if first[g] != i:  # a later member joined its anchor's group
                assert groups[d.rip.anchors[i]] == g
        assert list(first) == list(range(len(r.order)))  # groups in order of first member
        for g, scope in enumerate(r.order):
            members = [c for c, h in zip(d.rip.order, groups) if h == g]
            assert scope == frozenset().union(*members)
            assert len(scope) <= max_vars or len(members) == 1
        assert r.anchors[0] is None
        for g in range(1, len(r.order)):
            assert r.anchors[g] == groups[d.rip.anchors[first[g]]] < g
            # running intersection: the overlap with every earlier group
            # lies in the anchor group, and is the first member's separator
            assert (r.separator(g) == helpers.separator_oracle(r, g)
                    == d.rip.separator(first[g]))
        return r

    def test_random_decompositions(self):
        rng = np.random.default_rng(71)
        merged = empty = oversized = 0
        for _ in range(120):
            g = helpers.random_graph(rng, int(rng.integers(3, 13)), float(rng.uniform(0.05, 0.7)))
            d = fill_in_greedy(g)
            for max_vars in range(1, 9):
                r = self.check(d, max_vars)
                merged += len(r.order) < len(d.rip.order)
                empty += sum(not r.separator(i) for i in range(1, len(r.order)))
                oversized += any(len(s) > max_vars for s in r.order)
        assert merged >= 300 and empty >= 100 and oversized >= 100

    def test_benchmark_shapes(self):
        # ring-16's chain of twelve 5-variable cliques pairs up into six
        # 6-variable tables; grid 3x3's cliques of 6, 7 and 6 stay apart
        budget = engine.SOLVER_TABLE_VARS
        ring = self.check(decompose(helpers.ring_model(16)), budget)
        assert [len(s) for s in ring.order] == [6] * 6
        grid = decompose(helpers.grid_model(3))
        assert self.check(grid, budget).order == grid.rip.order

    def test_home_clique_group_is_first_holding_group(self):
        # the decomposed solver puts each constraint on its home clique's
        # group; that is the first group whose scope holds the constraint
        rng = np.random.default_rng(5)
        models = ([helpers.random_model(rng) for _ in range(150)]
                  + [helpers.ring_model(n) for n in (6, 9, 12, 16)]
                  + [helpers.grid_model(h) for h in (2, 3, 4)])
        checked = joined = 0
        for m in models:
            for opts in (None, AnnealOptions(seed=1, restarts=1)):
                d = decompose(m, "anneal" if opts else "greedy", opts)
                homes = graphops.constraint_homes(m, d)
                for max_vars in range(3, 9):
                    r, groups = graphops.merge_cliques(d, max_vars)
                    for c, h in zip(m.constraints, homes):
                        first = next(g for g, s in enumerate(r.order) if c.scope <= s)
                        assert groups[h] == first
                        checked += 1
                        joined += groups.index(first) != h  # not its group's first
        assert checked >= 15000 and joined >= 2000, (checked, joined)

    def test_disconnected_components(self):
        # two 4-variable components: one table of 8 variables, or two
        # joined by an empty separator
        m = helpers.model_of("ABCDEFGH", helpers.cc("D", "A,B,C", 0.3),
                             helpers.cc("H", "E,F,G", 0.6))
        d = decompose(m)
        assert d.rip.separator(1) == frozenset()
        assert self.check(d, 8).order == (frozenset("ABCDEFGH"),)
        r = self.check(d, 6)
        assert r.order == d.rip.order and r.anchors == (None, 0)


def temperature_steps(t0: float, cooling: float) -> int:
    """Temperatures an unfrozen anneal visits from t0: it cools until the
    temperature falls to 1e-3 of t0."""
    t, floor, steps = t0, t0 * 1e-3, 0
    while t > floor:
        t *= cooling
        steps += 1
    return steps


class TestFillIn:
    def test_mining_no_fill(self):
        d = fill_in_greedy(neighbor_graph(helpers.mining()))
        assert d.fill_in == frozenset()
        assert d.cliques == (fs("A", "C", "D"), fs("B", "C", "D"))
        assert d.cost == 16

    def test_sixring_greedy(self):
        d = fill_in_greedy(sixring())
        assert d.fill_in == frozenset({fs("D", "F")})
        assert d.cost == 32
        assert len(d.cliques) == 4
        assert all(len(c) == 3 for c in d.cliques)
        assert graham_acyclic(d.cliques)

    def test_complete_graph_no_fill(self):
        nodes = tuple("ABCD")
        edges = frozenset(frozenset(p) for p in itertools.combinations(nodes, 2))
        d = fill_in_greedy(NeighborGraph(nodes, edges))
        assert d.fill_in == frozenset()
        assert d.cliques == (fs(*nodes),)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_sixring_anneal_cost(self, seed):
        d = fill_in_anneal(sixring(), AnnealOptions(seed=seed))
        assert d.cost == 32
        assert len(d.fill_in) == 1
        assert d.fill_in <= {fs("D", "F"), fs("C", "E")}  # the two optimal chords
        assert all(len(c) == 3 for c in d.cliques)

    def test_anneal_mining(self):
        d = fill_in_anneal(neighbor_graph(helpers.mining()), AnnealOptions(seed=3))
        assert d.fill_in == frozenset() and d.cost == 16

    def test_anneal_chordal_stays_empty(self):
        g = NeighborGraph(("A", "B", "C"), frozenset({fs("A", "B"), fs("B", "C")}))
        d = fill_in_anneal(g, AnnealOptions(seed=5))
        assert d.fill_in == frozenset()

    def test_anneal_needs_a_restart(self):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            AnnealOptions(restarts=0)

    @pytest.mark.parametrize("restarts", [2.5, "3", None, True], ids=repr)
    def test_anneal_restarts_is_an_integer(self, restarts):
        # refused at once, also where the graph is chordal and no restart runs
        with pytest.raises(ValueError, match="restarts must be at least 1 and an integer"):
            AnnealOptions(restarts=restarts)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True], ids=repr)
    def test_anneal_seed_is_a_non_negative_integer(self, seed):
        # refused at once, also where the graph is chordal and no seed is read
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            AnnealOptions(seed=seed)

    def test_anneal_takes_a_numpy_integer_seed(self):
        assert (fill_in_anneal(sixring(), AnnealOptions(seed=np.int64(9)))
                == fill_in_anneal(sixring(), AnnealOptions(seed=9)))

    def test_anneal_reproducible(self):
        g = sixring()
        a = fill_in_anneal(g, AnnealOptions(seed=9))
        b = fill_in_anneal(g, AnnealOptions(seed=9))
        assert a == b

    def test_anneal_never_worse_than_greedy(self):
        rng = np.random.default_rng(33)
        for trial in range(15):
            n = int(rng.integers(3, 8))
            nodes = tuple("ABCDEFG"[:n])
            edges = frozenset(frozenset(p) for p in itertools.combinations(nodes, 2)
                              if rng.random() < 0.45)
            g = NeighborGraph(nodes, edges)
            dg = fill_in_greedy(g)
            da = fill_in_anneal(g, AnnealOptions(seed=trial))
            assert da.cost <= dg.cost
            assert graham_acyclic(da.cliques)
            assert da.cost == clique_cost(da.cliques)
            filled = NeighborGraph(nodes, edges | da.fill_in)
            assert helpers.is_chordal(filled.adjacency())
            assert da.cliques == tuple(maximal_cliques(filled))

    def test_anneal_stops_when_frozen(self, monkeypatch):
        # the greedy ordering is scored, then per restart 20 probes and 50
        # moves per temperature level, memo hits included
        scored, eliminated = [], []
        score, eliminate = graphops._score, graphops._eliminate

        def counted_score(adj, order, memo):
            scored.append(order)
            return score(adj, order, memo)

        def counted_eliminate(*args):
            eliminated.append(1)
            return eliminate(*args)

        monkeypatch.setattr(graphops, "_score", counted_score)
        monkeypatch.setattr(graphops, "_eliminate", counted_eliminate)

        def states(g, restarts):
            scored.clear()
            eliminated.clear()
            fill_in_anneal(g, AnnealOptions(seed=0, restarts=restarts))
            # each distinct ordering scored is eliminated once; besides them
            # run the min-fill pass that finds the greedy ordering and the
            # rebuild of the winner
            assert len(eliminated) == len(set(scored)) + 2
            assert len(scored) > len(set(scored))
            return len(scored)

        # every elimination ordering of this graph costs the same, so each
        # restart ends after its first level
        flat = neighbor_graph(helpers.ring_model(6, 0))
        for restarts in (1, 3):
            assert states(flat, restarts) == 1 + restarts * (20 + 50)
        # cooling from the probed start to 1e-3 of it visits 135 levels;
        # sixring's restarts move at first, then freeze before that floor
        fixed = 1 + 3 * (20 + 50 * temperature_steps(1.0, 0.95))
        assert 1 + 3 * (20 + 50) < states(sixring(), 3) < fixed


def oracle_graphs() -> list[NeighborGraph]:
    """sixring, the neighbor graphs of rings of 6 to 10 variables, and the
    first three random graphs of 5 to 7 vertices that are not chordal (a
    chordal one returns before the anneal starts)."""
    rng = np.random.default_rng(62)
    drawn = (helpers.random_graph(rng, int(rng.integers(5, 8)), 0.5) for _ in range(100))
    unchordal = (g for g in drawn if not helpers.is_chordal(g.adjacency()))
    return ([sixring()] + [neighbor_graph(helpers.ring_model(n, n)) for n in range(6, 11)]
            + list(itertools.islice(unchordal, 3)))


class TestEliminationOracle:
    """The bitset elimination kernel and the searches built on it equal
    the set-based first forms kept in tests/helpers.py."""

    def test_kernel_matches_set_elimination(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            g = helpers.random_graph(rng, int(rng.integers(3, 13)), float(rng.uniform(0.1, 0.9)))
            names, adj = graphops._bitsets(g)
            n = len(names)
            fixed = [names[k] for k in rng.permutation(n)]
            for order in (None, fixed):
                if order is None:
                    want = helpers.eliminate_sets(g.adjacency(), helpers.min_fill_sets)
                    got = graphops._eliminate(adj)
                else:
                    it = iter(order)
                    want = helpers.eliminate_sets(g.adjacency(), lambda work: next(it))
                    got = graphops._eliminate(adj, [names.index(v) for v in order])
                order_got, fill_got, cliques_got = got
                assert [names[i] for i in order_got] == want[0]
                assert {frozenset((names[f // n], names[f % n])) for f in fill_got} == want[1]
                assert [frozenset(names[i] for i in range(n) if c >> i & 1)
                        for c in cliques_got] == want[2]

    def test_searches_match_oracles(self):
        graphs = oracle_graphs()
        for g in graphs:
            assert fill_in_greedy(g) == helpers.fill_in_greedy_oracle(g)
        for g in graphs:
            for seed in range(6):
                for restarts in (1, 2, 3):
                    opts = AnnealOptions(seed=seed, restarts=restarts)
                    assert fill_in_anneal(g, opts) == helpers.fill_in_anneal_oracle(g, opts)

    def test_decompose_matches_oracles(self):
        for n in range(6, 11):
            m = helpers.ring_model(n, n)
            g = neighbor_graph(m)
            assert decompose(m) == helpers.fill_in_greedy_oracle(g)
            opts = AnnealOptions(seed=n, restarts=2)
            assert decompose(m, "anneal", opts) == helpers.fill_in_anneal_oracle(g, opts)


class TestDescendants:
    """The descendant sets that the path-enumeration oracle reads."""

    def test_cycle_member_includes_itself(self):
        net = build_network(helpers.mining())
        assert helpers.descendants(net, "C") == fs("C", "D")

    def test_upstream_of_cycle(self):
        net = build_network(helpers.mining())
        assert helpers.descendants(net, "A") == fs("C", "D")

    def test_isolated(self):
        m = helpers.model_of("AB", helpers.cc("A", "B", 0.5))
        net = build_network(helpers.model_of("ABC", helpers.cc("A", "B", 0.5)))
        assert helpers.descendants(net, "C") == frozenset()


class TestDSeparation:
    def test_mining_ab_given_cd(self):
        net = build_network(helpers.mining())
        assert d_separated(net, "A", "B", {"C", "D"})

    def test_direct_link_never_blocked(self):
        net = build_network(helpers.mining())
        assert not d_separated(net, "A", "C", set())

    def test_mining_ab_given_c_only(self):
        net = build_network(helpers.mining())
        assert not d_separated(net, "A", "B", {"C"})

    def test_symmetry(self):
        net = build_network(helpers.mining())
        subsets = [set(), {"C"}, {"D"}, {"C", "D"}]
        for x, y in itertools.combinations("ABCD", 2):
            for se in subsets:
                if x in se or y in se:
                    continue
                assert d_separated(net, x, y, se) == d_separated(net, y, x, se)

    def test_disconnected_nodes_separated(self):
        net = build_network(helpers.model_of("ABC", helpers.cc("A", "B", 0.5)))
        assert d_separated(net, "A", "C", set())

    def test_validates_arguments(self):
        net = build_network(helpers.mining())
        with pytest.raises(ValueError):
            d_separated(net, "A", "A", set())
        with pytest.raises(ValueError):
            d_separated(net, "A", "B", {"A"})

    @pytest.mark.parametrize("given", [["Y", "Z"], ["Z", "Y"], ["C", "Z", "Y"]])
    def test_first_unknown_name_in_given_order(self, given):
        net = build_network(helpers.mining())
        first = next(v for v in given if v not in net.nodes)
        with pytest.raises(ValueError, match=f"unknown variable '{first}'"):
            d_separated(net, "A", "B", given)

    def test_soundness_vs_numerical_ci(self):
        # Graphical separation implies conditional independence in the
        # exact max-entropy joint whenever the separating set also
        # separates x from y in the undirected neighbor graph: that is
        # the part the Markov property guarantees.  The head-to-head
        # rule alone can over-claim on cyclic graphs (see the
        # counterexample test below), so purely collider-based
        # separations are exercised but not asserted independent.
        rng = np.random.default_rng(34)
        models = [helpers.mining(), helpers.fig21()]
        while len(models) < 10:
            # sparse models so that nontrivial separations exist
            m = helpers.random_model(rng, n_vars=int(rng.integers(4, 6)),
                                     n_conditionals=int(rng.integers(2, 4)),
                                     n_marginals=1)
            if global_consistent(m).consistent:
                models.append(m)
        checked = 0
        for m in models:
            net = build_network(m)
            ng = neighbor_graph(m)
            joint = mce_dual_solve(uniform(m.names), m.constraints,
                                   SolverOptions(tolerance=1e-10))
            names = m.names
            for x, y in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for se in itertools.combinations(rest, r):
                        if (d_separated(net, x, y, set(se))
                                and undirected_separated(ng, x, y, set(se))):
                            assert check_ci(joint, x, y, se, tol=1e-6), \
                                f"{x} vs {y} given {se}"
                            checked += 1
        assert checked >= 10

    def test_reachability_matches_oracles(self):
        # every (x, y, se) on random directed graphs with two-way arcs,
        # self-arcs and directed cycles: the reachability walk answers as
        # path enumeration and the moral-ancestral criterion do
        rng = np.random.default_rng(35)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            net = helpers.random_digraph(rng, int(rng.integers(2, 7)))
            for x, y in itertools.permutations(net.nodes, 2):
                rest = [v for v in net.nodes if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for se in itertools.combinations(rest, r):
                        got = d_separated(net, x, y, se)
                        assert got == helpers.d_separated_paths(net, x, y, se), \
                            (sorted(net.edges), x, y, se)
                        assert got == helpers.moral_separated(net, x, y, se), \
                            (sorted(net.edges), x, y, se)
                        verdicts[got] += 1
        assert min(verdicts.values()) >= 2000

    def test_large_cyclic_grid_matches_moral_oracle(self):
        # a 3 x 20 grid with random arc directions, a quarter of them both
        # ways: far beyond what path enumeration can answer
        rng = np.random.default_rng(36)
        names = [f"G{c}_{r}" for r in range(20) for c in range(3)]
        edges = set()
        for r in range(20):
            for c in range(3):
                for u, v in ((f"G{c}_{r}", f"G{c + 1}_{r}"), (f"G{c}_{r}", f"G{c}_{r + 1}")):
                    if v not in names:
                        continue
                    kind = rng.random()
                    if kind < 0.25:
                        edges |= {(u, v), (v, u)}
                    else:
                        edges.add((u, v) if kind < 0.625 else (v, u))
        net = BeliefNetwork(tuple(names), frozenset(edges))
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            x, y = (str(v) for v in rng.choice(names, size=2, replace=False))
            se = [v for v in names if v not in (x, y) and rng.random() < 0.3]
            got = d_separated(net, x, y, se)
            assert got == helpers.moral_separated(net, x, y, se), (x, y, se)
            verdicts[got] += 1
        assert min(verdicts.values()) >= 20

    def test_headtohead_overclaims_on_cycles(self):
        # With the C<->D cycle, the max-entropy joint factors over the
        # cliques {A,C,D} and {B,C,D}, which does not make A and B
        # marginally independent even though every path between them has
        # a head-to-head pair blocked by the empty set.  The criterion's
        # collider rule is therefore graphically satisfied here while the
        # numerical independence fails; only the conditioning set {C,D}
        # (an undirected separator) yields true independence.
        m = helpers.mining()
        net = build_network(m)
        joint = mce_dual_solve(uniform(m.names), m.constraints,
                               SolverOptions(tolerance=1e-10))
        assert d_separated(net, "A", "B", set())
        assert not check_ci(joint, "A", "B", (), tol=1e-6)
        # what `dsep` and the README say: the verdict is read off the
        # graph, and the solution still ties A to B
        a = Literal("A")
        assert helpers.conditional(joint, a, [Literal("B")]) == pytest.approx(0.19972, abs=1e-5)
        assert helpers.conditional(joint, a, [Literal("B", False)]) == pytest.approx(
            0.20066, abs=1e-5)
        assert d_separated(net, "A", "B", {"C", "D"})
        assert check_ci(joint, "A", "B", ("C", "D"), tol=1e-6)


class TestDecompose:
    def test_mining(self):
        d = decompose(helpers.mining())
        assert d.cliques == (fs("A", "C", "D"), fs("B", "C", "D"))
        assert d.fill_in == frozenset()

    def test_two_cycle_single_clique(self):
        d = decompose(helpers.fig21())
        assert d.cliques == (fs("A", "B"),)

    def test_scope_coverage_enforced(self):
        m = helpers.model_of("ABC", helpers.cc("A", "B", 0.5),
                             helpers.mc("A,C", 0.2))
        with pytest.raises(ValueError, match="no clique"):
            decompose(m)

    def test_greedy_refuses_anneal_options(self):
        # greedy min-fill reads no AnnealOptions, so it refuses any given
        m = helpers.ring_model(6)
        for opts in (AnnealOptions(), AnnealOptions(seed=3, restarts=7)):
            with pytest.raises(ValueError, match="greedy fill-in reads no AnnealOptions"):
                decompose(m, "greedy", opts)
        assert decompose(m, "greedy", None) == decompose(m)
        assert decompose(m, "anneal", AnnealOptions(seed=3)).cost <= decompose(m).cost

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown fill-in method 'bogus'"):
            decompose(helpers.mining(), method="bogus")

    def test_refuses_a_model_with_no_variables(self):
        with pytest.raises(ValueError, match="model has no variables"):
            decompose(helpers.Model((), ()))

    def test_constraint_homes_first_fit(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = helpers.random_model(rng)
            d = decompose(m)
            homes = graphops.constraint_homes(m, d)
            assert len(homes) == len(m.constraints)
            for c, h in zip(m.constraints, homes):
                assert c.scope <= d.rip.order[h]
                assert not any(c.scope <= cl for cl in d.rip.order[:h])

    def test_constraint_homes_refuses_homeless(self):
        m = helpers.homeless()
        with pytest.raises(ValueError, match=helpers.HOMELESS_ERROR):
            graphops.constraint_homes(m, fill_in_greedy(neighbor_graph(m)))

    def test_every_constraint_covered(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            m = helpers.random_model(rng)
            d = decompose(m)
            for c in m.constraints:
                assert any(c.scope <= cl for cl in d.cliques)
            assert graham_acyclic(d.cliques)


class TestGraphText:
    def test_parse_and_convert(self):
        g = parse_graph_text("nodes A B C\nedge A B\n")
        assert g.nodes == ("A", "B", "C") and g.edges == {fs("A", "B")}
        # a graph file holds an undirected graph: no arcs, no hyperedges
        for line in ("arc B C", "hedge A B C"):
            kind = line.split()[0]
            with pytest.raises(ValueError, match=f"line 3: unknown directive '{kind}'"):
                parse_graph_text(f"nodes A B C\nedge A B\n{line}\n")

    def test_undeclared_node(self):
        with pytest.raises(ValueError, match="not declared"):
            parse_graph_text("nodes A\nedge A B\n")

    @pytest.mark.parametrize("line", ["edge A A", "edge A", "edge A B C"])
    def test_edge_takes_two_distinct_nodes(self, line):
        with pytest.raises(ValueError, match="line 2: 'edge' takes two distinct nodes"):
            parse_graph_text(f"nodes A B C\n{line}\n")

    @pytest.mark.parametrize("text", ["nodes A B C\nedge A B\nnodes C\n",
                                      "nodes A B\nnodes C C\n"])
    def test_node_declared_twice(self, text):
        line = text.count("\n")
        with pytest.raises(ValueError, match=f"line {line}: node 'C' declared twice"):
            parse_graph_text(text)

    def test_node_declarations_take_linear_time(self):
        # 40,000 declarations, the last a duplicate: a list lookup per
        # declaration makes this quadratic, some 10 s on a 2-vCPU VM
        text = "nodes " + " ".join(f"V{i}" for i in range(40_000)) + " V39999\n"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="line 1: node 'V39999' declared twice"):
            parse_graph_text(text)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("text", ["", "# no nodes\n", "nodes\n"], ids=repr)
    def test_no_nodes_refused(self, text):
        with pytest.raises(ValueError, match="graph declares no nodes"):
            parse_graph_text(text)

    def test_sixring_file_matches(self):
        with open("models/sixring.graph", encoding="utf-8") as fh:
            g = parse_graph_text(fh.read())
        assert g.edges == sixring().edges

    def test_parses_to_the_neighbor_graph_itself(self):
        g = parse_graph_text("nodes A B C\nedge A B\nedge C B\n")
        assert g == NeighborGraph(("A", "B", "C"), frozenset({fs("A", "B"), fs("B", "C")}))
        assert g.as_neighbor_graph() is g

    def test_decomposition_report(self):
        d = fill_in_greedy(sixring())
        text = format_decomposition(d)
        assert "fill-in: (D,F)" in text
        assert "cost: 32" in text
