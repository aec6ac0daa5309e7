"""Structural algorithms on the model's graphs.

Covers maximal-clique enumeration, acyclicity of hypergraphs (Graham
reduction, and running-intersection orderings by maximum cardinality
search), triangulation of the neighbor graph by vertex elimination --
greedy minimum fill, or simulated annealing over elimination orderings --
that keeps the total clique state space small, the home clique of each
constraint, and a generalized d-separation test that remains valid when
the directed network contains cycles.  Every routine here is polynomial in
the size of its graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .model import BeliefNetwork, Model, NeighborGraph, neighbor_graph


@dataclass(frozen=True)
class Hypergraph:
    vertices: tuple[str, ...]
    hyperedges: tuple[frozenset[str], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.hyperedges:
            if not e:
                raise ValueError("empty hyperedge")
            if not e <= vs:
                raise ValueError(f"hyperedge {sorted(e)} not within vertices")


@dataclass(frozen=True)
class RipOrder:
    """Ordering of hyperedges where each set's overlap with all earlier
    ones fits inside a single earlier set (its anchor)."""

    order: tuple[frozenset[str], ...]
    anchors: tuple[int | None, ...]  # anchors[0] is None; anchors[i] < i

    def separator(self, i: int) -> frozenset[str]:
        """Set i's overlap with all earlier sets, which lies inside its
        anchor and so is its overlap with the anchor."""
        return self.order[i] & self.order[self.anchors[i]] if i else frozenset()


@dataclass(frozen=True)
class Decomposition:
    fill_in: frozenset[frozenset[str]]
    cliques: tuple[frozenset[str], ...]
    rip: RipOrder
    cost: int  # sum over cliques of 2^|clique|


ANNEAL_PROBES = 20     # random orderings whose cost spread is the start temperature
ANNEAL_MOVES = 50      # swaps tried per temperature level
ANNEAL_COOLING = 0.95  # temperature factor from one level to the next


@dataclass(frozen=True)
class AnnealOptions:
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


def _edge_key(e: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(e))


def clique_cost(cliques: Iterable[frozenset[str]]) -> int:
    return sum(1 << len(c) for c in cliques)


def maximal_cliques(g: NeighborGraph) -> list[frozenset[str]]:
    """All inclusion-maximal complete subgraphs, sorted lexicographically.

    Bron-Kerbosch with pivoting; isolated vertices appear as singleton
    cliques.
    """
    adj = g.adjacency()
    found: list[frozenset[str]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            found.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(g.nodes), set())
    return sorted(found, key=_edge_key)


def graham_acyclic(h: Hypergraph) -> bool:
    """True iff alternately deleting vertices that occur in exactly one
    hyperedge and hyperedges contained in another empties the
    hypergraph."""
    edges = [set(e) for e in h.hyperedges]
    changed = True
    while changed and edges:
        changed = False
        counts: dict[str, int] = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        for e in edges:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        kept: list[set[str]] = []
        for i, e in enumerate(edges):
            # drop empty edges and edges contained in another (one survivor
            # among exact duplicates)
            absorbed = not e or any(
                j != i and (e < edges[j] or (e == edges[j] and j < i))
                for j in range(len(edges))
            )
            if absorbed:
                changed = True
            else:
                kept.append(e)
        edges = kept
    return not edges


def rip_order(h: Hypergraph) -> RipOrder | None:
    """An ordering with the running-intersection property, or None.

    Maximum cardinality search over hyperedges (Tarjan & Yannakakis 1984,
    SIAM J. Comput. 13(3)): repeatedly take the unchosen hyperedge with
    the most vertices already covered by the chosen ones, ties going to
    input position.  The order is then checked: each hyperedge's overlap
    with the earlier ones must lie inside an earlier hyperedge, the first
    such being its anchor.  The search finds a running-intersection order
    exactly when the hypergraph is acyclic, so None coincides with Graham
    irreducibility.
    """
    left = list(h.hyperedges)
    order: list[frozenset[str]] = []
    covered: set[str] = set()
    while left:
        e = left.pop(max(range(len(left)), key=lambda i: len(left[i] & covered)))
        order.append(e)
        covered |= e
    anchors: list[int | None] = []
    earlier: set[str] = set()
    for i, e in enumerate(order):
        sep = e & earlier
        anchor = next((j for j in range(i) if sep <= order[j]), None)
        if i and anchor is None:
            return None
        anchors.append(anchor)
        earlier |= e
    return RipOrder(tuple(order), tuple(anchors))


def _eliminate(adj: dict[str, set[str]], next_vertex: Callable[[dict[str, set[str]]], str]
               ) -> tuple[list[str], frozenset[frozenset[str]], list[frozenset[str]]]:
    """Eliminate every vertex, each time the one `next_vertex` picks from
    the remaining graph, joining its remaining neighbours pairwise.

    Returns the elimination order, the fill edges, and the maximal cliques
    of the filled graph.  The order is a perfect elimination order of the
    filled graph, so those cliques are the maximal sets among the vertices
    taken with their remaining neighbours.
    """
    work = {v: set(ns) for v, ns in adj.items()}
    order: list[str] = []
    fill: set[frozenset[str]] = set()
    cliques: list[frozenset[str]] = []
    while work:
        v = next_vertex(work)
        ns = work.pop(v)
        for u in ns:
            work[u].discard(v)
        for u, w in itertools.combinations(ns, 2):
            if w not in work[u]:
                work[u].add(w)
                work[w].add(u)
                fill.add(frozenset((u, w)))
        order.append(v)
        cliques.append(frozenset(ns) | {v})
    # a vertex's clique can lie only inside that of a vertex eliminated earlier
    maximal = [c for i, c in enumerate(cliques) if not any(c < d for d in cliques[:i])]
    return order, frozenset(fill), maximal


def _min_fill(work: dict[str, set[str]]) -> str:
    """The vertex whose elimination adds the fewest fill edges, ties by
    name."""
    def fill_needed(v: str) -> int:
        ns = work[v]
        return sum(len(ns - work[u]) - 1 for u in ns) // 2

    return min(sorted(work), key=fill_needed)


def _decomposition(g: NeighborGraph, fill: frozenset[frozenset[str]],
                   cliques: Iterable[frozenset[str]]) -> Decomposition:
    cliques = tuple(sorted(cliques, key=_edge_key))
    rip = rip_order(Hypergraph(g.nodes, cliques))
    if rip is None:
        raise ValueError("fill-in did not produce an acyclic clique cover")
    return Decomposition(fill, cliques, rip, clique_cost(cliques))


def fill_in_greedy(g: NeighborGraph) -> Decomposition:
    """Minimum-fill elimination (ties by vertex name); chordal inputs get
    an empty fill."""
    _, fill, cliques = _eliminate(g.adjacency(), _min_fill)
    return _decomposition(g, fill, cliques)


def _fill_key(cost: int, fill: frozenset[frozenset[str]]) -> tuple:
    return (cost, len(fill), tuple(sorted(map(_edge_key, fill))))


def fill_in_anneal(g: NeighborGraph, opts: AnnealOptions | None = None) -> Decomposition:
    """Simulated annealing over elimination orderings (Kjærulff 1992,
    Statistics and Computing 2:7-17).

    A state is an ordering of the vertices, scored by the clique cost of
    its elimination, so every state is chordal.  Each restart starts from
    the greedy min-fill ordering at the cost spread of ANNEAL_PROBES
    random orderings (or 1) and tries ANNEAL_MOVES swaps of two positions
    per temperature level, cooling by ANNEAL_COOLING; it ends after the
    first level in which its current cost never changed (it has frozen),
    or at 1e-3 of its start temperature.  The result is the least (cost,
    fill size, sorted fill edges) seen, so it never costs more than
    greedy.  A chordal input returns greedy's empty fill at once: adding
    edges to a chordal graph never lowers its clique cost.
    Deterministic for a fixed seed.
    """
    opts = opts or AnnealOptions()
    adj = g.adjacency()
    greedy_order, fill, cliques = _eliminate(adj, _min_fill)
    if not fill:  # g is chordal, and no triangulation of it costs less
        return _decomposition(g, fill, cliques)
    greedy_cost = clique_cost(cliques)
    best_key, best = _fill_key(greedy_cost, fill), (fill, cliques)
    n = len(greedy_order)

    def evaluate(order: list[str]) -> tuple[int, frozenset[frozenset[str]], list[frozenset[str]]]:
        it = iter(order)
        _, fill, cliques = _eliminate(adj, lambda work: next(it))
        return clique_cost(cliques), fill, cliques

    master = np.random.SeedSequence(opts.seed)
    for child in master.spawn(opts.restarts):
        rng = np.random.default_rng(child)
        state = list(greedy_order)
        cur_cost = greedy_cost
        probes = [evaluate([state[k] for k in rng.permutation(n)])[0]
                  for _ in range(ANNEAL_PROBES)]
        t = float(max(probes) - min(probes)) or 1.0
        t_floor = t * 1e-3
        frozen = False
        while t > t_floor and not frozen:
            frozen = True
            for _ in range(ANNEAL_MOVES):
                i, j = int(rng.integers(n)), int(rng.integers(n - 1))
                j += j >= i
                state[i], state[j] = state[j], state[i]
                new_cost, fill, cliques = evaluate(state)
                if new_cost <= cur_cost or rng.random() < math.exp((cur_cost - new_cost) / t):
                    frozen = frozen and new_cost == cur_cost
                    cur_cost = new_cost
                    key = _fill_key(new_cost, fill)
                    if key < best_key:
                        best_key, best = key, (fill, cliques)
                else:
                    state[i], state[j] = state[j], state[i]  # reject
            t *= ANNEAL_COOLING
    return _decomposition(g, *best)


def _reach(start: Iterable, step: Callable[[object], set]) -> set:
    """`start` and everything reached from it by repeated `step`s."""
    seen, frontier = set(start), list(start)
    while frontier:
        new = step(frontier.pop()) - seen
        seen |= new
        frontier += new
    return seen


def descendants(net: BeliefNetwork, x: str) -> frozenset[str]:
    """All variables reachable from x along directed paths of length >= 1;
    includes x itself only when x lies on a directed cycle."""
    if x not in net.nodes:
        raise ValueError(f"unknown variable {x!r}")
    return frozenset(_reach(net.children(x), net.children))


def d_separated(net: BeliefNetwork, x: str, y: str, se: Iterable[str] = ()) -> bool:
    """Generalized d-separation, valid on graphs with directed cycles.

    True when no trail joins x and y on which every head-to-head node is
    in `se` or an ancestor of a node in it and every other inner node is
    outside `se` (each arc of a two-way pair is a link; self-arcs change
    nothing).  Decided in linear time by Bayes-ball (Shachter 1998, UAI;
    valid on cyclic graphs by Spirtes 1995, UAI): a walk from x over
    states (node, entered along an arc into it), passing a head-to-head
    ancestor of `se` by the detour down to `se` and back.
    """
    se = frozenset(se)
    if x == y:
        raise ValueError("x and y must differ")
    if x in se or y in se:
        raise ValueError("x and y must not be in the separating set")
    for v in (x, y, *se):
        if v not in net.nodes:
            raise ValueError(f"unknown variable {v!r}")

    parents: dict[str, set[str]] = {v: set() for v in net.nodes}
    children: dict[str, set[str]] = {v: set() for v in net.nodes}
    for u, v in net.edges:
        children[u].add(v)
        parents[v].add(u)

    def step(state: tuple[str, bool]) -> set[tuple[str, bool]]:
        # out-arcs are open unless z is in se; in-arcs are open when z in
        # se was entered along an in-arc, or z outside se was not
        z, into = state
        up = {(w, False) for w in parents[z]} if (z in se) == into else set()
        return up if z in se else up | {(w, True) for w in children[z]}

    # from (x, False) every link out of x is open, since x is not in se
    return all(z != y for z, _ in _reach({(x, False)}, step))


def decompose(model: Model, method: str = "greedy",
              opts: AnnealOptions | None = None) -> Decomposition:
    """Neighbor graph, fill-in, clique cover, and running-intersection
    order for a model, via the chosen fill-in search."""
    if not model.variables:
        raise ValueError("model has no variables")
    g = neighbor_graph(model)
    if method == "greedy":
        d = fill_in_greedy(g)
    elif method == "anneal":
        d = fill_in_anneal(g, opts)
    else:
        raise ValueError(f"unknown fill-in method {method!r}")
    constraint_homes(model, d)
    return d


def constraint_homes(model: Model, d: Decomposition) -> list[int]:
    """Per constraint, in declaration order, the index of its home: the
    first clique in running-intersection order that holds its scope."""
    homes = []
    for c in model.constraints:
        home = next((i for i, cl in enumerate(d.rip.order) if c.scope <= cl), None)
        if home is None:
            raise ValueError(
                f"constraint {c} fits in no clique of the decomposition; "
                "see the marginal scope-rule warnings")
        homes.append(home)
    return homes


@dataclass(frozen=True)
class GraphText:
    """Parsed graph/hypergraph description."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset[str]]
    arcs: frozenset[tuple[str, str]]
    hedges: tuple[frozenset[str], ...]

    def as_neighbor_graph(self) -> NeighborGraph:
        return NeighborGraph(self.nodes, self.edges)

    def as_belief_network(self) -> BeliefNetwork:
        return BeliefNetwork(self.nodes, self.arcs)

    def as_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.nodes, self.hedges)


def parse_graph_text(text: str) -> GraphText:
    """Line format: `nodes A B C`, `edge A B`, `arc A B`, `hedge A C D`;
    '#' starts a comment."""
    nodes: list[str] = []
    edges: set[frozenset[str]] = set()
    arcs: set[tuple[str, str]] = set()
    hedges: list[frozenset[str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "nodes":
            for v in args:
                if v in nodes:
                    raise ValueError(f"line {i}: node {v!r} declared twice")
                nodes.append(v)
        elif kind == "edge":
            if len(args) != 2 or args[0] == args[1]:
                raise ValueError(f"line {i}: 'edge' takes two distinct nodes")
            edges.add(frozenset(args))
        elif kind == "arc":
            if len(args) != 2:
                raise ValueError(f"line {i}: 'arc' takes two nodes")
            arcs.add((args[0], args[1]))
        elif kind == "hedge":
            if not args:
                raise ValueError(f"line {i}: 'hedge' needs at least one node")
            hedges.append(frozenset(args))
        else:
            raise ValueError(f"line {i}: unknown directive {kind!r}")
    known = set(nodes)
    mentioned = set().union(*edges, *hedges) if (edges or hedges) else set()
    mentioned |= {v for arc in arcs for v in arc}
    missing = mentioned - known
    if missing:
        raise ValueError(f"nodes used but not declared: {sorted(missing)}")
    return GraphText(tuple(nodes), frozenset(edges), frozenset(arcs), tuple(hedges))


def format_decomposition(d: Decomposition) -> str:
    lines = []
    fill = sorted(map(_edge_key, d.fill_in))
    lines.append("fill-in: " + (", ".join("(%s,%s)" % e for e in fill) if fill else "none"))
    lines.append("cliques: " + "; ".join("{" + ",".join(sorted(c)) + "}" for c in d.cliques))
    rip_bits = []
    for i, s in enumerate(d.rip.order):
        a = d.rip.anchors[i]
        label = "{" + ",".join(sorted(s)) + "}"
        rip_bits.append(label if a is None else f"{label}<-{a}")
    lines.append("rip order: " + " ".join(rip_bits))
    lines.append(f"cost: {d.cost}")
    return "\n".join(lines) + "\n"
