"""Structural algorithms on the model's graphs.

Covers maximal-clique enumeration, acyclicity of hypergraphs (Graham
reduction, and running-intersection orderings by maximum cardinality
search), triangulation of the neighbor graph by vertex elimination --
greedy minimum fill, or simulated annealing over elimination orderings --
that keeps the total clique state space small, the home clique of each
constraint, and a generalized d-separation test that remains valid when
the directed network contains cycles.  Every routine here is polynomial in
the size of its graph.  Both triangulations run one elimination kernel on
int bitmasks, vertex i being bit i in sorted-name order, and the anneal
eliminates each distinct ordering it scores once.  `merge_cliques` groups
a decomposition's cliques into the coarser join tree the decomposed
solver runs on.  Only the anneal uses numpy, for its seed generator, and
imports it when it first needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .model import BeliefNetwork, Model, NeighborGraph, neighbor_graph
from .options import is_integer


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
    """A clique cover and its fill-in.  The running-intersection order and
    the cost are derived from the cliques; a cyclic cover is refused."""

    fill_in: frozenset[frozenset[str]]
    cliques: tuple[frozenset[str], ...]
    rip: RipOrder = field(init=False)
    cost: int = field(init=False)  # sum over cliques of 2^|clique|

    def __post_init__(self):
        rip = rip_order(Hypergraph(tuple(sorted(set().union(*self.cliques))), self.cliques))
        if rip is None:
            raise ValueError("clique cover is not acyclic: it has no running-intersection order")
        object.__setattr__(self, "rip", rip)
        object.__setattr__(self, "cost", clique_cost(self.cliques))


ANNEAL_PROBES = 20     # random orderings whose cost spread is the start temperature
ANNEAL_MOVES = 50      # swaps tried per temperature level
ANNEAL_COOLING = 0.95  # temperature factor from one level to the next


@dataclass(frozen=True)
class AnnealOptions:
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        # checked here, since numpy's seeding, which would refuse it, runs
        # only when a graph is not chordal
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")
        if not is_integer(self.restarts) or self.restarts < 1:
            raise ValueError(f"restarts must be at least 1 and an integer, not {self.restarts!r}")


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


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bitsets(g: NeighborGraph) -> tuple[list[str], list[int]]:
    """The vertex names sorted, and per vertex its neighbours as a
    bitmask: vertex i is bit i."""
    names, nbrs = sorted(g.nodes), g.adjacency()
    index = {v: i for i, v in enumerate(names)}
    return names, [sum(1 << index[u] for u in nbrs[v]) for v in names]


def _eliminate(adj: list[int], order: Sequence[int] | None = None
               ) -> tuple[list[int], list[int], list[int]]:
    """Eliminate every vertex of the graph `adj` (vertex i is bit i), in
    `order`, or else each time the one adding the fewest fill edges, ties
    to the lower index; its remaining neighbours are joined pairwise.

    Returns the order, the fill edges {i, j}, i < j, as sorted codes
    i*n + j, and the maximal cliques of the filled graph as masks, in
    elimination order.  The order is a perfect elimination order of the
    filled graph, so those are the sets of a vertex and its remaining
    neighbours that equal no earlier vertex's remaining neighbours.
    """
    n = len(adj)
    work, left = list(adj), (1 << n) - 1
    out, fill, cliques, earlier = [], [], [], set()
    for step in range(n):
        # a vertex's missing neighbour pairs, each counted twice
        v = order[step] if order is not None else min(_bits(left), key=lambda x: sum(
            (work[x] & ~work[u]).bit_count() - 1 for u in _bits(work[x])))
        ns, bit = work[v], 1 << v
        left ^= bit
        for u in _bits(ns):
            new = ns & ~work[u] ^ 1 << u
            work[u] = (work[u] | new) ^ bit
            if new >> u:  # each pair once, from its lower end
                fill += [u * n + w for w in _bits(new >> u << u)]
        out.append(v)
        if ns | bit not in earlier:
            cliques.append(ns | bit)
        earlier.add(ns)
    return out, sorted(fill), cliques


def _decomposition(names: list[str], fill: list[int], cliques: Iterable[int]) -> Decomposition:
    cliques = tuple(sorted((frozenset(names[i] for i in _bits(c)) for c in cliques),
                           key=_edge_key))
    fill = frozenset(frozenset(names[i] for i in divmod(f, len(names))) for f in fill)
    return Decomposition(fill, cliques)


def fill_in_greedy(g: NeighborGraph) -> Decomposition:
    """Minimum-fill elimination (ties by vertex name); chordal inputs get
    an empty fill."""
    names, adj = _bitsets(g)
    _, fill, cliques = _eliminate(adj)
    return _decomposition(names, fill, cliques)


def _score(adj: list[int], order: tuple[int, ...], memo: dict) -> tuple:
    """(clique cost, fill size, fill edges in the order of their names) of
    eliminating in `order`; each ordering is eliminated once per memo."""
    key = memo.get(order)
    if key is None:
        _, fill, cliques = _eliminate(adj, order)
        key = memo[order] = (sum(1 << c.bit_count() for c in cliques), len(fill), tuple(fill))
    return key


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
    Deterministic for a fixed seed.  Each distinct ordering is eliminated
    once per call, by the bitset kernel: `_score` reads a revisit from a
    memo, and only the winner's fill edges and cliques are rebuilt.
    """
    opts = opts or AnnealOptions()
    names, adj = _bitsets(g)
    greedy_order, fill, cliques = _eliminate(adj)
    if not fill:  # g is chordal, and no triangulation of it costs less
        return _decomposition(names, fill, cliques)
    import numpy as np  # only the seed generator needs it
    memo, n, best_order = {}, len(names), tuple(greedy_order)
    best_key = greedy_key = _score(adj, best_order, memo)
    for child in np.random.SeedSequence(opts.seed).spawn(opts.restarts):
        rng = np.random.default_rng(child)
        state = list(greedy_order)
        cur_cost = greedy_key[0]
        probes = [_score(adj, tuple(state[k] for k in rng.permutation(n)), memo)[0]
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
                key = _score(adj, tuple(state), memo)
                new_cost = key[0]
                if new_cost <= cur_cost or rng.random() < math.exp((cur_cost - new_cost) / t):
                    frozen = frozen and new_cost == cur_cost
                    cur_cost = new_cost
                    if key < best_key:
                        best_key, best_order = key, tuple(state)
                else:
                    state[i], state[j] = state[j], state[i]  # reject
            t *= ANNEAL_COOLING
    _, fill, cliques = _eliminate(adj, best_order)
    return _decomposition(names, fill, cliques)


def _reach(start: Iterable, step: Callable[[object], set]) -> set:
    """`start` and everything reached from it by repeated `step`s."""
    seen, frontier = set(start), list(start)
    while frontier:
        new = step(frontier.pop()) - seen
        seen |= new
        frontier += new
    return seen


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
    given = list(se)  # unknown names are reported in the order given
    se = frozenset(given)
    if x == y:
        raise ValueError("x and y must differ")
    if x in se or y in se:
        raise ValueError("x and y must not be in the separating set")
    for v in (x, y, *given):
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
    order for a model, via the chosen fill-in search.  `opts` is the
    anneal's; greedy min-fill, which reads none, refuses them."""
    if not model.names:
        raise ValueError("model has no variables")
    g = neighbor_graph(model)
    if method == "greedy":
        if opts is not None:
            raise ValueError("greedy fill-in reads no AnnealOptions")
        d = fill_in_greedy(g)
    elif method == "anneal":
        d = fill_in_anneal(g, opts)
    else:
        raise ValueError(f"unknown fill-in method {method!r}")
    constraint_homes(model, d)
    return d


@dataclass(frozen=True)
class SolverTree:
    """A join tree whose nodes are groups of a decomposition's cliques:
    `rip` orders the groups' scopes, and `groups[i]` is the group of the
    decomposition's i-th clique in running-intersection order."""

    rip: RipOrder
    groups: tuple[int, ...]


def merge_cliques(d: Decomposition, max_vars: int) -> SolverTree:
    """Walk `d`'s running-intersection order and merge each clique into
    its anchor's group while the merged scope has at most `max_vars`
    variables; a clique that does not fit starts a group anchored at its
    anchor's group.  Each group is a connected subtree of the join tree,
    so contracting them leaves a junction tree, ordered by first member,
    in which a group's separator is its first member's separator."""
    scopes: list[frozenset[str]] = []
    anchors: list[int | None] = []
    groups: list[int] = []
    for clique, anchor in zip(d.rip.order, d.rip.anchors):
        host = None if anchor is None else groups[anchor]
        if host is not None and len(scopes[host] | clique) <= max_vars:
            scopes[host] |= clique
            groups.append(host)
        else:
            anchors.append(host)
            groups.append(len(scopes))
            scopes.append(clique)
    return SolverTree(RipOrder(tuple(scopes), tuple(anchors)), tuple(groups))


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
    """Parsed graph description: an undirected graph."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def as_neighbor_graph(self) -> NeighborGraph:
        return NeighborGraph(self.nodes, self.edges)


def parse_graph_text(text: str) -> GraphText:
    """Line format: `nodes A B C`, `edge A B`; '#' starts a comment."""
    nodes: list[str] = []
    edges: set[frozenset[str]] = set()
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
        else:
            raise ValueError(f"line {i}: unknown directive {kind!r}")
    if not nodes:
        raise ValueError("graph declares no nodes")
    missing = set().union(*edges) - set(nodes)
    if missing:
        raise ValueError(f"nodes used but not declared: {sorted(missing)}")
    return GraphText(tuple(nodes), frozenset(edges))
