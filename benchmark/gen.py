"""Seeded generators of model texts for the benchmark.

Every generator takes the benchmark seed and returns model-file text;
the program under test sees nothing but that text, read through
`parse_model`.  None of this module imports the package.

* `ring_text`, `grid_text`: a binary pairwise Markov random field on a
  ring or a 3 x h grid.  For every variable the model gets its
  conditional given each assignment of its neighbours, computed from the
  field, so the field satisfies every constraint: the model is
  consistent by construction.
* `contradiction_text`: a ring plus the four conditionals of
  `models/inconsistent-quad.cn` placed on X0 and X1; those four alone
  admit no distribution, so the model is inconsistent by construction.
* `dsep_grid_text`: a 3 x h grid whose edges are oriented at random,
  some both ways, giving a belief network with directed cycles.  The
  constraint values carry no meaning; only the arcs matter.
"""

from __future__ import annotations

import itertools
import math
import random

QUAD_ON_X0_X1 = ("P(X0|~X1)=0.2", "P(X0|X1)=0.7", "P(X1|~X0)=0.1", "P(X1|X0)=0.8")


def _mrf_text(names: list[str], edges: list[tuple[int, int]], family: str, seed: int) -> str:
    """All neighbour conditionals of the field
    p(x) ~ exp(sum_i h_i x_i + sum_ij J_ij x_i x_j), h and J from U(-1, 1)
    drawn for `family`, seen through a polarity flip of each variable
    drawn from `seed`.

    A flip maps every constraint, table and answer to new numbers but
    leaves the problem isomorphic, so every seed asks the solvers for the
    same work on a family member: freshly drawn fields would not, since
    the cycles a solve needs vary tenfold between draws.
    """
    prng = random.Random(family)
    h = [prng.uniform(-1.0, 1.0) for _ in names]
    nbrs: list[list[tuple[int, float]]] = [[] for _ in names]
    for u, v in edges:
        j = prng.uniform(-1.0, 1.0)
        nbrs[u].append((v, j))
        nbrs[v].append((u, j))
    frng = random.Random(f"{seed}:{family}")
    flip = [frng.random() < 0.5 for _ in names]
    lines = ["vars " + " ".join(names)]
    for i, name in enumerate(names):
        adj = sorted(nbrs[i])
        for bits in itertools.product((1, 0), repeat=len(adj)):
            field = h[i] + sum(j * (b ^ flip[k]) for (k, j), b in zip(adj, bits))
            p = 1.0 / (1.0 + math.exp(field if flip[i] else -field))
            cond = ",".join(names[k] if b else "~" + names[k] for (k, _), b in zip(adj, bits))
            lines.append(f"P({name}|{cond})={p!r}")
    return "\n".join(lines) + "\n"


def ring_text(n: int, family: int, seed: int) -> str:
    names = [f"X{i}" for i in range(n)]
    return _mrf_text(names, [(i, (i + 1) % n) for i in range(n)], f"ring-{n}-{family}", seed)


def grid_edges(height: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Names and 4-neighbour edges of a 3 x `height` grid."""
    names = [f"G{r}_{c}" for c in range(height) for r in range(3)]
    at = {(r, c): 3 * c + r for c in range(height) for r in range(3)}
    edges = []
    for (r, c), i in at.items():
        if r + 1 < 3:
            edges.append((i, at[(r + 1, c)]))
        if c + 1 < height:
            edges.append((i, at[(r, c + 1)]))
    return names, edges


def grid_text(height: int, family: int, seed: int) -> str:
    names, edges = grid_edges(height)
    return _mrf_text(names, edges, f"grid-{height}-{family}", seed)


def contradiction_text(n: int, family: int, seed: int) -> str:
    return ring_text(n, family, seed) + "\n".join(QUAD_ON_X0_X1) + "\n"


def dsep_grid_text(height: int, seed: int) -> str:
    """Each grid edge becomes one arc of random direction, or, with
    probability 1/4, arcs both ways."""
    rng = random.Random(f"{seed}:dsep-{height}")
    names, edges = grid_edges(height)
    parents: list[set[int]] = [set() for _ in names]
    for u, v in edges:
        kind = rng.random()
        if kind < 0.25:
            parents[v].add(u)
            parents[u].add(v)
        elif kind < 0.625:
            parents[v].add(u)
        else:
            parents[u].add(v)
    lines = ["vars " + " ".join(names)]
    for i, ps in enumerate(parents):
        if ps:
            cond = ",".join(names[k] for k in sorted(ps))
            lines.append(f"P({names[i]}|{cond})={rng.uniform(0.1, 0.9)!r}")
    return "\n".join(lines) + "\n"
