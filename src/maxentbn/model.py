"""Constraint models over binary variables and the graphs they induce.

A model is a set of named binary variables plus probability constraints of
two kinds: conditional constraints P(x | assignment) = mu and marginal
(cell) constraints P(assignment) = v.  The sum-to-one constraint on the
joint distribution is always implied and never stored.  From the
conditional constraints the model induces a directed belief network (which
may contain directed cycles) and an undirected neighbor graph joining all
variables that share a constraint scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

class ParseError(ValueError):
    """Constraint-file syntax or semantic error, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Literal:
    name: str
    positive: bool = True

    def __str__(self) -> str:
        return self.name if self.positive else "~" + self.name


@dataclass(frozen=True)
class ConditionalConstraint:
    """P(target | condition assignment) = value.

    Targets are normalized to positive polarity at parse time
    (P(~X|E)=v becomes P(X|E)=1-v); directly constructed instances may
    carry either polarity.
    """

    target: Literal
    condition: tuple[Literal, ...]
    value: float

    def __str__(self) -> str:
        cond = ",".join(str(l) for l in self.condition)
        return f"P({self.target}|{cond})={self.value!r}"

    @cached_property  # not a field: eq, hash and repr ignore it
    def scope(self) -> frozenset[str]:
        return frozenset([self.target.name] + [l.name for l in self.condition])


@dataclass(frozen=True)
class MarginalConstraint:
    """P(joint assignment of the listed literals) = value."""

    literals: tuple[Literal, ...]
    value: float

    def __str__(self) -> str:
        body = ",".join(str(l) for l in self.literals)
        return f"P({body})={self.value!r}"

    @cached_property  # not a field: eq, hash and repr ignore it
    def scope(self) -> frozenset[str]:
        return frozenset(l.name for l in self.literals)


Constraint = Union[ConditionalConstraint, MarginalConstraint]


@dataclass(frozen=True)
class Model:
    names: tuple[str, ...]  # declaration order; fixes state indexing
    constraints: tuple[Constraint, ...]  # declaration order; sum-to-one implied, not stored

    def ordered_scope(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Names from `subset` in declaration order."""
        want = set(subset)
        return tuple(n for n in self.names if n in want)


@dataclass(frozen=True)
class BeliefNetwork:
    """Directed graph with an arc i -> j whenever some conditional
    constraint targets j with i in its condition.  Directed cycles are
    permitted and preserved."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NeighborGraph:
    """Undirected graph joining variables that co-occur in the scope of
    some conditional constraint.  No self-loops; symmetric by
    construction.  Equals the moralization of the belief network."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def neighbors(self, x: str) -> set[str]:
        if x not in self.nodes:
            raise ValueError(f"unknown variable {x!r}")
        return self.adjacency()[x]

    def as_neighbor_graph(self) -> NeighborGraph:  # benchmark/workloads.py calls it; ROADMAP 5B
        return self


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_LITERALS = rf"\s*(?:~\s*)?{_NAME}(?:\s*,\s*(?:~\s*)?{_NAME})*"  # one way to match spaces
_NAME_RE = re.compile(_NAME)
# a constraint line: the left literals, the condition if any, the value text
_CONSTRAINT_RE = re.compile(rf"\s*P\s*\(({_LITERALS})(?:\s*\|({_LITERALS}))?\s*\)\s*=\s*(.*)")
_TOKEN_RE = re.compile(rf"{_NAME}|\S")  # a name, or one other non-space character
_EXPECT_NAME = "expected a variable name"
# Endings that complete, under _CONSTRAINT_RE, every start of a constraint
# line, each with the token that start wants next; a leading space ends a name.
_ENDINGS = (("P(X)=0", "expected 'P'"), (" (X)=0", "expected '('"), (" X)=0", _EXPECT_NAME),
            (" )=0", "expected ')'"), (" =0", "expected '='"))


def _tokens(line: str) -> list[tuple[str, int]]:
    """Each token of `line` with its 1-based column, then ("", one past the end)."""
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)] + [("", len(line) + 1)]


def _wants(start: str) -> str | None:
    """The error message for the token that `start` of a line wants next,
    or None when no constraint line starts with `start`."""
    return next((msg for end, msg in _ENDINGS if _CONSTRAINT_RE.fullmatch(start + end)), None)


def _syntax_error(line: str, lineno: int) -> ParseError:
    """The error in a constraint line that `_CONSTRAINT_RE` rejects, at the
    character after its longest start that some constraint line shares."""
    lo, hi = 0, len(line) + 1  # line[:lo] is such a start; none is longer than line[:hi - 1]
    while hi - lo > 1:  # every start of such a start is one too, so bisect
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _wants(line[:mid]) else (lo, mid)
    return ParseError(_wants(line[:lo]), lineno, lo + 1)


def _column(m: re.Match, group: int, i: int) -> int:
    """The column of the i-th literal's name in group `group` of `m`."""
    # the group is a valid literal list: its tokens are names, '~' and ','
    tokens = _TOKEN_RE.finditer(m.string, *m.span(group))
    return [t.start() + 1 for t in tokens if t.group() not in "~,"][i]


def _keys(literals: str) -> list[str]:
    """The literals of a valid literal list, as written less whitespace."""
    return "".join(literals.split()).split(",")


def _repeat(lits: tuple[Literal, ...], seen: set[str]) -> int | None:
    """The index of the first literal whose name is in `seen` or named
    before it, or None."""
    for i, lit in enumerate(lits):
        if lit.name in seen:
            return i
        seen.add(lit.name)
    return None


def parse_model(text: str) -> Model:
    """Parse a constraint file.

    Grammar (line oriented, '#' starts a comment)::

        file       := varsline constraint*
        varsline   := "vars" name+
        constraint := "P(" literal ("," literal)* ["|" literal ("," literal)*] ")" "=" float
        literal    := ["~"] name

    A constraint with a "|" part is conditional and takes a single target
    literal; without "|" it is a marginal over the listed literals.
    Whitespace may separate any two tokens.
    """
    content: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines()):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            content.append((i + 1, stripped))
    if not content:
        raise ParseError("empty model: expected a 'vars' line", 1, 1)

    lineno, line = content[0]
    (kw, col), *declared, _ = _tokens(line)
    if not _NAME_RE.match(kw):
        raise ParseError(_EXPECT_NAME, lineno, col)
    if kw != "vars":
        raise ParseError("model must start with a 'vars' line", lineno, col)
    names: list[str] = []
    table: dict[str, Literal] = {}  # "X" and "~X" to the one literal each, shared
    for nm, col in declared:
        if not _NAME_RE.match(nm):
            raise ParseError(_EXPECT_NAME, lineno, col)
        if nm in table:
            raise ParseError(f"variable {nm!r} declared twice", lineno, col)
        names.append(nm)
        table[nm], table["~" + nm] = Literal(nm), Literal(nm, False)
    if not names:
        raise ParseError("'vars' line declares no variables", lineno, len(line) + 1)

    constraints: list[Constraint] = []
    seen_cells: set = set()
    for lineno, line in content[1:]:
        m = _CONSTRAINT_RE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        value_col = m.start(3) + 1
        value_text = m.group(3).strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"invalid probability value {value_text!r}", lineno, value_col)
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"probability {value_text} outside [0,1]", lineno, value_col)

        left = _keys(m.group(1))
        condition = None if m.group(2) is None else _keys(m.group(2))
        try:
            lits = tuple(map(table.__getitem__, left))
            cond = condition and tuple(map(table.__getitem__, condition))
        except KeyError as exc:
            key = exc.args[0]
            group, i = (1, left.index(key)) if key in left else (2, condition.index(key))
            raise ParseError(f"undeclared variable {key.lstrip('~')!r}", lineno,
                             _column(m, group, i))

        if condition is not None:
            if len(lits) != 1:
                raise ParseError("conditional constraint takes a single target literal",
                                 lineno, _column(m, 1, 1))
            (target,) = lits
            i = _repeat(cond, {target.name})
            if i is not None:
                name = cond[i].name
                raise ParseError(f"target {name!r} appears in its own condition"
                                 if name == target.name else
                                 f"variable {name!r} repeated in condition", lineno,
                                 _column(m, 2, i))
            cell = (target.name, frozenset(condition))
            if cell in seen_cells:
                raise ParseError(f"duplicate constraint on P({target.name}|...)", lineno, 1)
            seen_cells.add(cell)
            # a negated target is normalized: P(~X|E)=v is P(X|E)=1-v
            constraints.append(ConditionalConstraint(
                table[target.name], cond, value if target.positive else 1.0 - value))
        else:
            i = _repeat(lits, set())
            if i is not None:
                raise ParseError(f"variable {lits[i].name!r} repeated in constraint", lineno,
                                 _column(m, 1, i))
            cell = frozenset(left)
            if cell in seen_cells:
                raise ParseError("duplicate constraint on the same cell", lineno, 1)
            seen_cells.add(cell)
            constraints.append(MarginalConstraint(lits, value))

    return Model(tuple(names), tuple(constraints))


def parse_graph_text(text: str) -> NeighborGraph:
    """A graph file: the neighbor graph as `nodes A B C` and `edge A B` lines, '#' a comment."""
    nodes: dict[str, None] = {}  # the declared nodes in order, as keys: a set that keeps order
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
                nodes[v] = None
        elif kind == "edge":
            if len(args) != 2 or args[0] == args[1]:
                raise ValueError(f"line {i}: 'edge' takes two distinct nodes")
            edges.add(frozenset(args))
        else:
            raise ValueError(f"line {i}: unknown directive {kind!r}")
    if not nodes:
        raise ValueError("graph declares no nodes")
    missing = set().union(*edges) - nodes.keys()
    if missing:
        raise ValueError(f"nodes used but not declared: {sorted(missing)}")
    return NeighborGraph(tuple(nodes), frozenset(edges))


def _conditionals(model: Model) -> list[ConditionalConstraint]:
    return [c for c in model.constraints if isinstance(c, ConditionalConstraint)]


def build_network(model: Model) -> BeliefNetwork:
    edges = set()
    for c in _conditionals(model):
        for lit in c.condition:
            edges.add((lit.name, c.target.name))
    return BeliefNetwork(model.names, frozenset(edges))


def neighbor_graph(model: Model) -> NeighborGraph:
    edges = set()
    for c in _conditionals(model):
        scope = sorted(c.scope)
        for i, u in enumerate(scope):
            for v in scope[i + 1:]:
                edges.add(frozenset({u, v}))
    return NeighborGraph(model.names, frozenset(edges))


def validate_scope_rule(model: Model) -> list[str]:
    """Warn for marginal constraints whose variables fit inside no
    conditional-constraint scope.  Such constraints are legal but may not
    be coverable by any clique of a decomposition."""
    scopes = [c.scope for c in _conditionals(model)]
    warnings = []
    for c in model.constraints:
        if isinstance(c, MarginalConstraint) and not any(c.scope <= s for s in scopes):
            warnings.append(
                f"marginal constraint {c} lies outside every conditional-constraint scope")
    return warnings
