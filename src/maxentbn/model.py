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

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


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
class ConstraintSet:
    """All explicit constraints, in declaration order.

    The universal (sum-to-one) constraint is implicit: it is always in
    force and cannot be removed, so it is not stored as an entry.
    """

    constraints: tuple[Constraint, ...] = ()

    @property
    def conditionals(self) -> tuple[ConditionalConstraint, ...]:
        return tuple(c for c in self.constraints if isinstance(c, ConditionalConstraint))

    @property
    def marginals(self) -> tuple[MarginalConstraint, ...]:
        return tuple(c for c in self.constraints if isinstance(c, MarginalConstraint))

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


@dataclass(frozen=True)
class Model:
    names: tuple[str, ...]  # declaration order; fixes state indexing
    constraints: ConstraintSet

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
        return {next(iter(e - {x})) for e in self.edges if x in e}


class _Cursor:
    """Single-line scanner with 1-based column reporting."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, column: int | None = None) -> ParseError:
        return ParseError(message, self.lineno, (self.pos if column is None else column) + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> None:
        if not self.peek(s):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a variable name")
        self.pos = m.end()
        return m.group(0), m.start() + 1


def _parse_literal(cur: _Cursor) -> tuple[Literal, int]:
    negated = cur.peek("~")
    if negated:
        cur.take("~")
    nm, col = cur.name()
    return Literal(nm, not negated), col


def _parse_literal_list(cur: _Cursor) -> list[tuple[Literal, int]]:
    lits = [_parse_literal(cur)]
    while cur.peek(","):
        cur.take(",")
        lits.append(_parse_literal(cur))
    return lits


def parse_model(text: str) -> Model:
    """Parse a constraint file.

    Grammar (line oriented, '#' starts a comment)::

        file       := varsline constraint*
        varsline   := "vars" name+
        constraint := "P(" literal ("," literal)* ["|" literal ("," literal)*] ")" "=" float
        literal    := ["~"] name

    A constraint with a "|" part is conditional and takes a single target
    literal; without "|" it is a marginal over the listed literals.
    """
    content: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines()):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            content.append((i + 1, stripped))
    if not content:
        raise ParseError("empty model: expected a 'vars' line", 1, 1)

    lineno, line = content[0]
    cur = _Cursor(line, lineno)
    kw, col = cur.name()
    if kw != "vars":
        raise ParseError("model must start with a 'vars' line", lineno, col)
    names: list[str] = []
    declared: set[str] = set()
    while not cur.at_end():
        nm, col = cur.name()
        if nm in declared:
            raise ParseError(f"variable {nm!r} declared twice", lineno, col)
        declared.add(nm)
        names.append(nm)
    if not names:
        raise ParseError("'vars' line declares no variables", lineno, len(line) + 1)

    constraints: list[Constraint] = []
    seen_cells: set = set()
    for lineno, line in content[1:]:
        cur = _Cursor(line, lineno)
        cur.take("P")
        cur.take("(")
        left = _parse_literal_list(cur)
        condition: list[tuple[Literal, int]] | None = None
        if cur.peek("|"):
            cur.take("|")
            condition = _parse_literal_list(cur)
        cur.take(")")
        cur.take("=")
        cur.skip_ws()
        value_col = cur.pos + 1
        value_text = line[cur.pos:].strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"invalid probability value {value_text!r}", lineno, value_col)
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"probability {value_text} outside [0,1]", lineno, value_col)

        for lit, col in left + (condition or []):
            if lit.name not in declared:
                raise ParseError(f"undeclared variable {lit.name!r}", lineno, col)

        if condition is not None:
            if len(left) != 1:
                raise ParseError("conditional constraint takes a single target literal",
                                 lineno, left[1][1])
            target, _ = left[0]
            cond_names: set[str] = set()
            for lit, col in condition:
                if lit.name == target.name:
                    raise ParseError(f"target {target.name!r} appears in its own condition",
                                     lineno, col)
                if lit.name in cond_names:
                    raise ParseError(f"variable {lit.name!r} repeated in condition", lineno, col)
                cond_names.add(lit.name)
            if not target.positive:
                target = Literal(target.name, True)
                value = 1.0 - value
            cond = tuple(lit for lit, _ in condition)
            cell = (target.name, frozenset((l.name, l.positive) for l in cond))
            if cell in seen_cells:
                raise ParseError(f"duplicate constraint on P({target.name}|...)", lineno, 1)
            seen_cells.add(cell)
            constraints.append(ConditionalConstraint(target, cond, value))
        else:
            marg_names: set[str] = set()
            for lit, col in left:
                if lit.name in marg_names:
                    raise ParseError(f"variable {lit.name!r} repeated in constraint", lineno, col)
                marg_names.add(lit.name)
            lits = tuple(lit for lit, _ in left)
            cell = frozenset((l.name, l.positive) for l in lits)
            if cell in seen_cells:
                raise ParseError("duplicate constraint on the same cell", lineno, 1)
            seen_cells.add(cell)
            constraints.append(MarginalConstraint(lits, value))

    return Model(tuple(names), ConstraintSet(tuple(constraints)))


def build_network(model: Model) -> BeliefNetwork:
    edges = set()
    for c in model.constraints.conditionals:
        for lit in c.condition:
            edges.add((lit.name, c.target.name))
    return BeliefNetwork(model.names, frozenset(edges))


def neighbor_graph(model: Model) -> NeighborGraph:
    edges = set()
    for c in model.constraints.conditionals:
        scope = sorted(c.scope)
        for i, u in enumerate(scope):
            for v in scope[i + 1:]:
                edges.add(frozenset({u, v}))
    return NeighborGraph(model.names, frozenset(edges))


def validate_scope_rule(model: Model) -> list[str]:
    """Warn for marginal constraints whose variables fit inside no
    conditional-constraint scope.  Such constraints are legal but may not
    be coverable by any clique of a decomposition."""
    scopes = [c.scope for c in model.constraints.conditionals]
    warnings = []
    for c in model.constraints.marginals:
        if not any(c.scope <= s for s in scopes):
            warnings.append(
                f"marginal constraint {c} lies outside every conditional-constraint scope")
    return warnings
