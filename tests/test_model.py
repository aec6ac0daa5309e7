import dataclasses
import glob
import os
import re
import time

import numpy as np
import pytest

import helpers
from helpers import serialize_model
from maxentbn import (ConditionalConstraint, Literal, MarginalConstraint,
                      ParseError, build_network, neighbor_graph, parse_model,
                      validate_scope_rule)
from maxentbn.model import _CONSTRAINT_RE, _wants

MODELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "models")


class TestParse:
    def test_two_cycle_model(self):
        m = parse_model("vars A B\nP(A|B)=0.7\nP(B|A)=0.8")
        assert m.names == ("A", "B")
        assert type(m.constraints) is tuple and len(m.constraints) == 2  # declaration order
        c0, c1 = m.constraints
        assert isinstance(c0, ConditionalConstraint)
        assert c0.target == Literal("A") and c0.value == 0.7
        assert c1.target == Literal("B") and c1.value == 0.8

    def test_variables_only(self):
        m = parse_model("vars A")
        assert m.names == ("A",)
        assert len(m.constraints) == 0  # universal constraint stays implicit

    def test_target_in_condition_rejected(self):
        with pytest.raises(ParseError, match="own condition"):
            parse_model("vars A\nP(A|A)=0.5")

    def test_comments_and_whitespace(self):
        m = parse_model("# heading\nvars A B  # trailing\n P( A | ~B ) = 0.25\n\n")
        (c,) = m.constraints
        assert c.condition == (Literal("B", False),)
        assert c.value == 0.25

    def test_negated_target_normalized(self):
        m = parse_model("vars A B\nP(~A|B)=0.3")
        (c,) = m.constraints
        assert c.target == Literal("A", True)
        assert c.value == pytest.approx(0.7)

    def test_marginal_constraint(self):
        m = parse_model("vars A B\nP(A,~B)=0.25")
        (c,) = m.constraints
        assert isinstance(c, MarginalConstraint)
        assert c.literals == (Literal("A"), Literal("B", False))

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable 'C'"):
            parse_model("vars A B\nP(A|C)=0.5")

    def test_duplicate_variable_in_scope(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_model("vars A B C\nP(A|B,B)=0.5")
        with pytest.raises(ParseError, match="repeated"):
            parse_model("vars A B\nP(A,~A)=0.5")

    def test_value_out_of_range(self):
        with pytest.raises(ParseError, match=r"outside \[0,1\]"):
            parse_model("vars A\nP(A)=1.5")

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_model("vars A B\nP(A|B)=0.7\nP(A|B)=0.7")
        # a negated duplicate of the same cell is still a duplicate
        with pytest.raises(ParseError, match="duplicate"):
            parse_model("vars A B\nP(A|B)=0.7\nP(~A|B)=0.3")

    def test_multiple_targets_rejected(self):
        with pytest.raises(ParseError, match="single target"):
            parse_model("vars A B C\nP(A,B|C)=0.5")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_model("vars A B\nP(A|B=0.7")
        assert err.value.line == 2
        assert err.value.column > 1

    def test_missing_vars_line(self):
        with pytest.raises(ParseError, match="vars"):
            parse_model("P(A|B)=0.5")
        with pytest.raises(ParseError, match="empty"):
            parse_model("# nothing\n")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse_model("vars A A")


class TestGraphs:
    def test_mining_network(self):
        net = build_network(helpers.mining())
        assert net.edges == {("A", "C"), ("D", "C"), ("B", "D"), ("C", "D")}

    def test_two_cycle_network(self):
        net = build_network(helpers.fig21())
        assert net.edges == {("A", "B"), ("B", "A")}

    def test_marginals_only_network_empty(self):
        m = parse_model("vars A B\nP(A)=0.3\nP(B)=0.4")
        assert build_network(m).edges == frozenset()

    def test_mining_neighbor_graph(self):
        g = neighbor_graph(helpers.mining())
        expected = {frozenset(p) for p in
                    [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")]}
        assert g.edges == expected

    def test_two_cycle_neighbor_graph(self):
        g = neighbor_graph(helpers.fig21())
        assert g.edges == {frozenset({"A", "B"})}

    def test_no_conditionals_edgeless(self):
        m = parse_model("vars A B\nP(A)=0.3")
        assert neighbor_graph(m).edges == frozenset()

    def test_neighbor_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = neighbor_graph(helpers.random_model(rng))
            for x in g.nodes:
                for y in g.nodes:
                    if x != y:
                        assert (y in g.neighbors(x)) == (x in g.neighbors(y))

    def test_neighbors_of_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable 'Z'"):
            neighbor_graph(helpers.mining()).neighbors("Z")

    def test_moralization_scopes_complete(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m = helpers.random_model(rng)
            g = neighbor_graph(m)
            for c in helpers.conditionals(m):
                scope = sorted(c.scope)
                for i, u in enumerate(scope):
                    for v in scope[i + 1:]:
                        assert frozenset({u, v}) in g.edges


class TestScopeRule:
    def test_mining_no_warnings(self):
        assert validate_scope_rule(helpers.mining()) == []

    def test_subset_no_warning(self):
        m = parse_model("vars A B\nP(A|B)=0.7\nP(A,B)=0.5")
        assert validate_scope_rule(m) == []

    def test_outside_scope_warns(self):
        m = parse_model("vars A B C\nP(A|B)=0.7\nP(C)=0.5")
        warnings = validate_scope_rule(m)
        assert len(warnings) == 1
        assert "P(C)" in warnings[0]


class TestConstraintScope:
    @pytest.mark.parametrize("c,names", [(helpers.cc("A", "~B,C", 0.3), "ABC"),
                                         (helpers.mc("A,~C", 0.2), "AC")])
    def test_computed_once_and_not_a_field(self, c, names):
        twin = dataclasses.replace(c)
        assert c.scope is c.scope
        assert c.scope == twin.scope == frozenset(names)
        # c has read its scope and twin has not
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)


class TestRoundTrip:
    def test_canonical_models(self):
        for text in (helpers.FIG21_TEXT, helpers.MINING_TEXT, helpers.QUAD_TEXT,
                     helpers.CONTRADICTION_TEXT):
            m = parse_model(text)
            assert parse_model(serialize_model(m)) == m

    def test_random_models(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = helpers.random_model(rng)
            again = parse_model(serialize_model(m))
            assert again == m
            # serialization is a fixed point after one round
            assert serialize_model(again) == serialize_model(m)


def _outcome(parse, text):
    """The parsed model, or the ParseError's message, line and column."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _respaced(text: str, ws: str) -> str:
    """`text` with `ws` around every token of its constraint lines, as the
    grammar allows, and a trailing comment on every line."""
    head, *lines = text.splitlines()
    lines = [ws + re.sub(r"([()|,~=])", rf"{ws}\1{ws}", line).replace("P", "P" + ws, 1)
             for line in lines]
    return "\n".join(f"{line}{ws}# note" for line in [head] + lines) + "\n"


class TestParserOracle:
    """`parse_model` against the character-cursor parser it replaced."""

    @staticmethod
    def texts():
        texts = [open(path, encoding="utf-8").read()
                 for path in sorted(glob.glob(os.path.join(MODELS, "*.cn")))]
        rng = np.random.default_rng(71)
        models = [helpers.ring_model(6, 1), helpers.grid_model(4, 2)]
        models += [helpers.random_model(rng) for _ in range(20)]
        texts += [serialize_model(m) for m in models]
        # negated targets, which parsing normalizes, and negated cells
        texts.append("vars A B C\nP(~A|B)=0.3\nP(~A|~B,C)=0.4\nP(~C)=0.2\nP(B,~C)=0.1\n")
        return texts

    def test_valid_texts_and_spacing(self):
        texts = self.texts()
        spaced = [_respaced(t, ws) for t in texts for ws in (" ", "\t", " \t ")]
        spaced.append("vars A B\nP (A | ~ B) = 0.5\n")
        for text in texts + spaced:
            model = parse_model(text)
            assert model == helpers.parse_model_cursor(text)
        # a respaced text is the same model, with the same literals
        for text in texts:
            assert parse_model(_respaced(text, " \t ")) == parse_model(text)

    @pytest.mark.parametrize("line", [
        "P(D)=2", "P(D|A)=x", "P(A|D)=-0.1", "P(A,B|A)=0.5", "P(A,D|A)=0.5", "P(A|A,A)=0.5",
        "P(A|B,B,A)=0.5", "P(A|~B,D,~B)=0.5", "P(A,~A,D)=0.5", "P(A|B=2", "P(A|B)=0.7 0.3"])
    def test_first_of_several_errors(self, line):
        # the checks run in a fixed order, so the first failing one is reported
        text = f"vars A B C\nP(~A|B)=0.3\n{line}\n"
        got = _outcome(parse_model, text)
        assert isinstance(got, tuple) and got == _outcome(helpers.parse_model_cursor, text)

    @pytest.mark.parametrize("sep", [", ", ",  ", " , ~ "])
    @pytest.mark.parametrize("tail", [") 0.5", " = 0.5", ""])
    def test_long_rejected_line_fails_fast(self, sep, tail):
        # a missing '=' or ')' after 40 spaced literals: an ambiguous
        # pattern would try every split of the spaces before failing
        names = [f"V{i}" for i in range(40)]
        text = f"vars {' '.join(names)}\nP({sep.join(names)}{tail}\n"
        start = time.perf_counter()
        got = _outcome(parse_model, text)
        assert time.perf_counter() - start < 0.5
        assert isinstance(got, tuple) and got == _outcome(helpers.parse_model_cursor, text)

    def test_duplicate_cell_in_another_order(self):
        text = "vars A B\nP(A,~B)=0.1\nP(~B,A)=0.2\n"
        want = ("line 3, column 1: duplicate constraint on the same cell", 3, 1)
        assert _outcome(parse_model, text) == _outcome(helpers.parse_model_cursor, text) == want

    def test_single_character_mutations(self):
        rng = np.random.default_rng(72)
        alphabet = "P()|,~=.-+e0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_ \t#"
        texts = [t for t in self.texts() if t.count("\n") <= 40]
        outcomes = {True: 0, False: 0}
        for _ in range(2500):
            lines = texts[rng.integers(len(texts))].splitlines()
            k = int(rng.integers(len(lines)))
            line, at = lines[k], int(rng.integers(len(lines[k]) + 1))
            char = alphabet[rng.integers(len(alphabet))]
            kind = rng.integers(3)  # replace, insert, delete
            lines[k] = line[:at] + ("" if kind == 2 else char) + line[at + (kind != 1):]
            text = "\n".join(lines)
            got = _outcome(parse_model, text)
            assert got == _outcome(helpers.parse_model_cursor, text), lines[k]
            outcomes[isinstance(got, tuple)] += 1
        # both kinds of outcome are exercised
        assert min(outcomes.values()) >= 500

    def test_multi_edit_lines(self):
        # random token strings, and valid lines two or three edits away
        rng = np.random.default_rng(73)
        tokens = ["P", "(", ")", "~", "|", ",", "=", "X", "Y", "PA", "0", ".5", "$", "\t", " ", "  "]
        texts = [[line for line in t.splitlines() if line.split("#", 1)[0].strip()]
                 for t in self.texts()]
        outcomes = {True: 0, False: 0}
        start = time.perf_counter()
        for i in range(3000):
            if i % 2:  # every other one opens with "P(", to reach past the first states
                line = "P(" * (i % 4 == 3) + "".join(rng.choice(tokens, rng.integers(1, 12)))
                head = "vars X Y PA"
            else:
                head, *lines = texts[rng.integers(len(texts))]
                line = lines[rng.integers(len(lines))]
                for _ in range(rng.integers(2, 4)):
                    at, kind = int(rng.integers(len(line) + 1)), rng.integers(3)
                    token = "" if kind == 2 else tokens[rng.integers(len(tokens))]
                    line = line[:at] + token + line[at + (kind != 1):]
            text = f"{head}\n{line}\n"
            got = _outcome(parse_model, text)
            assert got == _outcome(helpers.parse_model_cursor, text), line
            outcomes[isinstance(got, tuple)] += 1
        assert time.perf_counter() - start < 1.0
        assert min(outcomes.values()) >= 50  # both kinds of outcome are exercised


class TestSyntaxErrors:
    """A rejected constraint line's error is found by completing its starts."""

    def test_endings_complete_every_start(self):
        paths = glob.glob(os.path.join(MODELS, "*.cn"))
        paths += glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.cn"))
        texts = [open(path, encoding="utf-8").read() for path in sorted(paths)]
        lines = []
        for text in texts + [_respaced(t, " \t ") for t in texts]:
            content = [raw.split("#", 1)[0] for raw in text.splitlines()]
            lines += [line for line in content if line.strip()][1:]  # after the 'vars' line
        assert len(lines) > 50
        for line in lines:
            assert _CONSTRAINT_RE.fullmatch(line), line
            for k in range(len(line) + 1):
                assert _wants(line[:k]) is not None, (line, k)

    @pytest.mark.parametrize("line, message, column", [
        ("Q(A)=0.5", "expected 'P'", 1),
        ("PA(B)=0.5", "expected '('", 2),
        ("P(~~A)=1", "expected a variable name", 4),
        ("P(A|B=0.5", "expected ')'", 6),
        ("P(A|B) 0.5", "expected '='", 8),
        ("P (A, ~", "expected a variable name", 8),  # at the end of the line
    ])
    def test_one_line_per_message(self, line, message, column):
        text = f"vars A B\n{line}\n"
        want = (f"line 2, column {column}: {message}", 2, column)
        assert _outcome(parse_model, text) == _outcome(helpers.parse_model_cursor, text) == want
