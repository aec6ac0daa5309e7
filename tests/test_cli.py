import glob
import json
import os
import re
import subprocess
import sys

import pytest
import scipy.optimize

import helpers
from maxentbn import (ConvergenceError, UndecidedLPError, consistency, decompose, engine,
                      parse_model)
from maxentbn.cli import run
from maxentbn.graphops import merge_cliques

# the package source, for subprocesses that import it under another hash seed
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# helpers.ring_model(6, 0) with one value raised by 1e-5, which HiGHS leaves undecided
NEAR_DEGENERATE = "tests/near-degenerate-ring-6.cn"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_all_shipped_models(self, capsys):
        paths = sorted(glob.glob("models/*.cn"))
        assert len(paths) >= 4
        for path in paths:
            code, out, err = invoke(capsys, "validate", path)
            assert code == 0, (path, err)
            assert out.startswith("warning:") or out.startswith("ok:")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cn"
        bad.write_text("vars A\nP(A|A)=0.5\n")
        code, out, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = invoke(capsys, "validate", "models/nonexistent.cn")
        assert code == 2

    def test_directory_exit_2(self, capsys):
        # it used to end in an IsADirectoryError traceback and exit 1
        code, out, err = invoke(capsys, "validate", "models")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "models" in err

    def test_scope_warning_printed(self, tmp_path, capsys):
        f = tmp_path / "warn.cn"
        f.write_text("vars A B C\nP(A|B)=0.7\nP(C)=0.5\n")
        code, out, _ = invoke(capsys, "validate", str(f))
        assert code == 0
        assert "warning" in out


class TestCheck:
    def test_mining_consistent(self, capsys):
        code, out, _ = invoke(capsys, "check", "models/mining.cn")
        assert code == 0
        assert out.splitlines()[0] == "consistent"

    def test_quad_inconsistent_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "check", "models/inconsistent-quad.cn")
        assert code == 1
        assert out.splitlines()[0] == "inconsistent"

    def test_local_check_culprit(self, capsys):
        code, out, _ = invoke(capsys, "check", "models/contradiction.cn", "--local")
        assert code == 1
        assert "culprit" in out

    @pytest.mark.parametrize("path,line", [
        ("models/inconsistent-quad.cn", "culprit: {A,B}"),  # the first clique fails alone
        ("models/contradiction.cn", "culprit: {B,C} vs {A,B}")], ids=["quad", "contradiction"])
    def test_local_culprit_line(self, capsys, path, line):
        code, out, _ = invoke(capsys, "check", path, "--local")
        assert code == 1
        assert out.splitlines() == ["inconsistent", line]

    def test_local_note_without_culprit(self, tmp_path, capsys):
        f = tmp_path / "blind.cn"
        f.write_text(helpers.PAIRWISE_BLIND_TEXT)
        code, out, _ = invoke(capsys, "check", str(f), "--local")
        assert code == 1
        assert out.splitlines() == [
            "inconsistent", "note: anchor-pairwise checks passed but no jointly "
                            "calibrated per-clique tables exist"]

    def test_local_clique_label_matches_decompose(self, tmp_path, capsys):
        # declared B before A: the clique line used to read {B,A}
        f = tmp_path / "ba.cn"
        f.write_text("vars B A\nP(A|B)=0.5\nP(B)=0.4\n")
        code, out, _ = invoke(capsys, "check", str(f), "--local")
        assert (code, out) == (0, "consistent\nclique {A,B}: 2 constraints\n")
        code, out, _ = invoke(capsys, "decompose", str(f))
        assert (code, "cliques: {A,B}") == (0, out.splitlines()[1])

    def test_near_degenerate_file_is_the_raised_ring(self):
        with open(NEAR_DEGENERATE, encoding="utf-8") as fh:
            got = parse_model(fh.read()).constraints
        want = helpers.ring_model(6, 0).constraints
        assert got[1:] == want[1:]
        assert str(got[0]).startswith("P(X0|X5,X1)=")
        assert got[0].value - want[0].value == pytest.approx(1e-5, abs=1e-12)

    @pytest.mark.parametrize("flags", [(), ("--local",)], ids=["global", "local"])
    def test_undecided_lp_exit_2(self, capsys, flags):
        # HiGHS ends this model's LP with status 15, its model status Unknown;
        # it used to escape as a RuntimeError, a traceback and exit 1
        code, out, err = invoke(capsys, "check", NEAR_DEGENERATE, *flags)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the consistency LP over (\{[X0-9,]+\} ?)+ is undecided: "
                            r".*\n", err), err

    @pytest.mark.parametrize("status, code", [(1, 2), (2, 1), (3, 2), (4, 2)])
    @pytest.mark.parametrize("flags, tables", [((), "{A,B,C,D}"),
                                               (("--local",), "{A,C,D} {B,C,D}")],
                             ids=["global", "local"])
    def test_lp_status_exit_code(self, monkeypatch, capsys, flags, tables, status, code):
        # linprog's statuses: 2 is infeasible, so inconsistent; 1 (iteration
        # limit), 3 (unbounded) and 4 (numerical difficulties) decide nothing
        result = scipy.optimize.OptimizeResult(status=status, message=f"stub status {status}")
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: result)
        got, out, err = invoke(capsys, "check", "models/mining.cn", *flags)
        assert got == code
        if code == 2:
            assert (out, err) == ("", f"error: the consistency LP over {tables} is undecided: "
                                      f"stub status {status}\n")

    @pytest.mark.parametrize("error, code", [(UndecidedLPError, 2), (ConvergenceError, 1)])
    def test_check_error_exit_code(self, monkeypatch, capsys, error, code):
        def fail(*args):
            raise error("stub")
        monkeypatch.setattr(consistency, "global_consistent", fail)
        assert invoke(capsys, "check", "models/mining.cn") == (code, "", "error: stub\n")

    def test_other_runtime_error_is_not_swallowed(self, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("stub")
        monkeypatch.setattr(consistency, "global_consistent", fail)
        with pytest.raises(RuntimeError, match="stub"):
            run(["check", "models/mining.cn"])

    def test_local_mining_with_witness(self, capsys):
        code, out, _ = invoke(capsys, "check", "models/mining.cn", "--local",
                              "--witness")
        assert code == 0
        assert "scope A C D" in out


class TestDecompose:
    def test_mining(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "models/mining.cn")
        assert code == 0
        assert "fill-in: none" in out
        assert "{A,C,D}; {B,C,D}" in out
        assert "cost: 16" in out

    def test_graph_file_anneal(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "models/sixring.graph",
                              "--graph", "--fill", "anneal", "--seed", "1")
        assert code == 0
        assert "cost: 32" in out

    @pytest.mark.parametrize("lines,kind", [("arc C D\nhedge A D\n", "arc"),
                                            ("arc C D\n", "arc"), ("hedge A D\n", "hedge")],
                             ids=["arc-and-hedge", "arc", "hedge"])
    def test_graph_file_with_unread_lines_exit_2(self, tmp_path, capsys, lines, kind):
        # it used to drop them and decompose D as an isolated node
        f = tmp_path / "mixed.graph"
        f.write_text("nodes A B C D\nedge A B\nedge B C\n" + lines)
        code, out, err = invoke(capsys, "decompose", str(f), "--graph")
        assert code == 2
        assert out == "" and f"'{kind}'" in err

    @pytest.mark.parametrize("text", ["# no nodes\n", "nodes\n"], ids=["comment", "bare-nodes"])
    def test_graph_file_without_nodes_exit_2(self, tmp_path, capsys, text):
        # it used to print an empty decomposition and exit 0
        f = tmp_path / "empty.graph"
        f.write_text(text)
        code, out, err = invoke(capsys, "decompose", str(f), "--graph")
        assert (code, out, err) == (2, "", "error: graph declares no nodes\n")

    @pytest.mark.parametrize("argv", [["models/mining.cn"], ["models/sixring.graph", "--graph"]],
                             ids=["chordal-model", "graph-file"])
    def test_negative_seed_exit_2(self, capsys, argv):
        # mining is chordal, so its anneal never reads the seed; the graph
        # file's used to fail in numpy with a message naming no flag
        code, out, err = invoke(capsys, "decompose", *argv, "--fill", "anneal", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, not -1\n")

    @pytest.mark.parametrize("flags", [[], ["--graph"]], ids=["model", "graph-file"])
    def test_missing_file_named_before_seed(self, capsys, flags):
        # the input is read before the anneal's options are built
        code, out, err = invoke(capsys, "decompose", "models/missing.cn", *flags,
                                "--fill", "anneal", "--seed", "-1")
        assert (code, out) == (2, "")
        assert "models/missing.cn" in err and "seed" not in err


class TestDsep:
    def test_separated(self, capsys):
        code, out, _ = invoke(capsys, "dsep", "models/mining.cn",
                              "--x", "A", "--y", "B", "--given", "C,D")
        assert code == 0
        assert out.strip() == "separated"

    def test_not_separated(self, capsys):
        code, out, _ = invoke(capsys, "dsep", "models/mining.cn",
                              "--x", "A", "--y", "C")
        assert code == 0
        assert out.strip() == "not separated"

    def test_unknown_variable_exit_2(self, capsys):
        code, _, err = invoke(capsys, "dsep", "models/mining.cn",
                              "--x", "A", "--y", "Z")
        assert code == 2

    @pytest.mark.parametrize("hash_seed", ["0", "6"])
    def test_unknown_given_named_in_order_under_any_hash_seed(self, hash_seed):
        # fig21 has no C or D; the name reported used to follow the string hash
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        entry = "import sys, maxentbn.cli as c; sys.exit(c.run(sys.argv[1:]))"
        for given, first in (("C,D", "C"), ("D,C", "D")):
            done = subprocess.run([sys.executable, "-c", entry, "dsep", "models/fig21.cn",
                                   "--x", "A", "--y", "B", "--given", given],
                                  env=env, capture_output=True, text=True)
            assert (done.returncode, done.stdout, done.stderr) == (
                2, "", f"error: unknown variable '{first}'\n")

    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_empty_given_exit_2(self, capsys, spec):
        # it used to answer as if nothing were given
        code, out, err = invoke(capsys, "dsep", "models/mining.cn",
                                "--x", "A", "--y", "C", "--given", spec)
        assert code == 2
        assert out == ""
        assert "--given" in err and "names no variable" in err

    @pytest.mark.parametrize("spec", ["C,,D", "C,D,", ",C"])
    def test_empty_item_exit_2(self, capsys, spec):
        # it used to drop the empty item and answer for the rest
        code, out, err = invoke(capsys, "dsep", "models/mining.cn",
                                "--x", "A", "--y", "B", "--given", spec)
        item = spec.split(",").index("") + 1
        assert (code, out, err) == (
            2, "", f"error: --given {spec!r} names no variable in item {item}\n")


class TestSolve:
    def test_dual(self, capsys):
        code, out, _ = invoke(capsys, "solve", "models/fig21.cn",
                              "--method", "dual")
        assert code == 0
        assert "scope A B" in out
        assert "0.2808" in out or "0.280750" in out

    def test_successive_with_trace(self, capsys):
        code, out, _ = invoke(capsys, "solve", "models/fig21.cn",
                              "--method", "successive", "--trace")
        assert code == 0
        assert "converged: yes" in out
        assert "P(B|A)=0.8" in out  # trace lines included

    def test_decomposed(self, capsys):
        code, out, _ = invoke(capsys, "solve", "models/mining.cn",
                              "--method", "decomposed")
        assert code == 0
        assert "clique A,C,D" in out
        assert "clique B,C,D" in out

    def test_tsv_format(self, capsys):
        code, out, _ = invoke(capsys, "solve", "models/fig21.cn",
                              "--method", "dual", "--format", "tsv")
        assert code == 0
        assert "A B\t00\t" in out

    def test_nonconvergence_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "solve", "models/inconsistent-quad.cn",
                              "--method", "successive", "--max-cycles", "5")
        assert code == 1
        assert "converged: no" in out

    def test_decomposed_schedules_differ(self, capsys):
        outs = {}
        for schedule in ("gradient", "round-robin"):
            code, outs[schedule], _ = invoke(capsys, "solve", "models/mining.cn",
                                             "--method", "decomposed", "--trace",
                                             "--schedule", schedule)
            assert code == 0
        assert outs["gradient"] != outs["round-robin"]

    def test_default_cycle_cap(self):
        # an unset flag parses to None; the options record supplies the default
        from maxentbn.cli import _solver_opts, build_parser
        from maxentbn.mce import SolverOptions
        opts = _solver_opts(build_parser().parse_args(["solve", "models/mining.cn"]))
        assert opts.max_cycles == SolverOptions().max_cycles == 1000

    def test_inconsistent_dual_exit_1(self, capsys):
        code, _, err = invoke(capsys, "solve", "models/inconsistent-quad.cn",
                              "--method", "dual", "--max-iterations", "60")
        assert code == 1

    @pytest.mark.parametrize("method", ["successive", "decomposed", "dual"])
    def test_unreachable_constraint_exit_1(self, capsys, method):
        # a detected inconsistency, not a usage error, whichever solver meets it
        code, out, err = invoke(capsys, "solve", "models/contradiction.cn",
                                "--method", method)
        assert code == 1
        assert "error: " in out + err


@pytest.mark.parametrize("argv,record", [
    (("query", "models/mining.cn", "--event", "C", "--given", "D"), False),
    (("solve", "models/mining.cn", "--method", "decomposed"), False),
    (("solve", "models/mining.cn", "--method", "decomposed", "--trace"), True),
])
def test_decomposed_solve_records_only_a_printed_trace(monkeypatch, capsys, argv, record):
    seen = []
    solve = engine.solve_decomposed

    def spy(*args, **kwargs):
        seen.append(kwargs.get("record"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_decomposed", spy)
    code, _, _ = invoke(capsys, *argv)
    assert code == 0 and seen == [record]


# stdout of `solve --trace` per shipped model, method and schedule, pinned
# byte for byte; inconsistent-quad never converges, so its runs are capped
GOLDEN = [(m, method, schedule)
          for m in ("contradiction", "fig21", "inconsistent-quad", "mining")
          for method in ("successive", "decomposed")
          for schedule in ("gradient", "round-robin")]


@pytest.mark.parametrize("name,method,schedule", GOLDEN)
def test_trace_output_matches_golden(capsys, name, method, schedule):
    argv = ["solve", f"models/{name}.cn", "--method", method, "--schedule", schedule,
            "--trace"]
    if name == "inconsistent-quad":
        argv += ["--max-cycles", "20"]
    _, out, _ = invoke(capsys, *argv)
    with open(f"tests/golden/{name}-{method}-{schedule}.out", encoding="utf-8",
              newline="") as fh:
        assert out == fh.read()


# exit code, stdout and stderr of the dual solve per shipped model and of
# queries on the solved clique tables, pinned byte for byte
ROUTE_GOLDEN = [(f"{m}-dual", ("solve", f"models/{m}.cn", "--method", "dual"))
                for m in ("contradiction", "fig21", "inconsistent-quad", "mining")]
QUERIES = {
    "event": {"fig21": ("--event", "A"), "mining": ("--event", "C")},
    "two-literals": {"fig21": ("--event", "A,~B"), "mining": ("--event", "C,~D")},
    "given": {"fig21": ("--event", "A", "--given", "B"),
              "mining": ("--event", "C", "--given", "D")},
    "negated-given": {"fig21": ("--event", "B", "--given", "~A"),
                      "mining": ("--event", "D", "--given", "~C")},
    "contradictory": {"fig21": ("--event", "A,~A"), "mining": ("--event", "C,~C")},
}
ROUTE_GOLDEN += [(f"query-{m}-{kind}", ("query", f"models/{m}.cn") + flags)
                 for kind, per_model in QUERIES.items() for m, flags in per_model.items()]
ROUTE_GOLDEN += [("query-mining-spans-cliques", ("query", "models/mining.cn", "--event", "A,B"))]
# the tables after cycle 5, the last of the paper's trajectory (helpers.TABLE71)
ROUTE_GOLDEN += [("mining-decomposed-5-cycles",
                  ("solve", "models/mining.cn", "--method", "decomposed", "--max-cycles", "5"))]
# a model whose solver tree has two tables, so that its routes cross a separator:
# helpers.serialize_model(helpers.ring_model(8, 0)), solved on two 64-state tables
# joined on {X2,X3,X6,X7}; the witness is not pinned, since the LP's optimal point
# may differ between HiGHS versions
ROUTE_GOLDEN += [
    ("ring-8-decomposed", ("solve", "tests/ring-8.cn", "--method", "decomposed")),
    ("query-ring-8-event", ("query", "tests/ring-8.cn", "--event", "X0,X1")),
    ("check-ring-8-local", ("check", "tests/ring-8.cn", "--local")),
    ("decompose-ring-8", ("decompose", "tests/ring-8.cn"))]
# the tab-separated tables of a full joint and of two clique tables
ROUTE_GOLDEN += [
    ("fig21-dual-tsv", ("solve", "models/fig21.cn", "--method", "dual", "--format", "tsv")),
    ("mining-decomposed-tsv",
     ("solve", "models/mining.cn", "--method", "decomposed", "--format", "tsv"))]
# witnesses of a model whose constraints fix its joint, so that every LP
# solver returns the same one, through the global and the clique-local check
ROUTE_GOLDEN += [
    ("check-determined-witness", ("check", "tests/determined.cn", "--witness")),
    ("check-determined-local-witness",
     ("check", "tests/determined.cn", "--local", "--witness"))]


@pytest.mark.parametrize("name,argv", ROUTE_GOLDEN, ids=[n for n, _ in ROUTE_GOLDEN])
def test_route_output_matches_golden(capsys, name, argv):
    code, out, err = invoke(capsys, *argv)
    with open(f"tests/golden/{name}.out", encoding="utf-8", newline="") as fh:
        assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == fh.read()


def test_ring_8_file_solves_on_two_tables():
    with open("tests/ring-8.cn", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    assert model == helpers.ring_model(8, 0)
    rip = merge_cliques(decompose(model), engine.SOLVER_TABLE_VARS)[0]
    assert [len(s) for s in rip.order] == [6, 6]
    assert rip.separator(1) == {"X2", "X3", "X6", "X7"}


class TestUnreadFlags:
    # each flag is read by some mode, but not by the one chosen here
    @pytest.mark.parametrize("argv, flags", [
        (("solve", "models/fig21.cn", "--method", "dual", "--trace"), ("--trace",)),
        (("solve", "models/fig21.cn", "--method", "dual", "--schedule", "round-robin",
          "--max-cycles", "1"), ("--schedule", "--max-cycles")),
        (("solve", "models/mining.cn", "--method", "successive", "--fill", "anneal",
          "--seed", "3", "--max-iterations", "1"), ("--max-iterations", "--fill", "--seed")),
        (("solve", "models/mining.cn", "--method", "decomposed", "--max-iterations", "1"),
         ("--max-iterations",)),
        (("check", "models/mining.cn", "--fill", "anneal", "--seed", "5"),
         ("--fill", "--seed")),
    ])
    def test_usage_error_names_the_flags(self, capsys, argv, flags):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert all(f in err for f in flags), err

    # only annealing reads --seed
    @pytest.mark.parametrize("argv", [
        ("solve", "models/mining.cn", "--seed", "3"),
        ("query", "models/mining.cn", "--event", "A", "--fill", "greedy", "--seed", "3"),
        ("bench", "models/fig21.cn", "--seed", "3"),
        ("decompose", "models/mining.cn", "--seed", "9"),
        ("check", "models/mining.cn", "--local", "--fill", "greedy", "--seed", "5"),
    ])
    def test_seed_with_greedy_fill_in(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "greedy fill-in does not read --seed" in err

    # the fill-in search is --fill on every verb; --method picks the solver
    @pytest.mark.parametrize("argv", [
        ("decompose", "models/mining.cn", "--method", "anneal"),
        ("check", "models/mining.cn", "--local", "--method", "greedy"),
    ])
    def test_method_is_not_the_fill_in_search(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --method" in err


class TestQueryVerb:
    def test_marginal(self, capsys):
        code, out, _ = invoke(capsys, "query", "models/mining.cn",
                              "--event", "C,D")
        assert code == 0
        assert out.startswith("P(C,D) = 0.11")

    def test_conditional(self, capsys):
        code, out, _ = invoke(capsys, "query", "models/fig21.cn",
                              "--event", "A", "--given", "B")
        assert code == 0
        assert out.startswith("P(A|B) = 0.70")

    def test_space_after_negation(self, capsys):
        # a model file allows "~ A"; the literal list used to read ' A'
        code, out, err = invoke(capsys, "query", "models/mining.cn", "--event", "~ A",
                                "--given", "~ C")
        assert (code, err) == (0, "") and out.startswith("P(~A|~C) = ")
        assert out == invoke(capsys, "query", "models/mining.cn", "--event", "~A",
                             "--given", "~C")[1]

    def test_cross_clique_exit_2(self, capsys):
        code, _, err = invoke(capsys, "query", "models/mining.cn",
                              "--event", "A,B")
        assert code == 2
        assert "span multiple cliques" in err

    @pytest.mark.parametrize("flags", [("--event", "Z"), ("--event", "A", "--given", "Q")])
    def test_undeclared_variable_exit_2(self, capsys, flags):
        # every model variable lies in some clique, so a name in none is
        # a typo, and is reported as dsep reports it
        code, _, err = invoke(capsys, "query", "models/mining.cn", *flags)
        assert code == 2
        assert f"unknown variable {flags[-1]!r}" in err

    @pytest.mark.parametrize("flags, first", [(("--event", "A", "--given", "Z,Y"), "Z"),
                                              (("--event", "Z,A", "--given", "Y"), "Z")])
    def test_first_unknown_name_in_given_order(self, capsys, flags, first):
        # event literals, then --given, as dsep reports them
        code, out, err = invoke(capsys, "query", "models/mining.cn", *flags)
        assert (code, out, err) == (2, "", f"error: unknown variable {first!r}\n")

    def test_zero_probability_condition_exit_2(self, tmp_path, capsys):
        f = tmp_path / "sure.cn"
        f.write_text("vars A B\nP(A)=1\nP(B|A)=0.3\n")
        code, out, err = invoke(capsys, "query", str(f), "--event", "B", "--given", "~A")
        assert (code, out, err) == (2, "", "error: conditioning event has zero probability\n")

    def test_solver_error_reported(self, capsys):
        code, out, err = invoke(capsys, "query", "models/contradiction.cn", "--event", "A")
        assert code == 1
        assert out == ""
        assert "P(B|C)=0.0: conditioning event has zero prior probability" in err

    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_empty_event_exit_2(self, capsys, spec):
        code, out, err = invoke(capsys, "query", "models/mining.cn", "--event", spec)
        assert code == 2
        assert out == ""
        assert "--event" in err and "names no literal" in err

    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_empty_given_exit_2(self, capsys, spec):
        # it used to print the unconditional P(A) = 0.200012
        code, out, err = invoke(capsys, "query", "models/mining.cn", "--event", "A",
                                "--given", spec)
        assert code == 2
        assert out == ""
        assert "--given" in err and "names no literal" in err

    @pytest.mark.parametrize("spec, item", [("C,,D", 2), ("C,D,", 3), (",C", 1), ("A,~", 2),
                                            ("~", 1), ("~~A", 1), ("A B", 1)],
                             ids=["C,,D", "C,D,", ",C", "A,~", "~", "~~A", "A B"])
    @pytest.mark.parametrize("flag", ["--event", "--given"])
    def test_empty_item_exit_2(self, capsys, flag, spec, item):
        # it used to drop the empty item: --event C,,D printed P(C,D) = 0.115799;
        # an item with no name after '~' solved, then reported unknown variable ''
        argv = {"--event": ("--event", spec), "--given": ("--event", "A", "--given", spec)}
        code, out, err = invoke(capsys, "query", "models/mining.cn", *argv[flag])
        assert (code, out, err) == (
            2, "", f"error: {flag} {spec!r} names no literal in item {item}\n")

    def test_infinite_tolerance_exit_2(self, capsys):
        # at --tol inf the solve stopped before any update and printed the
        # uniform prior's P(A) = 0.5 where the model states 0.2
        code, out, err = invoke(capsys, "query", "models/mining.cn", "--event", "A",
                                "--tol", "inf")
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err

    def test_max_iterations_is_a_usage_error(self, capsys):
        # query never runs the dual optimizer, so it takes no iteration cap
        code, _, err = invoke(capsys, "query", "models/mining.cn",
                              "--event", "A", "--max-iterations", "1")
        assert code == 2
        assert "--max-iterations" in err


class TestBenchVerb:
    def test_report_shape(self, capsys):
        code, out, _ = invoke(capsys, "bench", "models/fig21.cn")
        assert code == 0
        assert "speedup:" in out
        assert "max marginal deviation:" in out

    def test_five_line_layout(self, capsys):
        # the timings vary from run to run, so each line's shape is matched
        code, out, _ = invoke(capsys, "bench", "models/fig21.cn")
        assert code == 0
        shapes = [r"tolerance: 0\.0001", r"dual solve: \d+\.\d{3} ms",
                  r"decomposed successive: \d+\.\d{3} ms", r"speedup: \d+\.\d{2}x",
                  r"max marginal deviation: \d\.\d{2}e[+-]\d{2}"]
        lines = out.split("\n")
        assert lines[-1] == "" and len(lines) == len(shapes) + 1
        for shape, line in zip(shapes, lines):
            assert re.fullmatch(shape, line), (shape, line)

    def test_zero_tolerance_exit_2(self, capsys):
        code, out, err = invoke(capsys, "bench", "models/mining.cn", "--tol", "0")
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err

    def test_unconverged_solve_exit_1(self, capsys):
        # at this tolerance the decomposed solve stops at its cycle cap, so
        # no speedup is reported; the line is the one `solve` prints
        code, out, err = invoke(capsys, "bench", "models/fig21.cn", "--tol", "1e-16")
        assert code == 1 and err == ""
        assert out == "converged: no (1000 cycles, max residual 1.11e-16)\n"
        _, solved, _ = invoke(capsys, "solve", "models/fig21.cn", "--tol", "1e-16")
        assert solved.endswith(out)

    def test_anneal_fill(self, capsys):
        code, out, _ = invoke(capsys, "bench", "models/mining.cn",
                              "--fill", "anneal", "--seed", "3")
        assert code == 0
        assert "speedup:" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("validate", "models/mining.cn"),
        ("check", "models/mining.cn"),
        ("check", "models/mining.cn", "--local"),
        ("decompose", "models/mining.cn"),
        ("decompose", "models/sixring.graph", "--graph", "--fill", "anneal",
         "--seed", "11"),
        ("dsep", "models/mining.cn", "--x", "A", "--y", "B", "--given", "C,D"),
        ("solve", "models/mining.cn", "--method", "decomposed", "--trace"),
        ("solve", "models/fig21.cn", "--method", "dual"),
        ("query", "models/mining.cn", "--event", "C,D"),
    ])
    def test_identical_argv_identical_output(self, capsys, argv):
        code1, out1, err1 = invoke(capsys, *argv)
        code2, out2, err2 = invoke(capsys, *argv)
        assert (code1, out1, err1) == (code2, out2, err2)

    # every verb whose output could follow the order of a set of strings
    HASH_SEED_COMMANDS = [
        ["validate", "models/mining.cn"],
        ["check", "models/mining.cn"],
        ["check", "models/mining.cn", "--local", "--witness"],
        ["check", "models/contradiction.cn", "--local"],
        ["decompose", "models/mining.cn"],
        ["decompose", "models/mining.cn", "--fill", "anneal", "--seed", "1"],
        ["decompose", "models/sixring.graph", "--graph"],
        ["decompose", "models/sixring.graph", "--graph", "--fill", "anneal", "--seed", "1"],
        ["dsep", "models/mining.cn", "--x", "A", "--y", "B", "--given", "C,D"],
        ["solve", "models/mining.cn", "--method", "decomposed", "--trace"],
        ["solve", "models/mining.cn", "--method", "successive", "--schedule", "round-robin",
         "--trace"],
        ["solve", "models/mining.cn", "--method", "dual"],
        ["query", "models/mining.cn", "--event", "C", "--given", "D"],
        ["query", "models/mining.cn", "--event", "A", "--given", "Z,Y"],
    ]

    def test_output_does_not_depend_on_the_hash_seed(self):
        # one process per seed runs the whole list through cli.run
        entry = ("import json, sys, maxentbn.cli as c\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    print('exit', c.run(argv), flush=True)")
        runs = []
        for hash_seed in ("0", "6"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            done = subprocess.run([sys.executable, "-c", entry,
                                   json.dumps(self.HASH_SEED_COMMANDS)],
                                  env=env, capture_output=True)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0 and out.count(b"exit ") == len(self.HASH_SEED_COMMANDS)

    def test_usage_error_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()
        assert run(["solve", "models/fig21.cn", "--method", "bogus"]) == 2
        capsys.readouterr()
