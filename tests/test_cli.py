import glob

import pytest

from maxentbn.cli import run


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
        from maxentbn.cli import build_parser
        from maxentbn.mce import SolverOptions
        args = build_parser().parse_args(["solve", "models/mining.cn"])
        assert args.max_cycles == SolverOptions().max_cycles == 1000

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


@pytest.mark.parametrize("name,argv", ROUTE_GOLDEN, ids=[n for n, _ in ROUTE_GOLDEN])
def test_route_output_matches_golden(capsys, name, argv):
    code, out, err = invoke(capsys, *argv)
    with open(f"tests/golden/{name}.out", encoding="utf-8", newline="") as fh:
        assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == fh.read()


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

    def test_solver_error_reported(self, capsys):
        code, out, err = invoke(capsys, "query", "models/contradiction.cn", "--event", "A")
        assert code == 1
        assert out == ""
        assert "P(B|C)=0.0: conditioning event has zero prior probability" in err

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

    def test_usage_error_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()
        assert run(["solve", "models/fig21.cn", "--method", "bogus"]) == 2
        capsys.readouterr()
