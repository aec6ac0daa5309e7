"""numpy loads only where a table is built, and scipy only where an LP
or the dual's CG runs.

Each check runs in a fresh interpreter (`sys.executable`, PYTHONPATH=src),
because the test process has long since imported both.  The routes live
in this module, so the child runs the same code the in-process side
runs; this module imports neither itself.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
MODELS = ("contradiction.cn", "fig21.cn", "inconsistent-quad.cn", "mining.cn")
SUBMODULES = ("model", "graphops", "dist", "mce", "consistency", "engine")


def _child(script: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {TESTS!r})\n"
                           + script], cwd=REPO, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _load(name: str):
    from maxentbn import parse_model
    with open(os.path.join(REPO, "models", name), encoding="utf-8") as fh:
        return parse_model(fh.read())


def _cli(*argv) -> int:
    from maxentbn import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(list(argv))


def _loaded(package: str) -> str:
    """A one-line expression, for the child: is any of `package` loaded?"""
    return f"any(m.partition('.')[0] == {package!r} for m in sys.modules)"


def structural_routes():
    """Every route that builds no table, as (step, exit code or None)."""
    from maxentbn import (build_network, d_separated, decompose, fill_in_greedy,
                          parse_graph_text, validate_scope_rule)
    models = [_load(name) for name in MODELS]
    yield "parse_model", None
    with open(os.path.join(REPO, "models", "sixring.graph"), encoding="utf-8") as fh:
        g = parse_graph_text(fh.read())
    yield "parse_graph_text", None
    for m in models:
        validate_scope_rule(m)
    yield "validate_scope_rule", None
    for m in models:
        decompose(m)
    yield "decompose greedy", None
    fill_in_greedy(g)
    yield "fill_in_greedy sixring.graph", None
    d_separated(build_network(models[MODELS.index("mining.cn")]), "A", "B", ["C", "D"])
    yield "build_network + d_separated", None
    for name in MODELS:
        yield f"validate {name}", _cli("validate", f"models/{name}")
        yield f"decompose {name}", _cli("decompose", f"models/{name}")
    yield "dsep mining.cn", _cli("dsep", "models/mining.cn", "--x", "A", "--y", "B",
                                 "--given", "C,D")
    yield "dsep unknown variable", _cli("dsep", "models/fig21.cn", "--x", "A", "--y", "B",
                                        "--given", "C,D")
    yield "decompose sixring.graph", _cli("decompose", "models/sixring.graph", "--graph")
    yield "decompose sixring.graph --seed -1", _cli("decompose", "models/sixring.graph",
                                                    "--graph", "--fill", "anneal", "--seed", "-1")


def test_structural_routes_load_no_numpy():
    steps = _child(
        "import json\n"
        "import maxentbn, maxentbn.cli\n"
        f"steps = [['import maxentbn, maxentbn.cli', None, {_loaded('numpy')}]]\n"
        "import test_cold_start\n"
        "for step, code in test_cold_start.structural_routes():\n"
        f"    steps.append([step, code, {_loaded('numpy')}])\n"
        "print(json.dumps(steps))\n")
    assert [step for step, _, loaded in steps if loaded] == []
    codes = {step: code for step, code, _ in steps if code is not None}
    # the usage errors still exit 2, also without numpy
    assert codes.pop("dsep unknown variable") == 2
    assert codes.pop("decompose sixring.graph --seed -1") == 2
    assert set(codes.values()) == {0}


def test_import_registers_every_submodule_unexecuted():
    registered, numpy_before, numpy_after = _child(
        "import json, maxentbn\n"
        "registered = sorted(m for m in sys.modules if m.startswith('maxentbn.'))\n"
        f"before = {_loaded('numpy')}\n"
        "sys.modules['maxentbn.engine'].solve_decomposed  # the benchmark's tracer does this\n"
        f"print(json.dumps([registered, before, {_loaded('numpy')}]))\n")
    assert {f"maxentbn.{m}" for m in SUBMODULES} <= set(registered)
    assert (numpy_before, numpy_after) == (False, True)


def test_parsing_and_validate_leave_graphops_unexecuted():
    # type() reads no attribute, so it does not execute a lazy module
    steps = _child(
        "import json, types\n"
        "import maxentbn, maxentbn.cli, test_cold_start\n"
        "def executed():\n"
        "    return type(sys.modules['maxentbn.graphops']) is types.ModuleType\n"
        "models = [test_cold_start._load(name) for name in test_cold_start.MODELS]\n"
        "codes = [test_cold_start._cli('validate', f'models/{name}')\n"
        "         for name in test_cold_start.MODELS]\n"
        f"steps = [codes, executed(), {_loaded('numpy')}]\n"
        "maxentbn.decompose(models[-1])\n"
        f"steps += [executed(), {_loaded('numpy')}]\n"
        "print(json.dumps(steps))\n")
    assert steps == [[0] * len(MODELS), False, False, True, False]


def test_parsing_both_formats_executes_only_model():
    # type() reads no attribute, so it does not execute a lazy module
    executed, lazy = _child(
        "import json, types\n"
        "import maxentbn\n"
        "for name, parse in (('mining.cn', maxentbn.parse_model),\n"
        "                    ('sixring.graph', maxentbn.parse_graph_text)):\n"
        "    with open(f'models/{name}', encoding='utf-8') as fh:\n"
        "        parse(fh.read())\n"
        "mods = {n: type(m) is types.ModuleType for n, m in sys.modules.items()\n"
        "        if n.startswith('maxentbn.')}\n"
        "print(json.dumps([sorted(n for n in mods if mods[n]),\n"
        "                  sorted(n for n in mods if not mods[n])]))\n")
    assert executed == ["maxentbn.model"]
    assert lazy == sorted(f"maxentbn.{m}" for m in SUBMODULES + ("options",) if m != "model")


def test_importing_cli_executes_only_model():
    # cli reads options when it builds its parser, not when it is imported
    executed = _child(
        "import json, types\n"
        "import maxentbn.cli\n"
        "print(json.dumps(sorted(n for n, m in sys.modules.items()\n"
        "                        if n.startswith('maxentbn.') and type(m) is types.ModuleType)))\n")
    assert executed == ["maxentbn.cli", "maxentbn.model"]


def test_exports_are_their_home_modules_objects():
    import maxentbn
    modules = [importlib.import_module(f"maxentbn.{m}") for m in SUBMODULES + ("options",)]
    for name in maxentbn.__all__:
        bound = [vars(m)[name] for m in modules if name in vars(m)]
        assert bound and all(obj is getattr(maxentbn, name) for obj in bound), name
    assert set(maxentbn.__all__) <= set(dir(maxentbn))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        maxentbn.no_such_name


def numeric_route(name: str):
    """The first call of one table-building route on mining, as JSON data."""
    from maxentbn import decompose, local_check, solve_decomposed, uniform
    m = _load("mining.cn")
    if name == "uniform":
        return uniform(m.names).probs.tolist()
    if name == "local_check":
        return _report(local_check(m, decompose(m)))
    r = solve_decomposed(m, decompose(m))
    return [r.converged, r.cycles, list(r.final_residuals),
            [[list(c.table.scope), c.table.probs.tolist()] for c in r.cliques]]


@pytest.mark.parametrize("name", ["uniform", "solve_decomposed", "local_check"])
def test_first_numeric_call_in_fresh_interpreter(name):
    loaded_before, result, loaded_after = _child(
        "import json\n"
        "import maxentbn, test_cold_start\n"
        f"before = {_loaded('numpy')}\n"
        f"result = test_cold_start.numeric_route({name!r})\n"
        f"print(json.dumps([before, result, {_loaded('numpy')}]))\n")
    assert (loaded_before, loaded_after) == (False, True)
    assert result == json.loads(json.dumps(numeric_route(name)))


def numpy_routes():
    """Every route of the decomposed path, as (step, exit code or None)."""
    from maxentbn import (AnnealOptions, Literal, build_network, d_separated, decompose,
                          parse_model, query, solve_decomposed, successive_solve, uniform)
    models = [_load(name) for name in MODELS]
    yield "parse_model", None
    m = models[MODELS.index("mining.cn")]
    d = decompose(m)
    yield "decompose greedy", None
    decompose(m, "anneal", AnnealOptions(seed=3))
    yield "decompose anneal", None
    query(solve_decomposed(m, d), [Literal("C", True)], [Literal("D", True)])
    yield "solve_decomposed + query", None
    # mining is one table to the solver; a chain of 8 is two, with messages
    chain = parse_model("vars A B C D E F G H\n" + "".join(
        f"P({b}|{a})=0.3\nP({b}|~{a})=0.6\n" for a, b in zip("ABCDEFG", "BCDEFGH")))
    query(solve_decomposed(chain, decompose(chain)), [Literal("A", True)], [Literal("B", True)])
    yield "solve_decomposed on two tables", None
    successive_solve(uniform(m.names), m.constraints)
    yield "successive_solve", None
    d_separated(build_network(m), "A", "B", ["C", "D"])
    yield "d_separated", None
    for name in MODELS:
        path = f"models/{name}"
        yield f"validate {name}", _cli("validate", path)
        yield f"decompose {name}", _cli("decompose", path)
        yield f"query {name}", _cli("query", path, "--event", "A")
    # K >= 2^n: the rank test settles the verdict, so no LP runs
    yield "check inconsistent-quad.cn", _cli("check", "models/inconsistent-quad.cn")
    yield "decompose sixring.graph", _cli("decompose", "models/sixring.graph", "--graph",
                                          "--fill", "anneal", "--seed", "11")
    yield "dsep mining.cn", _cli("dsep", "models/mining.cn", "--x", "A", "--y", "B",
                                 "--given", "C,D")
    yield "query --given", _cli("query", "models/mining.cn", "--event", "C", "--given", "D")
    for method in ("decomposed", "successive"):
        yield f"solve --method {method}", _cli("solve", "models/mining.cn", "--method", method)


def test_decomposed_route_loads_no_scipy():
    steps = _child(
        "import json\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "import maxentbn, maxentbn.cli\n"
        "steps = [['import maxentbn, maxentbn.cli', None, scipy_modules()]]\n"
        "import test_cold_start\n"
        "for step, code in test_cold_start.numpy_routes():\n"
        "    steps.append([step, code, scipy_modules()])\n"
        "print(json.dumps(steps))\n")
    assert [(step, loaded) for step, _, loaded in steps if loaded] == []
    codes = {step: code for step, code, _ in steps if code is not None}
    # the unsolvable models still fail as before, also without scipy
    assert codes.pop("query contradiction.cn") == 1
    assert codes.pop("query inconsistent-quad.cn") == 1
    assert codes.pop("check inconsistent-quad.cn") == 1
    assert set(codes.values()) == {0}


def _report(r):
    return [r.consistent, r.rank_ok, r.feasible, r.culprit and sorted(map(sorted, r.culprit)),
            r.note, [[sorted(scope), list(t.scope), t.probs.tolist()] for scope, t in r.witnesses]]


def scipy_route(name: str):
    """The first call of one scipy-backed route on mining, as JSON data."""
    from maxentbn import (bench, decompose, global_consistent, local_check, mce_dual_solve,
                          uniform)
    m = _load("mining.cn")
    if name == "global_consistent":
        return _report(global_consistent(m))
    if name == "local_check":
        return _report(local_check(m, decompose(m)))
    if name == "mce_dual_solve":
        return mce_dual_solve(uniform(m.names), m.constraints).probs.tolist()
    timing, report, joint = bench(m, decompose(m), repeats=1)
    return [timing.max_marginal_deviation, report.converged, report.cycles,
            list(report.final_residuals), joint.probs.tolist()]


@pytest.mark.parametrize("name", ["global_consistent", "local_check", "mce_dual_solve",
                                  "bench"])
def test_first_scipy_call_in_fresh_interpreter(name):
    loaded_before, result, loaded_after = _child(
        "import json\n"
        "import test_cold_start\n"
        "before = 'scipy' in sys.modules\n"
        f"result = test_cold_start.scipy_route({name!r})\n"
        "print(json.dumps([before, result, 'scipy' in sys.modules]))\n")
    assert (loaded_before, loaded_after) == (False, True)
    assert result == json.loads(json.dumps(scipy_route(name)))
