"""scipy loads only where an LP, an SVD or the dual's CG runs.

Each check runs in a fresh interpreter (`sys.executable`, PYTHONPATH=src),
because the test process has long since imported scipy.  The routes live
in this module, so the child runs the same code the in-process side
runs; this module imports no scipy itself.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
MODELS = ("contradiction.cn", "fig21.cn", "inconsistent-quad.cn", "mining.cn")


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
