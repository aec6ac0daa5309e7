"""Differential sweep: every verb and solve route, in process through
`cli.run`, on 40 seeded `helpers.random_model` draws (a first slice of
ROADMAP item 14).

Each draw is written to a model file and run as `check`, `check --local`,
`solve` by each method and `query` of its first variable.  Known
disagreements are expected outcomes, not filtered draws.  The sweep takes
about 5 s.
"""

import contextlib
import io

import numpy as np
import pytest

import helpers
from maxentbn import Literal, cli, mce_dual_solve, uniform
from maxentbn.dist import probability

DRAWS = 40
# the commands that solve the model
SOLVES = ("solve --method dual", "solve --method successive", "solve --method decomposed",
          "query")
# the draws `check` calls inconsistent
INCONSISTENT = (0, 6, 7, 10, 11, 12, 16, 17, 20, 23, 24, 29, 31)
# consistent draws no route solves, each with its reason; exit 0 is also
# accepted, so the draw passes once its item lands
UNSOLVED = {34: "the dual reaches its 500-step cap at max residual 1 (ROADMAP item 6)"}
QUERY_TOL = 5e-3


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Per draw, its model and each command's (exit code, stdout)."""
    rng = np.random.default_rng(41)
    out = []
    for i in range(DRAWS):
        m = helpers.random_model(rng)
        path = tmp_path_factory.mktemp("sweep") / f"draw-{i}.cn"
        path.write_text(helpers.serialize_model(m), encoding="utf-8")
        commands = {"check": ("check",), "check --local": ("check", "--local"),
                    "query": ("query", "--event", m.names[0])}
        commands.update({f"solve --method {x}": ("solve", "--method", x)
                         for x in ("dual", "successive", "decomposed")})
        runs = {}
        for name, (verb, *flags) in commands.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run([verb, str(path), *flags])
            runs[name] = (code, stdout.getvalue())
        out.append((m, runs))
    return out


def test_exit_codes_are_defined(sweep):
    for i, (_, runs) in enumerate(sweep):
        assert all(code in (0, 1, 2) for code, _ in runs.values()), (i, runs)


def test_local_check_agrees_with_global(sweep):
    for i, (_, runs) in enumerate(sweep):
        assert runs["check --local"][0] == runs["check"][0], i


def test_inconsistent_draws_solve_by_no_route(sweep):
    found = tuple(i for i, (_, runs) in enumerate(sweep) if runs["check"][0] == 1)
    assert found == INCONSISTENT
    for i in found:
        assert [sweep[i][1][name][0] for name in SOLVES] == [1] * len(SOLVES), i


def test_consistent_draws_solve_by_every_route(sweep):
    for i, (_, runs) in enumerate(sweep):
        if i in INCONSISTENT:
            continue
        assert runs["check"][0] == 0, i
        codes = [runs[name][0] for name in SOLVES]
        if i in UNSOLVED:
            assert set(codes) <= {0, 1}, (i, UNSOLVED[i], codes)
        else:
            assert codes == [0] * len(SOLVES), (i, codes)


def test_query_matches_dual_joint(sweep):
    answered = 0
    for i, (m, runs) in enumerate(sweep):
        code, stdout = runs["query"]
        if code != 0:
            continue
        joint = mce_dual_solve(uniform(m.names), m.constraints)
        want = probability(joint, [Literal(m.names[0])])
        assert stdout.startswith(f"P({m.names[0]}) = ")
        assert float(stdout.split("=")[1]) == pytest.approx(want, abs=QUERY_TOL), i
        answered += 1
    assert answered >= DRAWS - len(INCONSISTENT) - len(UNSOLVED)
