"""scipy is loaded only by an exact solve.

``tests/helpers.py`` imports scipy, so every check runs in a fresh
interpreter (the session fixture in conftest puts ``src/`` on its path).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from copula_ot.measures import make_measure
from copula_ot.transport import CostSpec, exact_ot

ROOT = Path(__file__).resolve().parents[1]

# Equal weights take the assignment path, unequal ones the HiGHS LP.
PAIRS = {
    "assignment": (
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.25] * 4),
        ([[0.5, 0.2], [0.1, 0.9], [0.8, 0.7], [0.3, 0.4]], [0.25] * 4),
    ),
    "highs": (
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.25, 0.25]),
        ([[0.5, 0.2], [0.1, 0.9], [0.8, 0.7]], [0.2, 0.3, 0.5]),
    ),
}

SOLVE_AFTER_SWEEPS = """
import importlib.util, json, sys
PAIRS = json.loads(sys.argv[2])
out = sys.argv[1]
loaded = {}

import copula_ot
from copula_ot import cli, transport
from copula_ot.copulas import independence
from copula_ot.counterexample import gap_search
from copula_ot.measures import make_measure
loaded["import"] = "scipy" in sys.modules

try:
    transport.no_such_name
except AttributeError:
    loaded["missing attribute"] = "scipy" in sys.modules

assert cli.main(["verify", "--instances", "2", "--out", out + "/verify.csv"]) == 0
loaded["verify"] = "scipy" in sys.modules

gap_search(independence(2, 8), 2, 1, attach_exact=False)
loaded["gap_search"] = "scipy" in sys.modules

spec = importlib.util.spec_from_file_location("gap_curve", sys.argv[3])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
argv = ["--p", "2", "--q", "1", "--resolutions", "2", "4", "--skip-exact", "--out", out + "/gap.csv"]
assert script.main(argv) == 0
loaded["gap_curve --skip-exact"] = "scipy" in sys.modules

solved = {}
for name, (mu, rho) in PAIRS.items():
    res = transport.exact_ot(make_measure(*mu), make_measure(*rho), transport.CostSpec(2, 2))
    solved[name] = [res.value, res.plan.i.tolist(), res.plan.j.tolist(), res.plan.w.tolist()]

import scipy.optimize
same = [
    transport.linprog is scipy.optimize.linprog,
    transport.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
]
print(json.dumps({"loaded": loaded, "solved": solved, "same": same}))
"""

# What the bench tracer does: read ``transport.linprog`` before any solve,
# rebind it, and expect the solver to call the rebound name.
REBIND_BEFORE_SOLVE = """
import numpy as np
from copula_ot import transport
assignment = transport.linear_sum_assignment
import scipy.optimize
assert assignment is scipy.optimize.linear_sum_assignment
assert transport.linprog is scipy.optimize.linprog
calls = []
original = transport.linprog
def counting(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)
transport.linprog = counting
transport.solve_transport(np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.ones((2, 2)))
assert calls == [1], calls
try:
    transport.no_such_name
except AttributeError:
    print("ok")
"""


def run_python(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("scipy_load")
    script = ROOT / "scripts" / "gap_curve.py"
    return json.loads(run_python(SOLVE_AFTER_SWEEPS, str(out), json.dumps(PAIRS), str(script)))


def test_solver_free_paths_never_load_scipy(fresh_run):
    assert fresh_run["loaded"] == {
        "import": False,
        "missing attribute": False,
        "verify": False,
        "gap_search": False,
        "gap_curve --skip-exact": False,
    }


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_first_exact_solve_loads_scipy_and_matches_in_process(fresh_run, name):
    mu, rho = PAIRS[name]
    res = exact_ot(make_measure(*mu), make_measure(*rho), CostSpec(2, 2))
    value, i, j, w = fresh_run["solved"][name]
    assert value == res.value
    assert (i, j) == (res.plan.i.tolist(), res.plan.j.tolist())
    assert np.array_equal(w, res.plan.w)


def test_solver_names_are_scipys_after_the_first_solve(fresh_run):
    assert fresh_run["same"] == [True, True]


def test_rebound_solver_name_is_called_and_other_names_stay_missing():
    assert run_python(REBIND_BEFORE_SOLVE) == "ok"
