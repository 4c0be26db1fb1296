"""scipy is loaded on first use: the import contract and the rebindable entry points."""
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np

import capax
from capax import (
    ExpSumProblem,
    HullTag,
    cap_direct_pd,
    cap_unitary_search,
    capacity,
    classify_hull,
    expsum,
)
from conftest import make_op

# prints which of scipy.optimize and scipy.linalg are loaded after import
# capax and after each CLI verb run in-process from the JSON argv list
_CHECK = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(name for name in ("scipy.optimize", "scipy.linalg") if name in sys.modules)

import capax
seen = {"import capax": scipy_loaded()}
from capax.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[argv[0]] = scipy_loaded() if code == 0 else f"exit {code}"
print(seen)
"""


def test_import_and_scipy_free_verbs_leave_scipy_unloaded(tmp_path):
    """import capax and the coeffs, cap0, psi, entropy, scale and cap verbs
    on a generic operator (whose diagonal problem is interior) load neither
    scipy.optimize nor scipy.linalg."""
    t = capax.random_cp(2, 2, 2, scale=0.5, rng=np.random.default_rng(4100))
    op, problem = tmp_path / "op.json", tmp_path / "problem.json"
    op.write_text(capax.to_json(t))
    problem.write_text(capax.problem_to_json(capax.diag_problem(t)))
    verbs = [
        ["coeffs", str(op)],
        ["cap0", str(op)],
        ["psi", str(problem)],
        ["entropy", str(problem)],
        ["scale", str(op)],
        ["cap", str(op)],
    ]
    src = os.path.dirname(os.path.dirname(capax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _CHECK, json.dumps(verbs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    names = ["import capax"] + [argv[0] for argv in verbs]
    assert out.strip() == str({name: [] for name in names})


def test_rebound_entry_points_see_every_call(monkeypatch):
    """Counting wrappers bound onto capax.expsum.linprog and
    capax.capacity.minimize see the LP of a boundary classification and
    every BFGS run of cap_unitary_search; cap_direct_pd runs none."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(expsum, "linprog", counting("linprog", expsum.linprog))
    monkeypatch.setattr(capacity, "minimize", counting("minimize", capacity.minimize))
    monkeypatch.setattr(expsum, "_cached_hull", expsum._HullCache(maxsize=8))
    boundary = ExpSumProblem(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3))
    assert classify_hull(boundary).tag is HullTag.BOUNDARY_ZERO
    assert calls["linprog"] >= 1
    cap_direct_pd(make_op(2, 2, 2, 5))
    assert calls["minimize"] == 0
    cap_unitary_search(make_op(2, 2, 2, 5), restarts=3)
    assert calls["minimize"] == 1  # the first start is certified
