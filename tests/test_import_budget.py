"""Importing the package loads numpy and the standard library only; scipy and
jsonschema load on first use, in the same interpreter, and the power-law p^U
quadrature does not use scipy.  ``concurrent.futures`` loads with the first
per-time summary of a simulate analysis, and ``mmap`` and the other modules
of the forked workers with the first forked simulation (on Linux), not at
import."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import levylil as ll
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))
assert not heavy, heavy[:5]
late = [m for m in ("concurrent.futures", "mmap", "signal", "traceback") if m in sys.modules]
assert not late, late
m = ll.PowerLawMeasure(alpha=1.5)
closed = ll.eval_pU(m, 0.0, 2.0)
quad = ll.eval_pU(m, 0.0, 2.0, method="quadrature")
assert abs(quad - closed) <= 1e-8 * closed, (quad, closed)
# the power-law p^U quadrature is Gauss-Legendre on log panels, numpy alone
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
from levylil.scenario import validate_scenario
with open(sys.argv[1]) as fh:
    validate_scenario(json.load(fh))
try:
    validate_scenario({"seed": 1, "analyses": [], "typo": 0})
except ll.scenario.SchemaError:
    pass
else:
    raise AssertionError("invalid scenario accepted")
print("ok")
"""


def test_import_loads_neither_scipy_nor_jsonschema():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PROBE,
                          str(ROOT / "docs" / "example_scenario.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
