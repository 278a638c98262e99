"""`import tpds` loads no scipy; the one function that needs it imports it
itself. The nonlinear CLI runs load none either, and print the same under
``python -O``."""

import os
import re
import subprocess
import sys
import textwrap

import pytest

NO_SCIPY = """
import sys
import tpds, tpds.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # stripped by -O, so also:
print(len(loaded))
"""


NONLINEAR_CLI = """
import hashlib, os, sys
import tpds
from tpds import cli
spec = lambda name: os.path.join(os.path.dirname(tpds.__file__), "specs", name + ".spec")
with open("blowup.spec", "w") as fh:
    fh.write('meta: {name: blowup, n: 1}\\nnonlinear: {rhs: ["x1 * x1"]}\\nexperiment: {x0: [1.0], horizon: 2.0}\\n')
print(cli.main(["entrain", spec("entrain_demo")]))
print(cli.main(["entrain", spec("takac"), "--step", "0.05"]))
print(cli.main(["simulate", spec("takac"), "--grid", "50", "--out", "takac.csv"]))
print(hashlib.sha256(open("takac.csv", "rb").read()).hexdigest())
print(cli.main(["simulate", "blowup.spec", "--out", "blowup.csv"]))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def run(script, *flags, cwd=None):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "python-O"])
def test_import_loads_no_scipy(flags):
    assert run(NO_SCIPY, *flags) == ["0"]


def test_negative_minor_witness_after_scipy_free_import():
    script = NO_SCIPY + textwrap.dedent(
        """
        A = [[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.5, 1.0, -1.0]]
        t, rows, cols, value = tpds.negative_minor_witness(A, 3, 1)
        print(value < 0, "scipy.linalg" in sys.modules)
        """
    )
    assert run(script) == ["0", "True", "True"]


def test_nonlinear_cli_runs_load_no_scipy_and_ignore_python_O(tmp_path):
    # entrain (error-controlled and fixed-step) and a nonlinear simulate,
    # and a blow-up that must still exit 4 when asserts are stripped
    (tmp_path / "plain").mkdir()
    (tmp_path / "opt").mkdir()
    plain = run(NONLINEAR_CLI, cwd=tmp_path / "plain")
    assert plain == run(NONLINEAR_CLI, "-O", cwd=tmp_path / "opt")
    entrain = r"detected_period {} residual tail( \S+){{5}} steps \d+ rejected \d+ 0"
    pattern = " ".join([entrain.format(1), entrain.format(2), r"wrote takac.csv \(50 samples\) 0 [0-9a-f]{64} 4 \[\]"])
    assert re.fullmatch(pattern, " ".join(plain))
