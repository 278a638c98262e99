"""`import tpds` loads no scipy; the one function that needs it imports it itself."""

import os
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


def run(script, *flags):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
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
