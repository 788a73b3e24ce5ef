"""Start-up cost and the shipped demos, each run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [ROOT / "demos" / name for name in ("demo_fbm_kernel.py", "demo_wick_calculus.py", "demo_wick_sde.py")]


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_special_and_interpolate_unloaded():
    # scipy.special (gamma, Jacobi roots) and scipy.interpolate load on first use
    code = "import sys, chaosfield; print(sorted(m for m in ('scipy.special', 'scipy.interpolate') if m in sys.modules))"
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
