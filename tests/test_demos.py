"""Smoke tests of the public surface: every exported name resolves, the
package imports without scipy, and the demo scripts run to completion as
separate processes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbslab

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [n for n in gibbslab.__all__ if not hasattr(gibbslab, n)] == []
    assert len(set(gibbslab.__all__)) == len(gibbslab.__all__)


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; a stray scipy import costs
    # every fresh process its import time and resident memory
    code = ("import sys, gibbslab, gibbslab.cli; "
            "print(sorted(k for k in sys.modules "
            "if k == 'scipy' or k.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("script", [
    "train_tilted_measure.py", "measure_derivatives.py",
    # population averages, the bound moments and a discrete population
    "generalization_routes.py", "rate_study.py", "bounds_and_schedules.py",
    "exact_enumeration.py",
    # the separable particle drift end to end, 8192 particles x 4000 steps
    "particle_dynamics.py"])
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
