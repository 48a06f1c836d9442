"""Smoke tests of the public surface: every exported name resolves, and
the demo scripts run to completion as separate processes."""

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


@pytest.mark.parametrize("script", ["train_tilted_measure.py",
                                    "measure_derivatives.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
