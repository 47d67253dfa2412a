"""Every narrative script in ``demos/`` and the README quick start run to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run([str(demo)])


def test_readme_quick_start_runs():
    # the one ```python block of the README, as a user would paste it
    (code,) = re.findall(r"```python\n(.*?)```",
                         (ROOT / "README.md").read_text(encoding="utf-8"),
                         re.DOTALL)
    weighted_sum, cross_check_error = map(float, _run(["-c", code]).split())
    assert weighted_sum > 0 and cross_check_error <= 1e-12
