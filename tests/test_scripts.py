import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("triviality_demo.py", ()),
        ("donkey_readings.py", ()),
        ("generic_gap.py", ("--trials", "20", "--pixies", "40")),
    ],
)
def test_demo_script_runs(script, args):
    # the demos that README advertises run to completion on the package under test
    path = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
