import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxstokes

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # in a temporary directory: 02 writes e8_plane.svg where it runs
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
