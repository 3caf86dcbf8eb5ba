import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the suite's filterwarnings does not reach a subprocess, so pass it on
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_block_prints_what_its_comments_claim(capsys):
    # the python fence under "Library in a few lines", run as it stands
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library in a few lines", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    first, second = map(float, capsys.readouterr().out.split())
    assert first == math.pi
    assert abs(second - math.pi / 2) <= 2e-15
