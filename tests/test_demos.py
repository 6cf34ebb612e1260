"""The narrative demos and README's Python examples run to completion."""

import re
import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = src_env()
    # cwd is a scratch directory: demo 05 writes report.json there
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    # the quick start and the schema section's spec built in code
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)  # the examples read the demo specs
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
