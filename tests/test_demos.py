"""Every demo script and every ``python`` block of README.md runs against the in-tree package."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


PRINT_COMMENT = re.compile(r"^print\(.*\)\s+# (.*)$")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def run_fresh(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def same_output(shown, printed):
    """Equal text once numbers are masked, and numbers equal to a relative 1e-9."""
    return (NUMBER.sub("#", shown) == NUMBER.sub("#", printed)
            and all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
                    for a, b in zip(NUMBER.findall(shown), NUMBER.findall(printed))))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    run_fresh([str(script)])


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block-{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs_and_prints_what_it_shows(code):
    # each top-level print emits one line; a "print(...)  # text" comment
    # is the line it must emit
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = run_fresh(["-c", code]).splitlines()
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        shown = PRINT_COMMENT.match(line)
        assert shown is None or same_output(shown.group(1), out), (line, out)
