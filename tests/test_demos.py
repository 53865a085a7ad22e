"""Every demo script, every ``python`` block of README.md and every ``gsep`` line of
its ``sh`` blocks runs against the in-tree package."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gsep.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
README_COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", README,
                                                flags=re.MULTILINE | re.DOTALL)
                   for line in block.splitlines() if line.startswith(("gsep ", "# {"))]


PRINT_COMMENT = re.compile(r"^print\(.*\)\s+# (.*)$")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
SHOWN_VALUE = re.compile(r'"(\w+)": ("[^"]*"|-?[\d.eE+-]+)')


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


def test_readme_command_lines_run_and_print_what_they_show(tmp_path, monkeypatch, capsys):
    # each "gsep ..." line runs in-process; a "# {...}" comment below it
    # shows values that the line's JSON output must carry
    monkeypatch.chdir(tmp_path)
    shown = {}
    for line in README_COMMANDS:
        if line.startswith("gsep "):
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
            printed = capsys.readouterr().out
            continue
        out = json.loads(printed)
        for key, value in SHOWN_VALUE.findall(line):
            assert same_output(value, json.dumps(out[key])), (line, key, out[key])
            shown[key] = value
    assert shown == {"margin": "-0.9999999999999987", "verdict": '"entangled"',
                     "threshold": "0.8646647167629453"}
