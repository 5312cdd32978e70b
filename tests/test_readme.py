"""The README's two example blocks run and show what their comments say.

The fenced Python block under ``## Library`` is executed as written, so a
public name it imports cannot be deleted or renamed without this test
failing. The posterior tuple is read from the block's own comment lines.

Each line of the fenced block under ``## Command line`` is run through bash,
with ``cardeal`` defined as ``python -m cardeal.cli`` on ``PYTHONPATH=src``.
It must exit as its ``# exit N`` comment says, 0 where there is none, and
print no traceback.
"""

import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_shows_its_comments():
    match = re.search(r"^## Library\n+```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert match, "README has no Python block under ## Library"
    block, scope = match.group(1), {}
    exec(block, scope)
    report = scope["report"]
    assert report.good is True
    assert report.ca4.passed is False
    assert report.ca4.witness.x == (1,)
    # The comment lines after the posterior call spell out the tuple it returns.
    shown = block.split("posterior_lines(proto, ann).posteriors\n", 1)[1]
    expected = eval("".join(line.lstrip("# ") for line in shown.splitlines()), {"Fraction": Fraction})
    assert scope["posterior_lines"](scope["proto"], scope["ann"]).posteriors == expected


def test_command_line_examples_exit_as_their_comments_say():
    match = re.search(r"^## Command line\n+```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert match, "README has no sh block under ## Command line"
    lines = [line for line in match.group(1).splitlines() if line.strip()]
    assert lines, "README's command-line block is empty"
    define = f'cardeal() {{ {shlex.quote(sys.executable)} -m cardeal.cli "$@"; }}\n'
    for line in lines:
        assert line.startswith("cardeal "), f"README command line is not a cardeal command: {line}"
        exit_comment = re.search(r"# exit (\d+)$", line)  # bash itself skips the comment
        expected = int(exit_comment[1]) if exit_comment else 0
        proc = subprocess.run(
            ["bash", "-c", define + line],
            cwd=README.parent,
            env={**os.environ, "PYTHONPATH": "src"},
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected, f"exited {proc.returncode}, expected {expected}: {line}\n{proc.stderr}"
        assert "Traceback" not in proc.stderr, f"printed a traceback: {line}\n{proc.stderr}"
