"""The README's library example runs and shows what its comments say.

The fenced Python block under ``## Library`` is executed as written, so a
public name it imports cannot be deleted or renamed without this test
failing. The posterior tuple is read from the block's own comment lines.
"""

import re
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
