"""The walkthrough scripts run end to end and print the paper's quantities."""

import os
import re
import subprocess
import sys
from pathlib import Path

import cardeal

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    src = str(Path(cardeal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


def test_protocol_bias_summary():
    out = run_script("protocol_bias_summary.py")
    balances = re.findall(r"class balance before observing: (\S+)", out)
    assert balances == ["3/5", "1/2", "3/7", "1/2"]


def test_announcement_census():
    out = run_script("announcement_census.py")
    assert "count profiles seen: {(60, 36, 24): 35}" in out
    rows = re.findall(r"^ *\d{3}((?: +\d+){7})$", out, re.MULTILINE)
    assert len(rows) == 35
    for row in rows:
        assert sorted(map(int, row.split())) == [6, 6, 6, 6, 12, 12, 12]
