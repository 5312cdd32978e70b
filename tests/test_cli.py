import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cardeal
from cardeal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_good_fixture(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--params", "3,3,1",
        "--announcement", "012 034 056 135 246",
        "--axioms", "ca1,ca2,ca3",
    )
    assert code == 0
    assert "CA1: pass" in out and "CA3: pass" in out


def test_verify_fails_requested_axiom(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--params", "3,3,1",
        "--announcement", "012 034 056 135 246",
        "--axioms", "ca4",
    )
    assert code == 1
    assert "CA4: FAIL" in out
    assert "5" in out.split("violating c-sets:")[1].splitlines()[0]


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--params", "3,3,1",
        "--announcement", "012 034 056 135 146 236 245",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ca4"] == {"pass": True, "n": {str(x): 2 for x in range(7)},
                           "witness": None, "violating": []}


def test_verify_profile_output(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--params", "3,3,1",
        "--announcement", "012 034 056 135 146 236 245",
        "--profile", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == {
        "v": 7, "k": 3, "lambda": {"0": 7, "1": 3, "2": 1, "3": None}, "strength": 2,
    }
    code, out, _ = run(
        capsys,
        "verify", "--params", "4,3,1",
        "--announcement", "0246 1357", "--profile",
    )
    assert "design strength:" in out


def test_verify_parse_error_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--params", "3,3,1", "--announcement", "012 012"
    )
    assert code == 2
    assert "duplicate line" in err


def run_process(*argv, env=None):
    """Run the CLI in a fresh interpreter, where an uncaught exception prints a traceback."""
    src = str(Path(cardeal.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "cardeal.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
    )


@pytest.mark.parametrize(
    "text",
    ['[[0,1,"2"]]', "[[0,1,null]]", '{"params": 3, "lines": [[0,1,2]]}', "[" * 5000],
)
def test_verify_malformed_json_exit_2(text):
    proc = run_process("verify", "--params", "3,3,1", "--announcement", text)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_bad_max_work_variable_exit_2():
    proc = run_process(
        "verify", "--params", "3,3,1", "--announcement", "012 034 056 135 246",
        env={"CARDEAL_MAX_WORK": "abc"},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "CARDEAL_MAX_WORK" in proc.stderr and "abc" in proc.stderr


def test_analyze_obeys_callers_limit():
    proc = run_process(
        "analyze", "--protocol", "uniform60", "--max-work", "1000000",
        env={"CARDEAL_MAX_WORK": "40"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "class balance before observing: 3/5" in proc.stdout


def test_verify_reads_stdin_and_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("012 034 056 135 246"))
    code, _, _ = run(capsys, "verify", "--params", "3,3,1", "--stdin", "--axioms", "ca1")
    assert code == 0
    path = tmp_path / "announcement.txt"
    path.write_text("012 034 056 135 246")
    code, _, _ = run(capsys, "verify", "--params", "3,3,1", "--file", str(path), "--axioms", "ca2")
    assert code == 0


def test_construct_binary_text_and_json(capsys):
    code, out, _ = run(capsys, "construct", "binary", "--bits", "3")
    assert code == 0
    assert out.split() == [
        "0123", "0145", "0167", "0246", "0257", "0347",
        "0356", "1247", "1256", "1346", "1357", "2345", "2367", "4567",
    ]
    code, out, _ = run(capsys, "construct", "binary", "--bits", "3", "--format", "json")
    data = json.loads(out)
    assert data["params"] == [4, 3, 1]
    assert len(data["lines"]) == 14


def test_verify_profile_guard_exit_2():
    # The axiom check (21 + 7 * 7 = 70 steps) fits; the profile's t = 2 scan
    # (C(7, 2) * 7 = 147 steps) does not, and nothing is printed before it.
    proc = run_process(
        "verify", "--params", "3,3,1", "--announcement", "012 034 056 135 146 236 245",
        "--profile", "--max-work", "100",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "covalency scan" in proc.stderr
    assert proc.stdout == ""


def test_construct_guard_exit_2():
    proc = run_process("construct", "binary", "--bits", "3", env={"CARDEAL_MAX_WORK": "111"})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "binary construction" in proc.stderr


def test_construct_guard_message_survives_a_huge_estimate():
    # 2(2^n-1)·2^n has about 12,000 digits at n = 20000, past Python's
    # 4,300-digit limit for printing an integer.
    proc = run_process("construct", "binary", "--bits", "20000")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "above the limit" in proc.stderr


def test_construct_pipes_into_verify(capsys, monkeypatch):
    code, constructed, _ = run(capsys, "construct", "binary", "--bits", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(constructed))
    code, out, _ = run(
        capsys, "verify", "--params", "4,3,1", "--stdin", "--axioms", "ca1,ca2,ca3,ca4"
    )
    assert code == 0
    assert "CA4: pass  constant 4" in out


def test_enumerate_count_and_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--params", "3,3,1", "--hand", "012", "--count")
    assert code == 0 and out.strip() == "60"
    code, out, _ = run(
        capsys, "enumerate", "--params", "3,3,1", "--hand", "135", "--special-point", "0"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 6
    assert rows[0] == "012 034 056 135 246"
    assert all("135" in row.split() for row in rows)


@pytest.mark.parametrize(
    "params, hand, size, total",
    [("3,3,1", "012", "6", "36"), ("4,2,1", "0123", "7", None)],
)
def test_enumerate_special_point_honours_size_and_params(capsys, params, hand, size, total):
    # None of the 36 six-line (3,3,1) announcements through 012 has a unique
    # most-frequent card, so no triple point can be 0.
    argv = ["enumerate", "--params", params, "--hand", hand, "--size", size, "--count"]
    if total is not None:
        assert run(capsys, *argv)[:2] == (0, total + "\n")
    assert run(capsys, *argv, "--special-point", "0")[:2] == (0, "0\n")
    code, _, err = run(capsys, *argv, "--special-point", "7")
    assert code == 2 and "out of range" in err


def test_enumerate_guard_exit_2(capsys):
    code, _, err = run(
        capsys,
        "enumerate", "--params", "3,3,1", "--hand", "012", "--max-work", "10",
    )
    assert code == 2
    assert "max-work" in err or "CARDEAL_MAX_WORK" in err


def test_sample_is_seed_stable(capsys):
    args = ("sample", "--protocol", "fact1", "--hand", "012", "--seed", "9", "--n", "4")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    rows = first.strip().splitlines()
    assert len(rows) == 4
    assert all("012" in row.split() for row in rows)


def test_sample_negative_count_exit_2():
    proc = run_process("sample", "--protocol", "fact1", "--hand", "012", "--n", "-1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sample_guard_charges_the_draws():
    # Building uniform60 is estimated at 7,580 steps, under the limit; the 20,000 draws are not.
    proc = run_process(
        "sample", "--protocol", "uniform60", "--hand", "012", "--n", "20000", "--max-work", "10000"
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "sampling" in proc.stderr
    assert proc.stdout == ""


def test_sample_fact2_needs_point(capsys):
    code, _, err = run(capsys, "sample", "--protocol", "fact2-conditional", "--hand", "012")
    assert code == 2
    assert "point" in err


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", "--protocol", "fact1")
    assert code == 0
    assert "1/2" in out


def test_analyze_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "--protocol", "uniform60", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class_balance"] == {"num": 3, "den": 5}
    assert data["max_uniform_deviation"] == {"num": 0, "den": 1}


def test_analyze_single_announcement_with_observer(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--protocol", "uniform60",
        "--announcement", "012 034 056 135 246", "--observer", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["posteriors"]["012"] == {"num": 1, "den": 3}
    assert data["posteriors"]["056"] == {"num": 0, "den": 1}


def test_analyze_observer_without_announcement(capsys):
    code, _, err = run(capsys, "analyze", "--protocol", "uniform60", "--observer", "5")
    assert code == 2
    assert "--announcement" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--params", "3,3,1"])  # no announcement source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
