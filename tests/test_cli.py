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


def run_process(*argv, **options):
    """Run the CLI in a fresh interpreter, where an uncaught exception prints a traceback."""
    src = str(Path(cardeal.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "cardeal.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        **options,
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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--params", "3,8,1", "--announcement", "0,1_0,2"],
        ["verify", "--params", "3,3,1", "--announcement", "0,+1,2"],
        ["verify", "--params", "3,3,1", "--announcement",
         "\u0660\u0661\u0662 \u0660\u0663\u0664 \u0660\u0665\u0666 \u0661\u0663\u0665 \u0662\u0664\u0666"],
        ["enumerate", "--params", "3,3,1", "--hand", "\u0660\u0661\u0662"],
        ["analyze", "--protocol", "uniform60", "--announcement", "012 034 056 135 246", "--observer", "\u0665"],
    ],
)
def test_card_text_that_is_not_ascii_decimal_exit_2(argv):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot read cards from")


@pytest.mark.parametrize("text", ["\u0663,\u0663,\u0661", "+3,3,1_0", "3, 3,1", "3,3,-1", "3,\uff13,1"])
@pytest.mark.parametrize(
    "argv", [["verify", "--announcement", "012 034 056 135 246"], ["enumerate", "--hand", "012", "--count"]]
)
def test_params_take_ascii_decimal_digits_only(capsys, text, argv):
    # int() would read these as (3,3,1), (3,3,10), (3,3,1), a negative count and (3,3,1).
    code, out, err = run(capsys, argv[0], "--params", text, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: --params counts must be ASCII decimal digits, got {text!r}\n"


@pytest.mark.parametrize("source, named", [("option", "--max-work")])
def test_negative_max_work_exit_2_naming_its_source(source, named, capsys):
    code, out, err = run(capsys, "verify", "--params", "3,3,1", "--announcement", "012 034 056 135 246",
                         "--max-work", "-1")
    assert code == 2 and not out
    assert named in err and "nonnegative" in err and "-1" in err


def test_analyze_obeys_callers_limit():
    # uniform60 is charged 7,580 steps to build: --max-work reaches the build's enumerations.
    refused = run_process("analyze", "--protocol", "uniform60", "--max-work", "40")
    assert refused.returncode == 2
    assert "Traceback" not in refused.stderr
    assert "announcement enumeration" in refused.stderr
    proc = run_process("analyze", "--protocol", "uniform60", "--max-work", "1000000")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "class balance before observing: 3/5" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--protocol", "uniform60", "--hand", "9"], "card 9 out of range"),
        (["analyze", "--protocol", "uniform60", "--observer", "0"], "--observer needs --announcement"),
        (["analyze", "--protocol", "uniform60", "--announcement", "01"], "expected 3 cards, got 2"),
        (["analyze", "--protocol", "uniform60", "--announcement", "012 034 056 135 246", "--observer", ""],
         "empty card set"),
        (["sample", "--protocol", "uniform60", "--hand", "01"], "expected a card set of size 3, got (0, 1)"),
        (["sample", "--protocol", "uniform60", "--hand", ""], "empty card set"),
        (["sample", "--protocol", "uniform60", "--hand", "0123"], "expected a card set of size 3, got (0, 1, 2, 3)"),
    ],
)
def test_sample_and_analyze_read_arguments_before_building_a_protocol(argv, message, capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a protocol was built before every argument was read")

    monkeypatch.setattr("cardeal.cli.build_protocol", unbuilt)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert message in err


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
    # The axiom check (21 + 7 * 7 = 70 steps) and the profile's scans up to
    # t = 2 (at most C(7, 2) * 2 = 42 steps) fit; its t = 3 scan
    # (C(7, 3) * 3 = 105 steps) does not, and nothing is printed before it.
    proc = run_process(
        "verify", "--params", "3,3,1", "--announcement", "012 034 056 135 146 236 245",
        "--profile", "--max-work", "100",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "covalency scan" in proc.stderr
    assert proc.stdout == ""


def test_construct_guard_exit_2():
    # 2(2^3-1)·2^3 = 112 steps for the 14 lines on 8 points.
    proc = run_process("construct", "binary", "--bits", "3", "--max-work", "111")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "binary construction" in proc.stderr
    proc = run_process("construct", "binary", "--bits", "3", "--max-work", "112")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 14


@pytest.mark.parametrize(
    "argv, what",
    [
        (["verify", "--params", "3,3,1", "--announcement", "012 034 056 135 246"], "axiom check"),
        (["enumerate", "--params", "3,3,1", "--hand", "012", "--size", "5"], "announcement enumeration"),
        (["sample", "--protocol", "uniform60", "--hand", "012"], "announcement enumeration"),
        (["analyze", "--protocol", "uniform60"], "announcement enumeration"),
        (["construct", "binary", "--bits", "30"], "binary construction"),
    ],
    ids=["verify", "enumerate", "sample", "analyze", "construct"],
)
def test_every_subcommand_takes_max_work(argv, what, capsys):
    # Each request is charged more than 10 steps; the refusal names the flag that admits it.
    code, out, err = run(capsys, *argv, "--max-work", "10")
    assert code == 2 and not out
    assert what in err and "raise --max-work" in err


def test_construct_guard_message_survives_a_huge_estimate():
    # 2(2^n-1)·2^n has about 12,000 digits at n = 20000, past Python's
    # 4,300-digit limit for printing an integer.
    proc = run_process("construct", "binary", "--bits", "20000")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "above the limit" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--params", "2,1000000,500000", "--announcement", "0,1"),
        ("verify", "--params", "2,10000000,5000000", "--announcement", "0,1"),
        ("enumerate", "--params", "3,1000000,1", "--hand", "0,1,2", "--size", "100000", "--count"),
        ("construct", "binary", "--bits", "30000000000"),
        ("construct", "binary", "--bits", "300000000"),
    ],
)
def test_huge_estimates_are_refused_before_they_are_computed(argv):
    # Each estimate has hundreds of thousands of digits or more. Computing it
    # exactly took 3 to over 60 seconds, or ran out of memory building 2^n.
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_process(*argv, preexec_fn=cap_memory, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "steps, above the limit" in proc.stderr


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
    "params, hand, size, count, max_work",
    [
        # 0123 is the reference hand, whose relabelling is the identity; 1357 is relabelled.
        ("4,3,1", "0123", "7", 8064, None),
        ("4,3,1", "0123", "5", 0, None),
        ("4,3,1", "0123", "1", 0, None),
        ("4,3,1", "1357", "7", 8064, None),
        # 8 and 9 lines at (4,3,1) are leaf-heavy searches above the default work limit
        # (k=8 is charged about 1.5e8 steps), so they raise it.
        ("4,3,1", "1357", "8", 23088, "1000000000"),
        ("4,3,1", "1357", "9", 14040, "1000000000"),
        # Two lines are answered by proof, with no search, on both a relabelled hand and c = 2.
        ("4,3,1", "1357", "2", 0, None),
        ("3,2,2", "012", "2", 0, None),
        ("4,4,1", "0123", "6", 13680, None),
        # With no good announcement, these are charged about 1.8e10 steps, the direct
        # search's leaves, though the orbit split runs each in well under a second.
        ("4,6,2", "0,1,2,3", "6", 0, "100000000000"),
        ("5,4,2", "0,1,2,3,4", "6", 0, "100000000000"),
    ],
)
def test_enumerate_count(capsys, params, hand, size, count, max_work):
    argv = ["enumerate", "--params", params, "--hand", hand, "--size", size, "--count"]
    if max_work is not None:
        argv += ["--max-work", max_work]
    assert run(capsys, *argv) == (0, f"{count}\n", "")


@pytest.mark.parametrize(
    "hand, message", [("", "empty card set"), ("01", "expected a card set of size 3, got (0, 1)")]
)
def test_enumerate_refuses_a_hand_of_another_size(capsys, hand, message):
    code, out, err = run(capsys, "enumerate", "--params", "3,3,1", "--hand", hand, "--size", "5")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


def test_enumerate_guard_exit_2(capsys, monkeypatch):
    argv = ["enumerate", "--params", "3,3,1", "--hand", "012", "--count"]
    code, _, err = run(capsys, *argv, "--max-work", "10")
    assert code == 2
    assert "max-work" in err
    # The environment sets no limit: the search, charged more than 40 steps, runs at the default.
    monkeypatch.setenv("CARDEAL_MAX_WORK", "40")
    assert run(capsys, *argv)[:2] == (0, "60\n")


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
