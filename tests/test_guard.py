"""The work guard: log-sized refusals checked in process against exact binomials, and one default read per request."""

import re
from math import comb, log10

import pytest

from cardeal import PAPER_PARAMS, WorkLimitExceeded, binary_design, build_protocol, design_profile, validate_protocol
from cardeal import axioms, designs, enumeration, guard, protocols
from cardeal.cli import main
from cardeal.guard import comb_within, resolve_max_work

HUGE = 2**4100


# Each case has j * bit_length(n) > 4096, j = min(k, n - k), so C(n, k) * times
# is sized by Stirling's series before it is computed.
@pytest.mark.parametrize(
    "n, k, times",
    [
        (2000, 500, 1),
        (2000, 1000, 1),
        (6000, 4500, 1),  # j = n - k
        (20000, 5000, 1),
        (20000, 10000, 1),
        (20000, 5000, 10**6),
        (HUGE, 1, 1),
        (HUGE, 2, 1),
        (HUGE, 5, 1),
        (HUGE, HUGE - 2, 7),  # j = n - k
    ],
    ids=["2000-500", "2000-1000", "6000-4500", "20000-5000", "20000-10000", "20000-5000-x1e6",
         "2^4100-1", "2^4100-2", "2^4100-5", "2^4100-(n-2)-x7"],
)
def test_log_sized_refusal_prints_the_exact_order_of_magnitude(n, k, times):
    with pytest.raises(WorkLimitExceeded) as exc:
        comb_within(n, k, 10**8, "scan", times)
    printed = float(re.search(r"about 10\^([0-9.]+) steps", str(exc.value)).group(1))
    assert abs(printed - log10(comb(n, k) * times)) < 0.1


def test_log_sized_admission_returns_the_exact_binomial():
    assert comb_within(HUGE, 1, 10**1300, "scan") == HUGE


def test_a_count_past_a_floats_range_is_refused_as_infinite():
    with pytest.raises(WorkLimitExceeded, match=r"10\^inf"):
        comb_within(2**1100, 2**1000, 10**8, "scan")


@pytest.fixture(scope="module")
def calls():
    proto, binary4 = build_protocol("uniform60", PAPER_PARAMS), binary_design(4)
    return {
        "validate_protocol": lambda max_work=None: validate_protocol(proto, max_work=max_work),
        "build_protocol": lambda max_work=None: build_protocol("uniform60", PAPER_PARAMS, max_work=max_work),
        "design_profile": lambda max_work=None: design_profile(binary4, 16, max_work=max_work),
        "binary_design": lambda max_work=None: binary_design(4, max_work=max_work),
    }


@pytest.fixture
def default_reads(monkeypatch):
    """One entry per default limit that a guarded module resolves during the test."""
    reads = []

    def counting(value=None):
        reads.extend([value] if value is None else [])
        return resolve_max_work(value)

    for module in (guard, axioms, designs, enumeration, protocols):
        monkeypatch.setattr(module, "resolve_max_work", counting)
    return reads


@pytest.mark.parametrize("name", ["validate_protocol", "build_protocol", "design_profile", "binary_design"])
def test_a_request_reads_the_limit_once_and_sees_it_change(name, calls, default_reads):
    calls[name]()
    assert len(default_reads) == 1
    with pytest.raises(WorkLimitExceeded):
        calls[name](max_work=40)  # each request charges more than 40 steps
    assert len(default_reads) == 1  # a request given its limit reads no default


def test_a_build_that_fills_the_hand_lists_reads_the_limit_once(cold_hand_lists, default_reads):
    build_protocol("fact1", PAPER_PARAMS)
    assert len(protocols._HAND_LISTS) == 35
    assert len(default_reads) == 1  # the fill's 35 enumerations take the build's limit


def test_a_build_under_its_charge_is_refused_whether_or_not_the_lists_are_filled(hand_lists):
    with pytest.raises(WorkLimitExceeded, match="announcement enumeration"):
        build_protocol("fact1", PAPER_PARAMS, max_work=40)
    assert len(protocols._HAND_LISTS) == (35 if hand_lists == "warm" else 0)  # a refused build fills nothing


@pytest.mark.parametrize(
    "argv", [["sample", "--protocol", "uniform60", "--hand", "012"], ["analyze", "--protocol", "fact1"]],
    ids=["sample", "analyze"],
)
def test_the_cli_refuses_a_build_at_max_work_10_whether_or_not_the_lists_are_filled(argv, hand_lists, capsys):
    assert main([*argv, "--max-work", "10"]) == 2
    assert "announcement enumeration" in capsys.readouterr().err
