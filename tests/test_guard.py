"""The work guard's log-sized refusals, checked in process against exact binomials."""

import re
from math import comb, log10

import pytest

from cardeal import WorkLimitExceeded
from cardeal.guard import comb_within

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
