"""ValueErrors that no other test raises, each matched by its message."""

import pytest

from cardeal import (
    Parameters,
    bob_sets,
    build_protocol,
    cathy_card_counts,
    enumerate_good_announcements,
    parse_announcement,
)
from cardeal.model import enumerate_ksets
from cardeal.protocols import Protocol, sample_many

P331 = Parameters(3, 3, 1)
FIVE = parse_announcement("012 034 056 135 246", P331)


def _row_summing_to_a_sixtieth():
    proto = build_protocol("uniform60", P331)
    hand = (0, 1, 2)
    table = {**proto.table, hand: proto.table[hand][:1]}
    return sample_many(Protocol("uniform60", P331, table), hand, 0, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bob_sets(FIVE, (0, 1), P331), r"expected a card set of size 1, got \(0, 1\)"),
        (lambda: cathy_card_counts(FIVE, (), P331), r"expected a card set of size 1, got \(\)"),
        (lambda: enumerate_good_announcements(P331, (0, 1), 5), r"expected a card set of size 3, got \(0, 1\)"),
        (lambda: sample_many(build_protocol("uniform60", P331), (0, 1, 2), 0, -1),
         "draw count must be a nonnegative integer, got -1"),
        (_row_summing_to_a_sixtieth, r"distribution for \(0, 1, 2\) sums to 1/60"),
        (lambda: enumerate_ksets(-1, 0), "deck size must be nonnegative, got -1"),
    ],
    ids=["bob-sets", "cathy-counts", "enumerate-hand", "negative-draws", "row-sum", "deck-size"],
)
def test_refusal_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
