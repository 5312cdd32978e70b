import json
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardeal import (
    Announcement,
    AnnouncementParseError,
    Parameters,
    bob_infer,
    bob_sets,
    build_protocol,
    card_set,
    cathy_card_counts,
    check_axioms,
    complement_set,
    enumerate_ksets,
    format_announcement,
    is_good,
    lines_avoiding,
    make_deal,
    parse_announcement,
    posterior_lines,
)
from cardeal.model import announcement_json, check_fit, format_card_set, parse_card_set, to_mask


def test_parameters_derive_deck_size():
    assert Parameters(3, 3, 1).v == 7
    assert Parameters(4, 3, 1).v == 8


@pytest.mark.parametrize("bad", [(3, 3, 0), (0, 3, 1), (3, -1, 1)])
def test_parameters_reject_nonpositive_counts(bad):
    with pytest.raises(ValueError):
        Parameters(*bad)


def test_enumerate_ksets_counts_and_order():
    sets = enumerate_ksets(7, 3)
    assert len(sets) == 35
    assert sets[0] == (0, 1, 2)
    assert sets == sorted(sets)
    assert enumerate_ksets(7, 0) == [()]
    big = enumerate_ksets(8, 4)
    assert len(big) == 70
    assert big[0] == (0, 1, 2, 3)


def test_enumerate_ksets_rejects_oversize():
    with pytest.raises(ValueError):
        enumerate_ksets(7, 8)


@given(v=st.integers(0, 10), k=st.integers(0, 10))
def test_enumerate_ksets_properties(v, k):
    if k > v:
        with pytest.raises(ValueError):
            enumerate_ksets(v, k)
        return
    sets = enumerate_ksets(v, k)
    assert len(sets) == comb(v, k)
    assert len(set(sets)) == len(sets)
    assert all(len(s) == k for s in sets)


def test_complement_set_examples():
    assert complement_set((5,), 7) == (0, 1, 2, 3, 4, 6)
    assert complement_set((), 7) == (0, 1, 2, 3, 4, 5, 6)
    assert complement_set(range(7), 7) == ()
    with pytest.raises(ValueError):
        complement_set((7,), 7)


@given(st.integers(1, 12).flatmap(lambda v: st.tuples(st.just(v), st.sets(st.integers(0, v - 1)))))
def test_complement_is_an_involution(case):
    v, cards = case
    x = card_set(cards, v)
    assert complement_set(complement_set(x, v), v) == x


def test_parse_five_hand(p331):
    ann = parse_announcement("012 034 056 135 246", p331)
    assert len(ann) == 5
    assert ann.lines[0] == (0, 1, 2)


def test_parse_comma_form_and_json(p431):
    ann = parse_announcement("0,2,4,6 1,3,5,7", p431)
    assert ann.lines == ((0, 2, 4, 6), (1, 3, 5, 7))
    as_json = json.dumps(announcement_json(ann, p431))
    assert parse_announcement(as_json, p431) == ann
    assert parse_announcement("[[1,3,5,7],[0,2,4,6]]", p431) == ann


def test_parse_canonicalises_order(p331):
    assert parse_announcement("034 210", p331).lines == ((0, 1, 2), (0, 3, 4))


@pytest.mark.parametrize(
    "text",
    [
        "012 012",  # duplicate line
        "011 234",  # duplicate card within a line
        "01 234",  # wrong line size
        "012 789",  # card out of range
        "",
        '{"params": [3, 3, 2], "lines": [[0, 1, 2]]}',  # conflicting params
        '{"params": 3, "lines": [[0, 1, 2]]}',  # params not a list
        '[[0, 1, "2"]]',  # card not an integer
        "[[0, 1, null]]",
    ],
)
def test_parse_rejects_bad_input(text, p331):
    with pytest.raises(AnnouncementParseError):
        parse_announcement(text, p331)


def test_format_canonical_ordering(p331):
    ann = Announcement.of([(0, 3, 4), (0, 1, 2)])
    assert format_announcement(ann, p331) == "012 034"


def test_format_seven_hand(seven_hand, p331):
    assert format_announcement(seven_hand, p331) == "012 034 056 135 146 236 245"


def test_large_deck_uses_commas():
    params = Parameters(5, 5, 2)
    ann = Announcement.of([(0, 3, 7, 10, 11)])
    text = format_announcement(ann, params)
    assert text == "0,3,7,10,11"
    assert parse_announcement(text, params) == ann


lines331 = st.sampled_from(list(combinations(range(7), 3)))
announcements331 = st.sets(lines331, min_size=1, max_size=8).map(Announcement.of)


@given(announcements331)
def test_parse_format_round_trip(ann):
    params = Parameters(3, 3, 1)
    assert check_fit(ann, 3, 7) == tuple(to_mask(line) for line in ann.lines)
    assert Announcement(ann.lines) == ann
    assert parse_announcement(format_announcement(ann, params), params) == ann
    assert parse_announcement(json.dumps(announcement_json(ann, params)), params) == ann


def test_card_set_text_round_trip():
    assert parse_card_set("135", 7) == (1, 3, 5)
    assert parse_card_set("0,12", 16) == (0, 12)
    assert format_card_set((1, 3, 5), 7) == "135"
    assert format_card_set((0, 12), 16) == "0,12"


def test_announcement_constructor_invariants():
    with pytest.raises(ValueError):
        Announcement.of([])
    with pytest.raises(ValueError):
        Announcement.of([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError):
        Announcement.of([(0, 1, 2), (0, 1, 2, 3)])
    for lines in [
        (),
        ((0, 1, 3), (0, 1, 2)),  # lines out of canonical order
        ((0, 1, 2), (0, 1, 2)),  # duplicate line
        ((0, 2, 1),),  # cards out of order
        ((0, 0, 1),),  # duplicate card
        ((0, 1, 2), (0, 1, 2, 3)),  # mixed sizes
        ((-1, 0, 1),),
        ((0, 1, "2"),),
        ([0, 1, 2],),  # a line must be a tuple
        [(0, 1, 2)],  # so must the lines
    ]:
        with pytest.raises(ValueError):
            Announcement(lines)


# A card label this large needs a 12.5 MB mask; anything reading one would show.
ABSURD_LINE = (0, 1, 10**8)


@pytest.fixture(scope="module")
def uniform60():
    proto = build_protocol("uniform60", Parameters(3, 3, 1))
    proto.likelihoods  # build the index outside the traced call
    return proto


def _traced(call):
    """``call()``'s result and the peak traced allocation while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    ["check_axioms", "is_good", "format_announcement", "posterior_lines", "bob_sets", "cathy_card_counts"],
)
def test_absurd_card_label_is_refused_before_any_mask(call, p331, uniform60):
    calls = {
        "check_axioms": lambda ann: check_axioms(ann, p331),
        "is_good": lambda ann: is_good(ann, p331),
        "format_announcement": lambda ann: format_announcement(ann, p331),
        "posterior_lines": lambda ann: posterior_lines(uniform60, ann),
        "bob_sets": lambda ann: bob_sets(ann, (3,), p331),
        "cathy_card_counts": lambda ann: cathy_card_counts(ann, (3,), p331),
    }
    ann = Announcement.of([ABSURD_LINE])

    def refused():
        with pytest.raises(ValueError):
            calls[call](ann)

    assert _traced(refused)[1] < 1 << 20


@pytest.mark.parametrize("call", ["lines_avoiding", "bob_infer"])
def test_avoiding_an_absurd_card_label_builds_no_mask(call):
    # Neither takes parameters, so nothing refuses the line; it is read as cards.
    calls = {
        "lines_avoiding": (lambda ann: lines_avoiding(ann, (3,)), [ABSURD_LINE]),
        "bob_infer": (lambda ann: bob_infer(ann, (3, 4, 5)), ABSURD_LINE),
    }
    ann = Announcement.of([ABSURD_LINE])
    fn, expected = calls[call]
    result, peak = _traced(lambda: fn(ann))
    assert peak < 1 << 20
    assert result == expected


def test_lines_avoiding_refuses_a_negative_card():
    with pytest.raises(ValueError):
        lines_avoiding(Announcement.of([(0, 1, 2)]), (-1,))


def test_make_deal_fills_in_third_hand(p331):
    deal = make_deal(p331, (0, 1, 2), (3, 4, 5))
    assert deal.cathy == (6,)
    with pytest.raises(ValueError):
        make_deal(p331, (0, 1, 2), (2, 3, 4))  # overlap
    with pytest.raises(ValueError):
        make_deal(p331, (0, 1, 2), (3, 4, 5), (5,))  # cathy overlaps bob
