import json
import random
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cardeal import (
    Announcement,
    AnnouncementParseError,
    Parameters,
    build_protocol,
    check_axioms,
    enumerate_ksets,
    format_announcement,
    is_good,
    parse_announcement,
    posterior_lines,
)
from cardeal import model
from cardeal.model import announcement_json, build_masks, format_card_set, from_mask, parse_card_set, to_mask


def test_parameters_derive_deck_size():
    assert Parameters(3, 3, 1).v == 7
    assert Parameters(4, 3, 1).v == 8


@pytest.mark.parametrize("bad", [(3, 3, 0), (0, 3, 1), (3, -1, 1), (True, 3, 1)])
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
        '{"params": [3, 3, true], "lines": [[0, 1, 2]]}',  # params equal to (3, 3, 1), but not integers
        '{"params": [3.0, 3, 1], "lines": [[0, 1, 2]]}',
        '[[0, 1, "2"]]',  # card not an integer
        "[[0, 1, null]]",
    ],
)
def test_parse_rejects_bad_input(text, p331):
    with pytest.raises(AnnouncementParseError):
        parse_announcement(text, p331)


def test_parse_refuses_json_nested_too_deeply(p331):
    with pytest.raises(AnnouncementParseError, match="nested too deeply"):
        parse_announcement("[" * 5000, p331)


# Each malformed input's exact error, recorded before the parser tested each
# text line once: duplicate cards and lines, wrong sizes, out-of-range and
# unreadable cards in digit and comma form, empty text and JSON faults.
PARSE_ERRORS = json.loads((Path(__file__).parent / "data" / "parse_errors_golden.json").read_text("utf-8"))


# Every strictly increasing digit string, keyed to its line: the parser's line
# table at its bound of 1,023 entries.
FULL_LINE_TABLE = {
    "".join(map(str, cards)): cards for size in range(1, 11) for cards in combinations(range(10), size)
}
FULL = pytest.mark.full_line_table


@contextmanager
def line_table(entries=()):
    """Run the block with the parser's line table holding ``entries`` alone; yield that table."""
    saved = model._LINES
    model._LINES = table = dict(entries)
    try:
        yield table
    finally:
        model._LINES = saved


@pytest.fixture
def table(request):
    """The parser's line table for one test: full if the test is marked ``full_line_table``, else empty."""
    with line_table(FULL_LINE_TABLE if request.node.get_closest_marker("full_line_table") else ()) as entries:
        yield entries


def _case_id(case):
    return f"{case['parse']}:{case['text'][:24]}"


@pytest.mark.parametrize(
    "case",
    [
        *PARSE_ERRORS,
        *(
            pytest.param(case, marks=FULL, id="full-table:" + _case_id(case))
            for case in PARSE_ERRORS
            if case["parse"] == "announcement"
        ),
    ],
    ids=_case_id,
)
def test_parse_error_messages_are_unchanged(case, table):
    params = Parameters(*case["params"])
    with pytest.raises(ValueError) as exc:
        if case["parse"] == "announcement":
            parse_announcement(case["text"], params)
        else:
            parse_card_set(case["text"], params.v)
    assert [type(exc.value).__name__, str(exc.value)] == case["error"]


# Card text is ASCII decimal digits and commas; int() alone read each of these.
NOT_ASCII_DECIMAL = [
    ((3, 8, 1), "0,1_0,2", "0,1_0,2"),  # an underscore: card 10
    ((3, 3, 1), "0,+1,2", "0,+1,2"),  # a sign
    ((3, 3, 1), "0,-1,2", "0,-1,2"),  # a sign, once refused as a negative card
    # Arabic-Indic digits: the five-line fixture "012 034 056 135 246".
    ((3, 3, 1), "\u0660\u0661\u0662 \u0660\u0663\u0664 \u0660\u0665\u0666 \u0661\u0663\u0665 \u0662\u0664\u0666",
     "\u0660\u0661\u0662"),
    ((3, 3, 1), "\uff10\uff11\uff12", "\uff10\uff11\uff12"),  # fullwidth digits
]


@pytest.mark.parametrize(
    "params, text, token", [*NOT_ASCII_DECIMAL, *(pytest.param(*case, marks=FULL) for case in NOT_ASCII_DECIMAL)]
)
def test_card_text_takes_ascii_decimal_digits_only(params, text, token, table):
    with pytest.raises(AnnouncementParseError) as exc:
        parse_announcement(text, Parameters(*params))
    assert str(exc.value) == f"cannot read cards from {token!r}"


def test_the_line_table_reads_every_digit_set_as_the_token_reader_does(table):
    rng = random.Random(0)
    admitted = 0
    for key, cards in FULL_LINE_TABLE.items():
        # Nine or ten cards fit no deck of at most ten: b and c are at least 1.
        v = max(cards[-1] + 1, len(cards) + 2)
        if v > 10:
            continue
        params = Parameters(len(cards), v - len(cards) - 1, 1)
        token = "".join(rng.sample(key, len(key)))
        table.clear()
        cold = parse_announcement(token, params)
        assert cold.lines == (cards,) and table == {key: cards}
        table.update(FULL_LINE_TABLE)
        assert parse_announcement(token, params).lines[0] is cards  # read off the table
        admitted += 1
    assert admitted == 1023 - 11


def _outcome(text, params):
    try:
        return parse_announcement(text, params).lines
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# Arbitrary characters, half of them ASCII digits, or card lists in digit or comma form.
card_token = st.text(
    st.sampled_from("0123456789") | st.sampled_from(",+-_x\u0663\uff13"), min_size=1, max_size=14
) | st.builds(str.join, st.sampled_from(["", ","]), st.lists(st.integers(0, 11).map(str), min_size=1, max_size=11))
small_decks = st.sampled_from([(1, 1, 1), (2, 2, 3), (3, 3, 1), (4, 3, 1), (5, 4, 1), (8, 1, 1), (3, 8, 1)])


@given(st.lists(card_token, min_size=1, max_size=6), small_decks.map(lambda abc: Parameters(*abc)))
@example(["019"], Parameters(3, 3, 1))
def test_the_line_table_changes_no_parse_and_keys_only_digit_sets(tokens, params):
    text = " ".join(tokens)
    with line_table() as cold:
        expected = _outcome(text, params)
    # FULL_LINE_TABLE holds every strictly increasing ASCII-digit key with its line.
    assert cold.items() <= FULL_LINE_TABLE.items()
    with line_table(FULL_LINE_TABLE) as full:
        assert _outcome(text, params) == expected
    assert full == FULL_LINE_TABLE


@pytest.mark.parametrize("text, v", [("\u0663", 7), ("0, 1", 12), ("1_1", 12), ("0,-1", 7), ("0,+1", 12)])
def test_card_set_text_takes_ascii_decimal_digits_only(text, v):
    with pytest.raises(AnnouncementParseError, match="cannot read cards from"):
        parse_card_set(text, v)


def test_format_canonical_ordering(p331):
    ann = Announcement.of([(0, 3, 4), (0, 1, 2)])
    assert format_announcement(ann, p331) == "012 034"
    # ``in`` on an announcement asks about its lines, through ``__iter__``.
    assert (0, 1, 2) in ann and (0, 1, 3) not in ann


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
    masks, cards = build_masks(ann.lines, 7)
    assert masks == tuple(to_mask(line) for line in ann.lines)
    assert cards == tuple(sum(1 << i for i, line in enumerate(ann.lines) if y in line) for y in range(7))
    assert Announcement(ann.lines) == ann
    assert parse_announcement(format_announcement(ann, params), params) == ann
    assert parse_announcement(json.dumps(announcement_json(ann, params)), params) == ann


@st.composite
def parse_inputs(draw):
    """Text or JSON for lines of shuffled cards at a small deal; some repeat a card or a line."""
    params = Parameters(*draw(st.sampled_from([(3, 3, 1), (4, 3, 1), (2, 2, 3), (5, 5, 2)])))
    card = st.integers(0, params.v - 1)
    line = st.lists(card, min_size=params.a, max_size=params.a, unique=draw(st.booleans()))
    lines = draw(st.lists(line, min_size=1, max_size=6))
    form = draw(st.sampled_from(["text", "array", "object"]))
    if form == "text":
        sep = "" if params.v <= 10 and draw(st.booleans()) else ","
        return " \n".join(sep.join(map(str, cards)) for cards in lines), params
    if form == "array":
        return json.dumps(lines), params
    return json.dumps({"params": [params.a, params.b, params.c], "lines": lines}), params


@given(parse_inputs())
def test_parsed_announcements_pass_the_constructor(case):
    text, params = case
    try:
        ann = parse_announcement(text, params)
    except AnnouncementParseError:
        return
    assert Announcement(ann.lines) == ann


def test_card_set_text_round_trip():
    assert parse_card_set("135", 7) == (1, 3, 5)
    assert parse_card_set("0,12", 16) == (0, 12)
    assert format_card_set((1, 3, 5), 7) == "135"
    assert format_card_set((0, 12), 16) == "0,12"


def _shift_walk(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` by the shift loop, one step per bit position: the oracle for ``from_mask``."""
    out = []
    card = 0
    while mask:
        if mask & 1:
            out.append(card)
        mask >>= 1
        card += 1
    return tuple(out)


def test_from_mask_matches_the_shift_loop_on_single_bits_and_dense_masks():
    single = [1 << i for i in range(301)]
    dense = [(1 << n) - 1 for n in (1, 2, 7, 63, 64, 65, 300)] + [((1 << 300) - 1) ^ (1 << 150)]
    for mask in [0, *single, *dense]:
        cards = from_mask(mask)
        assert cards == _shift_walk(mask), mask
        assert to_mask(cards) == mask


@given(st.integers(0, 1 << 300) | st.sets(st.integers(0, 299), min_size=10, max_size=10).map(to_mask))
def test_from_mask_matches_the_shift_loop_on_random_masks(mask):
    # Random 301-bit masks are dense; ten bits among 300 are wide and sparse.
    cards = from_mask(mask)
    assert cards == _shift_walk(mask)
    assert to_mask(cards) == mask


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
        ((False, 1, 2), (0, 3, 4)),  # a bool is not a card
        ([0, 1, 2],),  # a line must be a tuple
        [(0, 1, 2)],  # so must the lines
        ((),),  # a line with no cards
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
    [
        "check_axioms",
        "is_good",
        "format_announcement",
        "announcement_json",
        "posterior_lines",
    ],
)
def test_absurd_card_label_is_refused_before_any_mask(call, p331, uniform60):
    calls = {
        "check_axioms": lambda ann: check_axioms(ann, p331),
        "is_good": lambda ann: is_good(ann, p331),
        "format_announcement": lambda ann: format_announcement(ann, p331),
        "announcement_json": lambda ann: announcement_json(ann, p331),
        "posterior_lines": lambda ann: posterior_lines(uniform60, ann),
    }
    ann = Announcement.of([ABSURD_LINE])

    def refused():
        with pytest.raises(ValueError):
            calls[call](ann)

    assert _traced(refused)[1] < 1 << 20
