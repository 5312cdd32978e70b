import random
import re
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, lcm

import pytest

from cardeal import (
    PAPER_LINES,
    Announcement,
    AnnouncementParseError,
    Parameters,
    WorkLimitExceeded,
    build_protocol,
    classify_by_triple,
    enumerate_good_announcements,
    enumerate_ksets,
    format_announcement,
    format_card_set,
    parse_announcement,
    protocol_from_json,
    protocol_json,
    sample_many,
    triple_point,
    validate_protocol,
)
from cardeal import protocols
from cardeal.enumeration import _reference_lines
from cardeal.protocols import Protocol, _tickets

KINDS_AT_A_POINT = [("uniform60", None), ("fact1", None), ("fact2_conditional", 3), ("fact2_literal", 3)]
KINDS_AT_EVERY_POINT = [("uniform60", None), ("fact1", None)] + [
    (kind, point) for kind in ("fact2_conditional", "fact2_literal") for point in range(7)
]


@pytest.fixture(scope="module")
def uniform60(p331_module):
    return build_protocol("uniform60", p331_module)


@pytest.fixture(scope="module")
def fact1(p331_module):
    return build_protocol("fact1", p331_module)


@pytest.fixture(scope="module")
def p331_module():
    return Parameters(3, 3, 1)


def test_uniform60_table_shape(uniform60):
    assert set(uniform60.table) == set(enumerate_ksets(7, 3))
    for hand, dist in uniform60.table.items():
        assert len(dist) == 60
        assert {p for _, p in dist} == {Fraction(1, 60)}
        assert all(hand in ann.lines for ann, _ in dist)


def test_fact1_table_shape(fact1):
    dist = dict(fact1.table[(0, 1, 2)])
    by_prob = Counter(dist.values())
    assert by_prob == {Fraction(1, 72): 36, Fraction(1, 48): 24}
    for ann, p in dist.items():
        expected = Fraction(1, 72) if triple_point(ann) in (0, 1, 2) else Fraction(1, 48)
        assert p == expected


def test_fact1_splits_class_mass_evenly(fact1):
    for hand, dist in fact1.table.items():
        in_mass = sum((p for ann, p in dist if triple_point(ann) in hand), Fraction(0))
        assert in_mass == Fraction(1, 2)


def test_uniform60_class_mass_is_biased(uniform60):
    for hand, dist in uniform60.table.items():
        in_mass = sum((p for ann, p in dist if triple_point(ann) in hand), Fraction(0))
        assert in_mass == Fraction(3, 5)


def test_fact2_tables(p331_module):
    conditional = build_protocol("fact2_conditional", p331_module, 0)
    assert len(conditional.table[(1, 3, 5)]) == 6
    assert {p for _, p in conditional.table[(1, 3, 5)]} == {Fraction(1, 6)}
    assert len(conditional.table[(0, 1, 2)]) == 12
    assert {p for _, p in conditional.table[(0, 1, 2)]} == {Fraction(1, 12)}
    assert {conditional.hand_weight(hand) for hand in enumerate_ksets(7, 3)} == {1}

    literal = build_protocol("fact2_literal", p331_module, 0)
    assert literal.table == conditional.table
    for hand in enumerate_ksets(7, 3):
        assert literal.hand_weight(hand) == (Fraction(4, 7) if 0 in hand else Fraction(3, 7))


@pytest.mark.parametrize("abc", [(3, 3, 1), (3, 2, 2), (4, 3, 1), (2, 2, 1), (5, 4, 1)])
def test_literal_hand_classes_have_equal_mass(abc):
    params = Parameters(*abc)
    literal = Protocol("fact2_literal", params, {}, 0)
    mass = {True: Fraction(0), False: Fraction(0)}
    for hand in enumerate_ksets(params.v, params.a):
        mass[0 in hand] += literal.hand_weight(hand)
    assert mass[True] == mass[False] > 0


def three_branch_table(kind, params, point=None):
    """Oracle: the table built by one branch per kind, each writing its own weights."""
    table = {}
    for hand in enumerate_ksets(params.v, params.a):
        anns = enumerate_good_announcements(params, hand, PAPER_LINES)
        if kind == "uniform60":
            share = Fraction(1, len(anns))
            entries = [(ann, share) for ann in anns]
        elif kind == "fact1":
            inside, outside = classify_by_triple(anns, hand)
            p_in = Fraction(1, 2) / len(inside)
            p_out = Fraction(1, 2) / len(outside)
            entries = [(ann, p_in if triple_point(ann) in hand else p_out) for ann in anns]
        else:
            chosen = [ann for ann in anns if triple_point(ann) == point]
            share = Fraction(1, len(chosen))
            entries = [(ann, share) for ann in chosen]
        table[hand] = tuple(entries)
    return table


@pytest.mark.parametrize("kind, point", KINDS_AT_EVERY_POINT)
def test_class_rule_matches_three_branch_oracle(kind, point, p331_module):
    assert build_protocol(kind, p331_module, point).table == three_branch_table(kind, p331_module, point)


def per_hand_build_table(kind, params, point=None):
    """Oracle: the build loop that enumerated every hand afresh in every build, sharing objects within the build."""
    shared = {}
    table = {}
    for hand in enumerate_ksets(params.v, params.a):
        anns = enumerate_good_announcements(params, hand, PAPER_LINES)
        if kind.startswith("fact2"):
            anns = [ann for ann in anns if ann.triple_point == point]
        classes = [ann.triple_point in hand for ann in anns] if kind == "fact1" else [True] * len(anns)
        sizes = Counter(classes)
        share = {cls: Fraction(1, len(sizes) * size) for cls, size in sizes.items()}
        table[hand] = tuple((shared.setdefault(ann.lines, ann), share[cls]) for ann, cls in zip(anns, classes))
    return table


@pytest.mark.parametrize("kind, point", KINDS_AT_EVERY_POINT)
def test_a_build_equals_the_per_hand_build_loop(kind, point, hand_lists, p331_module):
    table = build_protocol(kind, p331_module, point).table
    assert all(type(dist) is tuple for dist in table.values())
    assert table == per_hand_build_table(kind, p331_module, point)


def test_the_four_kinds_share_420_announcement_objects(cold_hand_lists, p331_module):
    built = [build_protocol(kind, p331_module, point) for kind, point in KINDS_AT_A_POINT]
    assert len({id(ann) for proto in built for dist in proto.table.values() for ann, _ in dist}) == 420
    assert len({id(ann) for anns in protocols._HAND_LISTS.values() for ann in anns}) == 420


def test_editing_a_built_table_leaves_later_builds_unchanged(p331_module):
    edited = build_protocol("fact1", p331_module)
    edited.table[(0, 1, 2)] = edited.table[(0, 1, 2)][:1]
    edited.table[(4, 5, 6)] = ()
    del edited.table[(0, 1, 3)]
    assert all(type(anns) is tuple and len(anns) == 60 for anns in protocols._HAND_LISTS.values())
    for kind, point in KINDS_AT_A_POINT:
        assert build_protocol(kind, p331_module, point).table == per_hand_build_table(kind, p331_module, point)


def test_every_hand_distribution_sums_to_one(uniform60, fact1, p331_module):
    for proto in (uniform60, fact1, build_protocol("fact2_conditional", p331_module, 3)):
        for dist in proto.table.values():
            assert sum((p for _, p in dist), Fraction(0)) == 1


def test_build_protocol_rejects_bad_requests(p331_module):
    with pytest.raises(ValueError):
        build_protocol("uniform61", p331_module)
    with pytest.raises(ValueError):
        build_protocol("uniform60", Parameters(4, 3, 1))
    with pytest.raises(ValueError):
        build_protocol("fact2_conditional", p331_module)  # missing point
    with pytest.raises(ValueError):
        build_protocol("fact2_conditional", p331_module, 9)
    with pytest.raises(ValueError):
        build_protocol("uniform60", p331_module, 0)  # stray point


def test_all_four_protocols_validate(p331_module):
    for kind, point in (
        ("uniform60", None),
        ("fact1", None),
        ("fact2_conditional", 2),
        ("fact2_literal", 2),
    ):
        report = validate_protocol(build_protocol(kind, p331_module, point))
        assert report.ok, report.issues


def test_validation_catches_corruption(uniform60, p331_module):
    table = dict(uniform60.table)
    hand = (0, 1, 2)
    # drop one announcement: mass 59/60
    table[hand] = table[hand][:-1]
    broken = Protocol("uniform60", p331_module, table)
    report = validate_protocol(broken)
    assert not report.ok
    assert {issue.kind for issue in report.issues} == {"normalization"}

    # pair a hand with an announcement that does not contain it
    stranger = parse_announcement("034 056 135 136 246", p331_module)
    table = dict(uniform60.table)
    table[hand] = table[hand][:-1] + ((stranger, Fraction(1, 60)),)
    report = validate_protocol(Protocol("uniform60", p331_module, table))
    assert any(issue.kind == "truthfulness" for issue in report.issues)

    # missing hand
    table = dict(uniform60.table)
    del table[hand]
    report = validate_protocol(Protocol("uniform60", p331_module, table))
    assert any(issue.kind == "coverage" for issue in report.issues)

    # unsafe announcement in a support
    bad = parse_announcement("012 013 024 034 056", p331_module)
    table = dict(uniform60.table)
    table[hand] = table[hand][:-1] + ((bad, Fraction(1, 60)),)
    report = validate_protocol(Protocol("uniform60", p331_module, table))
    assert any(issue.kind == "safety" for issue in report.issues)


def test_coverage_sweep_is_guarded():
    with pytest.raises(WorkLimitExceeded):
        validate_protocol(Protocol("uniform60", Parameters(8, 8, 1), {}), max_work=1000)


# One hand's enumeration charge at (3,3,1) k=5: C(7,3) - 1 pool filter tests,
# then C(22,2) row tests and C(22,4) leaves for the 22 lines that share fewer
# than two cards with the hand (4 sharing none, 3·6 sharing one).
PER_HAND_ENUMERATION = comb(7, 3) - 1 + comb(22, 2) + comb(22, 4)


@pytest.mark.parametrize("kind, point", KINDS_AT_A_POINT)
def test_build_is_charged_as_one_hands_enumeration(kind, point, p331_module, cold_hand_lists):
    _reference_lines.cache_clear()
    with pytest.raises(WorkLimitExceeded, match="announcement enumeration"):
        build_protocol(kind, p331_module, point, max_work=PER_HAND_ENUMERATION - 1)
    assert _reference_lines.cache_info().currsize == 0  # refused before the search
    build_protocol(kind, p331_module, point, max_work=PER_HAND_ENUMERATION)
    with pytest.raises(WorkLimitExceeded, match="announcement enumeration"):
        build_protocol(kind, p331_module, point, max_work=PER_HAND_ENUMERATION - 1)
    build_protocol(kind, p331_module, point, max_work=PER_HAND_ENUMERATION)


@pytest.mark.parametrize("kind, point", KINDS_AT_A_POINT)
def test_a_built_table_holds_one_object_per_announcement(kind, point, p331_module):
    proto = build_protocol(kind, p331_module, point)
    assert len({id(ann) for dist in proto.table.values() for ann, _ in dist}) == len(proto.support())


@pytest.mark.parametrize("kind, point", KINDS_AT_A_POINT)
def test_a_built_table_carries_each_triple_point(kind, point, p331_module):
    for ann in build_protocol(kind, p331_module, point).support():
        assert "triple_point" in vars(ann)
        assert ann.triple_point == Announcement(ann.lines).triple_point, ann.lines


def test_sampling_is_deterministic_and_truthful(fact1):
    first = sample_many(fact1, (0, 1, 2), 11, 1)[0]
    assert (0, 1, 2) in first.lines
    assert sample_many(fact1, (0, 1, 2), 11, 1)[0] == first
    assert sample_many(fact1, (0, 1, 2), 11, 50) == sample_many(fact1, (0, 1, 2), 11, 50)


def test_sampling_covers_the_support(uniform60):
    draws = sample_many(uniform60, (0, 1, 2), 5, 3000)
    support = {ann for ann, _ in uniform60.table[(0, 1, 2)]}
    assert set(draws) == support


def linear_scan_sample_many(proto, hand, seed, n):
    """Oracle: exact integer thresholds scanned in table order."""
    dist = proto.table[hand]
    denom = lcm(*(p.denominator for _, p in dist))
    cumulative = []
    running = 0
    for ann, p in dist:
        running += int(p * denom)
        cumulative.append((running, ann))
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        ticket = rng.randrange(denom)
        draws.append(next(ann for threshold, ann in cumulative if ticket < threshold))
    return draws


def test_sampling_matches_linear_scan_oracle(fact1, p331_module):
    fact2 = build_protocol("fact2_literal", p331_module, 0)
    for proto in (fact1, fact2):
        for i, hand in enumerate(enumerate_ksets(7, 3)):
            for seed in (i, 1000 + i):
                expected = linear_scan_sample_many(proto, hand, seed, 200)
                assert sample_many(proto, hand, seed, 200) == expected, (proto.kind, hand, seed)


TICKET_SEEDS = [0, 7, 2**32 - 1, 2**70 + 3, "cardeal"]
POWERS_OF_TWO_AND_NEIGHBOURS = [2**e + d for e in range(1, 130) for d in (-1, 0, 1)]


@pytest.mark.parametrize("seed", TICKET_SEEDS)
def test_tickets_are_the_draws_of_randrange(seed):
    # sample_many draws its tickets by randrange's rule; a CPython that changed the rule fails here.
    for denom in [*range(1, 2001), *POWERS_OF_TWO_AND_NEIGHBOURS]:
        reference = random.Random(seed)
        assert list(islice(_tickets(seed, denom), 20)) == [reference.randrange(denom) for _ in range(20)], denom


@pytest.mark.parametrize("denom", [1, 2, 3, 7, 60, 63, 64, 65, 144, 1023, 1024, 1025, 2000])
def test_a_uniform_table_samples_the_tickets_of_randrange(denom, p331_module):
    share = Fraction(1, denom)
    proto = Protocol("uniform60", p331_module, {(0, 1, 2): tuple((i, share) for i in range(denom))})
    for seed in TICKET_SEEDS:
        reference = random.Random(seed)
        assert sample_many(proto, (0, 1, 2), seed, 50) == [reference.randrange(denom) for _ in range(50)]


def test_sampling_rejects_negative_probability(uniform60, p331_module):
    hand = (0, 1, 2)
    (a1, p), (a2, _), *rest = uniform60.table[hand]
    table = dict(uniform60.table)
    table[hand] = ((a1, -p), (a2, 3 * p), *rest)
    with pytest.raises(ValueError, match="negative"):
        sample_many(Protocol("uniform60", p331_module, table), hand, 0, 10)


def test_sampling_rejects_unknown_hand(uniform60):
    with pytest.raises(KeyError):
        sample_many(uniform60, (0, 1), 0, 1)[0]
    with pytest.raises(ValueError):
        sample_many(uniform60, (0, 1, 7), 0, 1)[0]


@pytest.mark.parametrize("n", [True, 2.0, "3"])
def test_sampling_refuses_a_draw_count_that_is_not_an_int(n, uniform60):
    with pytest.raises(ValueError, match=f"draw count must be a nonnegative integer, got {re.escape(repr(n))}"):
        sample_many(uniform60, (0, 1, 2), 0, n)


def test_protocol_json_round_trip(p331_module):
    for kind, point in (("uniform60", None), ("fact1", None), ("fact2_conditional", 0), ("fact2_literal", 4)):
        proto = build_protocol(kind, p331_module, point)
        data = protocol_json(proto)
        assert data["kind"] == kind
        assert data["params"] == [3, 3, 1]
        restored = protocol_from_json(data)
        assert restored == proto
    sample_entry = protocol_json(build_protocol("uniform60", p331_module))["table"]["012"][0]
    assert sample_entry["p"] == {"num": 1, "den": 60}


LITERAL_WEIGHTS_JSON = {"point_in_hand": {"num": 4, "den": 7}, "point_not_in_hand": {"num": 3, "den": 7}}


@pytest.mark.parametrize("kind, point", KINDS_AT_EVERY_POINT)
def test_protocol_json_class_weights_block(kind, point, p331_module):
    expected = LITERAL_WEIGHTS_JSON if kind == "fact2_literal" else None
    assert protocol_json(build_protocol(kind, p331_module, point))["class_weights"] == expected


def test_protocol_from_json_refuses_weights_the_kind_does_not_imply(p331_module):
    data = protocol_json(build_protocol("fact2_literal", p331_module, 2))
    swapped = {
        "point_in_hand": LITERAL_WEIGHTS_JSON["point_not_in_hand"],
        "point_not_in_hand": LITERAL_WEIGHTS_JSON["point_in_hand"],
    }
    for weights in (swapped, None):
        with pytest.raises(ValueError, match="class_weights"):
            protocol_from_json({**data, "class_weights": weights})
    uniform = protocol_json(build_protocol("uniform60", p331_module))
    with pytest.raises(ValueError, match="class_weights"):
        protocol_from_json({**uniform, "class_weights": LITERAL_WEIGHTS_JSON})


@pytest.mark.parametrize(
    "kind, point, edit",
    [
        ("fact2_literal", 0, {"point": None}),
        ("fact2_literal", 0, {"point": 9}),
        ("fact2_literal", 0, {"point": "0"}),
        ("uniform60", None, {"point": 0}),
        ("uniform60", None, {"kind": "bogus", "class_weights": None}),
        ("uniform60", None, {"params": [4, 3, 1]}),
    ],
)
def test_protocol_from_json_applies_the_request_rule(kind, point, edit, p331_module):
    data = protocol_json(build_protocol(kind, p331_module, point))
    with pytest.raises(ValueError):
        protocol_from_json({**data, **edit})


def test_a_hyphenated_kind_is_refused_by_build_and_json_alike(p331_module):
    data = protocol_json(build_protocol("fact2_literal", p331_module, 0))
    with pytest.raises(ValueError) as built:
        build_protocol("fact2-literal", p331_module, 0)
    with pytest.raises(ValueError) as read:
        protocol_from_json({**data, "kind": "fact2-literal"})
    assert str(built.value) == str(read.value)
    assert str(built.value).startswith("unknown protocol kind 'fact2-literal'")


@pytest.mark.parametrize(
    "lines, message",
    [
        (((0, 1), (2, 3)), "expected 3 cards, got 2"),
        (((0, 1, 2), (3, 4, 9)), "card 9 out of range for deck size 7"),
    ],
)
def test_validation_reports_announcements_that_do_not_fit_as_unsafe(lines, message, uniform60, p331_module):
    hand = (0, 1, 2)
    table = dict(uniform60.table)
    table[hand] = table[hand][:-1] + ((Announcement(lines), Fraction(1, 60)),)
    broken = Protocol("uniform60", p331_module, table)
    report = validate_protocol(broken)
    safety = [issue for issue in report.issues if issue.kind == "safety"]
    assert [issue.hand for issue in safety] == [hand]
    assert message in safety[0].message and str(lines) in safety[0].message
    # C(5, 2) + 7 * 5 = 45 steps per good announcement's check: the guard still refuses
    with pytest.raises(WorkLimitExceeded):
        validate_protocol(broken, max_work=44)


def per_entry_table_json(proto):
    """Oracle: the JSON table formatted entry by entry."""
    v = proto.params.v
    return {
        format_card_set(hand, v): [
            {"announcement": format_announcement(ann, proto.params), "p": {"num": p.numerator, "den": p.denominator}}
            for ann, p in dist
        ]
        for hand, dist in sorted(proto.table.items())
    }


@pytest.mark.parametrize(
    "kind, point", [("uniform60", None), ("fact1", None), ("fact2_conditional", 3), ("fact2_literal", 5)]
)
def test_protocol_json_table_matches_per_entry_oracle(kind, point, p331_module):
    proto = build_protocol(kind, p331_module, point)
    assert protocol_json(proto)["table"] == per_entry_table_json(proto)


def _entries_of(data, text):
    """Every JSON table entry whose announcement text is ``text``."""
    return [entry for entries in data["table"].values() for entry in entries if entry["announcement"] == text]


def test_protocol_from_json_reads_one_announcement_spelled_two_ways(uniform60, p331_module):
    data = protocol_json(uniform60)
    first, second, *_ = _entries_of(data, "012 034 056 135 246")
    first["announcement"] = "210 043 065 153 264"
    restored = protocol_from_json(data)
    assert restored == uniform60
    five = parse_announcement("012 034 056 135 246", p331_module)
    assert sum(ann == five for dist in restored.table.values() for ann, _ in dist) == 5
    assert second["announcement"] == "012 034 056 135 246"


def test_protocol_from_json_repeated_malformed_text_keeps_its_error(uniform60, p331_module):
    bad = "012 034 056 135 249"
    with pytest.raises(AnnouncementParseError) as direct:
        parse_announcement(bad, p331_module)
    data = protocol_json(uniform60)
    for entry in _entries_of(data, "012 034 056 135 246")[:2]:
        entry["announcement"] = bad
    for _ in range(2):  # nothing is remembered between calls
        with pytest.raises(AnnouncementParseError) as loaded:
            protocol_from_json(data)
        assert str(loaded.value) == str(direct.value)


@pytest.mark.parametrize("value", [5, [1, 2]])
def test_protocol_from_json_refuses_non_text_announcement(value, uniform60):
    data = protocol_json(uniform60)
    _entries_of(data, "012 034 056 135 246")[0]["announcement"] = value
    with pytest.raises(AnnouncementParseError, match="announcement must be text"):
        protocol_from_json(data)


def test_protocol_from_json_refuses_two_keys_for_one_hand(uniform60, fact1):
    data = protocol_json(fact1)
    data["table"]["210"] = protocol_json(uniform60)["table"]["012"]
    with pytest.raises(ValueError, match="table keys '012' and '210' both name hand \\(0, 1, 2\\)"):
        protocol_from_json(data)
    del data["table"]["012"]  # one spelling alone is read as before
    assert protocol_from_json(data).table[(0, 1, 2)] == uniform60.table[(0, 1, 2)]


def _without(data, field):
    del data[field]
    return data


def _with_table(data, table):
    return {**data, "table": table}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: [data], "a protocol document must be an object, got list"),
        (lambda data: _without(data, "params"), "params must be a list of three counts, got None"),
        (lambda data: _without(data, "kind"), "unknown protocol kind None"),
        (lambda data: _without(data, "table"), "table must be an object keyed by hand, got NoneType"),
        (lambda data: {**data, "params": [3, 3]}, "params must be a list of three counts, got [3, 3]"),
        (lambda data: {**data, "params": None}, "params must be a list of three counts, got None"),
        (lambda data: _with_table(data, list(data["table"].items())),
         "table must be an object keyed by hand, got list"),
        (lambda data: _with_table(data, {5: data["table"]["012"]}), "table key 5 is not text"),
        (lambda data: _with_table(data, {"012": data["table"]["012"][0]}), "table key '012': entries must be a list"),
        (lambda data: _with_table(data, {"012": [5]}), "table key '012': entry 5 is not an object"),
        (lambda data: _with_table(data, {"012": [{"p": {"num": 1, "den": 1}}]}),
         "table key '012': entry {'p': {'num': 1, 'den': 1}} is not an object with an announcement"),
    ],
    ids=["list-document", "no-params", "no-kind", "no-table", "two-params", "null-params", "list-table",
         "int-key", "dict-entries", "int-entry", "no-announcement"],
)
def test_protocol_from_json_refuses_a_malformed_document(edit, message, uniform60):
    with pytest.raises(ValueError, match=re.escape(message)):
        protocol_from_json(edit(protocol_json(uniform60)))


@pytest.mark.parametrize("key, hand", [("01", "(0, 1)"), ("0123", "(0, 1, 2, 3)")])
def test_protocol_from_json_refuses_a_key_of_another_size(key, hand, uniform60):
    data = protocol_json(uniform60)
    data["table"][key] = data["table"]["012"]
    with pytest.raises(ValueError, match=re.escape(f"expected a card set of size 3, got {hand}")):
        protocol_from_json(data)


@pytest.mark.parametrize(
    "p",
    [{"num": True, "den": 60}, {"num": -1, "den": -60}, {"num": 1, "den": 0}, {"num": 1.5, "den": 60},
     {"num": "1", "den": 60}, {"num": 1, "den": 60, "of": 1}, 0.5, None],
    ids=["bool-num", "negative-den", "zero-den", "float-num", "text-num", "extra-key", "float-p", "missing-p"],
)
def test_protocol_from_json_reads_a_probability_one_way(p, uniform60):
    data = protocol_json(uniform60)
    entry = data["table"]["012"][0]
    if p is None:
        del entry["p"]
    else:
        entry["p"] = p
    with pytest.raises(ValueError, match="table key '012': probability"):
        protocol_from_json(data)
