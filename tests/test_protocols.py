import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from cardeal import (
    PAPER_LINES,
    Parameters,
    WorkLimitExceeded,
    build_protocol,
    classify_by_triple,
    enumerate_good_announcements,
    enumerate_ksets,
    parse_announcement,
    protocol_from_json,
    protocol_json,
    sample,
    sample_many,
    triple_point,
    validate_protocol,
)
from cardeal.protocols import Protocol


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

    literal = build_protocol("fact2-literal", p331_module, 0)
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


@pytest.mark.parametrize(
    "kind, point",
    [("uniform60", None), ("fact1", None)]
    + [(kind, point) for kind in ("fact2_conditional", "fact2_literal") for point in range(7)],
)
def test_class_rule_matches_three_branch_oracle(kind, point, p331_module):
    assert build_protocol(kind, p331_module, point).table == three_branch_table(kind, p331_module, point)


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


def test_sampling_is_deterministic_and_truthful(fact1):
    first = sample(fact1, (0, 1, 2), seed=11)
    assert (0, 1, 2) in first.lines
    assert sample(fact1, (0, 1, 2), seed=11) == first
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


def test_sampling_rejects_negative_probability(uniform60, p331_module):
    hand = (0, 1, 2)
    (a1, p), (a2, _), *rest = uniform60.table[hand]
    table = dict(uniform60.table)
    table[hand] = ((a1, -p), (a2, 3 * p), *rest)
    with pytest.raises(ValueError, match="negative"):
        sample_many(Protocol("uniform60", p331_module, table), hand, 0, 10)


def test_sampling_rejects_unknown_hand(uniform60):
    with pytest.raises(KeyError):
        sample(uniform60, (0, 1), seed=0)
    with pytest.raises(ValueError):
        sample(uniform60, (0, 1, 7), seed=0)


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


@pytest.mark.parametrize(
    "kind, point",
    [("uniform60", None), ("fact1", None)]
    + [(kind, point) for kind in ("fact2_conditional", "fact2_literal") for point in range(7)],
)
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
