"""Posterior analysis checked against an exhaustive deal-space oracle.

The oracle never uses the analyzer's shortcut: it walks every concrete deal
(announcer hand, receiver hand, observer hand), weighs it by the protocol
table entry (times the class factor for the literal fact2 reading), and
reads posteriors off the accumulated joint weights.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import cardeal.bias
import cardeal.model
from cardeal import (
    Parameters,
    bias_report,
    build_protocol,
    card_set,
    parse_announcement,
    posterior_lines,
    prior_point_in_hand,
    protocol_from_json,
    protocol_json,
    validate_protocol,
)
from cardeal.bias import PosteriorTable, bias_report_json, posterior_json
from cardeal.protocols import Protocol


@pytest.fixture(scope="module")
def p331():
    return Parameters(3, 3, 1)


@pytest.fixture(scope="module")
def protocols(p331):
    return {
        "uniform60": build_protocol("uniform60", p331),
        "fact1": build_protocol("fact1", p331),
        "fact2_conditional": build_protocol("fact2_conditional", p331, 0),
        "fact2_literal": build_protocol("fact2_literal", p331, 0),
    }


def deal_space_posterior(proto, ann, observer):
    """Joint-space oracle: accumulate weights deal by deal, then normalise."""
    deck = set(range(proto.params.v))
    observer = tuple(sorted(observer))
    joint = {line: Fraction(0) for line in ann.lines}
    for alice in combinations(range(proto.params.v), proto.params.a):
        produced = dict(proto.table.get(alice, ()))
        if ann not in produced:
            continue
        for bob in combinations(sorted(deck - set(alice)), proto.params.b):
            cathy = tuple(sorted(deck - set(alice) - set(bob)))
            if observer and cathy != observer:
                continue
            weight = produced[ann] * proto.hand_weight(alice)
            if alice in joint:
                joint[alice] += weight
    total = sum(joint.values(), Fraction(0))
    assert total > 0
    return {line: weight / total for line, weight in joint.items()}


def table_posterior_lines(proto, ann, observer=()):
    """Oracle: the table-scanning posterior, one distribution dict per line."""
    params = proto.params
    obs = card_set(observer, params.v)
    if len(obs) not in (0, params.c):
        raise ValueError(f"observer must hold nothing or a {params.c}-set, got {obs}")
    obs_cards = set(obs)
    weights = []
    for line in ann.lines:
        if obs_cards & set(line):
            weights.append(Fraction(0))
            continue
        dist = dict(proto.table.get(line, ()))
        weights.append(dist.get(ann, Fraction(0)) * proto.hand_weight(line))
    total = sum(weights, Fraction(0))
    if total == 0:
        raise ValueError(
            "announcement is not produced by any hand consistent with the observer"
        )
    posteriors = tuple(
        (line, weight / total) for line, weight in zip(ann.lines, weights)
    )
    return PosteriorTable(ann, obs, posteriors)


def outcome(posterior, proto, ann, observer):
    """The posterior table, or the ValueError message it raised."""
    try:
        return posterior(proto, ann, observer)
    except ValueError as exc:
        return ("ValueError", str(exc))


OBSERVERS = [()] + [(y,) for y in range(7)]


def test_posteriors_match_table_oracle(protocols):
    # every support announcement, every observer, before and after a JSON
    # round trip; the oracle runs once per protocol
    for name, proto in protocols.items():
        restored = protocol_from_json(protocol_json(proto))
        support = proto.support()
        assert restored.support() == support
        for ann in support:
            for observer in OBSERVERS:
                expected = outcome(table_posterior_lines, proto, ann, observer)
                assert outcome(posterior_lines, proto, ann, observer) == expected, (name, ann)
                assert outcome(posterior_lines, restored, ann, observer) == expected, (name, ann)
        assert bias_report(restored) == bias_report(proto), name
        assert proto == restored and "likelihoods" in vars(proto)


def test_posterior_errors_match_table_oracle(protocols, p331):
    not_good = parse_announcement("012 013 024 034 056", p331)
    triple_one = parse_announcement("012 035 134 156 246", p331)
    cases = [(protocols["uniform60"], not_good, ()), (protocols["fact2_conditional"], triple_one, ())]
    # a one-hand protocol: the observer holding card 0 blocks its only producer
    five = parse_announcement("012 034 056 135 246", p331)
    lone = Protocol("uniform60", p331, {(0, 1, 2): ((five, Fraction(1)),)})
    cases += [(lone, five, (0,)), (lone, five, (1,))]
    for proto, ann, observer in cases:
        with pytest.raises(ValueError) as exc:
            posterior_lines(proto, ann, observer)
        with pytest.raises(ValueError) as oracle_exc:
            table_posterior_lines(proto, ann, observer)
        assert str(exc.value) == str(oracle_exc.value)
    assert dict(posterior_lines(lone, five, (3,)).posteriors)[(0, 1, 2)] == 1


def test_duplicate_entries_are_reported_and_summed(protocols, p331):
    proto = protocols["uniform60"]
    hand = (0, 1, 2)
    (ann, p), *rest = proto.table[hand]
    table = dict(proto.table)
    table[hand] = ((ann, p / 2), (ann, p / 2), *rest)
    split = Protocol(proto.kind, p331, table)
    assert {issue.kind for issue in validate_protocol(split).issues} == {"duplicate"}
    assert split.likelihoods == proto.likelihoods
    for observer in OBSERVERS:
        assert posterior_lines(split, ann, observer) == posterior_lines(proto, ann, observer)
    assert dict(posterior_lines(split, ann).posteriors)[hand] == Fraction(1, 5)
    assert bias_report(split) == bias_report(proto)


def test_uniform60_posterior_is_flat(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    table = posterior_lines(protocols["uniform60"], five)
    assert all(p == Fraction(1, 5) for _, p in table.posteriors)


def test_fact1_posterior_tilts_away_from_triple_lines(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    table = posterior_lines(protocols["fact1"], five)
    for line, p in table.posteriors:
        assert p == (Fraction(1, 6) if 0 in line else Fraction(1, 4))


def test_observer_zeroes_out_blocked_lines(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    table = posterior_lines(protocols["uniform60"], five, (3,))
    expected = {
        (0, 1, 2): Fraction(1, 3),
        (0, 3, 4): Fraction(0),
        (0, 5, 6): Fraction(1, 3),
        (1, 3, 5): Fraction(0),
        (2, 4, 6): Fraction(1, 3),
    }
    assert dict(table.posteriors) == expected


def test_posteriors_always_normalise(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    for proto in protocols.values():
        for observer in [()] + [(x,) for x in range(7)]:
            table = posterior_lines(proto, five, observer)
            assert sum((p for _, p in table.posteriors), Fraction(0)) == 1


def test_posterior_matches_deal_space_oracle(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    for name, proto in protocols.items():
        for observer in [(), (3,), (5,), (6,)]:
            try:
                table = posterior_lines(proto, five, observer)
            except ValueError:
                continue
            assert dict(table.posteriors) == deal_space_posterior(proto, five, observer), (
                name,
                observer,
            )


def test_no_card_is_ever_certain(protocols, p331):
    # CA2 at deal level: no observer can push one card's membership to 1
    five = parse_announcement("012 034 056 135 246", p331)
    for proto in protocols.values():
        for observer in [(x,) for x in range(7)]:
            table = posterior_lines(proto, five, observer)
            for card in range(7):
                if card in observer:
                    continue
                mass = sum((p for line, p in table.posteriors if card in line), Fraction(0))
                assert mass < 1


def test_rejects_unsupported_announcements(protocols, p331):
    not_good = parse_announcement("012 013 024 034 056", p331)
    with pytest.raises(ValueError):
        posterior_lines(protocols["uniform60"], not_good)
    # good, but its most frequent card is 1, so fact2(0) never produces it
    triple_one = parse_announcement("012 035 134 156 246", p331)
    with pytest.raises(ValueError):
        posterior_lines(protocols["fact2_conditional"], triple_one)


def test_rejects_bad_observer_size(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    with pytest.raises(ValueError):
        posterior_lines(protocols["uniform60"], five, (3, 4))


def test_prior_point_in_hand_by_counting(p331):
    for point in range(7):
        assert prior_point_in_hand(p331, point) == Fraction(3, 7)
    assert prior_point_in_hand(Parameters(4, 3, 1), 0) == Fraction(1, 2)


def test_prior_and_references_list_no_hands(protocols, monkeypatch):
    def refuse(*args):
        raise AssertionError("hands enumerated")

    monkeypatch.setattr(cardeal.model, "enumerate_ksets", refuse)
    monkeypatch.setattr(cardeal.bias, "enumerate_ksets", refuse, raising=False)
    assert prior_point_in_hand(Parameters(30, 30, 30), 89) == Fraction(1, 3)
    report = bias_report(protocols["fact1"])
    assert report.references["point_in_hand_prior"] == Fraction(3, 7)
    assert report.references["uniform_pick_class_ratio"] == Fraction(3, 5)


def test_bias_reports(protocols):
    report = bias_report(protocols["uniform60"])
    assert report.max_uniform_deviation == 0
    assert set(report.triple_in_hand.values()) == {Fraction(3, 5)}
    assert report.class_balance == Fraction(3, 5)
    assert report.references["point_in_hand_prior"] == Fraction(3, 7)
    assert report.references["uniform_pick_class_ratio"] == Fraction(3, 5)

    report = bias_report(protocols["fact1"])
    assert set(report.triple_in_hand.values()) == {Fraction(1, 2)}
    assert report.class_balance == Fraction(1, 2)
    assert report.max_uniform_deviation == Fraction(1, 20)  # 1/4 vs 1/5

    report = bias_report(protocols["fact2_conditional"])
    assert set(report.triple_in_hand.values()) == {Fraction(3, 7)}
    assert report.class_balance == Fraction(3, 7)
    assert not report.literal_reweighting

    report = bias_report(protocols["fact2_literal"])
    assert set(report.triple_in_hand.values()) == {Fraction(1, 2)}
    assert report.class_balance == Fraction(1, 2)
    assert report.literal_reweighting


def test_bias_report_refuses_an_empty_table(p331):
    with pytest.raises(ValueError, match="uniform60"):
        bias_report(Protocol("uniform60", p331, {}))


def test_bias_report_refuses_a_deal_other_than_the_papers(p431, binary3, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("reference enumeration ran")

    monkeypatch.setattr(cardeal.bias, "enumerate_good_announcements", no_enumeration)
    proto = Protocol("uniform60", p431, {(0, 1, 2, 3): ((binary3, Fraction(1)),)})
    with pytest.raises(ValueError, match=r"Parameters\(a=4, b=3, c=1\)"):
        bias_report(proto)


def test_fact2_posterior_ratio_between_classes(protocols, p331):
    proto = protocols["fact2_conditional"]
    for ann in proto.support():
        table = posterior_lines(proto, ann)
        special = {p for line, p in table.posteriors if 0 in line}
        rest = {p for line, p in table.posteriors if 0 not in line}
        assert special == {Fraction(1, 7)}
        assert rest == {Fraction(2, 7)}


def test_monte_carlo_agrees_with_posteriors(protocols, p331):
    # draw hands uniformly and announcements from their distributions; the
    # conditional line frequencies of one announcement must approach its
    # exact posterior (hands outside the announcement contribute nothing)
    import random
    from collections import Counter

    from cardeal import sample_many

    proto = protocols["fact1"]
    five = parse_announcement("012 034 056 135 246", p331)
    exact = dict(posterior_lines(proto, five).posteriors)
    rng = random.Random(13)
    per_line = Counter(rng.choice(five.lines) for _ in range(60_000))
    hits = {
        line: sum(1 for ann in sample_many(proto, line, 101 + i, per_line[line]) if ann == five)
        for i, line in enumerate(five.lines)
    }
    total = sum(hits.values())
    assert total > 500
    for line, p in exact.items():
        expected = float(p)
        stderr = (expected * (1 - expected) / total) ** 0.5
        assert abs(hits[line] / total - expected) <= 3 * stderr


def test_json_forms(protocols, p331):
    five = parse_announcement("012 034 056 135 246", p331)
    table = posterior_lines(protocols["fact1"], five)
    data = posterior_json(table, p331)
    assert data["announcement"] == "012 034 056 135 246"
    assert data["posteriors"]["012"] == {"num": 1, "den": 6}
    report_data = bias_report_json(bias_report(protocols["fact1"]), p331)
    assert report_data["class_balance"] == {"num": 1, "den": 2}
    assert report_data["references"]["even_split"] == {"num": 1, "den": 2}
