"""Announcement-producing protocols as explicit hand-to-distribution tables.

A protocol maps every possible hand of the announcer to a finite probability
distribution over good announcements containing that hand. Probabilities are
exact rationals and the tables are fully materialised (35 hands at the
paper's deal), which keeps every protocol auditable and makes exact
posterior analysis possible. Randomness only enters at sampling time through
a seedable generator.

Four kinds are built for the paper's deal, ``PAPER_PARAMS`` = (3,3,1) with
``PAPER_LINES`` = 5 lines, by one rule: each kind names classes among the
hand's good announcements, and every class gets equal mass, spread uniformly.

* ``uniform60``: one class, all 60 of them. Biased: a card occurring thrice
  is then more likely to be actually held.
* ``fact1``: two classes, those whose most frequent card is an actual card
  (36) and those where it is not (24).
* ``fact2_conditional(p)``: with the triple point p fixed publicly ahead of
  time, one class, those whose triple point is p (12 of them when p is
  actually held, 6 otherwise).
* ``fact2_literal(p)``: same per-hand table, with the hands holding p and the
  others as two classes of equal mass (4/7 against 3/7 per hand at the
  paper's deal). A fixed hand determines its class, so the bias analyzer
  applies this weight, ``Protocol.hand_weight``, outside any distribution.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, lcm
from typing import Iterable

from .axioms import is_good
from .enumeration import classify_by_triple, enumerate_good_announcements, triple_point
from .guard import require_work
from .model import (
    Announcement,
    CardSet,
    Parameters,
    card_set,
    enumerate_ksets,
    format_announcement,
    format_card_set,
    parse_announcement,
    parse_card_set,
)

PAPER_PARAMS = Parameters(3, 3, 1)
PAPER_LINES = 5
PROTOCOL_KINDS = ("uniform60", "fact1", "fact2_conditional", "fact2_literal")


@dataclass(frozen=True)
class Protocol:
    """A named protocol: each hand's announcement distribution; its kind fixes the hand weights.

    ``likelihoods`` indexes the table by announcement. It is derived at first
    use and cached on the instance, so a table must not be mutated after
    construction: to change one, build a new ``Protocol`` from a copied dict.
    """

    kind: str
    params: Parameters
    table: dict[CardSet, tuple[tuple[Announcement, Fraction], ...]]
    point: int | None = None

    def hand_weight(self, hand: CardSet) -> Fraction:
        """Hand-level weight: 1 unless the literal reading applies (see ``_literal_weight``)."""
        if self.kind != "fact2_literal":
            return Fraction(1)
        return _literal_weight(self.params, self.point in hand)

    @cached_property
    def likelihoods(self) -> dict[Announcement, dict[CardSet, Fraction]]:
        """Per producible announcement, each producing hand's probability times its weight.

        Repeated entries for one hand and announcement are summed, as sampling
        counts them.
        """
        index: dict[Announcement, dict[CardSet, Fraction]] = {}
        for hand, dist in self.table.items():
            weight = self.hand_weight(hand)
            for ann, p in dist:
                column = index.setdefault(ann, {})
                column[hand] = column.get(hand, 0) + p * weight
        return index

    def support(self) -> list[Announcement]:
        """Every announcement some hand can produce, canonically ordered."""
        return sorted(self.likelihoods, key=lambda ann: ann.lines)


def _literal_weight(params: Parameters, holds_point: bool) -> Fraction:
    """A ``fact2_literal`` hand's weight: the other hand class's share of the C(v, a) hands.

    C(v-1, a-1) hands hold the point and C(v-1, a) do not, so both classes get equal mass.
    """
    v, a = params.v, params.a
    return Fraction(comb(v - 1, a) if holds_point else comb(v - 1, a - 1), comb(v, a))


def _check_request(kind: str, params: Parameters, point: int | None) -> None:
    """Refuse an unknown kind, a deal other than the paper's, or a point the kind does not take."""
    if kind not in PROTOCOL_KINDS:
        raise ValueError(f"unknown protocol kind {kind!r}, expected one of {PROTOCOL_KINDS}")
    if params != PAPER_PARAMS:
        raise ValueError(f"protocol tables are defined for {PAPER_PARAMS} only, got {params}")
    if kind.startswith("fact2"):
        if type(point) is not int or not 0 <= point < params.v:
            raise ValueError(f"fact2 protocols need a public point below {params.v}, got {point}")
    elif point is not None:
        raise ValueError(f"{kind} takes no public point")


def build_protocol(
    kind: str,
    params: Parameters,
    point: int | None = None,
    *,
    max_work: int | None = None,
) -> Protocol:
    """Materialise one of the named protocols for the paper's deal."""
    kind = kind.replace("-", "_")
    _check_request(kind, params, point)
    table: dict[CardSet, tuple[tuple[Announcement, Fraction], ...]] = {}
    for hand in enumerate_ksets(params.v, params.a):
        anns = enumerate_good_announcements(params, hand, PAPER_LINES, max_work=max_work)
        if kind == "uniform60":
            classes = [anns]
        elif kind == "fact1":
            classes = classify_by_triple(anns, hand)
        else:
            classes = [[ann for ann in anns if triple_point(ann) == point]]
        share = {ann: Fraction(1, len(classes) * len(cls)) for cls in classes for ann in cls}
        table[hand] = tuple((ann, share[ann]) for ann in anns if ann in share)
    return Protocol(kind=kind, params=params, table=table, point=point)


def sample(proto: Protocol, hand: Iterable[int], seed) -> Announcement:
    """One announcement drawn from the hand's distribution; fixed seed, fixed draw."""
    return sample_many(proto, hand, seed, 1)[0]


def sample_many(proto: Protocol, hand: Iterable[int], seed, n: int) -> list[Announcement]:
    """n independent draws from one seeded generator, thresholds kept exact.

    The unit interval is scaled by the common denominator of the hand's
    probabilities, so a single integer draw selects an announcement without
    any floating-point rounding.
    """
    if n < 0:
        raise ValueError(f"draw count must be nonnegative, got {n}")
    hand = card_set(hand, proto.params.v)
    if hand not in proto.table:
        raise KeyError(f"unknown hand {hand}")
    dist = proto.table[hand]
    if any(p < 0 for _, p in dist):
        raise ValueError(f"distribution for {hand} has a negative probability")
    denom = lcm(*(p.denominator for _, p in dist))
    # thresholds[i] is the mass of the first i entries; a ticket selects the
    # first entry whose upper threshold exceeds it
    thresholds = list(accumulate((int(p * denom) for _, p in dist), initial=0))
    if thresholds[-1] != denom:
        raise ValueError(f"distribution for {hand} sums to {Fraction(thresholds[-1], denom)}")
    rng = random.Random(seed)
    return [dist[bisect_right(thresholds, rng.randrange(denom)) - 1][0] for _ in range(n)]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # coverage | normalization | positivity | duplicate | truthfulness | safety
    hand: CardSet | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]


def validate_protocol(proto: Protocol, *, max_work: int | None = None) -> ValidationReport:
    """Confirm coverage, exact normalization, no repeated entry, truthfulness and CA1-CA3 safety."""
    issues: list[ValidationIssue] = []
    params = proto.params
    require_work(comb(params.v, params.a), max_work, "protocol coverage check")
    for hand in enumerate_ksets(params.v, params.a):
        if hand not in proto.table:
            issues.append(ValidationIssue("coverage", hand, f"hand {hand} has no distribution"))
    good = {ann: is_good(ann, params, max_work=max_work) for ann in proto.likelihoods}
    for hand, dist in sorted(proto.table.items()):
        total = sum((p for _, p in dist), Fraction(0))
        if total != 1:
            issues.append(
                ValidationIssue("normalization", hand, f"probabilities sum to {total}, not 1")
            )
        listed: set[Announcement] = set()
        for ann, p in dist:
            if p <= 0:
                issues.append(
                    ValidationIssue("positivity", hand, f"probability {p} is not positive")
                )
            if ann in listed:
                issues.append(
                    ValidationIssue("duplicate", hand, f"announcement {ann.lines} is listed again")
                )
            listed.add(ann)
            if hand not in ann.lines:
                issues.append(
                    ValidationIssue(
                        "truthfulness", hand, f"announcement {ann.lines} does not contain {hand}"
                    )
                )
            if not good[ann]:
                issues.append(
                    ValidationIssue("safety", hand, f"announcement {ann.lines} is not good")
                )
    return ValidationReport(not issues, tuple(issues))


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _fraction_from_json(data: dict) -> Fraction:
    return Fraction(data["num"], data["den"])


def _class_weights_json(kind: str, params: Parameters) -> dict | None:
    if kind != "fact2_literal":
        return None
    return {
        "point_in_hand": _fraction_json(_literal_weight(params, True)),
        "point_not_in_hand": _fraction_json(_literal_weight(params, False)),
    }


def protocol_json(proto: Protocol) -> dict:
    """Serialisable form with exact rationals as {"num": ..., "den": ...}."""
    params = proto.params
    return {
        "kind": proto.kind,
        "params": [params.a, params.b, params.c],
        "point": proto.point,
        "class_weights": _class_weights_json(proto.kind, params),
        "table": {
            format_card_set(hand, params.v): [
                {"announcement": format_announcement(ann, params), "p": _fraction_json(p)}
                for ann, p in dist
            ]
            for hand, dist in sorted(proto.table.items())
        },
    }


def protocol_from_json(data: dict) -> Protocol:
    params = Parameters(*data["params"])
    _check_request(data["kind"], params, data.get("point"))
    expected = _class_weights_json(data["kind"], params)
    if data.get("class_weights") != expected:
        raise ValueError(f"{data['kind']} protocol at {params} needs class_weights {expected}")
    table = {
        parse_card_set(hand_text, params.v): tuple(
            (parse_announcement(entry["announcement"], params), _fraction_from_json(entry["p"]))
            for entry in entries
        )
        for hand_text, entries in data["table"].items()
    }
    return Protocol(kind=data["kind"], params=params, table=table, point=data.get("point"))
