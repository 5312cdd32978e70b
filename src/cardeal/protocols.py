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

Every class is read off the triple point. Each hand's good announcements
come from ``enumerate_good_announcements``, the reference hand's list
relabelled with each announcement's point carried along (see
``enumeration``), so a build counts no cards. The 35 lists are built once
per process, one ``Announcement`` per distinct announcement, shared by every
hand and build that lists it: 420 objects, of the 2,100 the enumerations
hand out. A build then filters them by class and makes one ``Fraction`` each.
A validation's report and issues are named tuples; a ``Protocol`` and its
``Likelihoods``, which hold dicts and caches, are unhashable plain classes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, islice, repeat
from math import comb, gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .axioms import is_good
from .enumeration import enumerate_good_announcements
from .guard import comb_within, require_work, resolve_max_work
from .model import (
    Announcement,
    CardSet,
    Frozen,
    Parameters,
    build_masks,
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
Table = dict[CardSet, tuple[tuple[Announcement, Fraction], ...]]  # each hand's (announcement, probability) list
# The paper deal's hands and their good PAPER_LINES-line announcements, shared by every build in the process.
_HAND_LISTS: dict[CardSet, tuple[Announcement, ...]] = {}


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the values' denominators, and each value's exact integer numerator over D."""
    denominator = lcm(*{value.denominator for value in values})
    return denominator, [value.numerator * (denominator // value.denominator) for value in values]


class IndexEntry(NamedTuple):  # one announcement's entry in a ``Likelihoods`` index, described there
    column: dict[CardSet, int]
    row: tuple[int, ...]
    card_masks: tuple[int, ...]


class Likelihoods(Frozen):
    """A protocol's table indexed by announcement, in integers over one denominator.

    ``entries`` maps each producible announcement ``ann``, in canonical order,
    to its ``IndexEntry``: ``column[hand] / denominator`` is the hand's
    probability of producing ``ann`` times its hand weight, for every hand
    that lists ``ann``, truthful or not; ``row[i]`` is
    ``column.get(ann.lines[i], 0)``; ``card_masks`` are ``ann``'s per-card
    masks over the deal's cards. ``posteriors[(row, meet)]`` memoises a row's
    shares with its met lines zeroed, answers only, outside ``==`` and ``repr``.
    """

    _fields = ("denominator", "entries")

    def __init__(self, denominator: int, entries: dict[Announcement, IndexEntry]) -> None:
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "posteriors", {})


class Protocol(Frozen):
    """A named protocol: each hand's announcement distribution; its kind fixes the hand weights.

    ``likelihoods`` indexes the table by announcement. It is derived at first
    use and cached on the instance, so a table must not be mutated after
    construction: to change one, build a new ``Protocol`` from a copied dict.
    """

    _fields = ("kind", "params", "table", "point")

    def __init__(self, kind: str, params: Parameters, table: Table, point: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "point", point)

    def hand_weight(self, hand: CardSet) -> Fraction:
        """Hand-level weight: 1 unless the literal reading applies (see ``_literal_weight``)."""
        if self.kind != "fact2_literal":
            return Fraction(1)
        return _literal_weight(self.params, self.point in hand)

    @cached_property
    def likelihoods(self) -> Likelihoods:
        """Per producible announcement, each producing hand's probability times its weight.

        Repeated entries for one hand and announcement are summed, as sampling
        counts them. Every sum is kept as an integer numerator over one
        protocol-wide denominator, the lcm of the sums' own denominators, so
        equal sums give equal indexes. Sorted once, each announcement gets one
        entry: its column, keyed by hand; that column read along its lines into
        its row, so a posterior reads one integer tuple and hashes no line; and
        its per-card masks, without the cards beyond the deal, which no
        observer holds. A negative probability is refused with ValueError
        naming its hand and announcement.
        """
        listed = [(hand, ann, p) for hand, dist in self.table.items() for ann, p in dist]
        prob_den, masses = common_denominator([p for _, _, p in listed])
        weight_den, weights = common_denominator([self.hand_weight(hand) for hand in self.table])
        weight = dict(zip(self.table, weights))
        columns: dict[Announcement, dict[CardSet, int]] = {}
        for (hand, ann, p), mass in zip(listed, masses):
            if mass < 0:
                raise ValueError(
                    f"hand {hand} gives announcement {ann.lines} the negative probability {p}"
                )
            column = columns.setdefault(ann, {})
            column[hand] = column.get(hand, 0) + mass * weight[hand]
        denominator = prob_den * weight_den
        shared = gcd(denominator, *(n for column in columns.values() for n in column.values()))
        v = self.params.v
        entries = {}
        for ann, column in sorted(columns.items(), key=lambda item: item[0].lines):
            column = {hand: n // shared for hand, n in column.items()}
            cut = [line if line[-1] < v else [y for y in line if y < v] for line in ann.lines]
            entries[ann] = IndexEntry(column, tuple(column.get(line, 0) for line in ann.lines), build_masks(cut, v)[1])
        return Likelihoods(denominator // shared, entries)

    def support(self) -> list[Announcement]:
        """Every announcement some hand can produce, canonically ordered."""
        return list(self.likelihoods.entries)


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
    """Materialise one of the named protocols for the paper's deal, charged alike before and after the first fill."""
    _check_request(kind, params, point)
    max_work = resolve_max_work(max_work)  # once, for the charge and the first fill alike
    good = partial(enumerate_good_announcements, params, k=PAPER_LINES, max_work=max_work)
    good(hand=range(params.a))  # the charge: the reference hand's enumeration, filled or not
    if not _HAND_LISTS:  # one update fills them, so no build reads a part
        shared: dict[tuple[CardSet, ...], Announcement] = {}  # one object per announcement, whatever its hands
        _HAND_LISTS.update({hand: tuple(shared.setdefault(ann.lines, ann) for ann in good(hand=hand))
                            for hand in enumerate_ksets(params.v, params.a)})
    table: Table = {}
    for hand, anns in _HAND_LISTS.items():
        if kind.startswith("fact2"):
            anns = [ann for ann in anns if ann.triple_point == point]
        # fact1 splits by whether the triple point is held; the other kinds have one class.
        classes = [ann.triple_point in hand for ann in anns] if kind == "fact1" else [True] * len(anns)
        sizes = Counter(classes)
        share = {cls: Fraction(1, len(sizes) * size) for cls, size in sizes.items()}
        table[hand] = tuple(zip(anns, map(share.__getitem__, classes)))
    return Protocol(kind=kind, params=params, table=table, point=point)


def sample_many(proto: Protocol, hand: Iterable[int], seed, n: int) -> list[Announcement]:
    """n independent draws from one seeded generator, thresholds kept exact.

    The unit interval is scaled by the common denominator of the hand's
    probabilities, so a single integer draw selects an announcement without
    any floating-point rounding.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"draw count must be a nonnegative integer, got {n!r}")
    hand = card_set(hand, proto.params.v)
    if hand not in proto.table:
        raise KeyError(f"unknown hand {hand}")
    dist = proto.table[hand]
    denom, masses = common_denominator([p for _, p in dist])
    if any(mass < 0 for mass in masses):
        raise ValueError(f"distribution for {hand} has a negative probability")
    # thresholds[i] is the mass of the first i entries; a ticket selects the
    # first entry whose upper threshold exceeds it
    thresholds = list(accumulate(masses, initial=0))
    if thresholds[-1] != denom:
        raise ValueError(f"distribution for {hand} sums to {Fraction(thresholds[-1], denom)}")
    return [dist[bisect_right(thresholds, ticket) - 1][0] for ticket in islice(_tickets(seed, denom), n)]


def _tickets(seed, denom: int) -> Iterator[int]:
    """The tickets of ``Random(seed).randrange(denom)`` by its rule, in C: draw denom's bit length, reject >= denom."""
    return filter(denom.__gt__, map(random.Random(seed).getrandbits, repeat(denom.bit_length())))


class ValidationIssue(NamedTuple):
    kind: str  # coverage | normalization | positivity | duplicate | truthfulness | safety
    hand: CardSet | None
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    issues: tuple[ValidationIssue, ...]


def validate_protocol(proto: Protocol, *, max_work: int | None = None) -> ValidationReport:
    """Confirm coverage, exact normalization, no repeated entry, truthfulness and CA1-CA3 safety.

    An announcement whose lines do not fit the deal is reported as unsafe.
    """
    issues: list[ValidationIssue] = []
    params = proto.params
    what, max_work = "protocol coverage check", resolve_max_work(max_work)
    require_work(comb_within(params.v, params.a, max_work, what), max_work, what)
    for hand in enumerate_ksets(params.v, params.a):
        if hand not in proto.table:
            issues.append(ValidationIssue("coverage", hand, f"hand {hand} has no distribution"))
    listed_anywhere = dict.fromkeys(ann for dist in proto.table.values() for ann, _ in dist)
    unsafe = {ann: _unsafe(ann, params, max_work) for ann in listed_anywhere}
    for hand, dist in sorted(proto.table.items()):
        denom, masses = common_denominator([p for _, p in dist])
        if sum(masses) != denom:
            total = Fraction(sum(masses), denom)
            issues.append(
                ValidationIssue("normalization", hand, f"probabilities sum to {total}, not 1")
            )
        listed: set[Announcement] = set()
        for (ann, p), mass in zip(dist, masses):
            if mass <= 0:
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
            if unsafe[ann]:
                issues.append(ValidationIssue("safety", hand, unsafe[ann]))
    return ValidationReport(not issues, tuple(issues))


def _unsafe(ann: Announcement, params: Parameters, max_work: int | None) -> str | None:
    """Why ``ann`` is not a safe announcement at ``params``, or None if it is good."""
    try:
        good = is_good(ann, params, max_work=max_work)
    except ValueError as exc:
        # Raised by check_lines alone: validate_protocol resolved max_work, the only other source, before its loop.
        return f"announcement {ann.lines} does not fit {params}: {exc}"
    return None if good else f"announcement {ann.lines} is not good"


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _fraction_from_json(data, hand_text: str) -> Fraction:
    """Exactly {"num": int, "den": int >= 1}, no bool for an int; else a ValueError naming the table key."""
    num, den = (data.get("num"), data.get("den")) if isinstance(data, dict) else (None, None)
    if not (type(num) is type(den) is int and den >= 1 and len(data) == 2):
        raise ValueError(f"table key {hand_text!r}: probability {data!r} is not {{num: int, den: int >= 1}}")
    return Fraction(num, den)


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
    text = cache(partial(format_announcement, params=params))  # each distinct announcement once
    return {
        "kind": proto.kind,
        "params": [params.a, params.b, params.c],
        "point": proto.point,
        "class_weights": _class_weights_json(proto.kind, params),
        "table": {
            format_card_set(hand, params.v): [
                {"announcement": text(ann), "p": _fraction_json(p)}
                for ann, p in dist
            ]
            for hand, dist in sorted(proto.table.items())
        },
    }


def _check_document(data) -> None:
    """Refuse a document not shaped as ``protocol_json`` writes it, naming the field at fault."""
    if not isinstance(data, dict):
        raise ValueError(f"a protocol document must be an object, got {type(data).__name__}")
    params, table = data.get("params"), data.get("table")
    if not (isinstance(params, list) and len(params) == 3):
        raise ValueError(f"params must be a list of three counts, got {params!r}")
    if not isinstance(table, dict):
        raise ValueError(f"table must be an object keyed by hand, got {type(table).__name__}")
    for key, entries in table.items():
        if not isinstance(key, str):
            raise ValueError(f"table key {key!r} is not text")
        if not isinstance(entries, list):
            raise ValueError(f"table key {key!r}: entries must be a list, got {type(entries).__name__}")
        for entry in entries:
            if not (isinstance(entry, dict) and "announcement" in entry):
                raise ValueError(f"table key {key!r}: entry {entry!r} is not an object with an announcement")


def protocol_from_json(data: dict) -> Protocol:
    """Inverse of ``protocol_json``; each distinct announcement text is parsed once per call.

    Refuses a key that names no a-card hand ("01"), and two keys that name one hand ("012", "210").
    """
    _check_document(data)
    kind, params = data.get("kind"), Parameters(*data["params"])
    _check_request(kind, params, data.get("point"))
    expected = _class_weights_json(kind, params)
    if data.get("class_weights") != expected:
        raise ValueError(f"{kind} protocol at {params} needs class_weights {expected}")
    parsed: dict[str, Announcement] = {}

    def announcement(text) -> Announcement:
        # a non-text entry is never looked up: it reaches the parser, which refuses it
        if not (isinstance(text, str) and text in parsed):
            parsed[text] = parse_announcement(text, params)
        return parsed[text]

    table: Table = {}
    key_of: dict[CardSet, str] = {}
    for hand_text, entries in data["table"].items():
        hand = parse_card_set(hand_text, params.v, params.a)
        if key_of.setdefault(hand, hand_text) != hand_text:
            raise ValueError(f"table keys {key_of[hand]!r} and {hand_text!r} both name hand {hand}")
        table[hand] = tuple(
            (announcement(entry["announcement"]), _fraction_from_json(entry.get("p"), hand_text)) for entry in entries
        )
    return Protocol(kind=kind, params=params, table=table, point=data.get("point"))
