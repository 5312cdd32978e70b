"""Core data model: decks, card sets, announcements and their wire formats.

A deck of ``v`` cards is the set ``{0, ..., v-1}``. Card sets (hands, lines)
are sorted tuples of card labels; announcements are sorted tuples of lines.
All values are immutable and hashable, so they can be shared freely and used
as dictionary keys. The ``Announcement`` constructor alone enforces the
announcement invariant, and ``check_fit`` alone turns its lines into masks,
after the range check, so an absurd card label never reaches a mask.

Two interchange formats exist for announcements. Compact text separates
lines with whitespace; within a line, cards are concatenated digits when the
deck has at most ten cards ("012 034 056") and comma-separated decimals
otherwise ("0,2,11 3,4,12"). The JSON form is
``{"params": [a, b, c], "lines": [[0, 1, 2], ...]}``; a bare array of arrays
is accepted as well. Parsing always canonicalises (cards sorted within a
line, lines sorted lexicographically), so ``parse`` after ``format`` is the
identity on canonical announcements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

CardSet = tuple[int, ...]


class AnnouncementParseError(ValueError):
    """Announcement text or JSON that does not describe a valid announcement."""


@dataclass(frozen=True)
class Parameters:
    """Hand sizes (a, b, c) of the three players; the deck size v is a+b+c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, count in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"{name} must be a positive integer, got {count!r}")

    @property
    def v(self) -> int:
        return self.a + self.b + self.c


def card_set(cards: Iterable[int], v: int | None = None) -> CardSet:
    """Sort a collection of cards, rejecting duplicates and out-of-range labels."""
    out = tuple(cards)
    for card in out:
        if not isinstance(card, int) or isinstance(card, bool) or card < 0:
            raise ValueError(f"card {card!r} is not a nonnegative integer")
        if v is not None and card >= v:
            raise ValueError(f"card {card} out of range for deck size {v}")
    out = tuple(sorted(out))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate card in {out}")
    return out


def enumerate_ksets(v: int, k: int) -> list[CardSet]:
    """All k-subsets of {0, ..., v-1} in lexicographic order."""
    if v < 0:
        raise ValueError(f"deck size must be nonnegative, got {v}")
    if not 0 <= k <= v:
        raise ValueError(f"set size {k} out of range for deck size {v}")
    return list(combinations(range(v), k))


def complement_set(x: Iterable[int], v: int) -> CardSet:
    """The cards of the deck {0, ..., v-1} not in x."""
    xs = card_set(x, v)
    inside = set(xs)
    return tuple(card for card in range(v) if card not in inside)


def to_mask(cards: Iterable[int]) -> int:
    """Bit mask with bit i set for every card i. Fast set algebra for any v."""
    mask = 0
    for card in cards:
        mask |= 1 << card
    return mask


def from_mask(mask: int) -> CardSet:
    out = []
    card = 0
    while mask:
        if mask & 1:
            out.append(card)
        mask >>= 1
        card += 1
    return tuple(out)


@dataclass(frozen=True)
class Announcement:
    """One or more distinct, equally sized lines in canonical order.

    The constructor rejects anything else with ValueError; equality and
    hashing use ``lines``. Line masks come from ``check_fit``.
    """

    lines: tuple[CardSet, ...]

    def __post_init__(self) -> None:
        lines = self.lines
        if not isinstance(lines, tuple) or not lines:
            raise ValueError("an announcement needs a nonempty tuple of lines")
        size = len(lines[0])
        prev = None
        for line in lines:
            if not isinstance(line, tuple) or len(line) != size:
                raise ValueError(f"line {line!r} is not a tuple of {size} cards")
            last = -1
            for card in line:
                if not isinstance(card, int) or card <= last:
                    raise ValueError(f"line {line} is not sorted distinct nonnegative integers")
                last = card
            if prev is not None and line <= prev:
                raise ValueError(f"line {line} after {prev}: lines must be distinct and sorted")
            prev = line

    @classmethod
    def of(cls, lines: Iterable[Iterable[int]]) -> "Announcement":
        return cls(tuple(sorted(card_set(line) for line in lines)))

    @property
    def block_size(self) -> int:
        return len(self.lines[0])

    def __iter__(self) -> Iterator[CardSet]:
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __contains__(self, line: object) -> bool:
        return line in self.lines


def check_fit(ann: Announcement, size: int, v: int) -> tuple[int, ...]:
    """The line masks, once every line is known to have ``size`` cards, all below v.

    The only builder of an announcement's masks: the checks read ``lines``
    alone, so an absurd card label is refused before any mask is allocated.
    """
    if ann.block_size != size:
        raise ValueError(f"lines have {ann.block_size} cards, expected {size}")
    if (top := max(line[-1] for line in ann.lines)) >= v:
        raise ValueError(f"card {top} out of range for deck size {v}")
    return tuple(map(to_mask, ann.lines))


@dataclass(frozen=True)
class Deal:
    """A full distribution of the deck over the three hands."""

    alice: CardSet
    bob: CardSet
    cathy: CardSet


def make_deal(
    params: Parameters,
    alice: Iterable[int],
    bob: Iterable[int],
    cathy: Iterable[int] | None = None,
) -> Deal:
    """Build a deal, filling in the third hand when omitted.

    The three hands must be pairwise disjoint cards of the deck with sizes
    (a, b, c), so together they cover it.
    """
    a_set = card_set(alice, params.v)
    b_set = card_set(bob, params.v)
    if cathy is None:
        taken = set(a_set) | set(b_set)
        c_set = tuple(card for card in range(params.v) if card not in taken)
    else:
        c_set = card_set(cathy, params.v)
    sizes = (len(a_set), len(b_set), len(c_set))
    if sizes != (params.a, params.b, params.c):
        raise ValueError(f"hand sizes {sizes} do not match {params}")
    if to_mask(a_set) & to_mask(b_set) or (to_mask(a_set) | to_mask(b_set)) & to_mask(c_set):
        raise ValueError("hands overlap")
    return Deal(a_set, b_set, c_set)


def format_card_set(cards: Iterable[int], v: int) -> str:
    """Compact text for one card set: digits for v <= 10, comma-separated otherwise."""
    cards = tuple(cards)
    if v <= 10:
        return "".join(str(card) for card in cards)
    return ",".join(str(card) for card in cards)


def parse_card_set(text: str, v: int) -> CardSet:
    """Parse one card set in compact text form (a single whitespace-free token)."""
    return card_set(_token_cards(text.strip(), v), v)


def _token_cards(token: str, v: int) -> list[int]:
    if not token:
        raise AnnouncementParseError("empty card set")
    try:
        if "," in token:
            return [int(part) for part in token.split(",")]
        if v <= 10:
            return [int(ch) for ch in token]
        return [int(token)]
    except ValueError:
        raise AnnouncementParseError(f"cannot read cards from {token!r}") from None


def parse_announcement(text: str, params: Parameters) -> Announcement:
    """Parse compact text or JSON into a canonical announcement.

    Every line must contain exactly ``params.a`` distinct cards below
    ``params.v``; repeated lines are rejected. Errors carry the position
    (line index and token) of the offending input.
    """
    stripped = text.strip()
    if not stripped:
        raise AnnouncementParseError("empty announcement")
    if stripped[0] in "{[":
        lines = _json_lines(stripped, params)
    else:
        lines = []
        for index, token in enumerate(stripped.split()):
            cards = _token_cards(token, params.v)
            lines.append(_checked_line(cards, params, index, token))
    return _canonical(lines, params)


def _checked_line(cards: list[int], params: Parameters, index: int, shown: str) -> CardSet:
    where = f"line {index} ({shown!r})"
    try:
        line = card_set(cards, params.v)
    except ValueError as exc:
        raise AnnouncementParseError(f"{where}: {exc}") from None
    if len(line) != params.a:
        raise AnnouncementParseError(f"{where}: expected {params.a} cards, got {len(line)}")
    return line


def _json_lines(text: str, params: Parameters) -> list[CardSet]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnnouncementParseError(f"invalid JSON announcement: {exc}") from None
    except RecursionError:
        raise AnnouncementParseError("invalid JSON announcement: nested too deeply") from None
    if isinstance(data, dict):
        declared = data.get("params")
        if declared is not None and declared != [params.a, params.b, params.c]:
            raise AnnouncementParseError(
                f"JSON declares params {declared}, expected {[params.a, params.b, params.c]}"
            )
        data = data.get("lines")
    if not isinstance(data, list):
        raise AnnouncementParseError("JSON announcement must carry a list of lines")
    lines = []
    for index, raw in enumerate(data):
        if not isinstance(raw, list):
            raise AnnouncementParseError(f"line {index}: expected an array of cards")
        lines.append(_checked_line(list(raw), params, index, json.dumps(raw)))
    return lines


def _canonical(lines: list[CardSet], params: Parameters) -> Announcement:
    seen = set()
    for index, line in enumerate(lines):
        if line in seen:
            raise AnnouncementParseError(
                f"line {index} ({format_card_set(line, params.v)!r}): duplicate line"
            )
        seen.add(line)
    if not lines:
        raise AnnouncementParseError("announcement has no lines")
    return Announcement(tuple(sorted(lines)))


def format_announcement(ann: Announcement, params: Parameters) -> str:
    """Canonical compact text; round-trips through parse_announcement."""
    check_fit(ann, params.a, params.v)
    return " ".join(format_card_set(line, params.v) for line in ann.lines)


def announcement_json(ann: Announcement, params: Parameters) -> dict:
    """JSON-ready form {"params": [a, b, c], "lines": [[...], ...]}."""
    check_fit(ann, params.a, params.v)
    return {
        "params": [params.a, params.b, params.c],
        "lines": [list(line) for line in ann.lines],
    }

