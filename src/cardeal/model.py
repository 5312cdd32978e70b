"""Core data model: decks, card sets, announcements and their wire formats.

A deck of ``v`` cards is the set ``{0, ..., v-1}``. Card sets (hands, lines)
are sorted tuples of card labels; announcements are sorted tuples of lines.
All values are immutable and hashable, so they can be shared freely and used
as dictionary keys; ``Parameters`` and ``Announcement`` refuse assignment
through their base, ``Frozen``. ``card_set``, which ``parse_card_set``
wraps, is the one gate for a caller's hand or c-set: sorted, distinct, in
range and, given a size, of that size. The ``Announcement`` constructor enforces the
announcement invariant. One private builder, ``Announcement._trusted``,
skips those checks for lines canonical by construction (parsed, or
relabelled by enumeration) and alone sets a triple point it is given; only
the parser and ``enumeration`` call it. ``from_mask`` is the one set-bit
walk: it steps by the lowest set bit, one step per set bit, and reads both
cards off card masks and pool indices off the enumeration search's bitsets.
``check_lines`` checks an announcement's line size and card range. One
function alone turns lines into masks, ``build_masks``: it takes a sequence
of lines, an announcement's (checked first, or cut to the deal's cards by
the protocol index, so an absurd card label never reaches a mask) or the
enumeration search's pool, and one loop builds both the line masks (bit y
set iff the line holds card y) and their transpose, the per-card masks (bit
i set iff line i holds the card).

Two interchange formats exist for announcements. Compact text separates
lines with whitespace; within a line, cards are concatenated digits when the
deck has at most ten cards ("012 034 056") and comma-separated decimals
otherwise ("0,2,11 3,4,12"); a card is ASCII decimal digits and nothing
else. The JSON form is
``{"params": [a, b, c], "lines": [[0, 1, 2], ...]}``; a bare array of arrays
is accepted as well. Parsing always canonicalises (cards sorted within a
line, lines sorted lexicographically), so ``parse`` after ``format`` is the
identity on canonical announcements. For decks of at most ten cards, a
private table, built whole for each (v, a) at first use and cached, maps
every line of a cards below v, keyed by its digit text ("012"), to its line
tuple: at most C(10, 5) = 252 entries. A text token of a characters is
looked up by its sorted characters, and a hit is that line, unchecked; a
miss reads the token in full. A larger deck gets one shared empty table.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

CardSet = tuple[int, ...]
_UNCOUNTED = object()  # ``Announcement._trusted`` without a triple point
_NO_LINES: dict[str, CardSet] = {}  # the line table of every deck of more than ten cards


class AnnouncementParseError(ValueError):
    """Announcement text or JSON that does not describe a valid announcement."""


class Frozen:
    """Base of the classes that check, cache or customise equality: ``__init__`` alone sets fields.

    It sets them through ``object.__setattr__``; assigning or deleting one later raises AttributeError.
    ``==`` and ``repr`` read the fields that ``_fields`` names, in order, and no other (a cache, say).
    An instance is unhashable unless its class defines ``__hash__``.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Parameters(Frozen):
    """Hand sizes (a, b, c) of the three players; the deck size v is a+b+c."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        for name, count in (("a", a), ("b", b), ("c", c)):
            if type(count) is not int or count < 1:
                raise ValueError(f"{name} must be a positive integer, got {count!r}")
            object.__setattr__(self, name, count)

    def __hash__(self) -> int:  # keys enumeration's search cache
        return hash((self.a, self.b, self.c))

    @property
    def v(self) -> int:
        return self.a + self.b + self.c


def card_set(cards: Iterable[int], v: int | None = None, size: int | None = None) -> CardSet:
    """Sort a collection of cards, rejecting out-of-range labels, duplicates and, given ``size``, any other size."""
    out = tuple(cards)
    for card in out:
        if type(card) is not int or card < 0:
            raise ValueError(f"card {card!r} is not a nonnegative integer")
        if v is not None and card >= v:
            raise ValueError(f"card {card} out of range for deck size {v}")
    out = tuple(sorted(out))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate card in {out}")
    if size is not None and len(out) != size:
        raise ValueError(f"expected a card set of size {size}, got {out}")
    return out


def enumerate_ksets(v: int, k: int) -> list[CardSet]:
    """All k-subsets of {0, ..., v-1} in lexicographic order."""
    if v < 0:
        raise ValueError(f"deck size must be nonnegative, got {v}")
    if not 0 <= k <= v:
        raise ValueError(f"set size {k} out of range for deck size {v}")
    return list(combinations(range(v), k))


def to_mask(cards: Iterable[int]) -> int:
    """Bit mask with bit i set for every card i. Fast set algebra for any v."""
    mask = 0
    for card in cards:
        mask |= 1 << card
    return mask


def from_mask(mask: int) -> CardSet:
    """The set bits of a nonnegative ``mask`` in ascending order; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Announcement(Frozen):
    """One or more distinct, equally sized, nonempty lines in canonical order.

    The constructor rejects anything else with ValueError; equality,
    hashing and repr use ``lines`` alone. Masks come from ``build_masks``.
    """

    _fields = ("lines",)

    def __init__(self, lines: tuple[CardSet, ...]) -> None:
        if not isinstance(lines, tuple) or not lines:
            raise ValueError("an announcement needs a nonempty tuple of lines")
        size = len(lines[0])
        if not size:
            raise ValueError("an announcement's lines need at least one card")
        prev = None
        for line in lines:
            if not isinstance(line, tuple) or len(line) != size:
                raise ValueError(f"line {line!r} is not a tuple of {size} cards")
            last = -1
            for card in line:
                if type(card) is not int or card <= last:
                    raise ValueError(f"line {line} is not sorted distinct nonnegative integers")
                last = card
            if prev is not None and line <= prev:
                raise ValueError(f"line {line} after {prev}: lines must be distinct and sorted")
            prev = line
        object.__setattr__(self, "lines", lines)

    # Announcements key the protocol tables and posteriors: compare and hash ``lines`` directly.
    def __eq__(self, other: object) -> bool:
        return self.lines == other.lines if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.lines)

    @classmethod
    def of(cls, lines: Iterable[Iterable[int]]) -> "Announcement":
        return cls(tuple(sorted(card_set(line) for line in lines)))

    @classmethod
    def _trusted(cls, lines: tuple[CardSet, ...], point: int | None | object = _UNCOUNTED) -> "Announcement":
        """The announcement of ``lines``, which the caller built to pass the constructor's checks.

        It skips ``__init__`` and sets ``lines`` as ``__init__`` does, through
        ``object.__setattr__``. ``point``, if given, is the lines' triple
        point, set the same way, so ``triple_point`` reads it without
        counting. One caller gives it: ``enumerate_good_announcements``,
        which hands out every relabelled announcement, the protocol tables'
        included, with its relabelled point. The parser and enumeration's
        reference list leave it to be counted. A sentinel default, unlike
        ``*point``, costs nothing per build. Writing the point into
        ``__dict__`` instead would materialise the instance dict, slowing
        later reads on CPython 3.11.
        """
        ann = object.__new__(cls)
        object.__setattr__(ann, "lines", lines)
        if point is not _UNCOUNTED:
            object.__setattr__(ann, "triple_point", point)  # fills the cached_property past Frozen.__setattr__
        return ann

    @property
    def block_size(self) -> int:
        return len(self.lines[0])

    def __iter__(self) -> Iterator[CardSet]:
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def triple_point(self) -> int | None:
        """The card occurring in strictly more lines than every other card, if any.

        Counted at first read and kept. ``_trusted`` sets it instead on the
        announcements ``enumerate_good_announcements`` builds, from the point
        it relabels.
        """
        counts: dict[int, int] = {}
        for line in self.lines:
            for card in line:
                counts[card] = counts.get(card, 0) + 1
        card = max(counts, key=counts.__getitem__)
        return card if list(counts.values()).count(counts[card]) == 1 else None


def check_lines(ann: Announcement, size: int, v: int) -> None:
    """Refuse lines without ``size`` cards, or with a card of v or more; reads ``lines`` alone."""
    if ann.block_size != size:
        raise ValueError(f"expected {size} cards, got {ann.block_size}")
    if (top := max(map(itemgetter(-1), ann.lines))) >= v:
        raise ValueError(f"card {top} out of range for deck size {v}")


def build_masks(lines: Sequence[CardSet], v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The line masks and the per-card masks of ``lines``, built in one loop over them.

    Line mask i has bit y set iff line i holds card y; per-card mask y has
    bit i set iff line i holds y, so a count of lines holding a card set is
    the popcount of an AND of its entries. The one builder of both, for an
    announcement's lines, checked or cut to the deal's cards first so an
    absurd card label never reaches a mask, and for the enumeration's pool.
    """
    line_masks = []
    cards = [0] * v
    bit = 1
    for line in lines:
        mask = 0
        for card in line:
            mask |= 1 << card
            cards[card] |= bit
        line_masks.append(mask)
        bit <<= 1
    return tuple(line_masks), tuple(cards)


def format_card_set(cards: Iterable[int], v: int) -> str:
    """Compact text for one card set: digits for v <= 10, comma-separated otherwise."""
    cards = tuple(cards)
    if v <= 10:
        return "".join(str(card) for card in cards)
    return ",".join(str(card) for card in cards)


def parse_card_set(text: str, v: int, size: int | None = None) -> CardSet:
    """Parse one card set in compact text form (a single whitespace-free token) through ``card_set``."""
    return card_set(_token_cards(text.strip(), v), v, size)


def _token_cards(token: str, v: int) -> list[int]:
    if not token:
        raise AnnouncementParseError("empty card set")
    parts = token.split(",") if "," in token else token if v <= 10 else (token,)
    # ASCII decimal digits only: int() alone also reads signs, underscores,
    # spaces and non-ASCII digits.
    if not (token.isascii() and token.replace(",", "").isdigit() and all(parts)):
        raise AnnouncementParseError(f"cannot read cards from {token!r}")
    return list(map(int, parts))


def parse_announcement(text: str, params: Parameters) -> Announcement:
    """Parse compact text or JSON into a canonical announcement.

    Every line must contain exactly ``params.a`` distinct cards below
    ``params.v``; repeated lines are rejected. Errors carry the position
    (line index and token) of the offending input.
    """
    if not isinstance(text, str):
        raise AnnouncementParseError(f"announcement must be text, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise AnnouncementParseError("empty announcement")
    if stripped[0] in "{[":
        lines = _json_lines(stripped, params)
    else:
        a, v = params.a, params.v
        table = _line_table(v, a) if v <= 10 else _NO_LINES
        lines = []
        for index, token in enumerate(stripped.split()):
            # A key is a line's cards as strictly increasing ASCII digits, so a
            # token whose sorted characters match one reads as that line.
            line = table.get("".join(sorted(token))) if len(token) == a else None
            if line is None:
                cards = _token_cards(token, v)
                line = tuple(sorted(cards))
                # Text cards are nonnegative integers, so one test covers size,
                # range and duplicates; where it fails, _checked_line raises the
                # error that names the fault.
                if len(line) != a or line[-1] >= v or len(set(line)) != a:
                    _checked_line(cards, params, index, token)
            lines.append(line)
    return _canonical(lines, params)


@cache
def _line_table(v: int, a: int) -> dict[str, CardSet]:
    """Every line of ``a`` cards below ``v``, keyed by its digit text: the parser's table for a deck of v <= 10."""
    return {"".join(map(str, line)): line for line in combinations(range(v), a)}


def _checked_line(cards: list, params: Parameters, index: int, raw: str | list) -> CardSet:
    """``cards`` as a line of ``params.a`` cards below ``params.v``, else an error naming line ``index`` by ``raw``."""
    try:
        line = card_set(cards, params.v)
        if len(line) == params.a:
            return line
        problem = f"expected {params.a} cards, got {len(line)}"
    except ValueError as exc:
        problem = str(exc)
    shown = raw if isinstance(raw, str) else json.dumps(raw)
    raise AnnouncementParseError(f"line {index} ({shown!r}): {problem}")


def _json_lines(text: str, params: Parameters) -> list[CardSet]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnnouncementParseError(f"invalid JSON announcement: {exc}") from None
    except RecursionError:
        raise AnnouncementParseError("invalid JSON announcement: nested too deeply") from None
    if isinstance(data, dict):
        declared, expected = data.get("params"), [params.a, params.b, params.c]
        # Parameters' integer rule: 1.0 == True == 1, so == alone would take a float or a bool.
        if declared is not None and (declared != expected or any(type(n) is not int for n in declared)):
            raise AnnouncementParseError(f"JSON declares params {declared}, expected {expected}")
        data = data.get("lines")
    if not isinstance(data, list):
        raise AnnouncementParseError("JSON announcement must carry a list of lines")
    lines = []
    for index, raw in enumerate(data):
        if not isinstance(raw, list):
            raise AnnouncementParseError(f"line {index}: expected an array of cards")
        lines.append(_checked_line(list(raw), params, index, raw))
    return lines


def _canonical(lines: list[CardSet], params: Parameters) -> Announcement:
    """Parsed ``lines``, each already checked for size, range and distinct cards, as an announcement."""
    if len(set(lines)) != len(lines):
        seen = set()
        for index, line in enumerate(lines):
            if line in seen:
                raise AnnouncementParseError(
                    f"line {index} ({format_card_set(line, params.v)!r}): duplicate line"
                )
            seen.add(line)
    if not lines:
        raise AnnouncementParseError("announcement has no lines")
    return Announcement._trusted(tuple(sorted(lines)))


def format_announcement(ann: Announcement, params: Parameters) -> str:
    """Canonical compact text; round-trips through parse_announcement."""
    check_lines(ann, params.a, params.v)
    return " ".join(format_card_set(line, params.v) for line in ann.lines)


def announcement_json(ann: Announcement, params: Parameters) -> dict:
    """JSON-ready form {"params": [a, b, c], "lines": [[...], ...]}."""
    check_lines(ann, params.a, params.v)
    return {
        "params": [params.a, params.b, params.c],
        "lines": [list(line) for line in ann.lines],
    }

