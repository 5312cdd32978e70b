"""Exhaustive generation and classification of good announcements.

The generator lists every k-line superset of a fixed hand whose lines
pairwise pass the axiom kernel's CA1 clash rule (no b-set avoids two of
them): the hand plus a (k-1)-clique of the compatibility graph on the pool
of lines that do not clash with the hand. The search intersects candidate
sets with each chosen line's bitset of compatible later lines, built the
first time a branch needs a line after it, so k = 1 and k = 2 test no pair
of pool lines. CA1 therefore holds at every leaf, which tests only CA2-CA3
on its line masks; only survivors are built as announcements. No isomorph
rejection: at desk scale the exhaustive search is the ground truth
everything else is tested against.

The work guard charges the search, not the raw candidate space. A line
clashes with the hand iff it shares a - c or more cards with it, so the pool
holds the n = sum over i < a - c of C(a, i)·C(b + c, a - i) lines sharing i
cards, known before any work. A search makes C(v, a) - 1 clash tests to
filter the pool, at most C(n, 2) to build rows (only when k >= 3) and
visits at most C(n, k - 1) leaves. The guard is charged on every call, so a
request is admitted or refused alike whether or not its search is cached.

Only the reference hand 0..a-1 is searched, once per (params, k). Any other
hand h gets the reference list relabelled by the permutation that sends
0..a-1 to h in order and the remaining cards to the remaining cards in
order. A permutation of the deck maps a-sets, b-sets and c-sets onto
themselves and preserves every intersection, so it maps the announcements
containing 0..a-1 that satisfy CA1-CA3 one-to-one onto those containing h.
Re-sorting the cards of each relabelled line, then the lines, then the list
gives the canonical order the direct search of h yields; that search stays
as the test oracle. A call relabels each of the C(v, a) lines once, no more
steps than the pool filter it is charged for.

A relabelling also maps each card's line count to its image, so it carries
the triple point (the card in strictly more lines than any other). The
reference list stores each announcement's point beside its lines, counted
once per (params, k), and ``_relabelled`` hands out both images. The
protocol tables sort a hand's announcements by that point without counting
cards or building an announcement per entry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .axioms import _c_set_masks, _clash, _covers
from .guard import comb_within, require_work
from .model import Announcement, CardSet, Parameters, card_set, from_mask, to_mask


def enumerate_good_announcements(
    params: Parameters,
    hand: Iterable[int],
    k: int,
    *,
    max_work: int | None = None,
) -> list[Announcement]:
    """All k-line announcements containing ``hand`` that satisfy CA1-CA3.

    Canonically ordered and duplicate-free. Refuses instances whose search
    (see the module docstring) would exceed the work limit.
    """
    return [Announcement(lines) for lines, _ in _relabelled(params, hand, k, max_work)]


def _relabelled(
    params: Parameters, hand: Iterable[int], k: int, max_work: int | None
) -> list[tuple[tuple[CardSet, ...], int | None]]:
    """The lines and triple point of every good k-line announcement containing ``hand``.

    The reference hand's list relabelled onto ``hand``, in canonical order,
    charged to the guard as the search it stands for.
    """
    hand = card_set(hand, params.v)
    if len(hand) != params.a:
        raise ValueError(f"hand {hand} is not an {params.a}-set")
    if type(k) is not int or k < 1:
        raise ValueError(f"line count must be a positive integer, got {k!r}")
    a, v, what = params.a, params.v, "announcement enumeration"
    filter_tests = comb_within(v, a, max_work, what) - 1
    # A line sharing i cards with the hand takes a - i of the v - a others, so i >= 2a - v.
    n = sum(comb(a, i) * comb(v - a, a - i) for i in range(max(0, 2 * a - v), a - params.c))
    work = filter_tests + (comb(n, 2) if k >= 3 else 0) + comb_within(n, k - 1, max_work, what)
    require_work(work, max_work, what)
    # Each line's image is sorted once per call, and the announcements share it.
    image = (*hand, *(card for card in range(v) if card not in hand))
    relabel = {line: tuple(sorted([image[card] for card in line])) for line in combinations(range(v), a)}
    # The lines of distinct announcements differ, so the sort never compares two points.
    return sorted(
        (tuple(sorted([relabel[line] for line in lines])), None if point is None else image[point])
        for lines, point in _reference_lines(params, k)
    )


@lru_cache(maxsize=None)
def _reference_lines(params: Parameters, k: int) -> tuple[tuple[tuple[CardSet, ...], int | None], ...]:
    """The lines and triple point of every good k-line announcement containing the hand 0..a-1."""
    return tuple((ann.lines, triple_point(ann)) for ann in _good_containing(params, tuple(range(params.a)), k))


def _good_containing(params: Parameters, hand: CardSet, k: int) -> tuple[Announcement, ...]:
    """The direct search: every good k-line announcement containing ``hand``, canonically ordered."""
    v, b = params.v, params.b
    hand_mask = to_mask(hand)
    pool = [
        m for m in map(to_mask, combinations(range(v), params.a))
        if m != hand_mask and not _clash(m, hand_mask, v, b)
    ]
    rows: dict[int, int] = {}
    c_set_masks = tuple(_c_set_masks(v, params.c))

    def compatible_after(i: int) -> int:
        """Bit j set iff pool line j comes after line i and does not clash with it; built on first use."""
        if i not in rows:
            m = pool[i]
            bits = "".join("0" if _clash(m, pool[j], v, b) else "1" for j in range(len(pool) - 1, i, -1))
            rows[i] = int(bits or "0", 2) << (i + 1)
        return rows[i]

    def extend(candidates: int, chosen: list[int]) -> Iterator[Announcement]:
        """The good announcements that extend ``chosen`` by lines from ``candidates``."""
        need = k - len(chosen)
        if need == 0:
            if _covers(chosen, c_set_masks):
                yield Announcement(tuple(sorted(map(from_mask, chosen))))
            return
        # Picks run in ascending order and a clique grows only by later lines, so
        # the last need - 1 candidates cannot start a branch.
        bits = bin(candidates)[:1:-1]
        i = -1
        for _ in range(bits.count("1") - need + 1):
            i = bits.index("1", i + 1)
            # A branch that needs no further line takes no candidates, so it builds no row.
            yield from extend(candidates & compatible_after(i) if need > 1 else 0, [*chosen, pool[i]])

    return tuple(extend((1 << len(pool)) - 1, [hand_mask]))


def triple_point(ann: Announcement) -> int | None:
    """The card occurring in strictly more lines than every other card, if any."""
    counts: dict[int, int] = {}
    for line in ann.lines:
        for card in line:
            counts[card] = counts.get(card, 0) + 1
    card = max(counts, key=counts.__getitem__)
    return card if list(counts.values()).count(counts[card]) == 1 else None


def classify_by_triple(
    anns: Sequence[Announcement],
    hand: Iterable[int],
) -> tuple[list[Announcement], list[Announcement]]:
    """Split announcements by whether their triple point lies in ``hand``.

    Every announcement must contain the hand and have a unique triple point.
    """
    hand = card_set(hand)
    inside: list[Announcement] = []
    outside: list[Announcement] = []
    for ann in anns:
        if hand not in ann.lines:
            raise ValueError(f"announcement {ann.lines} does not contain {hand}")
        top = triple_point(ann)
        if top is None:
            raise ValueError(f"announcement {ann.lines} has no unique most-frequent card")
        (inside if top in hand else outside).append(ann)
    return inside, outside
