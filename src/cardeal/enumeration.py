"""Exhaustive generation and classification of good announcements.

The generator walks all k-line supersets of a fixed hand, pruning branches
as soon as two chosen lines clash under the axiom kernel's CA1 rule (some
b-set avoids both), and keeps exactly the candidates that pass the full
CA1-CA3 check on their line masks; only survivors are built as announcements.
No isomorph rejection, no shortcuts: at desk scale the naive sweep is the
ground truth everything else is tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .axioms import _clash, _good
from .guard import require_work
from .model import Announcement, CardSet, Parameters, card_set, from_mask, to_mask


def enumerate_good_announcements(
    params: Parameters,
    hand: Iterable[int],
    k: int,
    *,
    max_work: int | None = None,
) -> list[Announcement]:
    """All k-line announcements containing ``hand`` that satisfy CA1-CA3.

    Canonically ordered and duplicate-free. Refuses instances whose raw
    candidate space C(C(v, a), k) exceeds the work limit.
    """
    hand = card_set(hand, params.v)
    if len(hand) != params.a:
        raise ValueError(f"hand {hand} is not an {params.a}-set")
    if k < 1:
        raise ValueError(f"line count must be positive, got {k}")
    require_work(comb(comb(params.v, params.a), k), max_work, "announcement enumeration")
    return list(_good_containing(params, hand, k))


@lru_cache(maxsize=None)
def _good_containing(params: Parameters, hand: CardSet, k: int) -> tuple[Announcement, ...]:
    v, b = params.v, params.b
    hand_mask = to_mask(hand)
    # A line that clashes with the hand or with a chosen line already sinks CA1.
    # The pool is cleared against the hand, so a new line is tested only
    # against the chosen lines besides the hand.
    pool = []
    for line in combinations(range(v), params.a):
        m = to_mask(line)
        if m != hand_mask and not _clash(m, hand_mask, v, b):
            pool.append(m)

    def extend(start: int, chosen: list[int]) -> Iterator[Announcement]:
        if len(chosen) == k - 1:
            masks = [hand_mask, *chosen]
            if _good(masks, params):
                yield Announcement(tuple(sorted(map(from_mask, masks))))
            return
        limit = len(pool) - (k - 2 - len(chosen))
        for i in range(start, limit):
            m = pool[i]
            if not any(_clash(m, other, v, b) for other in chosen):
                yield from extend(i + 1, chosen + [m])

    return tuple(sorted(extend(0, []), key=lambda ann: ann.lines))


def triple_point(ann: Announcement) -> int | None:
    """The card occurring in strictly more lines than every other card, if any."""
    counts = Counter(card for line in ann.lines for card in line)
    ranked = counts.most_common(2)
    if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
        return ranked[0][0]
    return None


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


def special_point_announcements(
    params: Parameters,
    hand: Iterable[int],
    p: int,
    *,
    max_work: int | None = None,
) -> list[Announcement]:
    """Five-line good announcements containing ``hand`` whose triple point is p."""
    if (params.a, params.b, params.c) != (3, 3, 1):
        raise ValueError(f"five-line census is specific to the (3,3,1) deal, got {params}")
    if not 0 <= p < params.v:
        raise ValueError(f"point {p} out of range for deck size {params.v}")
    candidates = enumerate_good_announcements(params, hand, 5, max_work=max_work)
    return [ann for ann in candidates if triple_point(ann) == p]
