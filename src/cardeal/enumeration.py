"""Exhaustive generation and classification of good announcements.

The generator lists every k-line superset of a fixed hand whose lines
pairwise pass the axiom kernel's CA1 clash rule (no b-set avoids two of
them): the hand plus a (k-1)-clique of the compatibility graph on the pool
of lines that do not clash with the hand, or, given a second fixed line, the
two plus a (k-2)-clique of the pool clashing with neither. The search
intersects candidate sets with each chosen line's bitset of compatible later
lines, built the first time a branch needs a line after it, so k = 2 tests
no pair of pool lines. The last line is picked without testing each leaf:
for each c-set the first k - 1 lines fail under CA2-CA3, it must avoid the
c-set and the cards its avoiding lines share, and hold the outside cards
they miss. With one bitset per card over the pool these are ANDs on the
candidate set, which leave exactly the good completions, in pool order. This
filter is the library's only line-major reading of CA2-CA3: the chosen lines
change at every node, so it reads them one by one rather than through
per-card masks. The pool's masks come from ``model.build_masks``, and
``model.from_mask``, the one set-bit walk, reads pool indices off the
candidate bitsets, one step per candidate: a branch's start lines, and the
good last lines. The search returns each good announcement as the sorted
ranks of its lines in the lex order of the a-sets, and builds none. k = 1
needs no search: v - a = b + c >= c, so some c-set misses the hand, which is
then that c-set's only avoiding line; its cards are shared, CA2 fails, and
no one-line announcement is good. The direct search, through the hand alone,
is the ground truth the orbit split below is tested against.

The work guard charges the search, not the raw candidate space. A line
clashes with the hand iff it shares a - c or more cards with it, so the pool
holds the n = sum over i < a - c of C(a, i)·C(b + c, a - i) lines sharing i
cards, known before any work. A search makes C(v, a) - 1 clash tests to
filter the pool, at most C(n, 2) to build rows (only when k >= 3) and is
charged C(n, k - 1) for the leaves. It visits no leaf, so the charge
over-counts its work; the guard admits and refuses what a leaf-by-leaf
search would. The orbit split below does less work than the direct search it
is charged for (about a fiftieth of its time at (4,6,2) k=6), so the charge
over-counts by more; it is kept so that no request is admitted or refused
differently. The guard is charged on every call, so a request is admitted or
refused alike whether or not its search is cached.

Only the reference hand H = 0..a-1 is searched, once per (params, k), and
for k >= 3 by one search per orbit of pool lines rather than one over the
whole pool. The stabiliser of H, Sym(H) x Sym(deck - H), maps good
announcements through H onto good announcements through H, and it is
transitive on the pool lines sharing i cards with H, for each i from
max(0, 2a - v) to a - c - 1 (a line takes a - i of the v - a other cards).
Orbit i's representative R_i is the first i cards of H and the first a - i
other cards. One search lists S_i, the good announcements holding H and R_i.
For each line L of orbit i, the permutation g_L sends H to itself and R_i to
L, each in order: the first i cards to L's cards in H, the rest of H to the
rest of H, a..2a-i-1 to L's other cards, the other cards to the other cards.
So g_L maps S_i onto the good announcements holding H and L. Each good
announcement A through H has a least line L besides H, and g_L(B) = A for
exactly one B in S_i. The least-line rule therefore lists each announcement
once: g_L(B) is kept exactly when L is its least line besides H, and the
kept ones are sorted into canonical order. Each L maps only the ranks S_i
uses, and over all L the rule tests k - 1 images of each announcement kept.
k = 2 takes the direct search.

Any other hand h gets the reference list relabelled by the permutation that
sends 0..a-1 to h in order and the remaining cards to the remaining cards in
order. A permutation of the deck maps a-sets, b-sets and c-sets onto
themselves and preserves every intersection, so it maps the announcements
containing 0..a-1 that satisfy CA1-CA3 one-to-one onto those containing h.
The reference list keeps the search's rank tuples as they are, so a
relabelling is a permutation of ranks. Lex order on lines is rank order, and
all the announcements have k lines, so sorting each one's relabelled ranks,
then the list, gives the canonical order the direct search of h yields; that
search stays as the test oracle. The lines mapped back from sorted ranks are
canonical by construction and are not checked again. A call finds the image
of each of the C(v, a) lines once, no more steps than the pool filter it is
charged for.

A relabelling also maps each card's line count to its image, so it carries
the triple point (the card in strictly more lines than any other). The
reference list stores each announcement's point beside its ranks, counted
once per member of each S_i and carried by g_L, and
``enumerate_good_announcements`` builds each relabelled announcement with
the image of its point, the one form in which this module hands out
announcements. ``triple_point`` reads that point without counting, so the
protocol tables split a hand's announcements by it without counting a card.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .axioms import _clash
from .guard import comb_within, require_work
from .model import Announcement, CardSet, Parameters, build_masks, card_set, from_mask, to_mask


def enumerate_good_announcements(
    params: Parameters,
    hand: Iterable[int],
    k: int,
    *,
    max_work: int | None = None,
) -> list[Announcement]:
    """All k-line announcements containing ``hand`` that satisfy CA1-CA3.

    Canonically ordered and duplicate-free: the reference hand's list
    relabelled onto ``hand``, each announcement carrying its triple point.
    Refuses instances whose search (see the module docstring) would exceed
    the work limit, whether or not that search is cached.
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
    lines, rank = _ranked_lines(v, a)
    image = (*hand, *(card for card in range(v) if card not in hand))
    # combinations(bits, a) yields the mask of each line's image in rank
    # order, so perm[r] is the rank of line r's image.
    bits = [1 << card for card in image]
    perm = list(map(rank.__getitem__, map(sum, combinations(bits, a))))
    # The ranks of distinct announcements differ, so the sort never compares two points.
    relabelled = sorted(
        (tuple(sorted([perm[r] for r in ranks])), None if point is None else image[point])
        for ranks, point in _reference_lines(params, k)
    )
    return [Announcement._trusted(tuple([lines[r] for r in ranks]), point) for ranks, point in relabelled]


@lru_cache(maxsize=None)
def _ranked_lines(v: int, a: int) -> tuple[tuple[CardSet, ...], dict[int, int]]:
    """The a-sets of 0..v-1 in lex order, and each one's rank in that order keyed by its mask."""
    lines = tuple(combinations(range(v), a))
    return lines, {to_mask(line): r for r, line in enumerate(lines)}


@lru_cache(maxsize=None)
def _reference_lines(params: Parameters, k: int) -> tuple[tuple[tuple[int, ...], int | None], ...]:
    """The line ranks and triple point of every good k-line announcement containing the hand 0..a-1.

    Canonically ordered: one search per orbit of pool lines, its results
    carried onto the orbit's other lines (see the module docstring).
    """
    a, v = params.a, params.v
    lines, rank = _ranked_lines(v, a)
    hand = tuple(range(a))
    if k <= 2:
        return tuple((ranks, _counted_point(lines, ranks)) for ranks in _good_containing(params, hand, k))
    found = []
    for i in range(max(0, 2 * a - v), a - params.c):
        rep = (*range(i), *range(a, 2 * a - i))
        held = _good_containing(params, hand, k, rep)
        if not held:
            continue
        points = [_counted_point(lines, ranks) for ranks in held]
        # Each announcement's other lines, and their span: one bit per rank they use.
        fixed = {0, rank[to_mask(rep)]}
        rests = [[r for r in ranks if r not in fixed] for ranks in held]
        used = set().union(*rests)
        bit = {r: 1 << j for j, r in enumerate(used)}
        spans = [sum(map(bit.__getitem__, rest)) for rest in rests]
        for shared in combinations(hand, i):
            for new in combinations(range(a, v), a - i):
                # g sends the hand to itself and rep to shared + new, both in order.
                image = (*shared, *(h for h in hand if h not in shared), *new, *(y for y in range(a, v) if y not in new))
                bits = [1 << card for card in image]
                least = rank[to_mask((*shared, *new))]
                mapped = {u: rank[sum(map(bits.__getitem__, lines[u]))] for u in used}
                below = sum(bit[u] for u, r in mapped.items() if r < least)
                for rest, span, point in zip(rests, spans, points):
                    if not span & below:  # shared + new is the image's least line besides the hand
                        ranks = tuple(sorted([0, least, *map(mapped.__getitem__, rest)]))
                        found.append((ranks, None if point is None else image[point]))
    found.sort()
    return tuple(found)


def _counted_point(lines: tuple[CardSet, ...], ranks: tuple[int, ...]) -> int | None:
    """The triple point of the lines of rank ``ranks``, counted."""
    return Announcement._trusted(tuple([lines[r] for r in ranks])).triple_point


def _good_containing(
    params: Parameters, hand: CardSet, k: int, second: CardSet | None = None
) -> tuple[tuple[int, ...], ...]:
    """The line ranks of every good k-line announcement containing ``hand``, and ``second`` if given, in canonical order.

    Without ``second``, the direct search. With it, a line not clashing with
    the hand and k >= 3, the search of that line's orbit.
    """
    a, v, b = params.a, params.v, params.b
    if k == 1:
        return ()  # no one-line announcement is good (see the module docstring)
    lines, rank = _ranked_lines(v, a)
    fixed = [to_mask(line) for line in (hand, second) if line is not None]
    omega = (1 << v) - 1
    c_set_masks = [(xm, omega & ~xm) for xm in map(to_mask, combinations(range(v), params.c))]
    free = [m for m in rank if m not in fixed]
    for f in fixed:
        free = [m for m in free if not _clash(m, f, v, b)]
    pool_lines = [lines[rank[m]] for m in free]
    pool, holding = build_masks(pool_lines, v)  # holding[y]: bit j set iff pool line j holds card y
    rows: dict[int, int] = {}

    def compatible_after(i: int) -> int:
        """Bit j set iff pool line j comes after line i and does not clash with it; built on first use."""
        if i not in rows:
            m = pool[i]
            bits = "".join("0" if _clash(m, pool[j], v, b) else "1" for j in range(len(pool) - 1, i, -1))
            rows[i] = int(bits or "0", 2) << (i + 1)
        return rows[i]

    def last_lines(candidates: int, chosen: list[int]) -> list[tuple[int, ...]]:
        """The line ranks of the good announcements made of ``chosen`` and one line from ``candidates``.

        CA2-CA3 fail a c-set X on ``chosen`` when X's avoiding lines share a
        card or miss an outside card. A last line holding a card of X leaves
        that as it is; one avoiding X must miss the shared cards and hold the
        missed ones. A passing X passes whatever the last line is.
        """
        if not candidates:
            return []
        avoid = hold = 0
        for xm, rest in c_set_masks:
            common, union = rest, 0
            for m in chosen:
                if not m & xm:
                    common &= m
                    union |= m
            if common or union != rest:
                avoid |= xm | common
                hold |= rest & ~union
                if hold & avoid or hold.bit_count() > a:  # no line can do both
                    return []
        for y in from_mask(avoid):
            candidates &= ~holding[y]
        for y in from_mask(hold):
            candidates &= holding[y]
        ranks = [rank[m] for m in chosen]
        return [tuple(sorted([*ranks, rank[pool[i]]])) for i in from_mask(candidates)]

    def extend(candidates: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        """The good announcements that extend ``chosen`` by lines from ``candidates``, two or more of them."""
        need = k - len(chosen)
        # Picks run in ascending order and a clique grows only by later lines, so
        # the last need - 1 candidates cannot start a branch.
        starts = from_mask(candidates)
        for i in starts[: len(starts) - need + 1]:
            later, grown = candidates & compatible_after(i), [*chosen, pool[i]]
            yield from extend(later, grown) if need > 2 else last_lines(later, grown)

    whole_pool = (1 << len(pool)) - 1
    return tuple(extend(whole_pool, fixed) if k > len(fixed) + 1 else last_lines(whole_pool, fixed))


def triple_point(ann: Announcement) -> int | None:
    """The card occurring in strictly more lines than every other card, if any: ``ann.triple_point``."""
    return ann.triple_point


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
        top = ann.triple_point
        if top is None:
            raise ValueError(f"announcement {ann.lines} has no unique most-frequent card")
        (inside if top in hand else outside).append(ann)
    return inside, outside
