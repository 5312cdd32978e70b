"""Exhaustive generation and classification of good announcements.

The generator lists every k-line superset of a fixed hand whose lines
pairwise pass the axiom kernel's CA1 clash rule (no b-set avoids two of
them): the hand plus a (k-1)-clique of the compatibility graph on the pool
of lines that do not clash with the hand, or, given a second fixed line, the
two plus a (k-2)-clique of the pool clashing with neither. The search
intersects candidate sets with each chosen line's bitset of compatible later
lines, built the first time a branch needs a line after it, so a search that
picks only its last line tests no pair of pool lines. The last line is
picked without testing each leaf: for each c-set the first k - 1 lines fail
under CA2-CA3, it must avoid the c-set and the cards its avoiding lines
share, and hold the outside cards they miss. With one bitset per card
over the pool these are ANDs on the candidate set, which leave exactly the
good completions, in pool order. This filter is the library's only
line-major reading of CA2-CA3: the chosen lines change at every node, so it
reads them one by one rather than through per-card masks. The pool's masks
come from ``model.build_masks``, and ``model.from_mask``, the one set-bit
walk, reads pool indices off the candidate bitsets, one step per candidate:
a branch's start lines, and the good last lines. The search returns each
good announcement as the sorted ranks of its lines in the lex order of the
a-sets, and builds none. Through the hand alone, it is the test oracle of
the orbit split below.

Good announcements have a line count in ``_spectrum``; any other k is
answered with no search. Lines clash iff they share a - c or more cards, so
each (a - c)-set lies in at most one line: k <= C(v, a - c) / C(a, a - c),
and k <= 1 once c >= a. A c-set X's avoiding lines lie in its v - c outside
cards, each missing b and holding a; CA2 needs each card missed by one and
CA3 held by one, so X has m = ceil((v - c) / min(a, b)) >= 2 of them. Each
line avoids C(b + c, c) < C(v, c) c-sets, so counting (line, X) pairs gives
k·C(b + c, c) >= m·C(v, c), and k >= 3. The range is empty where c = a - 1.

The work guard charges the search, not the raw candidate space. The pool
holds the n = sum over i < a - c of C(a, i)·C(b + c, a - i) lines sharing i
cards with the hand, known before any work. A search makes C(v, a) - 1 clash
tests to filter the pool, at most C(n, 2) to build rows (only when k >= 3)
and is charged C(n, k - 1) for the leaves. It visits no leaf, so the charge
over-counts its work; the guard admits and refuses what a leaf-by-leaf
search would. The orbit split below does less work than the direct search it
is charged for, and a k outside the spectrum none, so the charge over-counts
by more; it is kept so that no request is admitted or refused differently.
The guard is charged on every call, so a request is admitted or refused
alike whether or not its search is cached.

Only the reference hand H = 0..a-1 is searched, once per (params, k) in the
spectrum, by one search per orbit of pool lines rather than one over the whole
pool. The stabiliser of H, Sym(H) x Sym(deck - H), maps good announcements
through H onto good announcements through H, and it is transitive on the
pool lines sharing i cards with H, for each i from max(0, 2a - v) to
a - c - 1 (a line takes a - i of the v - a other cards). Orbit i's
representative R_i is the first i cards of H and the first a - i other
cards. One search lists S_i, the good announcements holding H and R_i. For
each line L of orbit i, the permutation g_L sends H to itself and R_i to L,
each in order: the first i cards to L's cards in H, the rest of H to the
rest of H, a..2a-i-1 to L's other cards, the other cards to the other cards.
So g_L maps S_i onto the good announcements holding H and L. Each good
announcement A through H has a least line L besides H, and g_L(B) = A for
exactly one B in S_i. The least-line rule therefore lists each announcement
once: g_L(B) is kept exactly when L is its least line besides H, and the
kept ones are sorted into canonical order. Over all L the rule tests k - 1
images of each announcement kept.

Any other hand h gets the reference list relabelled by the permutation that
sends 0..a-1 to h in order and the remaining cards to the remaining cards in
order. A permutation of the deck maps a-sets, b-sets and c-sets onto
themselves and preserves every intersection, so it maps the announcements
containing 0..a-1 that satisfy CA1-CA3 one-to-one onto those containing h.
The reference list keeps the search's rank tuples, so a relabelling, like
each g_L above, maps ranks and points through one rank map of the C(v, a)
lines, as many steps as the charged pool filter. Lex order on lines is rank
order, and all the announcements have k lines, so sorting each one's
relabelled ranks, then the list, gives the canonical order the direct search
of h yields. The lines mapped back from sorted ranks are canonical by
construction and are not checked again.

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
from .guard import comb_within, require_work, resolve_max_work
from .model import Announcement, CardSet, Parameters, build_masks, card_set, from_mask, to_mask

Entry = tuple[tuple[int, ...], int | None]  # an announcement's line ranks and its triple point


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
    hand = card_set(hand, params.v, params.a)
    if type(k) is not int or k < 1:
        raise ValueError(f"line count must be a positive integer, got {k!r}")
    a, v, what, limit = params.a, params.v, "announcement enumeration", resolve_max_work(max_work)
    filter_tests = comb_within(v, a, limit, what) - 1
    n = sum(comb(a, i) * comb(v - a, a - i) for i in _shared_counts(params))
    work = filter_tests + (comb(n, 2) if k >= 3 else 0) + comb_within(n, k - 1, limit, what)
    require_work(work, limit, what)
    if not (reference := _reference_lines(params, k)):
        return []
    lines = _ranked_lines(v, a)[0]
    image = (*hand, *(card for card in range(v) if card not in hand))
    # The ranks of distinct announcements differ, so the sort never compares two points.
    relabelled = sorted(_carried(reference, _rank_map(image, a), image))
    return [Announcement._trusted(tuple([lines[r] for r in ranks]), point) for ranks, point in relabelled]


def _shared_counts(params: Parameters) -> range:
    """The i for which some pool line shares i cards with the hand: i < a - c, and a - i <= v - a."""
    return range(max(0, 2 * params.a - params.v), params.a - params.c)


def _spectrum(params: Parameters) -> range:
    """The line counts a good announcement can have: the count bound to the packing bound (module docstring)."""
    a, b, c, v = params.a, params.b, params.c, params.v
    pairs = -(-(v - c) // min(a, b)) * comb(v, c)  # (line, avoided c-set) pairs needed
    return range(-(-pairs // comb(b + c, c)), comb(v, a - c) // comb(a, a - c) + 1 if c < a else 2)


def _rank_map(image: Sequence[int], a: int) -> list[int]:
    """perm[r] is the rank of line r's image under y -> image[y]: the a-subsets of bits sum to its mask, in order r."""
    bits = [1 << card for card in image]
    return list(map(_ranked_lines(len(image), a)[1].__getitem__, map(sum, combinations(bits, a))))


def _carried(entries: Iterable[Entry], perm: list[int], image: Sequence[int]) -> list[Entry]:
    """The entries' images under the card map ``image`` with rank map ``perm``: sorted ranks, mapped point."""
    return [(tuple(sorted([perm[r] for r in ranks])), None if p is None else image[p]) for ranks, p in entries]


@lru_cache(maxsize=None)
def _ranked_lines(v: int, a: int) -> tuple[tuple[CardSet, ...], dict[int, int]]:
    """The a-sets of 0..v-1 in lex order, and each one's rank in that order keyed by its mask."""
    lines = tuple(combinations(range(v), a))
    return lines, {to_mask(line): r for r, line in enumerate(lines)}


@lru_cache(maxsize=None)
def _reference_lines(params: Parameters, k: int) -> tuple[Entry, ...]:
    """The line ranks and triple point of every good k-line announcement containing the hand 0..a-1.

    Canonically ordered: none for k outside ``_spectrum``, by proof, else one search per orbit carried onto its lines.
    """
    if k not in _spectrum(params):
        return ()
    a, v = params.a, params.v
    lines, rank = _ranked_lines(v, a)
    hand = tuple(range(a))
    found = []
    for i in _shared_counts(params):
        rep = (*range(i), *range(a, 2 * a - i))
        rep_rank = rank[to_mask(rep)]
        held = _good_containing(params, hand, k, rep)
        if not held:
            continue
        entries = [(ranks, Announcement._trusted(tuple(map(lines.__getitem__, ranks))).triple_point) for ranks in held]
        # The span of each announcement's lines besides the hand (rank 0) and rep: one bit per rank.
        spans = [sum(1 << r for r in ranks) & ~(1 | 1 << rep_rank) for ranks in held]
        for shared in combinations(hand, i):
            for new in combinations(range(a, v), a - i):
                # g sends the hand to itself and rep to shared + new, both in order.
                image = (*shared, *(h for h in hand if h not in shared), *new, *(y for y in range(a, v) if y not in new))
                perm = _rank_map(image, a)
                least = perm[rep_rank]
                below = sum(1 << u for u, r in enumerate(perm) if r < least)
                # Kept where shared + new is the image's least line besides the hand; most lines keep none.
                if kept := [e for e, span in zip(entries, spans) if not span & below]:
                    found += _carried(kept, perm, image)
    return tuple(sorted(found))


def _good_containing(
    params: Parameters, hand: CardSet, k: int, second: CardSet | None = None
) -> tuple[tuple[int, ...], ...]:
    """The line ranks of every good k-line announcement containing ``hand``, and ``second`` if given, in canonical order.

    Without ``second``, the direct search, run only as the tests' oracle. With
    it, a line not clashing with the hand and k >= 3, the search of its orbit.
    """
    a, v, b = params.a, params.v, params.b
    if k == 1:
        return ()  # no one-line announcement is good: k >= 3 (module docstring)
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
