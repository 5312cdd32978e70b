from collections import Counter
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

import pytest

from cardeal import (
    Announcement,
    Parameters,
    WorkLimitExceeded,
    classify_by_triple,
    enumerate_good_announcements,
    is_good,
    parse_announcement,
    triple_point,
)
from cardeal import guard
from cardeal.axioms import _clash
from cardeal.enumeration import _good_containing, _ranked_lines, _reference_lines, _spectrum
from cardeal.model import CardSet, from_mask, to_mask

# The twelve five-line announcements containing 012 whose most frequent card
# is 0, and the six containing 135 with most frequent card 0.
TWELVE_FOR_012_POINT_0 = """
012 034 056 135 246    012 034 056 136 245
012 034 056 145 236    012 034 056 146 235
012 035 046 134 256    012 035 046 136 245
012 035 046 145 236    012 035 046 156 234
012 036 045 134 256    012 036 045 135 246
012 036 045 146 235    012 036 045 156 234
"""

SIX_FOR_135_POINT_0 = """
012 034 056 135 246    012 036 045 135 246
014 023 056 135 246    014 025 036 135 246
016 023 045 135 246    016 025 034 135 246
"""


def _parse_block(block: str, params) -> list[Announcement]:
    anns = []
    for row in block.strip().splitlines():
        parts = row.split()
        assert len(parts) % 5 == 0
        for i in range(0, len(parts), 5):
            anns.append(parse_announcement(" ".join(parts[i : i + 5]), params))
    return sorted(anns, key=lambda ann: ann.lines)


def test_sixty_for_hand_012(p331, five_hand):
    anns = enumerate_good_announcements(p331, (0, 1, 2), 5)
    assert len(anns) == 60
    assert five_hand in anns
    assert anns == sorted(anns, key=lambda ann: ann.lines)
    assert all((0, 1, 2) in ann.lines for ann in anns)
    assert all(is_good(ann, p331) for ann in anns)


def test_single_line_announcements_are_never_good(p331):
    assert enumerate_good_announcements(p331, (0, 1, 2), 1) == []


def test_card_count_shape_of_good_five_liners(p331):
    for ann in enumerate_good_announcements(p331, (0, 1, 2), 5):
        counts = Counter(card for line in ann.lines for card in line)
        assert sorted(counts.values(), reverse=True) == [3, 2, 2, 2, 2, 2, 2]


def test_triple_point_examples(five_hand, seven_hand):
    assert triple_point(five_hand) == 0
    assert triple_point(seven_hand) is None
    assert triple_point(Announcement.of([(0, 1, 2)])) is None


def _counter_triple_point(ann):
    """Oracle: the two most common cards by ``Counter``; the first is the point if it is strictly ahead."""
    ranked = Counter(card for line in ann.lines for card in line).most_common(2)
    if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
        return ranked[0][0]
    return None


def test_triple_point_matches_the_counter_oracle(p331, seven_hand):
    anns = [
        ann
        for k in range(1, 8)
        for hand in combinations(range(7), 3)
        for ann in enumerate_good_announcements(p331, hand, k)
    ]
    assert len(anns) == 3570
    by_rank = _ranked_lines(8, 4)[0]  # the reference list keeps each line by its rank
    reference = _reference_lines(Parameters(4, 3, 1), 7)
    anns += [Announcement(tuple(by_rank[r] for r in ranks)) for ranks, _ in reference]
    # Ties: every card thrice (the Fano plane), a single line, every card once, two cards ahead.
    ties = ([(0, 1, 2)], [(0, 1, 2), (3, 4, 5)], [(0, 1, 2), (0, 1, 3)])
    anns += [seven_hand, *(Announcement.of(lines) for lines in ties)]
    for ann in anns:
        assert triple_point(ann) == _counter_triple_point(ann), ann.lines


def test_classification_for_hand_012(p331, five_hand):
    anns = enumerate_good_announcements(p331, (0, 1, 2), 5)
    inside, outside = classify_by_triple(anns, (0, 1, 2))
    assert (len(inside), len(outside)) == (36, 24)
    # the closed-form counting arguments behind the two class sizes
    assert len(inside) == 3 * 3 * 2 * 2
    assert len(outside) == 4 * 3 * 2
    assert classify_by_triple([five_hand], (0, 1, 2)) == ([five_hand], [])
    assert classify_by_triple([five_hand], (1, 3, 5)) == ([], [five_hand])


def test_classification_rejects_missing_hand_or_triple(p331, five_hand, seven_hand):
    with pytest.raises(ValueError):
        classify_by_triple([five_hand], (0, 1, 3))
    with pytest.raises(ValueError):
        classify_by_triple([seven_hand], (0, 1, 2))


def _with_point(params, hand, p):
    """The five-line good announcements containing ``hand`` whose triple point is p."""
    return [ann for ann in enumerate_good_announcements(params, hand, 5) if triple_point(ann) == p]


def test_special_point_golden_lists(p331):
    twelve = _with_point(p331, (0, 1, 2), 0)
    assert twelve == _parse_block(TWELVE_FOR_012_POINT_0, p331)
    six = _with_point(p331, (1, 3, 5), 0)
    assert six == _parse_block(SIX_FOR_135_POINT_0, p331)
    assert len(_with_point(p331, (1, 3, 5), 1)) == 12


def test_special_point_counts_depend_only_on_membership(p331):
    hand = (0, 2, 5)
    for p in range(7):
        expected = 12 if p in hand else 6
        assert len(_with_point(p331, hand, p)) == expected


def test_enumeration_guard(p331):
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(p331, (0, 1, 2), 5, max_work=100)


def test_enumeration_leaves_obey_the_callers_limit(p331, monkeypatch):
    # The limit is charged once, for the whole candidate space; a per-leaf
    # axiom check must not fall back to the default limit and refuse on its own.
    _reference_lines.cache_clear()
    monkeypatch.setattr(guard, "DEFAULT_MAX_WORK", 40)
    assert len(enumerate_good_announcements(p331, (0, 1, 2), 5, max_work=10**6)) == 60
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(p331, (0, 1, 2), 5)


def test_enumeration_guard_charges_the_pool():
    # (4,3,1): 69 filter tests, C(53,2) row tests and C(53,6) leaves for the
    # 53-line pool, about 2.3e7 steps, where C(C(8,4),7) is 1.2e9. (4,4,1)'s
    # 105-line pool needs C(105,6), about 1.6e9, and stays refused.
    assert len(enumerate_good_announcements(Parameters(4, 3, 1), (0, 1, 2, 3), 7)) == 8064
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(Parameters(4, 4, 1), (0, 1, 2, 3), 7)


@pytest.mark.parametrize("hand", [(0, 1, 2, 3), (0, 1, 4, 5), (4, 5, 6, 7)])
def test_no_good_five_line_announcement_at_431(hand):
    assert enumerate_good_announcements(Parameters(4, 3, 1), hand, 5) == []


def test_pool_pairs_are_tested_only_for_lines_the_search_extends(monkeypatch):
    # (6,5,1): 923 lines besides the hand. A search that picks only its last
    # line needs no compatibility row, so it costs only the pool filter's
    # clash tests: none for one line, 923 for the direct search of two, and
    # 923 against each fixed line for an orbit search of three.
    calls = 0

    def counting_clash(*args):
        nonlocal calls
        calls += 1
        return _clash(*args)

    monkeypatch.setattr("cardeal.enumeration._clash", counting_clash)
    params, hand = Parameters(6, 5, 1), tuple(range(6))
    lines = comb(12, 6)
    for k, second, limit in [(1, None, 0), (2, None, lines - 1), (3, (0, 6, 7, 8, 9, 10), 2 * (lines - 1))]:
        calls = 0
        assert _good_containing(params, hand, k, second) == ()
        assert calls <= limit, (k, calls)


def _searched(params: Parameters, hand: CardSet, k: int) -> list[Announcement]:
    """The direct search's announcements, their lines read off its rank tuples and re-checked by the constructor."""
    by_rank = _ranked_lines(params.v, params.a)[0]
    return [Announcement(tuple(by_rank[r] for r in ranks)) for ranks in _good_containing(params, hand, k)]


RELABEL_GRID = [
    (Parameters(3, 3, 1), range(2, 8)),
    (Parameters(3, 2, 2), range(2, 5)),
    (Parameters(2, 3, 2), range(2, 5)),
    (Parameters(4, 2, 1), range(2, 8)),
]


@pytest.mark.parametrize("params, ks", RELABEL_GRID)
def test_relabelled_lists_match_the_direct_search(params, ks):
    # The direct per-hand search is the oracle for relabelling the reference
    # hand's list; whole lists are compared, so the order is checked too.
    # (4,2,1) runs to k = 7, its first k with good announcements (6 per hand).
    for k in ks:
        for hand in combinations(range(params.v), params.a):
            assert enumerate_good_announcements(params, hand, k) == _searched(params, hand, k)


@pytest.mark.parametrize("hand", [(0, 1, 4, 5), (3, 5, 6, 7)])
def test_relabelled_lists_match_the_direct_search_at_431_k7(hand):
    params = Parameters(4, 3, 1)
    anns = enumerate_good_announcements(params, hand, 7)
    assert len(anns) == 8064
    assert anns == _searched(params, hand, 7)


def _c_set_masks(v: int, c: int) -> Iterator[tuple[CardSet, int, int]]:
    """Each c-set with its mask and the mask of the cards outside it."""
    omega = (1 << v) - 1
    for xs in combinations(range(v), c):
        xm = to_mask(xs)
        yield xs, xm, omega & ~xm


def _covers(masks: Sequence[int], c_set_masks: Iterable[tuple[CardSet, int, int]]) -> bool:
    """CA2 and CA3 on line masks: every c-set's avoiding lines share no card and cover the rest.

    Exits at the first failing c-set. The running intersection starts from
    the outside cards, which every avoiding line lies within; with no
    avoiding line it stays nonempty, but CA3 fails there anyway.
    """
    for _, xm, rest in c_set_masks:
        common, union = rest, 0
        for m in masks:
            if not m & xm:
                common &= m
                union |= m
        if common or union != rest:
            return False
    return True


def _leaf_checked_search(params, hand, k):
    """Oracle: the clique search that tests every k-line leaf with ``_covers``, canonically ordered."""
    v, b = params.v, params.b
    hand_mask = to_mask(hand)
    pool = [
        m for m in map(to_mask, combinations(range(v), params.a))
        if m != hand_mask and not _clash(m, hand_mask, v, b)
    ]
    rows = {}
    c_set_masks = tuple(_c_set_masks(v, params.c))

    def compatible_after(i):
        if i not in rows:
            bits = "".join("0" if _clash(pool[i], pool[j], v, b) else "1" for j in range(len(pool) - 1, i, -1))
            rows[i] = int(bits or "0", 2) << (i + 1)
        return rows[i]

    def extend(candidates, chosen):
        if len(chosen) == k:
            if _covers(chosen, c_set_masks):
                yield Announcement(tuple(sorted(map(from_mask, chosen))))
            return
        bits = bin(candidates)[:1:-1]
        i = -1
        for _ in range(bits.count("1")):
            i = bits.index("1", i + 1)
            yield from extend(candidates & compatible_after(i), [*chosen, pool[i]])

    return list(extend((1 << len(pool)) - 1, [hand_mask]))


LEAF_ORACLE_GRID = [
    *((params, ks, [tuple(range(params.a))]) for params, ks in RELABEL_GRID),
    (Parameters(3, 3, 1), range(1, 8), [(0, 1, 2)]),
    (Parameters(3, 4, 2), range(1, 10), [(0, 1, 2)]),
    (Parameters(4, 3, 1), range(1, 8), [(0, 1, 2, 3), (4, 5, 6, 7)]),
    (Parameters(4, 4, 1), range(1, 5), [(0, 1, 2, 3)]),
    (Parameters(5, 3, 1), range(1, 5), [(0, 1, 2, 3, 4)]),
]


@pytest.mark.parametrize("params, ks, hands", LEAF_ORACLE_GRID)
def test_last_line_filter_matches_the_leaf_checked_search(params, ks, hands):
    # The search picks its last line by bitset filter; the oracle tests every
    # leaf with _covers. Whole lists are compared, so the order is checked too.
    # Dropping the filter's avoid term (cards of X and the shared cards) or its
    # hold term (outside cards no line covers yet) lets bad announcements
    # through, and this test fails. The shared cards alone may be dropped: if
    # every line avoiding X holds y, the chosen lines fail X - x + y, whose
    # avoid term forbids y.
    for k in ks:
        for hand in hands:
            assert _searched(params, hand, k) == _leaf_checked_search(params, hand, k), (hand, k)


def test_no_one_line_announcement_is_good():
    # v - a = b + c >= c, so some c-set misses the hand; the hand is then its
    # only avoiding line and shares its cards, so CA2 fails. The search
    # returns no one-line announcement without testing one.
    for abc in [(3, 3, 1), (4, 3, 1), (3, 4, 2), (2, 1, 2)]:
        params = Parameters(*abc)
        hand = tuple(range(params.a))
        assert _good_containing(params, hand, 1) == (), abc
        assert is_good(Announcement((hand,)), params) is False, abc


# Every deal with a, b, c >= 1 on at most nine cards.
SMALL_DEALS = [Parameters(a, b, c) for a in range(1, 8) for b in range(1, 8) for c in range(1, 8) if a + b + c <= 9]


def test_no_announcement_of_one_or_two_lines_through_the_hand_is_good():
    # The count bound puts k >= 3 on every deal, so k <= 2 is answered
    # without a search; the guarded axiom check is the oracle here.
    for params in SMALL_DEALS:
        hand = tuple(range(params.a))
        assert is_good(Announcement((hand,)), params) is False, params
        for line in combinations(range(params.v), params.a):
            if line != hand:
                assert is_good(Announcement((hand, line)), params) is False, (params, line)


# The line-count range k_min..k_max of each deal in the tests, by the count and packing bounds.
SPECTRA = {
    (3, 3, 1): (4, 7),
    (4, 3, 1): (6, 14),
    (4, 2, 1): (7, 8),
    (3, 4, 1): (5, 9),
    (3, 5, 1): (5, 12),
    (4, 4, 2): (6, 7),
    (4, 5, 2): (8, 9),
    (4, 6, 2): (8, 11),
    (5, 4, 2): (11, 16),
    (5, 5, 2): (7, 22),
}
EMPTY_SPECTRA = [(5, 3, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 2, 1), (2, 3, 1), (2, 2, 1)]


def test_spectrum_is_the_count_bound_to_the_packing_bound():
    for abc, (low, high) in SPECTRA.items():
        assert _spectrum(Parameters(*abc)) == range(low, high + 1), abc
    for abc in EMPTY_SPECTRA:
        assert not _spectrum(Parameters(*abc)), abc


def test_spectrum_is_empty_wherever_c_is_a_minus_1():
    # At c = a - 1 lines sharing a card clash, so a good announcement's lines
    # are disjoint, and the c-set of a line's other a - 1 cards leaves its last
    # card in no avoiding line: CA3 fails. The count bound alone closes these.
    for a in range(2, 30):
        for b in range(1, 40):
            assert not _spectrum(Parameters(a, b, a - 1)), (a, b)


# Deals whose direct searches outside the range take well under a second in all;
# (3,5,1) and (4,5,2) take about 2 s and 1 s, (4,4,1) and (5,3,1) minutes.
DIRECT_ORACLE_DEALS = [
    Parameters(*abc)
    for abc in [(3, 3, 1), (4, 2, 1), (4, 3, 1), (3, 4, 1), (5, 2, 1), (4, 4, 2), (3, 4, 2), *EMPTY_SPECTRA]
]


@pytest.mark.parametrize("params", DIRECT_ORACLE_DEALS)
def test_direct_search_finds_nothing_outside_the_spectrum(params):
    hand, spectrum = tuple(range(params.a)), _spectrum(params)
    for k in range(1, min(comb(params.v, params.a), 16) + 1):
        if k not in spectrum:
            assert _good_containing(params, hand, k) == (), k


@pytest.mark.parametrize(
    "abc, k, count", [((3, 3, 1), 7, 6), ((4, 3, 1), 14, 6), ((4, 2, 1), 7, 6), ((3, 5, 1), 12, 120)]
)
def test_tight_ends_of_the_spectrum(abc, k, count):
    # k_max = 7 at (3,3,1) and 14 at (4,3,1) are the Fano plane and SQS(8)'s
    # Steiner systems; k_min = 7 at (4,2,1) and k_max = 12 at (3,5,1) are tight too.
    params = Parameters(*abc)
    _reference_lines.cache_clear()
    assert len(_reference_lines(params, k)) == count
    assert k in (_spectrum(params).start, _spectrum(params).stop - 1)


def test_line_counts_outside_the_spectrum_are_answered_without_a_search(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    # No search, and no rank map for the hand: an empty reference list relabels to nothing.
    monkeypatch.setattr("cardeal.enumeration._good_containing", refuse)
    monkeypatch.setattr("cardeal.enumeration._rank_map", refuse)
    _reference_lines.cache_clear()
    requests = [(params, k) for params in SMALL_DEALS for k in range(1, 17) if k not in _spectrum(params)]
    requests += [(Parameters(4, 6, 2), 6), (Parameters(5, 4, 2), 6)]
    requests += [(Parameters(5, 3, 2), k) for k in range(1, comb(10, 5) + 1)]
    assert {(Parameters(4, 3, 1), 5), (Parameters(4, 3, 1), 15), (Parameters(3, 3, 1), 3)} <= set(requests)
    for params, k in requests:
        # The charge is unchanged, so the work limit admits every request.
        assert enumerate_good_announcements(params, range(params.a), k, max_work=10**80) == [], (params, k)
    _reference_lines.cache_clear()


@pytest.mark.parametrize(
    "params, ks, orbits", [(Parameters(3, 3, 1), range(4, 8), 2), (Parameters(4, 3, 1), range(6, 8), 3)]
)
def test_production_searches_only_through_a_second_line(params, ks, orbits, monkeypatch):
    # One search per orbit of pool lines, each through the hand and the
    # orbit's representative; the direct search runs only in the tests.
    seconds = []

    def recording(deal, hand, k, second=None):
        seconds.append(second)
        return _good_containing(deal, hand, k, second)

    monkeypatch.setattr("cardeal.enumeration._good_containing", recording)
    for k in ks:
        _reference_lines.cache_clear()
        seconds.clear()
        enumerate_good_announcements(params, range(params.a), k)
        assert len(seconds) == orbits and None not in seconds, (k, seconds)
    _reference_lines.cache_clear()


@pytest.mark.parametrize("params, ks", RELABEL_GRID)
def test_relabelling_carries_the_triple_point(params, ks):
    # The relabelled point is the image of the reference point; it must be the
    # point counted afresh on the relabelled lines, which the public
    # constructor accepts (each list canonically ordered) and counts anew.
    for k in ks:
        for hand in combinations(range(params.v), params.a):
            listed = enumerate_good_announcements(params, hand, k)
            assert [ann.lines for ann in listed] == sorted(ann.lines for ann in listed)
            for ann in listed:
                assert ann.triple_point == triple_point(Announcement(ann.lines)), (hand, ann.lines)


@pytest.mark.parametrize("params, ks", RELABEL_GRID)
def test_enumerated_announcements_carry_their_triple_point(params, ks):
    # The point is set from the relabelled reference point, not counted.
    for k in ks:
        for hand in combinations(range(params.v), params.a):
            for ann in enumerate_good_announcements(params, hand, k):
                assert "triple_point" in vars(ann)
                assert ann.triple_point == _counter_triple_point(ann), (hand, ann.lines)


def test_warm_reference_search_does_not_bypass_the_guard(p331):
    _reference_lines.cache_clear()
    enumerate_good_announcements(p331, (0, 1, 2), 5)
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(p331, (1, 3, 5), 5, max_work=100)


def test_one_search_per_params_and_line_count(p331):
    _reference_lines.cache_clear()
    for hand in combinations(range(7), 3):
        assert len(enumerate_good_announcements(p331, hand, 5)) == 60
    assert _reference_lines.cache_info().currsize == 1


def test_canonical_lines_skip_the_constructor_check(p331, monkeypatch):
    # The search yields line ranks, and relabelled and parsed lines are
    # canonical by construction, so no path runs the checks, not even a cold
    # search; the public constructor still does.
    checked = []
    init = Announcement.__init__

    def counting(ann, lines):
        checked.append(lines)
        init(ann, lines)

    _reference_lines.cache_clear()
    monkeypatch.setattr(Announcement, "__init__", counting)
    assert len(enumerate_good_announcements(p331, (1, 3, 5), 5)) == 60
    parsed = parse_announcement("135 210 034 056 246", p331)
    assert parse_announcement("[[1, 3, 5], [0, 1, 2]]", p331).lines == ((0, 1, 2), (1, 3, 5))
    assert checked == []
    Announcement(parsed.lines)
    assert checked == [parsed.lines]

def test_callers_get_their_own_lists(p331):
    first = enumerate_good_announcements(p331, (1, 3, 5), 5)
    second = enumerate_good_announcements(p331, (1, 3, 5), 5)
    assert first == second and first is not second
    first.clear()
    assert enumerate_good_announcements(p331, (1, 3, 5), 5) == second


@pytest.mark.parametrize("k", [0, -1, True, False, 2.0, "5", None])
def test_line_count_must_be_a_positive_int(p331, k):
    with pytest.raises(ValueError, match="line count"):
        enumerate_good_announcements(p331, (0, 1, 2), k)


# The oracle visits C(others, k - 1) candidates per k; sizes above this many
# are skipped, which leaves k = 2..4 for the 69 other lines of the (4,3,1) deal.
BRUTE_FORCE_CANDIDATES = 10**5


@pytest.mark.parametrize(
    "params, hand",
    [
        (Parameters(3, 3, 1), (0, 1, 2)),
        (Parameters(3, 2, 2), (0, 1, 2)),
        (Parameters(4, 2, 1), (0, 1, 2, 3)),
        (Parameters(4, 3, 1), (0, 1, 2, 3)),
    ],
)
def test_enumeration_matches_brute_force(params, hand):
    # Test-only oracle: every k-superset of the hand through the public
    # constructor and guarded axiom check, no pruning.
    others = [line for line in combinations(range(params.v), params.a) if line != hand]
    for k in range(2, 6):
        if comb(len(others), k - 1) > BRUTE_FORCE_CANDIDATES:
            continue
        brute = []
        for rest in combinations(others, k - 1):
            ann = Announcement.of([hand, *rest])
            if is_good(ann, params):
                brute.append(ann)
        brute.sort(key=lambda ann: ann.lines)
        assert enumerate_good_announcements(params, hand, k) == brute


def test_ca_filtered_count_equals_structural_count(p331):
    # five-line collections of pairwise low-overlap lines containing the hand,
    # with the 3+2+2+2+2+2+2 occurrence shape, counted without any CA checks
    hand = (0, 1, 2)
    lines = list(combinations(range(7), 3))
    pool = [l for l in lines if l != hand]
    structural = 0
    for rest in combinations(pool, 4):
        chosen = (hand,) + rest
        if any(len(set(l1) & set(l2)) >= 2 for l1, l2 in combinations(chosen, 2)):
            continue
        counts = Counter(card for line in chosen for card in line)
        if sorted(counts.values(), reverse=True) == [3, 2, 2, 2, 2, 2, 2]:
            structural += 1
    assert structural == len(enumerate_good_announcements(p331, hand, 5)) == 60


SPLIT_GRID = [
    (Parameters(3, 3, 1), range(2, 8)),
    (Parameters(4, 3, 1), range(3, 8)),
    (Parameters(4, 2, 1), range(2, 8)),
    (Parameters(3, 2, 2), range(2, 7)),
    (Parameters(2, 3, 2), range(2, 7)),
    # Every c = 2 row above is empty by proof; these ranges run the orbit search.
    (Parameters(4, 4, 2), range(6, 8)),
    (Parameters(4, 5, 2), range(8, 10)),
]


@pytest.mark.parametrize("params, ks", SPLIT_GRID)
def test_orbit_split_matches_the_direct_search(params, ks):
    # The reference list is built from one search per orbit of pool lines; the
    # direct search through the hand alone is its oracle, order included.
    hand = tuple(range(params.a))
    lines = _ranked_lines(params.v, params.a)[0]
    for k in ks:
        _reference_lines.cache_clear()
        split = _reference_lines(params, k)
        assert [ranks for ranks, _ in split] == list(_good_containing(params, hand, k)), k
        for ranks, point in split:
            assert point == triple_point(Announcement(tuple(lines[r] for r in ranks))), (k, ranks)


def test_orbit_counts_satisfy_orbit_stabiliser_at_431_k7():
    # Sym(H) x Sym(deck - H) is transitive on the pool lines sharing i cards
    # with H = 0123; f_i counts the good announcements holding H and the
    # representative R_i. Each of the 8,064 announcements through H has six
    # other lines, so the orbits' sizes weight the f_i to 6 * 8064.
    params, hand, k = Parameters(4, 3, 1), (0, 1, 2, 3), 7
    reps = [(4, 5, 6, 7), (0, 4, 5, 6), (0, 1, 4, 5)]
    f = [len(_good_containing(params, hand, k, rep)) for rep in reps]
    assert f == [288, 810, 976]
    through = sum(comb(4, i) * comb(4, 4 - i) * f_i for i, f_i in enumerate(f))
    assert divmod(through, k - 1) == (8064, 0)


@pytest.mark.parametrize("abc", [(4, 6, 2), (5, 4, 2)])
def test_no_good_six_line_announcement_at_c2(abc):
    # Six lines are below the count bound at both deals, so no search runs;
    # the charge still sizes the direct search, so the limit is raised.
    params = Parameters(*abc)
    assert enumerate_good_announcements(params, range(params.a), 6, max_work=10**11) == []


def test_eleven_line_announcements_at_542():
    # The labelled 11-point biplanes through a 5-set: every two lines share
    # two cards, so all are found through the orbit of lines sharing two.
    params = Parameters(5, 4, 2)
    _reference_lines.cache_clear()
    reference = _reference_lines(params, 11)
    _reference_lines.cache_clear()
    assert len(reference) == 1440
    lines = _ranked_lines(params.v, params.a)[0]
    for ranks, point in reference[::97]:
        ann = Announcement(tuple(lines[r] for r in ranks))
        # Each card of a biplane lies in five of its lines, so none is a triple point.
        assert ranks[0] == 0 and is_good(ann, params) and point is ann.triple_point is None


@pytest.mark.parametrize(
    "abc, k, n",
    [
        ((4, 4, 1), 7, comb(4, 0) * comb(5, 4) + comb(4, 1) * comb(5, 3) + comb(4, 2) * comb(5, 2)),
        ((4, 6, 2), 6, comb(4, 0) * comb(8, 4) + comb(4, 1) * comb(8, 3)),
    ],
)
def test_split_keeps_the_direct_searchs_charge(abc, k, n):
    # The charge still sizes the direct search over the n-line pool, so the
    # split is refused where the direct search was: about 1.6e9 and 1.8e10
    # steps, above the default 1e8, before any search is cached.
    params = Parameters(*abc)
    charge = comb(params.v, params.a) - 1 + comb(n, 2) + comb(n, k - 1)
    _reference_lines.cache_clear()
    with pytest.raises(WorkLimitExceeded, match=f"needs about {charge} steps"):
        enumerate_good_announcements(params, range(params.a), k)
    assert _reference_lines.cache_info().currsize == 0


@pytest.mark.parametrize("k, charge", [(2, 56), (3, 496)])
def test_small_k_charge_is_exact(k, charge, p331):
    # Hand 012 at (3,3,1): 34 filter tests, C(22, 2) = 231 pair tests from
    # k = 3 on, and C(22, k - 1) leaves over the 22-line pool: 34 + 22 at
    # k = 2, 34 + 231 + 231 at k = 3.
    with pytest.raises(WorkLimitExceeded, match=f"needs about {charge} steps"):
        enumerate_good_announcements(p331, (0, 1, 2), k, max_work=charge - 1)
    assert enumerate_good_announcements(p331, (0, 1, 2), k, max_work=charge) == []
