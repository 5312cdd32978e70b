from collections import Counter
from itertools import combinations
from math import comb

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
from cardeal.axioms import _clash
from cardeal.enumeration import _good_containing

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
    # axiom check must not re-read the environment and refuse on its own.
    _good_containing.cache_clear()
    monkeypatch.setenv("CARDEAL_MAX_WORK", "40")
    assert len(enumerate_good_announcements(p331, (0, 1, 2), 5, max_work=10**6)) == 60
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(p331, (0, 1, 2), 5)


def test_enumeration_guard_charges_the_pool(monkeypatch):
    # (4,3,1): 69 filter tests, C(53,2) row tests and C(53,6) leaves for the
    # 53-line pool, about 2.3e7 steps, where C(C(8,4),7) is 1.2e9. (4,4,1)'s
    # 105-line pool needs C(105,6), about 1.6e9, and stays refused.
    monkeypatch.delenv("CARDEAL_MAX_WORK", raising=False)
    assert len(enumerate_good_announcements(Parameters(4, 3, 1), (0, 1, 2, 3), 7)) == 8064
    with pytest.raises(WorkLimitExceeded):
        enumerate_good_announcements(Parameters(4, 4, 1), (0, 1, 2, 3), 7)


@pytest.mark.parametrize("hand", [(0, 1, 2, 3), (0, 1, 4, 5), (4, 5, 6, 7)])
def test_no_good_five_line_announcement_at_431(hand):
    assert enumerate_good_announcements(Parameters(4, 3, 1), hand, 5) == []


def test_pool_pairs_are_tested_only_for_lines_the_search_extends(monkeypatch):
    # (6,5,1): 923 lines besides the hand. One- and two-line announcements
    # need no compatibility row, so they cost only the pool filter's 923
    # clash tests; three lines cost at most one test per pool pair on top.
    calls = 0

    def counting_clash(*args):
        nonlocal calls
        calls += 1
        return _clash(*args)

    monkeypatch.setattr("cardeal.enumeration._clash", counting_clash)
    params, hand = Parameters(6, 5, 1), tuple(range(6))
    lines = comb(12, 6)
    for k, limit in [(1, lines - 1), (2, lines - 1), (3, lines - 1 + comb(lines - 1, 2))]:
        _good_containing.cache_clear()
        calls = 0
        enumerate_good_announcements(params, hand, k, max_work=comb(lines, k))
        assert calls <= limit, (k, calls)
    _good_containing.cache_clear()


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
