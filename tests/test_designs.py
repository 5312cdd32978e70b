import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardeal import (
    Announcement,
    Parameters,
    WorkLimitExceeded,
    binary_design,
    check_axioms,
    covalency,
    covalency_over,
    design_profile,
    lines_avoiding,
    parse_announcement,
)
from cardeal.designs import profile_json


def test_covalency_examples(five_hand, seven_hand, binary3):
    assert covalency(seven_hand, 7, 2) == 1
    assert covalency(five_hand, 7, 1) is None
    assert covalency(binary3, 8, 3) == 1


def test_covalency_counts_blocks_at_zero(seven_hand):
    assert covalency(seven_hand, 7, 0) == 7


def test_covalency_scans_are_guarded(five_hand, seven_hand):
    # Each scanned tuple size t is charged C(v, t) * t before it starts: t
    # ANDs of per-point masks per t-subset.
    estimate = comb(7, 2) * 2
    scans = [
        lambda limit: covalency(seven_hand, 7, 2, max_work=limit),
        lambda limit: covalency_over(seven_hand.lines, range(7), 2, max_work=limit),
    ]
    for scan in scans:
        with pytest.raises(WorkLimitExceeded):
            scan(estimate - 1)
    assert [scan(estimate) for scan in scans] == [1, 1]
    # The profile stops at the first uneven t and is never charged beyond it:
    # t = 3 for the seven lines, t = 1 for the five.
    for ann, estimate, expected in [(seven_hand, comb(7, 3) * 3, 2), (five_hand, comb(7, 1) * 1, 0)]:
        with pytest.raises(WorkLimitExceeded):
            design_profile(ann, 7, max_work=estimate - 1)
        assert design_profile(ann, 7, max_work=estimate).strength == expected


def test_covalency_rejects_oversized_tuples(five_hand):
    with pytest.raises(ValueError):
        covalency(five_hand, 7, 4)


@pytest.mark.parametrize(
    "lines, t",
    [
        ([(0, 1, -2)], 1),  # negative card
        ([(0, 1, 2.0)], 1),  # non-int card
        ([(0, 1, 1)], 1),  # repeated card in a line
        ([(0, 1, 2), (3, 4)], 1),  # lines of unequal size
        ([(0, 1, 2), (0, 1, 7)], 1),  # card above the largest point
        ([(0, 1, 2)], -1),
        ([(0, 1, 2)], 4),
        ([()], 0),  # a line with no cards
    ],
)
def test_covalency_gate_refuses_bad_input(lines, t):
    with pytest.raises(ValueError):
        covalency_over(lines, range(7), t)
    with pytest.raises(ValueError):
        covalency(lines, 7, t)


def test_covalency_gate_refuses_bad_points():
    with pytest.raises(ValueError):
        covalency_over([(0, 1, 2)], [0, 1, 1, 2], 1)
    with pytest.raises(ValueError):
        covalency_over([(0, 1, 2)], [-1, 0, 1, 2], 1)


@pytest.mark.parametrize(
    "lines, card",
    [
        ([(0, 1), (1, 2)], 1),  # between two points: in range, yet no point counts it
        ([(0, 5)], 5),  # above the largest point
    ],
)
def test_covalency_gate_refuses_line_cards_that_are_not_points(lines, card):
    with pytest.raises(ValueError, match=f"card {card} "):
        covalency_over(lines, [0, 2], 1)


def test_covalency_gate_refuses_absurd_cards_before_building_masks():
    # a line card of 10**8 would otherwise make a 12 MB mask
    with pytest.raises(ValueError, match="out of range"):
        covalency_over([(0, 1), (1, 2), (0, 10**8)], range(3), 1)


def test_sparse_points_get_one_mask_each():
    # Masks are indexed by a point's position: sized by the largest label,
    # these two points took 15.4 MiB.
    tracemalloc.start()
    try:
        assert covalency_over([(0, 10**6)], [0, 10**6], 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_empty_residual_is_vacuously_constant():
    assert [covalency_over([], range(7), t) for t in range(4)] == [0, 0, 0, 0]
    assert covalency_over([], [], 0) == 0
    with pytest.raises(ValueError):
        covalency_over([], range(7), -1)


def test_an_announcement_is_not_canonicalised_again(seven_hand, binary3, monkeypatch):
    expected = (design_profile(binary3, 8), covalency(seven_hand, 7, 2))

    def refuse(cls, lines):
        raise AssertionError("Announcement.of was called")

    monkeypatch.setattr(Announcement, "of", classmethod(refuse))
    assert (design_profile(binary3, 8), covalency(seven_hand, 7, 2)) == expected
    with pytest.raises(AssertionError, match="Announcement.of was called"):  # raw lines still are
        covalency_over(seven_hand.lines, range(7), 2)


def test_indivisible_incidence_sum_is_refused_without_a_scan(five_hand, seven_hand, monkeypatch):
    # k lines of size s hold k·C(s, t) t-subsets: 30·70 over C(16, 4) = 1820,
    # 30·56 over C(16, 5) = 4368, 7·1 over C(7, 3) = 35 and 5·3 over 7 leave a
    # remainder, so no constant count exists and no t-subset is read.
    binary4 = binary_design(4)

    def unscanned(*args):
        raise AssertionError("t-subsets were scanned")

    monkeypatch.setattr("cardeal.designs.combinations", unscanned)
    assert covalency(binary4, 16, 4) is None
    assert covalency(binary4, 16, 5) is None
    assert covalency(seven_hand, 7, 3) is None
    assert covalency(five_hand, 7, 1) is None


def test_design_strength_examples(seven_hand, binary3):
    assert design_profile(seven_hand, 7).strength == 2
    assert design_profile(binary3, 8).strength == 3
    assert design_profile(Announcement.of([(0, 1, 2)]), 7).strength == 0


def test_binary_design_structure():
    for n in (3, 4):
        ann = binary_design(n)
        assert len(ann) == 2 * (2**n - 1)
        assert ann.block_size == 2 ** (n - 1)
        full = set(range(2**n))
        masks = {frozenset(line) for line in ann.lines}
        # every line has its complement as another line
        assert all(frozenset(full - set(line)) in masks for line in ann.lines)


def test_binary_design_rejects_small_n():
    with pytest.raises(ValueError):
        binary_design(2)


def test_binary_design_is_guarded():
    # n = 3 costs 14 lines times 8 points.
    with pytest.raises(WorkLimitExceeded):
        binary_design(3, max_work=111)
    assert len(binary_design(3, max_work=112)) == 14


def test_binary3_matches_known_lines(binary3, p431):
    known = parse_announcement(
        "0246 0145 0347 0123 0257 0167 0356 1357 2367 1256 4567 1346 2345 1247", p431
    )
    assert binary3 == known
    # the first parity vector cuts out 0246 and 1357
    assert (0, 2, 4, 6) in binary3.lines
    assert (1, 3, 5, 7) in binary3.lines


def test_three_point_coverage_of_binary_designs():
    for n in (3, 4):
        ann = binary_design(n)
        assert covalency(ann, 2**n, 3) == 2 ** (n - 2) - 1


def test_binary4_larger_profile():
    ann = binary_design(4)
    assert len(ann) == 30 and ann.block_size == 8
    assert covalency(ann, 16, 3) == 3


def test_residuals_of_binary_designs_are_2_designs(binary3):
    for x in range(8):
        residual = lines_avoiding(binary3, (x,))
        points = [p for p in range(8) if p != x]
        assert covalency_over(residual, points, 2) is not None


def test_profile_and_json(seven_hand):
    profile = design_profile(seven_hand, 7)
    assert profile.covalencies == (7, 3, 1, None)
    assert profile.strength == 2
    data = profile_json(profile)
    assert data == {
        "v": 7,
        "k": 3,
        "lambda": {"0": 7, "1": 3, "2": 1, "3": None},
        "strength": 2,
    }


lines331 = st.sampled_from(list(combinations(range(7), 3)))
announcements331 = st.sets(lines331, min_size=1, max_size=8).map(Announcement.of)


@settings(deadline=None)
@given(announcements331)
def test_constant_covalency_is_downward_closed(ann):
    profile = design_profile(ann, 7)
    constant = [t for t, value in enumerate(profile.covalencies) if value is not None]
    assert constant == list(range(len(constant)))
    assert profile.strength == constant[-1]
    assert profile.covalencies[0] == len(ann)
    # the profile stops at the first uneven size; scanning each size anyway
    # confirms that every later size is uneven too
    assert profile.covalencies == tuple(covalency(ann, 7, t) for t in range(4))


@settings(deadline=None)
@given(announcements331)
def test_one_design_with_even_counts_iff_two_design(ann):
    # single-observer deal: constant residual counts plus a 1-design is
    # exactly a 2-design, and conversely
    params = Parameters(3, 3, 1)
    report = check_axioms(ann, params)
    is_1design = covalency(ann, 7, 1) is not None
    is_2design = covalency(ann, 7, 2) is not None
    assert (report.ca4.passed and is_1design) == is_2design


@settings(deadline=None)
@given(announcements331)
def test_strength3_iff_all_residuals_strength2(ann):
    is_3design = covalency(ann, 7, 3) is not None
    is_1design = covalency(ann, 7, 1) is not None
    residuals_ok = all(
        covalency_over(lines_avoiding(ann, (x,)), [p for p in range(7) if p != x], 2) is not None
        for x in range(7)
    )
    assert is_3design == (is_1design and residuals_ok)
