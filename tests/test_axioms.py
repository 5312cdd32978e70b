import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardeal
from cardeal import (
    AmbiguousLineError,
    Announcement,
    NoLineError,
    Parameters,
    WorkLimitExceeded,
    bob_infer,
    bob_sets,
    cathy_card_counts,
    check_axioms,
    is_good,
    lines_avoiding,
)
from cardeal import axioms, model
from cardeal.axioms import AXIOM_NAMES, CountVerdict, axiom_report_json
from cardeal.cli import _verify_text
from cardeal.designs import binary_design
from cardeal.guard import resolve_max_work
from cardeal.model import check_lines


def test_lines_avoiding_five_hand(five_hand):
    assert lines_avoiding(five_hand, (5,)) == [(0, 1, 2), (0, 3, 4), (2, 4, 6)]
    assert lines_avoiding(five_hand, ()) == list(five_hand.lines)


def test_lines_avoiding_seven_hand(seven_hand):
    assert lines_avoiding(seven_hand, (0,)) == [(1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def test_bob_sets_five_hand(five_hand, p331):
    assert bob_sets(five_hand, (5,), p331) == [(0, 1, 3), (1, 2, 6), (3, 4, 6)]


def test_bob_sets_seven_hand(seven_hand, p331):
    candidates = bob_sets(seven_hand, (0,), p331)
    assert len(candidates) == 4
    assert all(len(c) == 3 for c in candidates)
    # independently: each candidate is the deck minus the observer card minus one avoiding line
    rest = set(range(7)) - {0}
    expected = sorted(tuple(sorted(rest - set(line))) for line in lines_avoiding(seven_hand, (0,)))
    assert candidates == expected


def test_bob_sets_empty_when_nothing_avoids(p331):
    ann = Announcement.of([(0, 1, 2)])
    assert bob_sets(ann, (0,), p331) == []


def test_bob_sets_match_the_mask_construction(p331):
    # The oracle builds each candidate from the line masks, complementing x and
    # an avoiding line's mask within the deck, and drops duplicates. Every
    # observer card of every good (3,3,1) announcement of 5, 6 and 7 lines.
    omega = (1 << p331.v) - 1
    for k in (5, 6, 7):
        hands = combinations(range(7), 3)
        anns = {ann for hand in hands for ann in cardeal.enumerate_good_announcements(p331, hand, k)}
        assert len(anns) == {5: 420, 6: 210, 7: 30}[k]
        for ann in anns:
            masks = model.build_masks(ann.lines, p331.v)[0]
            for x in combinations(range(p331.v), p331.c):
                xm = model.to_mask(x)
                candidates = {omega & ~(xm | m) for m in masks if not m & xm}
                assert bob_sets(ann, x, p331) == sorted(map(model.from_mask, candidates)), (ann.lines, x)


def test_five_hand_verdicts(five_hand, p331):
    report = check_axioms(five_hand, p331)
    assert report.ca1.passed and report.ca2.passed and report.ca3.passed
    assert not report.ca4.passed and not report.ca5.passed
    assert [report.passed(name) for name in AXIOM_NAMES] == [True, True, True, False, False]
    for name in ("ca6", "params", "CA1"):
        with pytest.raises(KeyError):
            report.passed(name)
    # the c-set {5} is among the recorded violations, with the documented counts
    w4 = report.ca4.violation_for((5,))
    assert w4 is not None
    assert w4.count_of(2) == 2 and w4.count_of(1) == 1
    w5 = report.ca5.violation_for((5,))
    assert w5 is not None
    assert w5.count_of(1) == 2 and w5.count_of(2) == 1


def test_count_verdicts_compare_every_count(five_hand, seven_hand, p331):
    report = check_axioms(five_hand, p331)
    assert report == check_axioms(five_hand, p331)
    assert report != check_axioms(seven_hand, p331)
    # Same constants and violating c-sets, but the CA5 counts: not equal.
    ca4 = report.ca4
    assert CountVerdict(ca4.constants, ca4.violating, report.ca5.counts_outside) != ca4
    assert ca4.violation_for((0, 1)) is None and ca4.violation_for((9,)) is None
    assert (ca4 == 5) is False  # __eq__ declines a non-verdict, and Python falls back to identity


def test_seven_hand_verdicts(seven_hand, p331):
    report = check_axioms(seven_hand, p331)
    assert report.all_passed
    assert set(report.ca4.constants.values()) == {2}
    assert set(report.ca5.constants.values()) == {2}
    assert set(report.ca4.constants) == {(x,) for x in range(7)}


def test_binary3_verdicts(binary3, p431):
    report = check_axioms(binary3, p431)
    assert report.good and report.ca4.passed
    assert set(report.ca4.constants.values()) == {4}


def test_is_good_examples(five_hand, seven_hand, p331):
    assert is_good(five_hand, p331)
    assert is_good(seven_hand, p331)
    assert not is_good(Announcement.of([(0, 1, 2), (0, 1, 3)]), p331)
    # brute-force confirmation: some b-set avoids both of those lines
    both_avoided = [
        x
        for x in combinations(range(7), 3)
        if not (set(x) & {0, 1, 2}) and not (set(x) & {0, 1, 3})
    ]
    assert both_avoided  # e.g. (4, 5, 6)


def test_single_line_fails_ca2(p331):
    report = check_axioms(Announcement.of([(0, 1, 2)]), p331)
    assert not report.ca2.passed
    assert report.ca2.witness.x == (3,)
    assert report.ca2.witness.common == (0, 1, 2)


def test_empty_avoiding_family_semantics(p331):
    # every line contains 0 and 1, so nothing avoids {0} or {1}: no inference
    # is possible there (CA2 vacuously holds) but the cover test CA3 fails
    ann = Announcement.of([(0, 1, 2), (0, 1, 3)])
    report = check_axioms(ann, p331)
    assert not report.ca3.passed
    assert report.ca3.witness.x == (0,)
    assert report.ca3.witness.missing == (1, 2, 3, 4, 5, 6)
    assert not report.ca2.passed
    assert report.ca2.witness.x == (2,)  # {0} and {1} pass vacuously
    assert report.ca4.constants[(0,)] == 0
    assert report.ca5.constants[(0,)] == 0


def test_bob_infer(five_hand):
    assert bob_infer(five_hand, (1, 2, 6)) == (0, 3, 4)
    with pytest.raises(NoLineError):
        bob_infer(five_hand, (0, 3, 4))
    with pytest.raises(AmbiguousLineError):
        bob_infer(Announcement.of([(0, 1, 2), (0, 1, 3)]), (4, 5, 6))


def test_cathy_card_counts(five_hand, seven_hand, p331):
    counts = cathy_card_counts(five_hand, (3,), p331)
    assert counts[2] == 2 and counts[1] == 1 and counts[3] == 0
    assert cathy_card_counts(seven_hand, (0,), p331) == {0: 0, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}
    counts5 = cathy_card_counts(five_hand, (5,), p331)
    assert counts5[2] == 2 and counts5[1] == 1


def test_size_mismatch_rejected(five_hand):
    with pytest.raises(ValueError):
        check_axioms(five_hand, Parameters(4, 3, 1))


def test_work_guard(five_hand, p331, monkeypatch):
    with pytest.raises(WorkLimitExceeded):
        check_axioms(five_hand, p331, max_work=10)
    assert check_axioms(five_hand, p331, max_work=10**6).good
    # The check is charged 52 steps: the environment sets no limit, so the default 10^8 holds.
    monkeypatch.setenv("CARDEAL_MAX_WORK", "40")
    assert check_axioms(five_hand, p331).good


def test_work_estimate_is_pairs_plus_c_set_sweep(five_hand, p331):
    # C(5, 2) line pairs for CA1, then 7 c-sets whose 6 outside cards are
    # each counted once: 10 + 42 = 52, for check_axioms and is_good alike.
    with pytest.raises(WorkLimitExceeded):
        check_axioms(five_hand, p331, max_work=51)
    with pytest.raises(WorkLimitExceeded):
        is_good(five_hand, p331, max_work=51)
    assert check_axioms(five_hand, p331, max_work=52).good
    assert is_good(five_hand, p331, max_work=52)


@pytest.mark.parametrize("text", ["012 034 056 135 246", "012 034 056 135 146 236 245", "012 013"])
def test_lines_are_checked_once_per_kernel_call(text, p331, monkeypatch):
    # The five- and seven-line fixtures pass CA1 and reach the c-set sweep;
    # "012 013" fails CA1 at its one pair.
    checked = []

    def counting(ann, size, v):
        checked.append(ann)
        return check_lines(ann, size, v)

    monkeypatch.setattr(model, "check_lines", counting)
    monkeypatch.setattr(axioms, "check_lines", counting)
    ann = cardeal.parse_announcement(text, p331)
    check_axioms(ann, p331)
    assert checked == [ann]
    is_good(ann, p331)
    assert checked == [ann, ann]


@pytest.mark.parametrize("kernel", [check_axioms, is_good])
def test_absurd_label_is_refused_before_the_masks_are_built(kernel, p331, monkeypatch):
    built = []
    monkeypatch.setattr(axioms, "build_masks", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="out of range"):
        kernel(Announcement(((0, 1, 10**9),)), p331)
    assert built == []


@pytest.mark.parametrize("x", [(0, 1), (9,)])
def test_cathy_card_counts_refuses_a_bad_set_before_the_masks_are_built(x, five_hand, p331, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("masks were built before x was checked")

    monkeypatch.setattr(axioms, "build_masks", unbuilt)
    with pytest.raises(ValueError):
        cathy_card_counts(five_hand, x, p331)


def test_single_line_sweep_is_charged_per_outside_card():
    # One line on 45 cards, but C(45, 3) = 14,190 c-sets of 42 outside cards
    # each: 595,980 steps, not the 14,190 that one step per line would charge,
    # for check_axioms and is_good alike.
    with pytest.raises(WorkLimitExceeded, match="595980"):
        check_axioms(Announcement(((0, 1),)), Parameters(2, 40, 3), max_work=100_000)
    with pytest.raises(WorkLimitExceeded, match="595980"):
        is_good(Announcement(((0, 1),)), Parameters(2, 40, 3), max_work=100_000)
    assert is_good(Announcement(((0, 1),)), Parameters(2, 40, 3), max_work=595_980) is False


PEAK_PROBE = """
from cardeal import Announcement, Parameters, check_axioms
report = check_axioms(Announcement(((0, 1),)), Parameters(2, 40, 3))
assert len(report.ca4.violating) == 12341 and report.ca4.witness.x == (2, 3, 4)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_one_line_at_2_40_3_peaks_under_40_mib():
    """Peak memory of check_axioms on one line at (2,40,3): 12,341 violating c-sets.

    Method: a fresh interpreter imports cardeal, runs the check, reads the
    primary witness, and prints VmHWM from its own /proc/self/status, the
    high-water mark of its resident memory in KiB, interpreter included. A
    report that stored a (card, count) tuple per outside card of every
    violating c-set peaked at 92 MiB here. tracemalloc is not used: it makes
    this call about twenty times slower.
    """
    src = str(Path(cardeal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024


EQUALITY_PROBE = """
from cardeal import Announcement, Parameters, check_axioms
line, params = Announcement(((0, 1),)), Parameters(2, 60, 3)
first, second = check_axioms(line, params), check_axioms(line, params)
assert len(first.ca4.violating) == 39711 and first == second
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_comparing_two_reports_at_2_60_3_peaks_under_60_mib():
    """Peak memory of ``==`` on two reports of one line at (2,60,3).

    Same method as the (2,40,3) pin above. Comparing every witness tuple of
    both reports at once peaked at 375 MiB here; one witness per side at a
    time stays near the 23 MiB the two reports take.
    """
    src = str(Path(cardeal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", EQUALITY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 60 * 1024


def test_cathy_card_counts_agree_with_the_report():
    # Both read the per-card masks: over the outside cards, cathy_card_counts
    # gives the c-set's CA4 constant or its violation's counts.
    rng = random.Random(4913)
    checked = 0
    for params in (Parameters(3, 3, 1), Parameters(4, 3, 1), Parameters(3, 2, 2), Parameters(2, 2, 3)):
        all_lines = list(combinations(range(params.v), params.a))
        for _ in range(75):
            ann = Announcement.of(rng.sample(all_lines, rng.randint(1, 12)))
            report = check_axioms(ann, params)
            for xs in combinations(range(params.v), params.c):
                counts = cathy_card_counts(ann, xs, params)
                outside = tuple((y, counts[y]) for y in range(params.v) if y not in xs)
                assert all(counts[x] == 0 for x in xs)
                witness = report.ca4.violation_for(xs)
                if witness is None:
                    assert {n for _, n in outside} == {report.ca4.constants[xs]}
                else:
                    assert witness.counts == outside
            checked += 1
    assert checked == 300


@pytest.mark.parametrize("source", ["argument"])
def test_negative_max_work_is_refused_naming_its_source(source):
    with pytest.raises(ValueError, match="--max-work.*-1"):
        resolve_max_work(-1)


lines331 = st.sampled_from(list(combinations(range(7), 3)))
announcements331 = st.sets(lines331, min_size=1, max_size=7).map(Announcement.of)
lines431 = st.sampled_from(list(combinations(range(8), 4)))
announcements431 = st.sets(lines431, min_size=1, max_size=7).map(Announcement.of)


@settings(deadline=None)
@given(st.one_of(announcements331.map(lambda a: (Parameters(3, 3, 1), a)),
                 announcements431.map(lambda a: (Parameters(4, 3, 1), a))))
def test_ca4_iff_ca5_with_count_relation(case):
    params, ann = case
    report = check_axioms(ann, params)
    assert report.ca4.passed == report.ca5.passed
    if report.ca4.passed:
        for x, n in report.ca4.constants.items():
            size = len(lines_avoiding(ann, x))
            assert report.ca5.constants[x] == size - n
            assert n * (params.a + params.b) == params.a * size


def _announcements(abc):
    params = Parameters(*abc)
    lines = st.sampled_from(list(combinations(range(params.v), params.a)))
    return st.sets(lines, min_size=1, max_size=10).map(lambda chosen: (params, Announcement.of(chosen)))


@settings(deadline=None)
@given(st.one_of(*map(_announcements, [(3, 3, 1), (4, 3, 1), (3, 2, 2), (2, 3, 2), (3, 1, 3), (2, 2, 3)])))
def test_outside_counts_sum_to_a_per_avoiding_line(case):
    # Each line avoiding X holds a cards, all outside X, so the outside counts
    # sum to a * |avoid_X|: the identity that fixes CA4's only possible constant.
    params, ann = case
    for x in combinations(range(params.v), params.c):
        counts = cathy_card_counts(ann, x, params)
        outside = sum(n for y, n in counts.items() if y not in x)
        assert outside == params.a * len(lines_avoiding(ann, x)), (ann, x)


@settings(deadline=None)
@given(announcements331)
def test_constant_count_independent_of_single_observer_card(ann):
    params = Parameters(3, 3, 1)
    report = check_axioms(ann, params)
    if report.ca4.passed:
        assert len(set(report.ca4.constants.values())) == 1
        sizes = {len(lines_avoiding(ann, x)) for x in report.ca4.constants}
        assert len(sizes) == 1


def _every_announcement(params: Parameters):
    lines = list(combinations(range(params.v), params.a))
    for chosen in range(1, 1 << len(lines)):
        yield Announcement(tuple(line for i, line in enumerate(lines) if chosen >> i & 1))


@pytest.mark.parametrize(
    "params, anns",
    [
        (Parameters(8, 6, 2), lambda params: [binary_design(4)]),
        (Parameters(2, 2, 2), _every_announcement),
        (Parameters(2, 1, 3), _every_announcement),
    ],
    ids=["binary-n4-862", "every-222", "every-213"],
)
def test_a_passing_ca4_has_one_constant_when_c_exceeds_1(params, anns):
    # The verify text prints one constant for a passing CA4 and CA5, by the
    # argument beside it in cli._verify_text, which holds for every c. Each
    # deal here has exactly one CA4 pass: the binary design, and the
    # announcement of all 15 lines.
    passes = []
    for ann in anns(params):
        report = check_axioms(ann, params)
        if report.ca4.passed:
            passes.append(report)
            assert len(set(report.ca4.constants.values())) == 1
            assert len(set(report.ca5.constants.values())) == 1
    assert len(passes) == 1
    (n,), (m,) = set(passes[0].ca4.constants.values()), set(passes[0].ca5.constants.values())
    text = _verify_text(axiom_report_json(passes[0]))
    assert f"CA4: pass  constant {n} for every c-set" in text
    assert f"CA5: pass  constant {m} for every c-set" in text


@settings(deadline=None)
@given(announcements331)
def test_failure_witnesses_reproduce_violations(ann):
    params = Parameters(3, 3, 1)
    report = check_axioms(ann, params)
    assert is_good(ann, params) == report.good
    if not report.ca1.passed:
        w = report.ca1.witness
        assert len(w.lines) >= 2
        assert all(not set(w.x) & set(line) for line in w.lines)
    if not report.ca2.passed:
        w = report.ca2.witness
        avoid = lines_avoiding(ann, w.x)
        assert avoid and set(w.common) == set.intersection(*(set(l) for l in avoid))
        assert w.common
    if not report.ca3.passed:
        w = report.ca3.witness
        avoid = lines_avoiding(ann, w.x)
        covered = set().union(*(set(l) for l in avoid)) if avoid else set()
        assert set(w.missing) == set(range(7)) - set(w.x) - covered
        assert w.missing
    for witness in map(report.ca4.violation_for, report.ca4.violating):
        counts = dict(witness.counts)
        recomputed = cathy_card_counts(ann, witness.x, params)
        assert all(recomputed[card] == n for card, n in counts.items())
        assert len(set(counts.values())) > 1
    for witness in map(report.ca5.violation_for, report.ca5.violating):
        counts = dict(witness.counts)
        candidates = bob_sets(ann, witness.x, params)
        for card, n in counts.items():
            assert sum(1 for c in candidates if card in c) == n
        assert len(set(counts.values())) > 1


def test_soundness_of_goodness(five_hand, seven_hand, p331):
    for ann in (five_hand, seven_hand):
        for alice in ann.lines:
            free = [c for c in range(7) if c not in alice]
            for bob in combinations(free, 3):
                assert bob_infer(ann, bob) == alice


def test_report_json_schema(five_hand, p331):
    data = axiom_report_json(check_axioms(five_hand, p331))
    assert set(data) == {"ca1", "ca2", "ca3", "ca4", "ca5"}
    assert data["ca1"] == {"pass": True, "witness": None}
    assert data["ca4"]["pass"] is False
    assert data["ca4"]["n"] == {"0": 1}
    assert "5" in data["ca4"]["violating"]
    assert data["ca4"]["witness"]["x"] == "1"
    assert data["ca4"]["witness"]["counts"]["0"] == 2
