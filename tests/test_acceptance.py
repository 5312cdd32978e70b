"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every expected value here is either pinned from the
problem statement or recomputed by an independent oracle inside the test.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

from oracles import avoiding, deal_space_posterior

from cardeal import (
    Announcement,
    Parameters,
    bias_report,
    binary_design,
    build_protocol,
    check_axioms,
    classify_by_triple,
    covalency,
    covalency_over,
    enumerate_good_announcements,
    enumerate_ksets,
    parse_announcement,
    posterior_lines,
    sample_many,
    triple_point,
)

P331 = Parameters(3, 3, 1)
P431 = Parameters(4, 3, 1)
FIVE = parse_announcement("012 034 056 135 246", P331)
SEVEN = parse_announcement("012 034 056 135 146 236 245", P331)

KNOWN_BINARY3 = "0246 0145 0347 0123 0257 0167 0356 1357 2367 1256 4567 1346 2345 1247"

TWELVE_FOR_012_POINT_0 = [
    "012 034 056 135 246", "012 034 056 136 245",
    "012 034 056 145 236", "012 034 056 146 235",
    "012 035 046 134 256", "012 035 046 136 245",
    "012 035 046 145 236", "012 035 046 156 234",
    "012 036 045 134 256", "012 036 045 135 246",
    "012 036 045 146 235", "012 036 045 156 234",
]

SIX_FOR_135_POINT_0 = [
    "012 034 056 135 246", "012 036 045 135 246",
    "014 023 056 135 246", "014 025 036 135 246",
    "016 023 045 135 246", "016 025 034 135 246",
]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_fixture_verification():
    with criterion("1 fixture verification"):
        report = check_axioms(FIVE, P331)
        assert report.ca1.passed and report.ca2.passed and report.ca3.passed
        assert not report.ca4.passed and not report.ca5.passed
        w4 = report.ca4.violation_for((5,))
        assert w4 is not None and w4.count_of(2) == 2 and w4.count_of(1) == 1
        w5 = report.ca5.violation_for((5,))
        assert w5 is not None and w5.count_of(1) == 2 and w5.count_of(2) == 1

        report = check_axioms(SEVEN, P331)
        assert report.all_passed
        assert report.ca4.constants == {(x,): 2 for x in range(7)}


def test_criterion_2_binary_design_n3():
    with criterion("2 binary design n=3"):
        built = binary_design(3)
        assert built == parse_announcement(KNOWN_BINARY3, P431)
        report = check_axioms(built, P431)
        assert report.good and report.ca4.passed
        assert set(report.ca4.constants.values()) == {4}
        assert covalency(built, 8, 3) == 1


def test_criterion_3_three_point_coverage_family():
    with criterion("3 3-design family n=3,4,5"):
        for n in (3, 4, 5):
            ann = binary_design(n)
            assert len(ann) == 2 * (2**n - 1)
            assert covalency(ann, 2**n, 3) == 2 ** (n - 2) - 1


def _theorem_corpus(seed, count_per_params):
    """Random announcements mixed with relabelled copies of the known
    positive instances, so the biconditionals are exercised on both sides."""
    rng = random.Random(seed)
    fixtures = {
        P331: [FIVE, SEVEN],
        P431: [binary_design(3), Announcement.of([(0, 1, 2, 3), (4, 5, 6, 7)])],
    }
    corpus = []
    for params, seeds in fixtures.items():
        all_lines = list(combinations(range(params.v), params.a))
        for _ in range(count_per_params):
            if rng.random() < 0.25:
                base = rng.choice(seeds)
                relabel = rng.sample(range(params.v), params.v)
                lines = [tuple(relabel[c] for c in line) for line in base.lines]
                ann = Announcement.of(lines)
            else:
                k = rng.randint(1, 8)
                ann = Announcement.of(rng.sample(all_lines, k))
            corpus.append((params, ann))
    return corpus


def test_criterion_4_theorem_oracles():
    with criterion("4 theorem oracles on 10^4 random announcements"):
        corpus = _theorem_corpus(20240331, 5000)
        assert len(corpus) == 10000
        ca4_passes = 0
        two_designs = 0
        for params, ann in corpus:
            v = params.v
            report = check_axioms(ann, params)
            # (i) the two constancy checks agree, with the exact count relation
            assert report.ca4.passed == report.ca5.passed
            if report.ca4.passed:
                ca4_passes += 1
                for x, n in report.ca4.constants.items():
                    size = len(avoiding(ann, x))
                    assert report.ca5.constants[x] == size - n
                    # (ii) double counting of card slots
                    assert n * (params.a + params.b) == params.a * size
                # (iii) single-card observers all see the same constant
                assert len(set(report.ca4.constants.values())) == 1
                assert len({len(avoiding(ann, x)) for x in report.ca4.constants}) == 1
            # (iv) constant counts plus a 1-design is exactly a 2-design
            is_1design = covalency(ann, v, 1) is not None
            is_2design = covalency(ann, v, 2) is not None
            assert (report.ca4.passed and is_1design) == is_2design
            if is_2design:
                two_designs += 1
            # (v) 3-design iff 1-design with every point-residual a 2-design
            is_3design = covalency(ann, v, 3) is not None
            residuals_ok = all(
                covalency_over(
                    avoiding(ann, (x,)), [p for p in range(v) if p != x], 2
                )
                is not None
                for x in range(v)
            )
            assert is_3design == (is_1design and residuals_ok)
        # the corpus genuinely exercises both sides of the biconditionals
        assert ca4_passes > 100
        assert 100 < two_designs < len(corpus)


def test_criterion_5_enumeration_counts():
    with criterion("5 enumeration counts over all 35 hands"):
        for hand in enumerate_ksets(7, 3):
            anns = enumerate_good_announcements(P331, hand, 5)
            assert len(anns) == 60
            inside, outside = classify_by_triple(anns, hand)
            assert (len(inside), len(outside)) == (36, 24)
            points = Counter(map(triple_point, anns))
            for p in range(7):
                assert points[p] == (12 if p in hand else 6)
        twelve = [ann for ann in enumerate_good_announcements(P331, (0, 1, 2), 5) if triple_point(ann) == 0]
        assert twelve == sorted(
            (parse_announcement(t, P331) for t in TWELVE_FOR_012_POINT_0),
            key=lambda ann: ann.lines,
        )
        six = [ann for ann in enumerate_good_announcements(P331, (1, 3, 5), 5) if triple_point(ann) == 0]
        assert six == sorted(
            (parse_announcement(t, P331) for t in SIX_FOR_135_POINT_0),
            key=lambda ann: ann.lines,
        )


def test_criterion_6_exact_bias_analysis():
    with criterion("6 exact bias analysis vs joint-space oracle"):
        uniform = build_protocol("uniform60", P331)
        fact1 = build_protocol("fact1", P331)
        fact2 = build_protocol("fact2_conditional", P331, 0)
        fact2_lit = build_protocol("fact2_literal", P331, 0)

        report = bias_report(uniform)
        assert report.max_uniform_deviation == 0
        assert set(report.triple_in_hand.values()) == {Fraction(3, 5)}

        report = bias_report(fact1)
        assert set(report.triple_in_hand.values()) == {Fraction(1, 2)}
        for ann in fact1.support():
            table = dict(posterior_lines(fact1, ann).posteriors)
            top = triple_point(ann)
            for line, p in table.items():
                assert p == (Fraction(1, 6) if top in line else Fraction(1, 4))

        for ann in fact2.support():
            table = dict(posterior_lines(fact2, ann).posteriors)
            special = {p for line, p in table.items() if 0 in line}
            rest = {p for line, p in table.items() if 0 not in line}
            assert special == {Fraction(1, 7)} and rest == {Fraction(2, 7)}

        for proto in (uniform, fact1, fact2, fact2_lit):
            for ann in proto.support():
                computed = dict(posterior_lines(proto, ann).posteriors)
                assert computed == deal_space_posterior(proto, ann, observer=())


def test_criterion_7_sampling_consistency():
    with criterion("7 sampling matches analyzer within 3 standard errors"):
        # 0.99 quantile of the chi-square distribution, by degrees of freedom
        chi2_critical = {59: 87.166, 11: 24.725, 5: 15.086}
        cases = [
            (build_protocol("uniform60", P331), (0, 1, 2)),
            (build_protocol("fact1", P331), (0, 1, 2)),
            (build_protocol("fact2_conditional", P331, 0), (0, 1, 2)),
            (build_protocol("fact2_literal", P331, 0), (1, 3, 5)),
        ]
        n = 100_000
        for proto, hand in cases:
            draws = Counter(sample_many(proto, hand, 0, n))
            assert sample_many(proto, hand, 0, 5) == sample_many(proto, hand, 0, 5)
            dist = dict(proto.table[hand])
            statistic = 0.0
            for ann, prob in dist.items():
                expected = float(prob)
                observed = draws.get(ann, 0) / n
                stderr = (expected * (1 - expected) / n) ** 0.5
                assert abs(observed - expected) <= 3 * stderr, (proto.kind, ann)
                statistic += (draws.get(ann, 0) - n * expected) ** 2 / (n * expected)
            assert statistic < chi2_critical[len(dist) - 1]
            assert sum(draws.values()) == n


def test_criterion_8_deal_level_soundness():
    with criterion("8 deal-level soundness of both fixtures"):
        for ann in (FIVE, SEVEN):
            consistent = 0
            deals = 0
            for alice in combinations(range(7), 3):
                free = sorted(set(range(7)) - set(alice))
                for bob in combinations(free, 3):
                    deals += 1
                    if alice in ann.lines:
                        consistent += 1
                        assert avoiding(ann, bob) == [alice]
            assert deals == 140
            assert consistent == len(ann.lines) * 4
            # no single-card observer can force a card of either other player
            for x in range(7):
                candidates = [line for line in ann.lines if x not in line]
                assert candidates
                alice_common = set.intersection(*(set(l) for l in candidates))
                assert not alice_common
                rest = set(range(7)) - {x}
                bob_common = set.intersection(*(rest - set(l) for l in candidates))
                assert not bob_common


def test_criterion_9_open_claim_both_parameterisations():
    with criterion("9 binary n=4 under (8,7,1) and (8,6,2)"):
        ann = binary_design(4)
        results = {}
        for params in (Parameters(8, 7, 1), Parameters(8, 6, 2)):
            report = check_axioms(ann, params)
            verdicts = (
                report.ca1.passed,
                report.ca2.passed,
                report.ca3.passed,
                report.ca4.passed,
            )
            results[(params.a, params.b, params.c)] = verdicts
            print(
                f"[acceptance]   binary n=4 under ({params.a},{params.b},{params.c}): "
                f"CA1={verdicts[0]} CA2={verdicts[1]} CA3={verdicts[2]} CA4={verdicts[3]}"
            )
        # recorded empirical outcome: both parameterisations satisfy CA1-CA4
        assert results[(8, 7, 1)] == (True, True, True, True)
        assert results[(8, 6, 2)] == (True, True, True, True)


def test_binary_n5_under_both_parameterisations():
    with criterion("binary n=5 under (16,15,1) and (16,14,2)"):
        ann = binary_design(5)
        for params, n_x in ((Parameters(16, 15, 1), 16), (Parameters(16, 14, 2), 8)):
            report = check_axioms(ann, params)
            assert report.all_passed
            assert len(report.ca4.constants) == comb(32, params.c)
            assert set(report.ca4.constants.values()) == {n_x}
