"""Differential test of the axiom kernel against the brute-force quantifiers.

The oracle below decides CA1 the direct way, by sweeping every b-set, counts
CA5 over the receiver's candidate b-sets themselves, and keeps the
standalone CA1-CA3 loop that ``is_good`` once was. The kernel decides CA1
over line pairs and reads CA2-CA5 off one per-card count per c-set; the two
must agree on every verdict and produce equal witnesses, not merely
equivalent ones.
"""

import random
from itertools import combinations

import pytest
from test_acceptance import _theorem_corpus

from cardeal import Announcement, Parameters, check_axioms, is_good
from cardeal.designs import binary_design
from cardeal.axioms import (
    AmbiguityWitness,
    AxiomReport,
    AxiomVerdict,
    CommonCardWitness,
    CountVerdict,
    UncoveredCardWitness,
    UnevenCountWitness,
    _clash,
)
from cardeal.model import from_mask, to_mask


def oracle_check_axioms(ann, params):
    v = params.v
    masks = [to_mask(line) for line in ann.lines]
    omega = (1 << v) - 1

    ca1 = AxiomVerdict(True)
    for xs in combinations(range(v), params.b):
        xm = to_mask(xs)
        hits = [line for line, m in zip(ann.lines, masks) if m & xm == 0]
        if len(hits) > 1:
            ca1 = AxiomVerdict(False, AmbiguityWitness(xs, tuple(hits)))
            break

    ca2 = AxiomVerdict(True)
    ca3 = AxiomVerdict(True)
    constants = ({}, {})
    violations = ([], [])
    for xs in combinations(range(v), params.c):
        xm = to_mask(xs)
        avoid = [m for m in masks if m & xm == 0]
        rest = omega & ~xm
        union = 0
        if avoid:
            common = avoid[0]
            for m in avoid:
                common &= m
                union |= m
            if common and ca2.passed:
                ca2 = AxiomVerdict(False, CommonCardWitness(xs, from_mask(common)))
        if union != rest and ca3.passed:
            ca3 = AxiomVerdict(False, UncoveredCardWitness(xs, from_mask(rest & ~union)))
        outside = from_mask(rest)
        bsets = {rest & ~m for m in avoid}
        for family, found, bad in zip((avoid, bsets), constants, violations):
            counts = tuple((y, sum(1 for m in family if m >> y & 1)) for y in outside)
            if len({n for _, n in counts}) <= 1:
                found[xs] = counts[0][1] if counts else 0
            else:
                bad.append(UnevenCountWitness(xs, counts))

    return AxiomReport(
        params, ca1, ca2, ca3,
        *(CountVerdict(not bad, found, tuple(bad)) for found, bad in zip(constants, violations)),
    )


def oracle_is_good(ann, params):
    v = params.v
    masks = [to_mask(line) for line in ann.lines]
    omega = (1 << v) - 1
    for xs in combinations(range(v), params.b):
        xm = to_mask(xs)
        if sum(1 for m in masks if m & xm == 0) > 1:
            return False
    for xs in combinations(range(v), params.c):
        xm = to_mask(xs)
        avoid = [m for m in masks if m & xm == 0]
        if not avoid:
            return False
        common = avoid[0]
        union = 0
        for m in avoid:
            common &= m
            union |= m
        if common or union != omega & ~xm:
            return False
    return True


def _random_corpus(seed, params, count):
    rng = random.Random(seed)
    all_lines = list(combinations(range(params.v), params.a))
    return [
        (params, Announcement.of(rng.sample(all_lines, rng.randint(1, min(8, len(all_lines))))))
        for _ in range(count)
    ]


def _assert_kernel_matches_oracle(corpus):
    ca1_failures = 0
    for params, ann in corpus:
        report = check_axioms(ann, params)
        assert report == oracle_check_axioms(ann, params), (params, ann)
        assert is_good(ann, params) == oracle_is_good(ann, params) == report.good, (params, ann)
        ca1_failures += not report.ca1.passed
    # both sides of CA1 are exercised
    assert 0 < ca1_failures < len(corpus)


def test_kernel_matches_oracle_on_theorem_corpus():
    _assert_kernel_matches_oracle(_theorem_corpus(20240331, 5000))


@pytest.mark.parametrize("abc", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_kernel_matches_oracle_on_random_announcements(abc):
    _assert_kernel_matches_oracle(_random_corpus(sum(abc) * 1000 + abc[0], Parameters(*abc), 1500))


def test_kernel_matches_oracle_on_binary_designs():
    # Full reports, CA4/CA5 constants and witnesses included, at c = 1, 2, 3
    # on structured designs. Each design passes CA1; adding a copy of its
    # first line with the last card moved to the least card outside it makes
    # a pair sharing a - 1 cards, which clashes for every c >= 1, so both
    # sides of CA1 are exercised.
    corpus = []
    for n, abc in [(4, (8, 7, 1)), (4, (8, 6, 2)), (4, (8, 5, 3)), (3, (4, 3, 1))]:
        params, design = Parameters(*abc), binary_design(n)
        first = design.lines[0]
        moved = first[:-1] + (min(set(range(params.v)) - set(first)),)
        corpus += [(params, design), (params, Announcement.of([*design.lines, moved]))]
    _assert_kernel_matches_oracle(corpus)


def test_ca1_witness_is_first_b_set_with_every_avoiding_line(p331):
    # 013/014 leave 256 uncovered, while 125, 126 and 256 pairwise leave 034:
    # the witness is the smaller set, listed with all three lines avoiding it.
    ann = Announcement.of([(0, 1, 3), (0, 1, 4), (1, 2, 5), (1, 2, 6), (2, 5, 6)])
    w = check_axioms(ann, p331).ca1.witness
    assert w == AmbiguityWitness((0, 3, 4), ((1, 2, 5), (1, 2, 6), (2, 5, 6)))
    assert w == oracle_check_axioms(ann, p331).ca1.witness


@pytest.mark.parametrize("v, a, b", [(7, 3, 1), (7, 3, 3), (8, 3, 2), (8, 4, 3), (9, 2, 5)])
def test_clash_rule_matches_b_set_sweep(v, a, b):
    # A pair clashes iff some b-set avoids both lines, and then the rule
    # returns the pair's free mask; otherwise it returns 0.
    rng = random.Random(v * 100 + a * 10 + b)
    lines = [to_mask(line) for line in combinations(range(v), a)]
    bsets = [to_mask(xs) for xs in combinations(range(v), b)]
    for _ in range(300):
        m1, m2 = rng.choice(lines), rng.choice(lines)
        expected = any(not xm & (m1 | m2) for xm in bsets)
        free = ((1 << v) - 1) & ~(m1 | m2)
        assert _clash(m1, m2, v, b) == (free if expected else 0), (m1, m2)
