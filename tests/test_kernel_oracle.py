"""Differential test of the axiom kernel and the covalency scanner against brute-force loops.

The axiom oracle below decides CA1 the direct way, by sweeping every b-set,
walks the avoiding lines of each c-set to count CA2-CA4, counts CA5 over the
receiver's candidate b-sets themselves, and keeps the standalone CA1-CA3
loop that ``is_good`` once was. The kernel decides CA1 over line pairs and
reads CA2-CA5 off popcounts of the outside cards, which it skips or cuts
short once CA2 and CA3 have failed; the two must agree on every verdict and
produce equal witnesses, not merely equivalent ones. The covalency oracle tests every line against every t-subset, where
the scanner takes one popcount of an AND of per-point masks.
"""

import random
from itertools import combinations
from math import comb

import pytest
from oracles import avoiding
from test_acceptance import _theorem_corpus

from cardeal import (
    Announcement,
    Parameters,
    check_axioms,
    covalency,
    covalency_over,
    design_profile,
    is_good,
)
from cardeal.designs import binary_design
from cardeal.guard import DEFAULT_MAX_WORK
from cardeal.axioms import (
    AXIOM_NAMES,
    AmbiguityWitness,
    AxiomReport,
    AxiomVerdict,
    CommonCardWitness,
    CountVerdict,
    UncoveredCardWitness,
    _clash,
    axiom_report_json,
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
    violations = ({}, {})
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
                bad[xs] = counts

    # Every count is computed above; the verdict only looks them up.
    return AxiomReport(
        params, ca1, ca2, ca3,
        *(CountVerdict(found, tuple(bad), bad.__getitem__) for found, bad in zip(constants, violations)),
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


def oracle_covalency_over(lines, points, t):
    masks = [to_mask(line) for line in lines]
    expected = None
    for subset in combinations(sorted(points), t):
        sm = to_mask(subset)
        count = sum(1 for m in masks if m & sm == sm)
        if expected is None:
            expected = count
        elif count != expected:
            return None
    return 0 if expected is None else expected


def oracle_design_profile(ann, v):
    table = []
    for t in range(ann.block_size + 1):
        value = oracle_covalency_over(ann.lines, range(v), t)
        if value is None:
            break
        table.append(value)
    return tuple(table) + (None,) * (ann.block_size + 1 - len(table))


def _random_lines(rng, params, fewest, most):
    all_lines = list(combinations(range(params.v), params.a))
    return Announcement.of(rng.sample(all_lines, rng.randint(fewest, min(most, len(all_lines)))))


def _random_corpus(seed, params, count, fewest=1, most=8):
    rng = random.Random(seed)
    return [(params, _random_lines(rng, params, fewest, most)) for _ in range(count)]


def _views(report):
    """Every value a report carries, each CA4/CA5 witness materialised with all its counts."""
    counting = [
        (verdict.passed, verdict.constants, verdict.violating, verdict.witness,
         tuple(map(verdict.violation_for, verdict.violating)))
        for verdict in (report.ca4, report.ca5)
    ]
    return report.params, report.ca1, report.ca2, report.ca3, counting


def _assert_kernel_matches_oracle(corpus):
    """Materialised report views and JSON equal the oracle's; returns how many fail CA1."""
    ca1_failures = 0
    for params, ann in corpus:
        report = check_axioms(ann, params)
        oracle = oracle_check_axioms(ann, params)
        assert _views(report) == _views(oracle), (params, ann)
        assert axiom_report_json(report) == axiom_report_json(oracle), (params, ann)
        for verdict, expected in ((report.ca4, oracle.ca4), (report.ca5, oracle.ca5)):
            assert all(verdict.violation_for(x) is None for x in verdict.constants), (params, ann)
            if verdict.violating:
                last = verdict.violation_for(reversed(verdict.violating[-1]))
                assert last == expected.violation_for(expected.violating[-1]), (params, ann)
        assert is_good(ann, params) == oracle_is_good(ann, params) == report.good, (params, ann)
        ca1_failures += not report.ca1.passed
    return ca1_failures


def _assert_kernel_matches_oracle_on_both_sides_of_ca1(corpus):
    assert 0 < _assert_kernel_matches_oracle(corpus) < len(corpus)


def test_kernel_matches_oracle_on_theorem_corpus():
    _assert_kernel_matches_oracle_on_both_sides_of_ca1(_theorem_corpus(20240331, 5000))


@pytest.mark.parametrize("abc", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_kernel_matches_oracle_on_random_announcements(abc):
    _assert_kernel_matches_oracle_on_both_sides_of_ca1(
        _random_corpus(sum(abc) * 1000 + abc[0], Parameters(*abc), 1500)
    )


@pytest.mark.parametrize("abc, count", [((4, 3, 1), 60), ((3, 2, 2), 40), ((4, 2, 3), 40)])
def test_kernel_matches_oracle_on_many_line_announcements(abc, count):
    # From 31 lines up to every line of the deck, at c = 1, 2, 3: the
    # per-card masks then span more than one 30-bit digit of a Python int.
    # So many lines always hold a clashing pair, so every report fails CA1.
    params = Parameters(*abc)
    corpus = _random_corpus(sum(abc) * 1000 + abc[0], params, count, fewest=31, most=comb(params.v, params.a))
    assert _assert_kernel_matches_oracle(corpus) == count


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
    _assert_kernel_matches_oracle_on_both_sides_of_ca1(corpus)


def _boolean_quadruples(v):
    """SQS(v) for v a power of two: the 4-sets of 0..v-1 whose cards XOR to 0."""
    return Announcement.of([q for q in combinations(range(v), 4) if not q[0] ^ q[1] ^ q[2] ^ q[3]])


SQS16 = _boolean_quadruples(16)

# Many lines that pass CA1, so is_good reaches its CA2-CA3 sweep with k far
# above v - c; each row names the axioms the announcement fails. Only
# "sqs16-through-0-or-15" fails CA2 without CA3, and only "sqs16-avoiding-15"
# and "binary4-853" fail CA3 without CA2.
DESIGN_FIXTURES = {
    "sqs16": (SQS16, (4, 11, 1), ()),
    "sqs16-minus-first-line": (Announcement(SQS16.lines[1:]), (4, 11, 1), ("ca4", "ca5")),
    "sqs16-through-0": (Announcement.of(l for l in SQS16.lines if 0 in l), (4, 11, 1), ("ca2", "ca3", "ca4", "ca5")),
    "sqs16-through-0-or-15": (
        Announcement.of(l for l in SQS16.lines if 0 in l or 15 in l), (4, 11, 1), ("ca2", "ca4", "ca5")
    ),
    "sqs16-avoiding-15": (Announcement.of(l for l in SQS16.lines if 15 not in l), (4, 11, 1), ("ca3", "ca4", "ca5")),
    "sqs8": (_boolean_quadruples(8), (4, 3, 1), ()),
    "binary4-871": (binary_design(4), (8, 7, 1), ()),
    "binary4-862": (binary_design(4), (8, 6, 2), ()),
    "binary4-853": (binary_design(4), (8, 5, 3), ("ca3", "ca4", "ca5")),
}


@pytest.mark.parametrize("name", DESIGN_FIXTURES)
def test_is_good_matches_oracle_on_many_line_designs(name):
    ann, abc, failing = DESIGN_FIXTURES[name]
    params = Parameters(*abc)
    report = check_axioms(ann, params)
    assert tuple(axiom for axiom in AXIOM_NAMES if not report.passed(axiom)) == failing
    expected = not {"ca1", "ca2", "ca3"} & set(failing)
    assert is_good(ann, params) == oracle_is_good(ann, params) == report.good == expected


def _every_announcement(abc, sizes):
    """Every announcement at parameters abc whose number of lines is in ``sizes``."""
    params = Parameters(*abc)
    every_line = list(combinations(range(params.v), params.a))
    return [(params, Announcement.of(lines)) for k in sizes for lines in combinations(every_line, k)]


def _sweep_after_ca2_and_ca3(params, ann, report):
    """How each c-set after the CA2 and CA3 witnesses was decided.

    After both witnesses the sweep counts only toward CA4. The outside counts
    sum to a * |avoid|, so a c-set is "indivisible" when v - c does not divide
    that sum, and otherwise "constant" or "refuted" by its counts.
    """
    last = max(report.ca2.witness.x, report.ca3.witness.x)
    for x in combinations(range(params.v), params.c):
        if x > last:
            if params.a * len(avoiding(ann, x)) % (params.v - params.c):
                yield "indivisible"
            else:
                yield "constant" if x in report.ca4.constants else "refuted"


def test_kernel_matches_oracle_on_every_small_announcement():
    # Every announcement of 1-4 lines at four small parameter sets, and of 5
    # lines at (2,2,1): 3,347 in all. No announcement of at most 4 lines
    # passes both CA2 and CA3 there, but the 5-cycles at (2,2,1) do and fail
    # CA4, so the sweep's first phase decides CA4 alone. After both the CA2
    # and the CA3 witness the corpus has c-sets of all three kinds the sweep
    # tells apart.
    corpus = [
        case
        for abc, most in [((2, 2, 1), 5), ((2, 1, 2), 4), ((3, 1, 1), 4), ((2, 2, 2), 4)]
        for case in _every_announcement(abc, range(1, most + 1))
    ]
    assert len(corpus) == 3347
    _assert_kernel_matches_oracle_on_both_sides_of_ca1(corpus)
    kinds = set()
    covered_but_uneven = 0
    for params, ann in corpus:
        report = check_axioms(ann, params)
        if report.ca2.passed and report.ca3.passed:
            covered_but_uneven += not report.ca4.passed
        elif not report.ca2.passed and not report.ca3.passed:
            kinds.update(_sweep_after_ca2_and_ca3(params, ann, report))
    assert covered_but_uneven
    assert kinds == {"indivisible", "constant", "refuted"}


def _lesser(s, t):
    """The lesser of two card masks in the CA1 pass's order: the one holding the least card where they differ."""
    diff = s ^ t
    return s if s & diff & -diff else t


def _prefix(mask, b):
    """The b smallest cards of a mask."""
    return to_mask(from_mask(mask)[:b])


@pytest.mark.parametrize("v", range(1, 8))
def test_b_prefix_of_the_lesser_mask_is_the_lesser_b_prefix(v):
    """The lemma behind the CA1 witness, checked on every pair of masks.

    For masks s and t holding at least b cards each, the b-prefix of the
    lesser of s and t equals the lesser of their b-prefixes. Say s is the
    lesser, d the least card where they differ, so d is in s. If d is among
    the b smallest cards of s, the two prefixes agree below d and only the
    prefix of s holds d; otherwise both prefixes are the same cards below d.
    So the CA1 pass may keep the least clashing free mask and take its
    b-prefix once. Among b-sets the order is the lexicographic one, so that
    prefix is the lexicographically first violating b-set.
    """
    for b in range(1, min(v, 3) + 1):
        prefixes = {m: _prefix(m, b) for m in range(1 << v) if m.bit_count() >= b}
        for s, s_prefix in prefixes.items():
            for t, t_prefix in prefixes.items():
                assert prefixes[_lesser(s, t)] == _lesser(s_prefix, t_prefix), (v, b, s, t)
        b_sets = list(combinations(range(v), b))
        for p in b_sets:
            assert all(_lesser(to_mask(p), to_mask(q)) == to_mask(min(p, q)) for q in b_sets), (v, p)

def _assert_scanner_matches_oracle(ann, v):
    """Profile, covalency and every one-card residual's covalency_over equal the oracle's.

    Every tuple size the default work limit admits is scanned, None included.
    """
    assert design_profile(ann, v).covalencies == oracle_design_profile(ann, v), ann
    for t in range(ann.block_size + 1):
        if comb(v, t) * len(ann) > DEFAULT_MAX_WORK:
            continue
        assert covalency(ann, v, t) == oracle_covalency_over(ann.lines, range(v), t), (ann, t)
        for x in range(v):
            residual, points = avoiding(ann, (x,)), [p for p in range(v) if p != x]
            expected = oracle_covalency_over(residual, points, t)
            assert covalency_over(residual, points, t) == expected, (ann, x, t)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_scanner_matches_oracle_on_binary_designs(n):
    _assert_scanner_matches_oracle(binary_design(n), 1 << n)


@pytest.mark.parametrize("abc", [(3, 3, 1), (4, 3, 1)])
def test_scanner_matches_oracle_on_random_collections(abc):
    # From one line up to every line of the deck, so some residuals are empty
    # and some masks span more than one 30-bit digit.
    params = Parameters(*abc)
    for _, ann in _random_corpus(abc[0], params, 200, most=comb(params.v, params.a)):
        _assert_scanner_matches_oracle(ann, params.v)


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
