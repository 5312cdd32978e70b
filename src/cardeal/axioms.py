"""The five combinatorial safety checks and the one kernel that decides them.

An announcement is examined from the receivers' points of view. For a set X
of cards held by someone else, the lines *avoiding* X (disjoint from it) are
the holdings the announcer could still have. The checks are:

* CA1: every b-set is avoided by at most one line, so the intended receiver
  can always pin down the announcer's hand.
* CA2: for every c-set, the avoiding lines have empty intersection, so the
  eavesdropper can never place a card with the announcer.
* CA3: for every c-set, the avoiding lines cover everything outside the
  c-set, so the eavesdropper can never place a card with the receiver.
* CA4: for every c-set X there is a single number n_X such that every card
  outside X occurs in exactly n_X avoiding lines (no occurrence bias in the
  lines the eavesdropper still considers possible).
* CA5: the same constancy, with number m_X, for the receiver's candidate
  b-sets induced by the avoiding lines.

One kernel decides them. CA1 is decided over the C(k, 2) line pairs, not the
C(v, b) b-sets: it fails iff two lines leave b or more cards outside their
union. ``_clash``, the one statement of that rule, returns such a pair's free
mask; ``check_axioms``, ``is_good`` and enumeration all call it. The CA1
witness is the least violating b-set. Sets are ordered so that the lesser of
two holds the least card where they differ; among b-sets that is the
lexicographic order. The least b-subset of a set is its b-prefix (its b
smallest cards), and the b-prefix of the lesser of two sets is the lesser of
their b-prefixes. So the pass keeps only the least clashing free mask and
takes its b-prefix once, at the end: the first b cards ``model.from_mask``
reads off it.
Both kernels start in ``_prepare``: it checks the lines once, charges the
guard, and only then builds the line masks and the per-card masks (bit i of
card y's mask set iff line i holds y) in the one loop of
``model.build_masks``.
For CA2-CA5, ``check_axioms`` sweeps every c-set X. It first complements
each card's mask within the k lines, giving the lines avoiding that card;
the lines avoiding X are the AND of its c cards' complements, and the count
n_X(y) of avoiding lines holding a card y is the popcount of y's mask within
them. CA2 fails where some outside count equals the number of avoiding
lines, CA3 where some is 0, CA4 where they differ.
Every avoiding line holds a cards, all outside X, so the v - c outside counts
sum to a·|avoid_X|. The lines are distinct and lie outside X, so a card with
count n lies in exactly |avoid| - n candidate b-sets; CA5 is read off the
same counts and fails at exactly the c-sets where CA4 does, and its constant
m_X = |avoid_X| - n_X is n_X·b/a, computed from CA4's. CA4, the 1-covalency
of X's residual, has the one rule of ``designs._scan``: the only constant the
counts can have is n = a·|avoid_X| / (v - c), so an indivisible sum violates
CA4 uncounted, and otherwise X violates it iff some outside count differs
from n. Until CA2 and CA3 both have their witness, the sweep keeps every
card's count and reads the witnesses off that list; X's own c cards count
0 <= n, so the outside counts all equal n iff none is above n, and an outside
card counts 0 iff more than c cards do. After that it reads counts, X's own
cards skipped by index, only until one differs from n. The sweep records, per
c-set, its constant or, where the counts differ, the c-set alone; the CA4 and
CA5 verdicts share that list of violating c-sets, so a report takes
O(C(v, c)) small entries. A ``CountVerdict`` builds a witness's (card, count)
pairs from the per-card masks only when it is read.
``is_good`` is the early exit of the same pair pass and sweep: it stops at the
first clashing pair, then at the first c-set with an outside card held by
every avoiding line (CA2) or by none (CA3), skipping X's own cards by index.
Both are charged C(k, 2) + C(v, c)·(v - c), a count for every outside card
of every c-set, before any mask is built. Enumeration clears CA1 during its
search and picks its last line by the same CA2-CA3 conditions, read line by
line. The report, its verdicts and the witnesses are named tuples; a
``CountVerdict``, which compares counts it builds on demand, is not.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial, reduce
from itertools import combinations
from math import comb
from operator import and_
from typing import Callable, Iterable, NamedTuple, Sequence

from .guard import comb_within, require_work, resolve_max_work
from .model import (
    Announcement,
    CardSet,
    Frozen,
    Parameters,
    build_masks,
    check_lines,
    format_card_set,
    from_mask,
    to_mask,
)


class AmbiguityWitness(NamedTuple):
    """A b-set avoided by two or more lines (CA1 failure)."""

    x: CardSet
    lines: tuple[CardSet, ...]


class CommonCardWitness(NamedTuple):
    """A c-set whose avoiding lines share at least one card (CA2 failure)."""

    x: CardSet
    common: CardSet


class UncoveredCardWitness(NamedTuple):
    """A c-set whose avoiding lines miss at least one outside card (CA3 failure)."""

    x: CardSet
    missing: CardSet


class UnevenCountWitness(NamedTuple):
    """A c-set with unequal per-card counts (CA4/CA5 failure)."""

    x: CardSet
    counts: tuple[tuple[int, int], ...]  # (card, occurrences) for cards outside x

    def count_of(self, card: int) -> int:
        return dict(self.counts)[card]


class AxiomVerdict(NamedTuple):
    passed: bool
    witness: object | None = None


class CountVerdict(Frozen):
    """Constancy verdict for CA4 or CA5 across every c-set.

    ``constants`` maps each c-set with a constant count to that count; every
    other c-set is listed, in lexicographic order, in ``violating``. The
    verdict passes iff that list is empty. The per-card counts of a violating
    c-set are not stored: ``counts_outside`` builds them, as (card, count)
    pairs over the cards outside the set, whenever a witness is read. Two
    verdicts are equal iff their constants, their violating c-sets and each
    such c-set's counts are; the counts are compared one c-set at a time.
    """

    _fields = ("constants", "violating")

    def __init__(self, constants: dict[CardSet, int], violating: tuple[CardSet, ...],
                 counts_outside: Callable[[CardSet], tuple[tuple[int, int], ...]]) -> None:
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "violating", violating)
        object.__setattr__(self, "counts_outside", counts_outside)

    @property
    def passed(self) -> bool:
        return not self.violating

    @property
    def witness(self) -> UnevenCountWitness | None:
        """The first violating c-set with its counts."""
        return self._witness(self.violating[0]) if self.violating else None

    def violation_for(self, x: Iterable[int]) -> UnevenCountWitness | None:
        key = tuple(sorted(x))
        i = bisect_left(self.violating, key)
        return self._witness(key) if self.violating[i : i + 1] == (key,) else None

    def _witness(self, x: CardSet) -> UnevenCountWitness:
        return UnevenCountWitness(x, self.counts_outside(x))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountVerdict):
            return NotImplemented
        same = self.constants == other.constants and self.violating == other.violating
        return same and all(self.counts_outside(x) == other.counts_outside(x) for x in self.violating)


AXIOM_NAMES = ("ca1", "ca2", "ca3", "ca4", "ca5")
_PASS = AxiomVerdict(True)


class AxiomReport(NamedTuple):
    params: Parameters
    ca1: AxiomVerdict
    ca2: AxiomVerdict
    ca3: AxiomVerdict
    ca4: CountVerdict
    ca5: CountVerdict

    @property
    def good(self) -> bool:
        return self.ca1.passed and self.ca2.passed and self.ca3.passed

    @property
    def all_passed(self) -> bool:
        return self.good and self.ca4.passed and self.ca5.passed

    def passed(self, axiom: str) -> bool:
        """The verdict of one axiom by name, "ca1" to "ca5"; KeyError for any other name."""
        if axiom not in AXIOM_NAMES:
            raise KeyError(axiom)
        return getattr(self, axiom).passed


def _uneven_counts(cards: Sequence[int], every: int, ca5: bool, xs: CardSet) -> tuple[tuple[int, int], ...]:
    """(card, count) for each card outside xs: n_X for CA4, or m_X = |avoid_X| - n_X for CA5."""
    avoid = reduce(and_, (every ^ cards[x] for x in xs), every)
    total = avoid.bit_count()
    counts = ((y, (lines & avoid).bit_count()) for y, lines in enumerate(cards) if y not in xs)
    return tuple((y, total - n if ca5 else n) for y, n in counts)


def _prepare(ann: Announcement, params: Parameters, max_work: int | None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate the lines, charge C(k, 2) line pairs plus v - c counts per c-set, then build the masks.

    Returns the line masks and the per-card masks; nothing is built before
    the lines pass ``check_lines`` and the charge is within ``max_work``.
    """
    check_lines(ann, params.a, params.v)
    outside, limit = params.v - params.c, resolve_max_work(max_work)
    c_sets = comb_within(params.v, params.c, limit, "axiom check", outside)
    require_work(comb(len(ann), 2) + c_sets * outside, limit, "axiom check")
    return build_masks(ann.lines, params.v)


def _clash(m1: int, m2: int, v: int, b: int) -> int:
    """The CA1 clash rule for two lines: their free mask if they clash, else 0.

    Some b-set avoids both lines iff the cards outside both (the free mask)
    number b or more; those b-sets are exactly the free mask's b-subsets. A
    clashing free mask holds b >= 1 cards, so the result is truthy exactly
    when the pair clashes.
    """
    free = ((1 << v) - 1) & ~(m1 | m2)
    return free if free.bit_count() >= b else 0


def check_axioms(ann: Announcement, params: Parameters, *, max_work: int | None = None) -> AxiomReport:
    """Decide CA1-CA5 exhaustively: CA1 over line pairs, CA2-CA5 over all c-sets.

    Failure witnesses are deterministic: CA1-CA3 report the lexicographically
    first violating set, CA4/CA5 record every c-set without a constant count
    (first one doubling as the primary witness) together with the constants
    found elsewhere.
    """
    a, b, c, v = params.a, params.b, params.c, params.v
    masks, cards = _prepare(ann, params, max_work)

    ca1 = _PASS
    least = 0
    for m1, m2 in combinations(masks, 2):
        # Of two sets the lesser holds the least card where they differ.
        if (free := _clash(m1, m2, v, b)) and (not least or free & (diff := least ^ free) & -diff):
            least = free
    if least:
        # The least violating b-set is the b-prefix of the least clashing free
        # mask (see the module docstring).
        prefix = from_mask(least)[:b]
        avoided = to_mask(prefix)
        lines = tuple(line for line, m in zip(ann.lines, masks) if not m & avoided)
        ca1 = AxiomVerdict(False, AmbiguityWitness(prefix, lines))

    ca2 = ca3 = _PASS
    n_constants: dict[CardSet, int] = {}
    violating: list[CardSet] = []
    every = (1 << len(masks)) - 1
    outs = [every ^ lines for lines in cards]  # the lines avoiding each card
    for xs, avoiding in zip(combinations(range(v), c), combinations(outs, c)):
        avoid = reduce(and_, avoiding)
        total = avoid.bit_count()
        # The outside counts sum to a * total: n is their only possible constant.
        n, uneven = divmod(a * total, v - c)
        if ca2.passed or ca3.passed:
            # One count per card. X's own c cards count 0 <= n, so the outside
            # counts all equal n iff none is above n, and an outside card
            # counts 0 iff more than c cards do.
            ns = [(lines & avoid).bit_count() for lines in cards]
            uneven = uneven or max(ns) != n
            if ca2.passed and total and total in ns:
                common = tuple(y for y, n_y in enumerate(ns) if n_y == total)
                ca2 = AxiomVerdict(False, CommonCardWitness(xs, common))
            if ca3.passed and ns.count(0) > c:
                missing = tuple(y for y, n_y in enumerate(ns) if not n_y and y not in xs)
                ca3 = AxiomVerdict(False, UncoveredCardWitness(xs, missing))
        elif not uneven:
            # The first outside count that differs from n refutes it; X's own
            # cards count 0, which differs from n unless n is 0.
            for y, lines in enumerate(cards):
                if (lines & avoid).bit_count() != n and y not in xs:
                    uneven = True
                    break
        if uneven:
            violating.append(xs)
        else:
            n_constants[xs] = n

    found = tuple(violating)
    return AxiomReport(
        params=params,
        ca1=ca1,
        ca2=ca2,
        ca3=ca3,
        ca4=CountVerdict(n_constants, found, partial(_uneven_counts, cards, every, False)),
        ca5=CountVerdict(
            {x: n * b // a for x, n in n_constants.items()}, found, partial(_uneven_counts, cards, every, True)
        ),
    )


def is_good(ann: Announcement, params: Parameters, *, max_work: int | None = None) -> bool:
    """True iff CA1, CA2 and CA3 all hold: check_axioms' pair pass and sweep, stopped at the first failure."""
    v, c = params.v, params.c
    masks, cards = _prepare(ann, params, max_work)
    if any(_clash(m1, m2, v, params.b) for m1, m2 in combinations(masks, 2)):
        return False
    every = (1 << len(masks)) - 1
    outs = [every ^ lines for lines in cards]
    for xs, avoiding in zip(combinations(range(v), c), combinations(outs, c)):
        avoid = reduce(and_, avoiding)
        for y, lines in enumerate(cards):
            # A card in every avoiding line fails CA2, an outside card in none
            # fails CA3; with no avoiding line, the first outside card is both.
            # X's own cards are in none, and are skipped.
            if ((held := lines & avoid) == avoid or not held) and y not in xs:
                return False
    return True


def axiom_report_json(report: AxiomReport) -> dict:
    """Stable JSON form of a report, card sets rendered in compact text."""
    key = partial(format_card_set, v=report.params.v)

    def simple(verdict: AxiomVerdict, payload) -> dict:
        return {"pass": verdict.passed, "witness": verdict.witness and payload(verdict.witness)}

    def counting(verdict: CountVerdict, label: str) -> dict:
        witness = verdict.witness
        return {
            "pass": verdict.passed,
            label: {key(x): n for x, n in sorted(verdict.constants.items())},
            "witness": witness and {"x": key(witness.x), "counts": {str(y): n for y, n in witness.counts}},
            "violating": [key(x) for x in verdict.violating],
        }

    return {
        "ca1": simple(report.ca1, lambda w: {"x": key(w.x), "lines": [key(l) for l in w.lines]}),
        "ca2": simple(report.ca2, lambda w: {"x": key(w.x), "common": key(w.common)}),
        "ca3": simple(report.ca3, lambda w: {"x": key(w.x), "missing": key(w.missing)}),
        "ca4": counting(report.ca4, "n"),
        "ca5": counting(report.ca5, "m"),
    }
