"""The five combinatorial safety checks and the elimination machinery.

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
witness is the least b-prefix (b smallest cards) of a clashing free mask.
For CA2-CA5, ``check_axioms`` counts once, for every c-set X, how many
avoiding lines hold each card outside X: CA2 fails where some count equals
the number of avoiding lines, CA3 where some count is 0, CA4 where the
counts differ. The lines are distinct and lie outside X, so a card with
count n lies in exactly |avoid| - n candidate b-sets; CA5 is read off the
same counts, m_X = |avoid_X| - n_X, and fails at exactly the c-sets where
CA4 does. ``_covers`` is the early-exit reading of CA2-CA3 over
precomputed c-set masks. ``is_good`` is "no clashing pair and ``_covers``";
enumeration clears CA1 during its search and calls ``_covers`` alone at each
leaf, so both share one CA2-CA3 decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .guard import require_work
from .model import Announcement, CardSet, Parameters, card_set, check_fit, format_card_set, from_mask, to_mask


class InferenceError(LookupError):
    """The announcement does not determine a unique line for this hand."""


class NoLineError(InferenceError):
    """No line avoids the hand; the deal is inconsistent with a truthful announcement."""


class AmbiguousLineError(InferenceError):
    """Two or more lines avoid the hand (a CA1 violation for this hand)."""


@dataclass(frozen=True)
class AmbiguityWitness:
    """A b-set avoided by two or more lines (CA1 failure)."""

    x: CardSet
    lines: tuple[CardSet, ...]


@dataclass(frozen=True)
class CommonCardWitness:
    """A c-set whose avoiding lines share at least one card (CA2 failure)."""

    x: CardSet
    common: CardSet


@dataclass(frozen=True)
class UncoveredCardWitness:
    """A c-set whose avoiding lines miss at least one outside card (CA3 failure)."""

    x: CardSet
    missing: CardSet


@dataclass(frozen=True)
class UnevenCountWitness:
    """A c-set with unequal per-card counts (CA4/CA5 failure)."""

    x: CardSet
    counts: tuple[tuple[int, int], ...]  # (card, occurrences) for cards outside x

    def count_of(self, card: int) -> int:
        return dict(self.counts)[card]


@dataclass(frozen=True)
class AxiomVerdict:
    passed: bool
    witness: object | None = None


@dataclass(frozen=True)
class CountVerdict:
    """Constancy verdict for CA4 or CA5 across every c-set.

    ``constants`` maps each c-set with a constant count to that count; every
    other c-set appears in ``violations`` with its uneven counts. The verdict
    passes iff there are no violations.
    """

    passed: bool
    constants: dict[CardSet, int] = field(default_factory=dict)
    violations: tuple[UnevenCountWitness, ...] = ()

    @property
    def witness(self) -> UnevenCountWitness | None:
        return self.violations[0] if self.violations else None

    def violation_for(self, x: Iterable[int]) -> UnevenCountWitness | None:
        key = tuple(sorted(x))
        for witness in self.violations:
            if witness.x == key:
                return witness
        return None


@dataclass(frozen=True)
class AxiomReport:
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
        return {
            "ca1": self.ca1.passed,
            "ca2": self.ca2.passed,
            "ca3": self.ca3.passed,
            "ca4": self.ca4.passed,
            "ca5": self.ca5.passed,
        }[axiom]


def lines_avoiding(ann: Announcement, x: Iterable[int]) -> list[CardSet]:
    """The lines disjoint from x, in canonical order."""
    xs = set(card_set(x))
    return [line for line in ann.lines if xs.isdisjoint(line)]


def bob_sets(ann: Announcement, x: Iterable[int], params: Parameters) -> list[CardSet]:
    """The receiver hands the eavesdropper holding x considers possible.

    One candidate per avoiding line: the rest of the deck once x and that
    line are removed. Duplicates are dropped and the result is sorted.
    """
    masks = check_fit(ann, params.a, params.v)
    xs = card_set(x, params.v)
    if len(xs) != params.c:
        raise ValueError(f"expected a {params.c}-set, got {xs}")
    xm = to_mask(xs)
    candidates = {((1 << params.v) - 1) & ~(xm | m) for m in masks if m & xm == 0}
    return sorted(from_mask(mask) for mask in candidates)


def bob_infer(ann: Announcement, bob_hand: Iterable[int]) -> CardSet:
    """The unique line avoiding the receiver's hand.

    Raises NoLineError when elimination leaves nothing and
    AmbiguousLineError when it leaves two or more lines.
    """
    hand = card_set(bob_hand)
    hits = lines_avoiding(ann, hand)
    if not hits:
        raise NoLineError(f"no line avoids {hand}")
    if len(hits) > 1:
        raise AmbiguousLineError(f"{len(hits)} lines avoid {hand}: {hits}")
    return hits[0]


def cathy_card_counts(ann: Announcement, x: Iterable[int], params: Parameters) -> dict[int, int]:
    """Occurrences of every deck card among the lines avoiding x; cards of x map to 0."""
    check_fit(ann, params.a, params.v)
    xs = card_set(x, params.v)
    if len(xs) != params.c:
        raise ValueError(f"expected a {params.c}-set, got {xs}")
    counts = Counter(card for line in lines_avoiding(ann, xs) for card in line)
    return {card: counts[card] for card in range(params.v)}


def _prepare(ann: Announcement, params: Parameters, max_work: int | None) -> tuple[int, ...]:
    """Validate the lines, charge the guard for the kernel's work, return the line masks."""
    masks = check_fit(ann, params.a, params.v)
    k = len(masks)
    require_work(comb(k, 2) + comb(params.v, params.c) * k, max_work, "axiom check")
    return masks


def _clash(m1: int, m2: int, v: int, b: int) -> int:
    """The CA1 clash rule for two lines: their free mask if they clash, else 0.

    Some b-set avoids both lines iff the cards outside both (the free mask)
    number b or more; those b-sets are exactly the free mask's b-subsets. A
    clashing free mask holds b >= 1 cards, so the result is truthy exactly
    when the pair clashes.
    """
    free = ((1 << v) - 1) & ~(m1 | m2)
    return free if free.bit_count() >= b else 0


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


def check_axioms(ann: Announcement, params: Parameters, *, max_work: int | None = None) -> AxiomReport:
    """Decide CA1-CA5 exhaustively: CA1 over line pairs, CA2-CA5 over all c-sets.

    Failure witnesses are deterministic: CA1-CA3 report the lexicographically
    first violating set, CA4/CA5 record every c-set without a constant count
    (first one doubling as the primary witness) together with the constants
    found elsewhere.
    """
    masks = _prepare(ann, params, max_work)
    v, b = params.v, params.b

    ca1 = AxiomVerdict(True)
    frees = [free for m1, m2 in combinations(masks, 2) if (free := _clash(m1, m2, v, b))]
    if frees:
        # The violating b-sets are the b-subsets of the clashing free masks,
        # and a set's least b-subset is its b smallest cards.
        x = min(from_mask(free)[:b] for free in frees)
        ca1 = AxiomVerdict(False, AmbiguityWitness(x, tuple(lines_avoiding(ann, x))))

    ca2 = AxiomVerdict(True)
    ca3 = AxiomVerdict(True)
    n_constants: dict[CardSet, int] = {}
    m_constants: dict[CardSet, int] = {}
    n_violations: list[UnevenCountWitness] = []
    m_violations: list[UnevenCountWitness] = []
    for xs, xm, rest in _c_set_masks(v, params.c):
        # One count per outside card decides CA2-CA5; CA5 reads |avoid| - n.
        avoid = [line for line, m in zip(ann.lines, masks) if not m & xm]
        seen = Counter(chain.from_iterable(avoid))
        counts = tuple((y, seen[y]) for y in from_mask(rest))
        if ca2.passed and avoid and (common := tuple(y for y, n in counts if n == len(avoid))):
            ca2 = AxiomVerdict(False, CommonCardWitness(xs, common))
        if ca3.passed and (missing := tuple(y for y, n in counts if n == 0)):
            ca3 = AxiomVerdict(False, UncoveredCardWitness(xs, missing))
        _record(xs, counts, n_constants, n_violations)
        _record(xs, tuple((y, len(avoid) - n) for y, n in counts), m_constants, m_violations)

    return AxiomReport(
        params=params,
        ca1=ca1,
        ca2=ca2,
        ca3=ca3,
        ca4=CountVerdict(not n_violations, n_constants, tuple(n_violations)),
        ca5=CountVerdict(not m_violations, m_constants, tuple(m_violations)),
    )


def _record(
    xs: CardSet,
    counts: tuple[tuple[int, int], ...],
    constants: dict[CardSet, int],
    violations: list[UnevenCountWitness],
) -> None:
    values = {count for _, count in counts}
    if len(values) <= 1:
        constants[xs] = counts[0][1] if counts else 0
    else:
        violations.append(UnevenCountWitness(xs, counts))


def is_good(ann: Announcement, params: Parameters, *, max_work: int | None = None) -> bool:
    """True iff CA1, CA2 and CA3 all hold: the early-exit reading of check_axioms."""
    masks = _prepare(ann, params, max_work)
    clash = any(_clash(m1, m2, params.v, params.b) for m1, m2 in combinations(masks, 2))
    return not clash and _covers(masks, _c_set_masks(params.v, params.c))


def axiom_report_json(report: AxiomReport) -> dict:
    """Stable JSON form of a report, card sets rendered in compact text."""
    v = report.params.v

    def key(cards: CardSet) -> str:
        return format_card_set(cards, v)

    def simple(verdict: AxiomVerdict, payload) -> dict:
        out = {"pass": verdict.passed, "witness": None}
        if verdict.witness is not None:
            out["witness"] = payload(verdict.witness)
        return out

    def counting(verdict: CountVerdict, label: str) -> dict:
        out = {
            "pass": verdict.passed,
            label: {key(x): n for x, n in sorted(verdict.constants.items())},
            "witness": None,
            "violating": [key(w.x) for w in verdict.violations],
        }
        if verdict.witness is not None:
            out["witness"] = {
                "x": key(verdict.witness.x),
                "counts": {str(card): count for card, count in verdict.witness.counts},
            }
        return out

    return {
        "ca1": simple(report.ca1, lambda w: {"x": key(w.x), "lines": [key(l) for l in w.lines]}),
        "ca2": simple(report.ca2, lambda w: {"x": key(w.x), "common": key(w.common)}),
        "ca3": simple(report.ca3, lambda w: {"x": key(w.x), "missing": key(w.missing)}),
        "ca4": counting(report.ca4, "n"),
        "ca5": counting(report.ca5, "m"),
    }
