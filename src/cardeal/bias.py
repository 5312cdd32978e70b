"""Exact Bayesian analysis of announcement-producing protocols.

Everything is conditioned on the uniform deal prior: all ways of dealing the
deck into the three hands are equally likely before the announcement. For an
observed announcement and an observer holding a c-set (or nothing), Bayes'
rule over the protocol table gives the posterior of each line being the
announcer's actual hand:

    P(hand = L | announcement, observer) is proportional to
    table[L](announcement) * [L disjoint from observer] * weight(L)

where weight is ``Protocol.hand_weight``: equal mass for the two hand
classes under the literal fact2 reading, 1 otherwise. The protocol's
``likelihoods`` index holds exactly these products, built once per protocol
as integer numerators over one protocol-wide denominator: one entry per
announcement, with its per-hand column and its row, the numerators aligned
with its lines. A posterior depends on the row and on its meet, the lines
the observer's cards block, alone (one column of the channel):
``posterior_lines`` ORs the entry's masks of the observer's cards into the
meet and reads the index's (row, meet) memo; a miss zeroes the met lines,
sums and normalises, and memoises no refusal. The report walks the entries'
rows, and its class balance their columns, which count untruthful entries
too. No floating point enters any probability.
``PosteriorTable`` and ``BiasReport`` are named tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .enumeration import classify_by_triple, enumerate_good_announcements
from .model import Announcement, CardSet, Parameters, card_set, format_announcement, format_card_set
from .protocols import PAPER_LINES, PAPER_PARAMS, Protocol, _fraction_json, common_denominator

_UNPRODUCED = "announcement is not produced by any hand consistent with the observer"


class PosteriorTable(NamedTuple):
    """Per-line posteriors for one announcement and one observer."""

    announcement: Announcement
    observer: CardSet
    posteriors: tuple[tuple[CardSet, Fraction], ...]


class BiasReport(NamedTuple):
    """Protocol-level summary of what an outside observer can read off.

    ``triple_in_hand`` gives, per producible announcement, the posterior
    probability that its most frequent card is actually held by the
    announcer. ``class_balance`` is the same quantity before observing any
    particular announcement. ``references`` holds the exact comparison
    points: the prior chance that a fixed card is held, the class ratio of a
    uniform pick, and the even split.
    """

    protocol: str
    point: int | None
    literal_reweighting: bool
    max_uniform_deviation: Fraction
    triple_in_hand: dict[Announcement, Fraction]
    class_balance: Fraction
    references: dict[str, Fraction]


def prior_point_in_hand(params: Parameters) -> Fraction:
    """Chance that a fixed card lies in the announcer's hand: a of the v cards are dealt to it."""
    return Fraction(params.a, params.v)


def posterior_lines(
    proto: Protocol,
    ann: Announcement,
    observer: Iterable[int] = (),
) -> PosteriorTable:
    """Posterior over the lines of ``ann`` given the observer's cards.

    The observer set must be empty (outside observer) or a full c-set. Lines
    meeting the observer's cards get posterior exactly 0; the rest are the
    normalised table weights of their hands, memoised by row and meet, so a
    repeated (row, meet) returns the stored tuple and builds no ``Fraction``.
    """
    params = proto.params
    obs = card_set(observer, params.v)
    if len(obs) not in (0, params.c):
        raise ValueError(f"observer must hold nothing or a {params.c}-set, got {obs}")
    index = proto.likelihoods
    (_, row, masks), meet = index.entries.get(ann, (None, (), ())), 0
    for card in obs if row else ():  # no entry, no row: refused below
        meet |= masks[card]
    shares = index.posteriors.get((row, meet))
    if shares is None:
        weights = [0 if meet >> i & 1 else w for i, w in enumerate(row)]
        total = sum(weights)
        if total == 0:
            raise ValueError(_UNPRODUCED)
        shares = index.posteriors[row, meet] = tuple(Fraction(w, total) for w in weights)
    return PosteriorTable(ann, obs, tuple(zip(ann.lines, shares)))


def bias_report(proto: Protocol, *, max_work: int | None = None) -> BiasReport:
    """Aggregate posteriors over every announcement the protocol can produce.

    ``max_work`` bounds the enumeration of the reference hand's announcements.
    """
    if not proto.table:
        raise ValueError(f"{proto.kind} protocol has an empty table")
    params = proto.params
    if params != PAPER_PARAMS:
        raise ValueError(f"bias references are defined for {PAPER_PARAMS} only, got {params}")
    max_deviation = Fraction(0)
    triple_in_hand: dict[Announcement, Fraction] = {}
    # Unconditional chance that the produced announcement's most frequent
    # card is actually held; the uniform hand prior cancels out of the ratio.
    # in_mass counts over the index's denominator.
    in_mass = 0
    for ann, (column, weights, _) in proto.likelihoods.entries.items():
        total = sum(weights)
        if total == 0:
            raise ValueError(_UNPRODUCED)
        k = len(ann.lines)
        # |w/total - 1/k| = |k*w - total| / (k*total)
        deviation = Fraction(max(abs(k * w - total) for w in weights), k * total)
        max_deviation = max(max_deviation, deviation)
        top = ann.triple_point
        if top is not None:
            held = sum(w for line, w in zip(ann.lines, weights) if top in line)
            triple_in_hand[ann] = Fraction(held, total)
            in_mass += sum(w for hand, w in column.items() if top in hand)
    weight_den, hand_weights = common_denominator([proto.hand_weight(hand) for hand in proto.table])
    class_balance = Fraction(in_mass * weight_den, proto.likelihoods.denominator * sum(hand_weights))

    reference_hand = tuple(range(params.a))
    reference_anns = enumerate_good_announcements(params, reference_hand, PAPER_LINES, max_work=max_work)
    inside, _ = classify_by_triple(reference_anns, reference_hand)
    references = {
        "point_in_hand_prior": prior_point_in_hand(params),
        "uniform_pick_class_ratio": Fraction(len(inside), len(reference_anns)),
        "even_split": Fraction(1, 2),
    }
    return BiasReport(
        protocol=proto.kind,
        point=proto.point,
        literal_reweighting=proto.kind == "fact2_literal",
        max_uniform_deviation=max_deviation,
        triple_in_hand=triple_in_hand,
        class_balance=class_balance,
        references=references,
    )


def posterior_json(table: PosteriorTable, params: Parameters) -> dict:
    return {
        "announcement": format_announcement(table.announcement, params),
        "observer": format_card_set(table.observer, params.v),
        "posteriors": {
            format_card_set(line, params.v): _fraction_json(p)
            for line, p in table.posteriors
        },
    }


def bias_report_json(report: BiasReport, params: Parameters) -> dict:
    return {
        "protocol": report.protocol,
        "point": report.point,
        "literal_reweighting": report.literal_reweighting,
        "max_uniform_deviation": _fraction_json(report.max_uniform_deviation),
        "triple_in_hand": {
            format_announcement(ann, params): _fraction_json(p)
            for ann, p in sorted(report.triple_in_hand.items(), key=lambda kv: kv[0].lines)
        },
        "class_balance": _fraction_json(report.class_balance),
        "references": {name: _fraction_json(p) for name, p in report.references.items()},
    }
