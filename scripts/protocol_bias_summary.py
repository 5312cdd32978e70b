#!/usr/bin/env python3
"""Exact bias comparison of the four announcement-producing protocols.

Builds each protocol table, runs the exact posterior analysis, and checks
the analysis against seeded sampling. The interesting quantity is the
posterior probability that the thrice-occurring card of an announcement is
actually held: 3/5 under a uniform pick, 1/2 under the two-class coin,
and 3/7 (the prior) under the conditional public-point reading.
"""

from collections import Counter

from cardeal import (
    PAPER_PARAMS,
    bias_report,
    build_protocol,
    format_announcement,
    format_card_set,
    posterior_lines,
    sample_many,
    triple_point,
)

DRAWS = 20_000


def main() -> None:
    params = PAPER_PARAMS
    hand = (0, 1, 2)
    cases = [
        ("uniform60", None),
        ("fact1", None),
        ("fact2_conditional", 0),
        ("fact2_literal", 0),
    ]
    for kind, point in cases:
        proto = build_protocol(kind, params, point)
        report = bias_report(proto)
        label = kind if point is None else f"{kind}(point={point})"
        print(f"== {label}")
        posteriors = sorted(set(report.triple_in_hand.values()))
        print(f"   P(triple card actually held | announcement): {', '.join(map(str, posteriors))}")
        print(f"   class balance before observing: {report.class_balance}")
        print(f"   max deviation from per-line uniformity: {report.max_uniform_deviation}")

        draws = Counter(sample_many(proto, hand, seed=1, n=DRAWS))
        most_common, hits = draws.most_common(1)[0]
        expected = dict(proto.table[hand])[most_common]
        print(
            f"   sampling spot check ({DRAWS} draws from hand 012): "
            f"{format_announcement(most_common, params)} hit {hits / DRAWS:.4f} "
            f"vs exact {float(expected):.4f}"
        )

        example = proto.support()[0]
        table = posterior_lines(proto, example)
        shown = ", ".join(
            f"{format_card_set(line, params.v)}:{p}" for line, p in table.posteriors
        )
        top = triple_point(example)
        print(f"   example {format_announcement(example, params)} (triple {top}): {shown}")
        print()


if __name__ == "__main__":
    main()
