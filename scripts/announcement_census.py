#!/usr/bin/env python3
"""Census of good five-line announcements for the (3,3,1) deal.

Sweeps all 35 possible hands, counting the good announcements containing
each hand and splitting them by whether the thrice-occurring card is an
actual card. Then fixes each possible public point and counts the
announcements available per hand. The counts are the exact quantities the
unbiased protocols are built from.
"""

import time
from collections import Counter

from cardeal import (
    PAPER_LINES,
    PAPER_PARAMS,
    classify_by_triple,
    enumerate_good_announcements,
    enumerate_ksets,
    format_card_set,
    triple_point,
)


def main() -> None:
    params = PAPER_PARAMS
    start = time.time()

    print("hand   good  triple-in-hand  triple-outside")
    totals = Counter()
    per_point = {}
    for hand in enumerate_ksets(params.v, params.a):
        anns = enumerate_good_announcements(params, hand, PAPER_LINES)
        inside, outside = classify_by_triple(anns, hand)
        totals[(len(anns), len(inside), len(outside))] += 1
        per_point[hand] = Counter(map(triple_point, anns))
        print(f"{format_card_set(hand, params.v):>4}  {len(anns):>5}  {len(inside):>14}  {len(outside):>14}")
    print(f"count profiles seen: {dict(totals)}")

    print()
    print("announcements per hand once the triple point p is fixed in advance")
    header = "hand  " + "  ".join(f"p={p}" for p in range(params.v))
    print(header)
    for hand, points in per_point.items():
        row = [points[p] for p in range(params.v)]
        print(f"{format_card_set(hand, params.v):>4}  " + "  ".join(f"{n:>3}" for n in row))

    print()
    print(f"done in {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
