"""Block-design checks and the binary construction.

A collection of equally sized lines on v points is a t-design when every
t-subset of the points lies in the same number of lines; that number is the
covalency. Covalency is decided here by exhaustive iteration over all
C(v, t) t-subsets with early exit on the first mismatch, which at desk scale
is both feasible and the most trustworthy oracle. Each tuple size's scan is
charged C(v, t) * k (subsets times lines) to the work guard before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .guard import require_work
from .model import Announcement, CardSet, check_fit, to_mask


@dataclass(frozen=True)
class CovalencyMismatch:
    """Two t-subsets covered by different numbers of lines."""

    subset: CardSet
    count: int
    reference: CardSet
    reference_count: int


@dataclass(frozen=True)
class DesignProfile:
    """Covalency at every tuple size up to the block size, plus the strength.

    ``covalencies[t]`` is the constant count for t-subsets, or None when the
    count varies. The strength is the largest t with a constant count.
    """

    v: int
    block_size: int
    covalencies: tuple[int | None, ...]
    strength: int


def _scan(line_masks: Sequence[int], points: Sequence[int], t: int, max_work: int | None):
    require_work(comb(len(points), t) * len(line_masks), max_work, "covalency scan")
    expected = None
    reference = None
    for subset in combinations(points, t):
        sm = to_mask(subset)
        count = sum(1 for m in line_masks if m & sm == sm)
        if expected is None:
            expected, reference = count, subset
        elif count != expected:
            return None, CovalencyMismatch(subset, count, reference, expected)
    if expected is None:
        return 0, None  # no t-subsets at all: vacuously constant
    return expected, None


def covalency_over(
    lines: Iterable[CardSet],
    points: Iterable[int],
    t: int,
    *,
    max_work: int | None = None,
) -> int | None:
    """Constant cover count of t-subsets of ``points`` by ``lines``, else None.

    The point set is explicit so that residual collections (lines avoiding a
    card) can be measured on the deck minus that card.
    """
    line_list = list(lines)
    pts = tuple(points)
    if t < 0:
        raise ValueError(f"tuple size must be nonnegative, got {t}")
    if line_list and t > len(line_list[0]):
        raise ValueError(f"tuple size {t} exceeds block size {len(line_list[0])}")
    return _scan([to_mask(line) for line in line_list], pts, t, max_work)[0]


def _deck_scan(ann: Announcement, v: int, t: int, max_work: int | None):
    check_fit(ann, ann.block_size, v)
    if not 0 <= t <= ann.block_size:
        raise ValueError(f"tuple size {t} out of range for block size {ann.block_size}")
    return _scan(ann.masks, range(v), t, max_work)


def covalency(ann: Announcement, v: int, t: int, *, max_work: int | None = None) -> int | None:
    """Covalency of the announcement at tuple size t over the full deck."""
    return _deck_scan(ann, v, t, max_work)[0]


def covalency_mismatch(
    ann: Announcement, v: int, t: int, *, max_work: int | None = None
) -> CovalencyMismatch | None:
    """The first uneven pair of t-subsets, or None when the count is constant."""
    return _deck_scan(ann, v, t, max_work)[1]


def design_strength(ann: Announcement, v: int, *, max_work: int | None = None) -> int:
    """Largest t with constant covalency."""
    return design_profile(ann, v, max_work=max_work).strength


def design_profile(ann: Announcement, v: int, *, max_work: int | None = None) -> DesignProfile:
    """Covalency table for every tuple size from 0 to the block size.

    Constancy at t implies constancy at t-1 for equally sized blocks, so the
    scan stops at the first tuple size without a constant count and every
    larger size reads None, uncharged by the work guard.
    """
    check_fit(ann, ann.block_size, v)
    table = []
    for t in range(ann.block_size + 1):
        value = _scan(ann.masks, range(v), t, max_work)[0]
        if value is None:
            break
        table.append(value)
    padded = tuple(table) + (None,) * (ann.block_size + 1 - len(table))
    return DesignProfile(v, ann.block_size, padded, len(table) - 1)


def binary_design(n: int) -> Announcement:
    """The 2(2^n - 1) lines of size 2^(n-1) on 2^n points cut out by parity.

    Points are the n-bit vectors read as decimals. For every nonzero vector
    y, one line collects the points x with an even number of shared bits
    (x . y = 0 over GF(2)) and a second line collects the rest. Dot products
    reduce to the parity of the bitwise AND of the integer encodings.
    """
    if n < 3:
        raise ValueError(f"need at least 3 bits, got {n}")
    size = 1 << n
    require_work(2 * (size - 1) * size, None, "binary construction")
    lines = []
    for y in range(1, size):
        zero_side = tuple(x for x in range(size) if (x & y).bit_count() % 2 == 0)
        one_side = tuple(x for x in range(size) if (x & y).bit_count() % 2 == 1)
        lines.append(zero_side)
        lines.append(one_side)
    return Announcement.of(lines)


def profile_json(profile: DesignProfile) -> dict:
    return {
        "v": profile.v,
        "k": profile.block_size,
        "lambda": {str(t): value for t, value in enumerate(profile.covalencies)},
        "strength": profile.strength,
    }

