"""Block-design checks and the binary construction.

A collection of equally sized lines on v points is a t-design when every
t-subset of the points lies in the same number of lines; that number is the
covalency. Every entry point passes one gate, ``_fit``, which takes an
``Announcement`` as it is (raw lines are canonicalised), states the
tuple-size rule and builds masks only through ``model.build_masks``, after
``model.check_lines`` and once every line card is found among the points (a
card between two points would count for none): one mask per point, with bit
i set iff line i holds the point. Every point set takes one path: each line
card is renumbered by its position among the points, so the masks number the
points, not the largest label. One scanner, ``_scan``, charges C(v, t) *
max(t, 1) to the work guard and applies the kernel's CA4 rule: the k lines
hold k·C(size, t) t-subsets, so an indivisible sum over C(v, t) refuses a
constant unread; otherwise each count (the popcount of the AND of its t
points' masks) is compared with the quotient until one differs. A
``DesignProfile`` is a named tuple.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, log10
from typing import Iterable, NamedTuple

from .guard import comb_within, require_log10_work, require_work, resolve_max_work
from .model import Announcement, CardSet, build_masks, card_set, check_lines


class DesignProfile(NamedTuple):
    """Covalency at every tuple size up to the block size, plus the strength.

    ``covalencies[t]`` is the constant count for t-subsets, or None when the
    count varies. The strength is the largest t with a constant count.
    """

    v: int
    block_size: int
    covalencies: tuple[int | None, ...]
    strength: int


def _fit(lines: Iterable[Iterable[int]], points: Iterable[int], t: int) -> tuple[tuple[int, ...], int, int]:
    """Each point's mask (bit i set iff line i holds it), in point order, the line count and the block size.

    Built once the lines fit the points and 0 <= t <= block size, one mask
    per point however large the labels. An empty residual has no block size,
    so it bounds t from below only; it gets no masks and size 0."""
    pts = card_set(points)
    if not isinstance(ann := lines, Announcement):
        ann = Announcement.of(lines) if (lines := tuple(lines)) else None
    size = ann.block_size if ann else None
    if t < 0 or size is not None and t > size:
        raise ValueError(f"tuple size {t} out of range for block size {size}")
    if ann is None:
        return (), 0, 0
    check_lines(ann, size, max(pts, default=-1) + 1)
    position = {p: j for j, p in enumerate(pts)}
    try:
        lines = [tuple(map(position.__getitem__, line)) for line in ann.lines]
    except KeyError:  # a card between two points is in range, yet no point would count it
        stray = set().union(*ann.lines).difference(pts)
        raise ValueError(f"line card {min(stray)} is not one of the points") from None
    return build_masks(lines, len(pts))[1], len(ann), size


def _scan(columns: tuple[int, ...], k: int, size: int, t: int, limit: int) -> int | None:
    """The count of lines holding each t-subset of the points if it is constant, else None.

    A t-subset's count, charged max(t, 1) steps, is the popcount of the AND of
    its points' masks; the only constant is k·C(size, t) over the t-subsets (0
    for an empty residual, which may have no t-subsets)."""
    t_sets = comb_within(len(columns), t, limit, "covalency scan", max(t, 1))
    require_work(t_sets * max(t, 1), limit, "covalency scan")
    n, uneven = divmod(k * comb(size, t), t_sets or 1)
    if uneven:
        return None
    every = (1 << k) - 1
    for subset in combinations(columns, t):
        held = every
        for lines in subset:
            held &= lines
        if held.bit_count() != n:
            return None
    return n


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
    return _scan(*_fit(lines, points, t), t, resolve_max_work(max_work))


def covalency(ann: Announcement, v: int, t: int, *, max_work: int | None = None) -> int | None:
    """Covalency of the announcement at tuple size t over the full deck."""
    return covalency_over(ann, range(v), t, max_work=max_work)


def design_profile(ann: Announcement, v: int, *, max_work: int | None = None) -> DesignProfile:
    """Covalency table for every tuple size from 0 to the block size.

    Constancy at t implies constancy at t-1 for equally sized blocks, so the
    scan stops at the first tuple size without a constant count and every
    larger size reads None, uncharged by the work guard.
    """
    columns, k, size = _fit(ann, range(v), ann.block_size)
    limit, table = resolve_max_work(max_work), []
    for t in range(size + 1):
        value = _scan(columns, k, size, t, limit)
        if value is None:
            break
        table.append(value)
    padded = tuple(table) + (None,) * (size + 1 - len(table))
    return DesignProfile(v, size, padded, len(table) - 1)


def binary_design(n: int, *, max_work: int | None = None) -> Announcement:
    """The 2(2^n - 1) lines of size 2^(n-1) on 2^n points cut out by parity.

    Points are the n-bit vectors read as decimals. For every nonzero vector
    y, one line collects the points x with an even number of shared bits
    (x . y = 0 over GF(2)) and a second line collects the rest. Dot products
    reduce to the parity of the bitwise AND of the integer encodings.
    """
    if n < 3:
        raise ValueError(f"need at least 3 bits, got {n}")
    limit = resolve_max_work(max_work)
    require_log10_work((2 * n + 1) * log10(2), limit, "binary construction")
    size = 1 << n
    require_work(2 * (size - 1) * size, limit, "binary construction")
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

