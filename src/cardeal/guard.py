"""Work-limit guard shared by the exhaustive checks; a huge binomial or power of two is sized by its log10."""

from __future__ import annotations

from math import comb, inf, log, log1p, log10, pi

DEFAULT_MAX_WORK = 10**8


class WorkLimitExceeded(RuntimeError):
    """An operation refused to start because its work estimate is too large."""


def resolve_max_work(value: int | None = None) -> int:
    """The explicit value if given, else 10^8; a negative limit is refused with a ValueError.

    Each request calls this once, where its first charge falls, and every charge takes the integer.
    """
    if value is None:
        return DEFAULT_MAX_WORK
    if value < 0:
        raise ValueError(f"the work limit (max_work, --max-work) must be nonnegative, got {value}")
    return value


def _readable(n: int) -> str:
    """n in decimal, or as a power of ten once it is too long to read (or to print)."""
    return str(n) if n < 10**12 else f"10^{log10(n):.1f}"


def _refuse(needed: str, limit: int, what: str) -> None:
    raise WorkLimitExceeded(
        f"{what} needs about {needed} steps, above the limit of {_readable(limit)}; "
        "raise --max-work to run it anyway"
    )


def require_work(estimate: int, limit: int, what: str) -> None:
    if estimate > limit:
        _refuse(_readable(estimate), limit, what)


def require_log10_work(log10_estimate: float, limit: int, what: str) -> None:
    """Refuse an estimate known by its log10 once it is past both 10^12 and ten times the limit."""
    if log10_estimate > max(12.0, log10(limit + 1) + 1):
        _refuse(f"10^{log10_estimate:.1f}", limit, what)


def comb_within(n: int, k: int, limit: int, what: str, times: int = 1) -> int:
    """C(n, k), once C(n, k) * times is known not to be far above the limit.

    Past a bound n^j of 2^4096, j = min(k, n - k), C(n, k) >= 2^41 is first
    sized by Stirling's series, within 0.06 in log10 (inf past a float's range)."""
    j = min(k, n - k)
    if times and j * n.bit_length() > 4096:
        x = j / (n - j)  # in (0, 1], as j <= n / 2; 0.0 once n - j dwarfs j
        nats = j * (log(n) - log(j) + (log1p(x) / x if x else 1.0)) if j.bit_length() < 1000 else inf
        nats -= (log(2 * pi) + log(j) + log((n - j) / n)) / 2
        require_log10_work(nats / log(10) + log10(times), limit, what)
    return comb(n, k)
