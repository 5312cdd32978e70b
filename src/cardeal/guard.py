"""Work-limit guard shared by the exhaustive checks."""

from __future__ import annotations

import os

DEFAULT_MAX_WORK = 10**8
ENV_VAR = "CARDEAL_MAX_WORK"


class WorkLimitExceeded(RuntimeError):
    """An operation refused to start because its work estimate is too large."""


def resolve_max_work(value: int | None = None) -> int:
    """Explicit value if given, else the CARDEAL_MAX_WORK variable, else 10^8."""
    if value is not None:
        return value
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_MAX_WORK


def require_work(estimate: int, max_work: int | None, what: str) -> None:
    limit = resolve_max_work(max_work)
    if estimate > limit:
        raise WorkLimitExceeded(
            f"{what} needs about {estimate} steps, above the limit of {limit}; "
            f"raise --max-work or {ENV_VAR} to run it anyway"
        )
