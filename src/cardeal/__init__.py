"""Verification toolkit for card-deal secret-communication announcements.

Checks the combinatorial safety axioms CA1-CA5 with witnesses, verifies and
constructs block designs (including the parity-based binary family),
exhaustively enumerates good announcements at small parameters, and performs
exact rational Bayesian bias analysis of announcement-producing protocols.
"""

from .axioms import AxiomReport, check_axioms, is_good
from .bias import BiasReport, PosteriorTable, bias_report, posterior_lines, prior_point_in_hand
from .designs import (
    DesignProfile,
    binary_design,
    covalency,
    covalency_over,
    design_profile,
)
from .enumeration import (
    classify_by_triple,
    enumerate_good_announcements,
    triple_point,
)
from .guard import WorkLimitExceeded
from .model import (
    Announcement,
    AnnouncementParseError,
    CardSet,
    Parameters,
    card_set,
    enumerate_ksets,
    format_announcement,
    format_card_set,
    parse_announcement,
    parse_card_set,
)
from .protocols import (
    PAPER_LINES,
    PAPER_PARAMS,
    PROTOCOL_KINDS,
    Protocol,
    build_protocol,
    protocol_from_json,
    protocol_json,
    sample_many,
    validate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "Announcement",
    "AnnouncementParseError",
    "AxiomReport",
    "BiasReport",
    "CardSet",
    "DesignProfile",
    "PAPER_LINES",
    "PAPER_PARAMS",
    "PROTOCOL_KINDS",
    "Parameters",
    "PosteriorTable",
    "Protocol",
    "WorkLimitExceeded",
    "bias_report",
    "binary_design",
    "build_protocol",
    "card_set",
    "check_axioms",
    "classify_by_triple",
    "covalency",
    "covalency_over",
    "design_profile",
    "enumerate_good_announcements",
    "enumerate_ksets",
    "format_announcement",
    "format_card_set",
    "is_good",
    "parse_announcement",
    "parse_card_set",
    "posterior_lines",
    "prior_point_in_hand",
    "protocol_from_json",
    "protocol_json",
    "sample_many",
    "triple_point",
    "validate_protocol",
]
