"""Verification toolkit for card-deal secret-communication announcements.

Checks the combinatorial safety axioms CA1-CA5 with witnesses, verifies and
constructs block designs (including the parity-based binary family),
exhaustively enumerates good announcements at small parameters, and performs
exact rational Bayesian bias analysis of announcement-producing protocols.
"""

from .axioms import (
    AxiomReport,
    AmbiguousLineError,
    InferenceError,
    NoLineError,
    bob_infer,
    bob_sets,
    cathy_card_counts,
    check_axioms,
    is_good,
    lines_avoiding,
)
from .bias import BiasReport, PosteriorTable, bias_report, posterior_lines, prior_point_in_hand
from .designs import (
    DesignProfile,
    binary_design,
    covalency,
    covalency_over,
    design_profile,
    design_strength,
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
    Deal,
    Parameters,
    card_set,
    complement_set,
    enumerate_ksets,
    format_announcement,
    format_card_set,
    make_deal,
    parse_announcement,
    parse_card_set,
)
from .protocols import (
    PROTOCOL_KINDS,
    Protocol,
    build_protocol,
    protocol_from_json,
    protocol_json,
    sample,
    sample_many,
    validate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLineError",
    "Announcement",
    "AnnouncementParseError",
    "AxiomReport",
    "BiasReport",
    "CardSet",
    "Deal",
    "DesignProfile",
    "InferenceError",
    "NoLineError",
    "PROTOCOL_KINDS",
    "Parameters",
    "PosteriorTable",
    "Protocol",
    "WorkLimitExceeded",
    "bias_report",
    "binary_design",
    "bob_infer",
    "bob_sets",
    "build_protocol",
    "card_set",
    "cathy_card_counts",
    "check_axioms",
    "classify_by_triple",
    "complement_set",
    "covalency",
    "covalency_over",
    "design_profile",
    "design_strength",
    "enumerate_good_announcements",
    "enumerate_ksets",
    "format_announcement",
    "format_card_set",
    "is_good",
    "lines_avoiding",
    "make_deal",
    "parse_announcement",
    "parse_card_set",
    "posterior_lines",
    "prior_point_in_hand",
    "protocol_from_json",
    "protocol_json",
    "sample",
    "sample_many",
    "triple_point",
    "validate_protocol",
]
