"""Command-line front door.

Subcommands: verify, construct, enumerate, sample, analyze. Exit status 0
means success with all checks passing, 1 means a check failed (for example a
requested axiom does not hold), 2 means the invocation or its input could
not be parsed. Reports are human-readable text by default; --format json
emits the stable JSON schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .axioms import AXIOM_NAMES, axiom_report_json, check_axioms
from .bias import bias_report, bias_report_json, posterior_json, posterior_lines
from .designs import binary_design, design_profile, profile_json
from .enumeration import enumerate_good_announcements
from .guard import WorkLimitExceeded, require_work, resolve_max_work
from .model import (
    Announcement,
    Parameters,
    announcement_json,
    format_announcement,
    format_card_set,
    parse_announcement,
    parse_card_set,
)
from .protocols import PAPER_PARAMS, PROTOCOL_KINDS, build_protocol, sample_many

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

PROTOCOL_NAMES = tuple(kind.replace("_", "-") for kind in PROTOCOL_KINDS)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, WorkLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


@cache  # one tree per process: parse_args leaves the parsers as they were
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-work",
        type=int,
        default=None,
        help="work limit of the complexity guard (default 10^8)",
    )
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("text", "json"), default="text")
    deal = argparse.ArgumentParser(add_help=False)
    deal.add_argument("--params", required=True, help="hand sizes, e.g. 3,3,1")
    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    protocol.add_argument("--point", type=int, default=None, help="public point for fact2 protocols")

    parser = argparse.ArgumentParser(
        prog="cardeal",
        description="verify, construct, enumerate, sample and analyze card-deal announcements",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", parents=[common, deal, formats], help="check axioms on an announcement")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--announcement", help="announcement in compact text or JSON")
    source.add_argument("--stdin", action="store_true", help="read the announcement from stdin")
    source.add_argument("--file", help="read the announcement from a file")
    p_verify.add_argument(
        "--axioms",
        default="ca1,ca2,ca3,ca4,ca5",
        help="comma-separated subset of ca1..ca5 that must pass (default: all)",
    )
    p_verify.add_argument("--profile", action="store_true",
                          help="also report the design profile (covalencies and strength)")
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", parents=[common, formats], help="build a known announcement family")
    p_construct.add_argument("family", choices=("binary",))
    p_construct.add_argument("--bits", type=int, required=True, help="bit count n >= 3")
    p_construct.set_defaults(func=_cmd_construct)

    p_enum = sub.add_parser("enumerate", parents=[common, deal], help="list good announcements for a hand")
    p_enum.add_argument("--hand", required=True, help="the hand every announcement must contain")
    p_enum.add_argument("--size", type=int, default=5, help="lines per announcement (default 5)")
    p_enum.add_argument("--count", action="store_true", help="print only how many there are")
    p_enum.add_argument("--special-point", type=int, default=None,
                        help="keep only announcements whose triple point is this card")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sample = sub.add_parser("sample", parents=[common, protocol], help="draw announcements from a protocol")
    p_sample.add_argument("--hand", required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--n", type=int, default=1)
    p_sample.set_defaults(func=_cmd_sample)

    p_analyze = sub.add_parser("analyze", parents=[common, protocol, formats],
                               help="exact posterior analysis of a protocol")
    p_analyze.add_argument("--announcement", default=None,
                           help="report per-line posteriors for this announcement only")
    p_analyze.add_argument("--observer", default=None,
                           help="observer cards (compact text); needs --announcement")
    p_analyze.set_defaults(func=_cmd_analyze)

    return parser


def _parse_params(text: str) -> Parameters:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--params needs three comma-separated counts, got {text!r}")
    # ASCII decimal digits only, as for card text: int() alone also reads
    # signs, underscores, spaces and non-ASCII digits.
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"--params counts must be ASCII decimal digits, got {text!r}")
    return Parameters(*map(int, parts))


def _read_announcement(args, params: Parameters) -> Announcement:
    if args.announcement is not None:
        text = args.announcement
    elif args.stdin:
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    return parse_announcement(text, params)


def _cmd_verify(args) -> int:
    params = _parse_params(args.params)
    requested = [name.strip().lower() for name in args.axioms.split(",")]
    if unknown := [name for name in requested if name not in AXIOM_NAMES]:
        raise ValueError(f"unknown axiom {unknown[0]!r}, expected {', '.join(AXIOM_NAMES)}")
    ann = _read_announcement(args, params)
    payload = axiom_report_json(check_axioms(ann, params, max_work=args.max_work))
    if args.profile:
        payload["profile"] = profile_json(design_profile(ann, params.v, max_work=args.max_work))
    print(json.dumps(payload, indent=2) if args.format == "json" else _verify_text(payload))
    return EXIT_OK if all(payload[name]["pass"] for name in requested) else EXIT_CHECK_FAILED


_WITNESS_TEXT = {
    "ca1": lambda w: "avoided by " + " ".join(w["lines"]),
    "ca2": lambda w: f"common card(s) {w['common']}",
    "ca3": lambda w: f"uncovered card(s) {w['missing']}",
}


def _verify_text(payload: dict) -> str:
    """The text report, one line per axiom and one for a profile, read off the JSON payload."""
    rows = []
    for name in AXIOM_NAMES:
        verdict, w = payload[name], payload[name]["witness"]
        if name in _WITNESS_TEXT:
            shown = "pass" if verdict["pass"] else f"FAIL  X={w['x']} {_WITNESS_TEXT[name](w)}"
        elif verdict["pass"]:
            # One constant: for c-sets X, X' = X - x + y and N(z) the lines avoiding X - x that hold z,
            # n_X - n_X' = N(y) - N(x) = a·(N(y) - N(x))/(v - c) by the count sum n_X·(v - c) = a·|avoid_X|,
            # which is 0 as a < v - c; single swaps join all c-sets, and CA5's m_X = n_X·b/a follows.
            constant = next(iter(verdict["n" if name == "ca4" else "m"].values()))
            shown = f"pass  constant {constant} for every c-set"
        else:
            counts = " ".join(f"{card}:{count}" for card, count in w["counts"].items())
            shown = f"FAIL  X={w['x']} counts {counts}; violating c-sets: {' '.join(verdict['violating'])}"
        rows.append(f"{name.upper()}: {shown}")
    if profile := payload.get("profile"):
        table = " ".join(f"t={t}:{'-' if value is None else value}" for t, value in profile["lambda"].items())
        rows.append(f"design strength: {profile['strength']}  ({table})")
    return "\n".join(rows)


def _cmd_construct(args) -> int:
    ann = binary_design(args.bits, max_work=args.max_work)
    half = 1 << (args.bits - 1)
    params = Parameters(half, half - 1, 1)
    if args.format == "json":
        print(json.dumps(announcement_json(ann, params)))
    else:
        print(format_announcement(ann, params))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    params = _parse_params(args.params)
    hand = parse_card_set(args.hand, params.v)
    p = args.special_point
    if p is not None and not 0 <= p < params.v:
        raise ValueError(f"point {p} out of range for deck size {params.v}")
    anns = enumerate_good_announcements(params, hand, args.size, max_work=args.max_work)
    if p is not None:
        anns = [ann for ann in anns if ann.triple_point == p]
    if args.count:
        print(len(anns))
    else:
        for ann in anns:
            print(format_announcement(ann, params))
    return EXIT_OK


def _cmd_sample(args) -> int:
    params, max_work = PAPER_PARAMS, resolve_max_work(args.max_work)
    require_work(args.n, max_work, "sampling")
    hand = parse_card_set(args.hand, params.v, params.a)
    proto = build_protocol(args.protocol.replace("-", "_"), params, args.point, max_work=max_work)
    for ann in sample_many(proto, hand, args.seed, args.n):
        print(format_announcement(ann, params))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    params = PAPER_PARAMS
    if args.observer is not None and args.announcement is None:
        raise ValueError("--observer needs --announcement")
    ann = None if args.announcement is None else parse_announcement(args.announcement, params)
    observer = () if args.observer is None else parse_card_set(args.observer, params.v)
    proto = build_protocol(args.protocol.replace("-", "_"), params, args.point, max_work=args.max_work)
    if ann is not None:
        table = posterior_lines(proto, ann, observer)
        if args.format == "json":
            print(json.dumps(posterior_json(table, params), indent=2))
        else:
            print(f"announcement {format_announcement(ann, params)}"
                  + (f" seen by {format_card_set(table.observer, params.v)}" if table.observer else ""))
            for line, p in table.posteriors:
                print(f"  {format_card_set(line, params.v)}: {p}")
        return EXIT_OK

    report = bias_report(proto, max_work=args.max_work)
    if args.format == "json":
        print(json.dumps(bias_report_json(report, params), indent=2))
    else:
        label = proto.kind if proto.point is None else f"{proto.kind}({proto.point})"
        print(f"protocol {label}")
        print(f"  max deviation from per-line uniformity: {report.max_uniform_deviation}")
        posteriors = sorted(set(report.triple_in_hand.values()))
        shown = ", ".join(str(p) for p in posteriors)
        print(f"  P(most frequent card actually held | announcement): {shown}")
        print(f"  class balance before observing: {report.class_balance}")
        for name, value in report.references.items():
            print(f"  reference {name}: {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
