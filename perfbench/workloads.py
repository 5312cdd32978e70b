"""Inputs, operations and correctness oracles of the three benchmark workloads.

Each workload is a function ``run_<name>(rec, inputs, expect)`` that performs a
fixed work list against the public API of ``cardeal`` and checks every output
against ``expect``. ``make_inputs`` derives the inputs from the seed alone, so
the same seed always gives the same work. Timing and tracing go through the
``Recorder`` of measure.py: ``rec.op`` times one user-visible operation and
``rec.call`` wraps one call into a layer.

Counters whose name says "computed" are derived from the inputs and the
documented behaviour of the public functions, not read from inside the
program: they size the work, so that a later speed-up can be shown to be
algorithmic rather than a smaller problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import cardeal
from cardeal import cli
from measure import Recorder

WORKLOADS = ("verify", "census", "analyze")

SMALL_PARAMS = ((3, 3, 1), (4, 3, 1), (3, 2, 2), (2, 3, 2))
BINARY_PARAMS = ((8, 7, 1), (8, 6, 2), (8, 5, 3))
BINARY_BITS = 4
PROTOCOLS = (("uniform60", None), ("fact1", None), ("fact2_conditional", 0), ("fact2_literal", 0))

# Work sizes of a full pass and of the smoke tests' tiny pass.
VERIFY_ITEMS_PER_PARAMS = {"full": 400, "tiny": 4}
CENSUS_HANDS = {"full": 35, "tiny": 2}
ANALYZE_SUPPORT_LIMIT = {"full": None, "tiny": 3}
ANALYZE_SAMPLE_HANDS = {"full": 35, "tiny": 2}
DRAWS_PER_HAND = 300

FIVE_TEXT = "012 034 056 135 246"
SEVEN_TEXT = "012 034 056 135 146 236 245"

# Expected answers. The smoke tests replace single entries with wrong values
# to show that every oracle can fail.
EXPECT = {
    "five.good": True,
    "five.ca4_witness": (1,),
    "seven.good": True,
    # (CA1, CA2, CA3, CA4, CA5) per binary parameter set; None is not checked.
    "binary.verdicts": {
        (8, 7, 1): (True, True, True, True, True),
        (8, 6, 2): (True, True, True, True, True),
        (8, 5, 3): (True, True, False, None, None),
    },
    "binary.covalencies": (30, 15, 7, 3),
    "binary.strength": 3,
    "census.per_hand": 60,
    "census.triple_split": (36, 24),
    "census.point_split": (12, 6),
    "census.nonexistence": 0,
    "analyze.entries_per_hand": {
        "uniform60": (60, 60),
        "fact1": (60, 60),
        "fact2_conditional": (12, 6),
        "fact2_literal": (12, 6),
    },
    "analyze.class_balance": {
        "uniform60": Fraction(3, 5),
        "fact1": Fraction(1, 2),
        "fact2_conditional": Fraction(3, 7),
        "fact2_literal": Fraction(1, 2),
    },
}


class WrongAnswer(Exception):
    """An operation returned a result its oracle rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def params_tag(params: tuple[int, int, int]) -> str:
    return "%d-%d-%d" % params


def compact_text(lines, v: int) -> str:
    """Compact announcement text, written here so the inputs do not depend on the program."""
    sep = "" if v <= 10 else ","
    return " ".join(sep.join(str(card) for card in line) for line in lines)


def binary_lines(n: int) -> list[tuple[int, ...]]:
    """Canonical lines of the binary design, from the parity rule directly."""
    size = 1 << n
    lines = []
    for y in range(1, size):
        for parity in (0, 1):
            lines.append(tuple(x for x in range(size) if (x & y).bit_count() % 2 == parity))
    return sorted(lines)


# ---------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return _verify_inputs(rng, VERIFY_ITEMS_PER_PARAMS[size])
    if workload == "census":
        hands = list(combinations(range(7), 3))
        rng.shuffle(hands)
        return {
            "hands": hands[: CENSUS_HANDS[size]],
            "nonexistence_hand": rng.choice(list(combinations(range(8), 4))),
            "nonexistence": size == "full",
        }
    if workload == "analyze":
        hands = list(combinations(range(7), 3))
        rng.shuffle(hands)
        return {
            "sample_hands": hands[: ANALYZE_SAMPLE_HANDS[size]],
            "sample_seeds": [rng.randrange(2**32) for _ in PROTOCOLS],
            "support_limit": ANALYZE_SUPPORT_LIMIT[size],
        }
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _verify_inputs(rng: random.Random, per_params: int) -> dict:
    """Random announcements in shuffled compact text, plus fixtures and binary rows.

    Each item is ``(kind, params, text, canonical_lines)``. Line order and
    card order inside a line are shuffled, so parsing has to canonicalise.
    """
    items = [
        ("five", (3, 3, 1), FIVE_TEXT, _canonical(FIVE_TEXT.split())),
        ("seven", (3, 3, 1), SEVEN_TEXT, _canonical(SEVEN_TEXT.split())),
    ]
    for params in SMALL_PARAMS:
        a, v = params[0], sum(params)
        all_lines = list(combinations(range(v), a))
        for _ in range(per_params):
            k = rng.randint(2, 12)
            chosen = rng.sample(all_lines, k)
            shuffled = [rng.sample(line, a) for line in chosen]
            items.append(("small", params, compact_text(shuffled, v), sorted(chosen)))
    rng.shuffle(items)
    design = binary_lines(BINARY_BITS)
    design_text = compact_text(design, 1 << BINARY_BITS)
    for params in BINARY_PARAMS:
        items.append(("binary", params, design_text, design))
    return {"items": items, "design": design, "design_text": design_text}


def _canonical(tokens) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(int(ch) for ch in token)) for token in tokens)


# ---------------------------------------------------------------- verify


def run_verify(rec: Recorder, inputs: dict, expect: dict = EXPECT) -> None:
    """Parse, check_axioms and is_good on every item; design_profile on binary rows."""
    for kind, params, text, lines in inputs["items"]:
        p = cardeal.Parameters(*params)
        tag = "binary-" + params_tag(params) if kind == "binary" else "small"

        def one(p=p, text=text, tag=tag, kind=kind):
            ann = rec.call("model.parse_announcement", tag, cardeal.parse_announcement, text, p)
            report = rec.call("axioms.check_axioms", tag, cardeal.check_axioms, ann, p)
            good = rec.call("axioms.is_good", tag, cardeal.is_good, ann, p)
            profile = None
            if kind == "binary":
                profile = rec.call("designs.design_profile", tag, cardeal.design_profile, ann, p.v)
            return ann, report, good, profile

        def check(result, kind=kind, params=params, text=text, lines=lines):
            ann, report, good, profile = result
            require(list(ann.lines) == lines, f"{text!r} parsed to {ann.lines}")
            require(report.good == good, f"check_axioms good={report.good}, is_good={good}")
            _check_item(kind, params, report, profile, expect)

        rec.op("verify." + kind, one, check)
        v, b, c = sum(params), params[1], params[2]
        rec.count("axioms.sets_quantified", comb(v, b) + comb(v, c))
        if kind == "binary":
            rec.count("designs.subsets_scanned", sum(comb(v, t) for t in range(params[0] + 1)))

    rec.op(
        "designs.binary_design",
        lambda: rec.call("designs.binary_design", "", cardeal.binary_design, BINARY_BITS),
        lambda ann: require(list(ann.lines) == inputs["design"], "binary_design lines differ"),
    )
    _run_cli(rec, inputs, expect)


def _check_item(kind, params, report, profile, expect) -> None:
    if kind == "five":
        require(report.good == expect["five.good"], f"five-line fixture good={report.good}")
        witness = report.ca4.witness
        require(
            witness is not None and witness.x == expect["five.ca4_witness"],
            f"five-line fixture CA4 witness {witness}",
        )
    elif kind == "seven":
        require(report.good == expect["seven.good"], f"seven-line fixture good={report.good}")
    elif kind == "binary":
        verdicts = tuple(report.passed(name) for name in ("ca1", "ca2", "ca3", "ca4", "ca5"))
        wanted = expect["binary.verdicts"][params]
        for name, got, want in zip(("CA1", "CA2", "CA3", "CA4", "CA5"), verdicts, wanted):
            require(want is None or got == want, f"binary {params}: {name} passed={got}")
        covalencies = expect["binary.covalencies"]
        require(
            profile.covalencies[: len(covalencies)] == covalencies
            and profile.strength == expect["binary.strength"],
            f"binary profile {profile}",
        )


def _cli_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_cli(rec: Recorder, inputs: dict, expect: dict) -> None:
    """``construct binary`` and ``verify --format json --profile`` on the same text."""
    argv = ["construct", "binary", "--bits", str(BINARY_BITS)]
    built = rec.op(
        "cli.construct",
        lambda: rec.call("cli.main", "construct", _cli_main, argv),
        lambda r: require(r == (0, inputs["design_text"] + "\n"), f"construct printed {r!r:.80}"),
    )
    text = built[1].strip() if built else inputs["design_text"]
    params = BINARY_PARAMS[0]
    argv = ["verify", "--params", "%d,%d,%d" % params, "--announcement", text,
            "--format", "json", "--profile"]

    def check(result):
        code, out = result
        require(code == 0, f"verify exited {code}")
        payload = json.loads(out)
        passed = [payload[name]["pass"] for name in ("ca1", "ca2", "ca3", "ca4", "ca5")]
        require(all(passed), f"verify JSON verdicts {passed}")
        require(payload["profile"]["strength"] == expect["binary.strength"], "verify JSON profile")

    rec.op("cli.verify", lambda: rec.call("cli.main", "verify", _cli_main, argv), check)


# ---------------------------------------------------------------- census


def run_census(rec: Recorder, inputs: dict, expect: dict = EXPECT) -> None:
    """Cold (3,3,1) k=5 enumeration per hand with both splits, then one nonexistence proof."""
    p = cardeal.Parameters(3, 3, 1)
    for hand in inputs["hands"]:

        def one(hand=hand):
            anns = rec.call("enumeration.enumerate_good_announcements", "3-3-1",
                            cardeal.enumerate_good_announcements, p, hand, 5)
            inside, outside = rec.call("enumeration.classify_by_triple", "3-3-1",
                                       cardeal.classify_by_triple, anns, hand)
            points = Counter(rec.call("enumeration.triple_point", "3-3-1", cardeal.triple_point, a)
                             for a in anns)
            return anns, inside, outside, points

        def check(result, hand=hand):
            anns, inside, outside, points = result
            rec.count("enumeration.found", len(anns))
            require(len(anns) == expect["census.per_hand"], f"hand {hand}: {len(anns)} found")
            require((len(inside), len(outside)) == expect["census.triple_split"],
                    f"hand {hand}: triple split {len(inside)}/{len(outside)}")
            held, free = expect["census.point_split"]
            split = [points[q] for q in range(p.v)]
            require(split == [held if q in hand else free for q in range(p.v)],
                    f"hand {hand}: special-point split {split}")
            require(all(hand in a.lines for a in anns), f"hand {hand}: announcement without hand")

        rec.op("census.hand", one, check)
        rec.count("enumeration.raw_candidates", comb(comb(p.v, p.a), 5))
    rec.count("enumeration.requests", len(inputs["hands"]))
    rec.count("enumeration.distinct_requests", len(set(inputs["hands"])))

    if inputs["nonexistence"]:
        p4 = cardeal.Parameters(4, 3, 1)
        hand = inputs["nonexistence_hand"]

        def check(anns):
            rec.count("enumeration.nonexistence_found", len(anns))
            require(len(anns) == expect["census.nonexistence"],
                    f"(4,3,1) k=5 hand {hand}: {len(anns)} found")

        rec.op(
            "census.nonexistence",
            lambda: rec.call("enumeration.enumerate_good_announcements", "4-3-1",
                             cardeal.enumerate_good_announcements, p4, hand, 5),
            check,
        )
        rec.count("enumeration.raw_candidates", comb(comb(p4.v, p4.a), 5))
        rec.count("enumeration.requests", 1)
        rec.count("enumeration.distinct_requests", 1)


# ---------------------------------------------------------------- analyze


def run_analyze(rec: Recorder, inputs: dict, expect: dict = EXPECT) -> None:
    """Four protocols: build, validate, bias report, posteriors, sampling, JSON round trip."""
    p = cardeal.Parameters(3, 3, 1)
    protos = {}
    for kind, point in PROTOCOLS:
        def check(proto, kind=kind, point=point):
            held, free = expect["analyze.entries_per_hand"][kind]
            rec.count("protocols.table_entries", sum(len(d) for d in proto.table.values()))
            require(len(proto.table) == comb(p.v, p.a), f"{kind}: {len(proto.table)} hands")
            for hand, dist in proto.table.items():
                want = held if point is None or point in hand else free
                require(len(dist) == want, f"{kind}: hand {hand} has {len(dist)} entries")

        protos[kind] = rec.op(
            "protocols.build",
            lambda kind=kind, point=point: rec.call(
                "protocols.build_protocol", kind, cardeal.build_protocol, kind, p, point),
            check,
        )
    # build_protocol enumerates all 35 hands and bias_report one reference
    # hand; only the first protocol's requests are new keys.
    rec.count("enumeration.requests", len(PROTOCOLS) * (comb(p.v, p.a) + 1))
    rec.count("enumeration.distinct_requests", comb(p.v, p.a))

    for (kind, _), seed in zip(PROTOCOLS, inputs["sample_seeds"]):
        proto = protos[kind]
        if proto is None:
            continue
        _analyze_protocol(rec, kind, proto, seed, inputs, expect)


def _analyze_protocol(rec, kind, proto, seed, inputs, expect) -> None:
    rec.op(
        "protocols.validate",
        lambda: rec.call("protocols.validate_protocol", kind, cardeal.validate_protocol, proto),
        lambda report: require(report.ok, f"{kind}: validation issues {report.issues[:2]}"),
    )
    rec.op(
        "bias.report",
        lambda: rec.call("bias.bias_report", kind, cardeal.bias_report, proto),
        lambda report: require(
            report.class_balance == expect["analyze.class_balance"][kind],
            f"{kind}: class balance {report.class_balance}",
        ),
    )

    support = proto.support()[: inputs["support_limit"]]
    observers = [()] + [(card,) for card in range(proto.params.v)]
    for ann in support:
        for observer in observers:
            def check(table, ann=ann, observer=observer):
                total = sum(prob for _, prob in table.posteriors)
                require(total == 1, f"{kind}: posteriors for {ann.lines} sum to {total}")
                for line, prob in table.posteriors:
                    require(prob == 0 or not set(line) & set(observer),
                            f"{kind}: line {line} meets observer {observer} yet has {prob}")

            rec.op(
                "bias.posterior",
                lambda ann=ann, observer=observer: rec.call(
                    "bias.posterior_lines", kind, cardeal.posterior_lines, proto, ann, observer),
                check,
            )
            rec.count("bias.posteriors", 1)

    rng = random.Random(seed)
    for hand in inputs["sample_hands"]:
        draw_seed = rng.randrange(2**32)
        rec.op(
            "protocols.sample",
            lambda hand=hand, draw_seed=draw_seed: rec.call(
                "protocols.sample_many", kind, cardeal.sample_many,
                proto, hand, draw_seed, DRAWS_PER_HAND),
            lambda draws, hand=hand: require(
                len(draws) == DRAWS_PER_HAND and all(hand in a.lines for a in draws),
                f"{kind}: a draw for {hand} does not contain the hand",
            ),
        )
        rec.count("protocols.draws", DRAWS_PER_HAND)

    def round_trip():
        data = rec.call("protocols.protocol_json", kind, cardeal.protocol_json, proto)
        return rec.call("protocols.protocol_from_json", kind, cardeal.protocol_from_json,
                        json.loads(json.dumps(data)))

    rec.op(
        "protocols.json_roundtrip",
        round_trip,
        lambda back: require(back == proto, f"{kind}: JSON round trip changed the protocol"),
    )


RUNNERS = {"verify": run_verify, "census": run_census, "analyze": run_analyze}
