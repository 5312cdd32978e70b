"""What every record type promises: its repr, ==, !=, hash and frozen fields.

The plain result records are named tuples; the five classes that check,
cache or customise equality (``Parameters``, ``Announcement``, ``Protocol``,
``CountVerdict``, ``Likelihoods``) are plain classes on ``model.Frozen``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cardeal
from cardeal import (
    Announcement,
    Parameters,
    Protocol,
    bias_report,
    build_protocol,
    check_axioms,
    design_profile,
    parse_announcement,
    posterior_lines,
    protocol_from_json,
    protocol_json,
)
from cardeal.protocols import validate_protocol

P331 = Parameters(3, 3, 1)
FIVE = "012 034 056 135 246"
CLASH = [(0, 1, 2), (0, 1, 3)]  # fails CA1 (4,5,6 avoids both), CA2 and CA3


def small_protocol(p=Fraction(1)):
    return Protocol("uniform60", P331, {(0, 1, 2): ((Announcement(((0, 1, 2), (3, 4, 5))), p),)})


@pytest.fixture(scope="module")
def triples():
    """Per record type: an instance, an equal one built apart, and an unequal one."""
    five, clash = parse_announcement(FIVE, P331), Announcement.of(CLASH)
    report, report_again, clashing = check_axioms(five, P331), check_axioms(five, P331), check_axioms(clash, P331)
    proto = build_protocol("uniform60", P331)
    proto_again = protocol_from_json(protocol_json(proto))
    ann = proto.support()[0]
    posterior_lines(proto, ann)  # fills one entry of proto's ratio memo, none of proto_again's
    assert proto.likelihoods.ratios and not proto_again.likelihoods.ratios
    literal = build_protocol("fact2_literal", P331, 0)
    bad = small_protocol(Fraction(1, 2))
    return {
        "Parameters": (P331, Parameters(3, 3, 1), Parameters(4, 3, 1)),
        "Announcement": (five, Announcement.of(five.lines), clash),
        "Protocol": (proto, proto_again, literal),
        "Likelihoods": (proto.likelihoods, proto_again.likelihoods, literal.likelihoods),
        "CountVerdict": (report.ca4, report_again.ca4, report.ca5),
        "AxiomReport": (report, report_again, clashing),
        "AxiomVerdict": (report.ca1, report_again.ca1, clashing.ca1),
        "AmbiguityWitness": (clashing.ca1.witness, check_axioms(clash, P331).ca1.witness, None),
        "CommonCardWitness": (clashing.ca2.witness, check_axioms(clash, P331).ca2.witness, None),
        "UncoveredCardWitness": (clashing.ca3.witness, check_axioms(clash, P331).ca3.witness, None),
        "UnevenCountWitness": (report.ca4.witness, report_again.ca4.witness, report.ca5.witness),
        "PosteriorTable": (
            posterior_lines(proto, ann, (0,)), posterior_lines(proto_again, ann, (0,)), posterior_lines(proto, ann)
        ),
        "BiasReport": (bias_report(proto), bias_report(proto_again), bias_report(literal)),
        "DesignProfile": (design_profile(five, 7), design_profile(Announcement.of(five.lines), 7),
                          design_profile(clash, 7)),
        "ValidationReport": (validate_protocol(bad), validate_protocol(small_protocol(Fraction(1, 2))),
                             validate_protocol(proto)),
        "ValidationIssue": (validate_protocol(bad).issues[0], validate_protocol(bad).issues[0],
                            validate_protocol(bad).issues[1]),
    }


def test_every_record_type_is_covered(triples):
    assert len(triples) == 16
    for name, (x, same, other) in triples.items():
        assert type(x).__name__ == name and type(same) is type(x), name
        assert other is None or type(other) is type(x), name


def test_not_equal_is_not_equal(triples):
    # A named tuple that overrides __eq__ keeps tuple.__ne__; these records must not.
    for name, (x, same, other) in triples.items():
        assert x == same and same == x and not x != same and not same != x, name
        if other is not None:
            assert x != other and not x == other, name
        assert (x != same) is (not (x == same)), name


def test_fields_cannot_be_assigned_or_deleted(triples):
    for name, (x, _, _) in triples.items():
        field = x._fields[0]
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, "extra", None)


def test_plain_classes_name_the_field_they_refuse():
    with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
        P331.a = 4
    with pytest.raises(AttributeError, match="cannot assign to field 'lines'"):
        del Announcement.of(CLASH).lines


@pytest.mark.parametrize("name", ["Protocol", "Likelihoods", "CountVerdict"])
def test_mutable_holders_stay_unhashable(triples, name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(triples[name][0])


def test_equal_announcements_hash_equal():
    parsed = parse_announcement("246 135 056 034 012", P331)
    built = Announcement(((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)))
    assert parsed is not built and hash(parsed) == hash(built)
    assert {parsed: 1}[built] == 1 and hash(P331) == hash(Parameters(3, 3, 1))


def test_reprs_are_pinned():
    five = parse_announcement(FIVE, P331)
    assert repr(P331) == "Parameters(a=3, b=3, c=1)"
    assert repr(five) == "Announcement(lines=((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)))"
    proto = small_protocol()
    assert repr(proto) == (
        "Protocol(kind='uniform60', params=Parameters(a=3, b=3, c=1), "
        "table={(0, 1, 2): ((Announcement(lines=((0, 1, 2), (3, 4, 5))), Fraction(1, 1)),)}, point=None)"
    )
    likelihoods = proto.likelihoods
    posterior_lines(proto, proto.support()[0])  # the ratio memo stays out of repr
    assert likelihoods.ratios
    assert repr(likelihoods) == (
        "Likelihoods(denominator=1, columns={Announcement(lines=((0, 1, 2), (3, 4, 5))): {(0, 1, 2): 1}}, "
        "rows={Announcement(lines=((0, 1, 2), (3, 4, 5))): (1, 0)})"
    )
    report = check_axioms(Announcement(((0, 1, 2), (3, 4, 5))), P331)
    assert repr(report.ca4) == (  # counts_outside stays out of repr
        "CountVerdict(constants={(6,): 1}, violating=((0,), (1,), (2,), (3,), (4,), (5,)))"
    )


def test_counts_outside_and_the_ratio_memo_stay_out_of_equality():
    five = parse_announcement(FIVE, P331)
    ca4 = check_axioms(five, P331).ca4
    assert ca4.counts_outside is not check_axioms(five, P331).ca4.counts_outside
    proto, again = small_protocol(), small_protocol()
    posterior_lines(proto, proto.support()[0])
    assert proto.likelihoods.ratios != again.likelihoods.ratios
    assert proto.likelihoods == again.likelihoods and proto == again


def test_result_records_are_named_tuples():
    # They iterate, index and compare equal to the tuple of their fields.
    verdict = check_axioms(Announcement.of(CLASH), P331).ca1
    passed, witness = verdict
    assert not passed and verdict[1] is witness and witness == ((4, 5, 6), ((0, 1, 2), (0, 1, 3)))
    assert tuple(design_profile(parse_announcement(FIVE, P331), 7)) == (7, 3, (5, None, None, None), 0)


def test_importing_the_package_and_cli_loads_no_dataclasses_or_inspect():
    src = str(Path(cardeal.__file__).resolve().parents[1])
    code = "import sys, cardeal, cardeal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
