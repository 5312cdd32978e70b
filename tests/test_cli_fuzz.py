"""Exit-code contract under fuzzed input: every subcommand exits 0, 1 or 2.

Each example drives ``cli.main`` in-process. It starts from a well-formed
invocation of one subcommand and, three times in five, corrupts it: one token
is replaced by noise or a malformed value, dropped, or joined by a stray
token. Announcement content (compact text, JSON, deeply nested JSON or noise)
goes in through ``--announcement``, ``--stdin`` or ``--file``. Whatever the
input, ``main`` must return, or argparse must exit, with a code in {0, 1, 2};
no exception may escape and nothing may print a traceback.

Every size stays small so that no example can start a long run: decks of at
most 8 cards, ``--size`` at most 5, ``--bits`` at most 5, ``--n`` at most 50,
and no work limit above the default. The default still admits runs of many
seconds: ``sample`` charges one unit per draw, so it admits up to 10^8 draws,
about 70 s at the 1.46·10^6 draws/s of the benchmark's analyze workload; that
is why ``--n`` stays at most 50. Noise carries no digits, so it cannot smuggle
in a large number either.
"""

import contextlib
import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardeal.cli import PROTOCOL_NAMES, main
from cardeal.guard import DEFAULT_MAX_WORK


def fuzz(examples):
    return settings(derandomize=True, deadline=None, database=None, max_examples=examples)


SUBCOMMANDS = ["verify", "construct", "enumerate", "sample", "analyze"]
SMALL_PARAMS = [(a, b, c) for a in range(1, 7) for b in range(1, 7) for c in range(1, 7) if a + b + c <= 8]
BAD_VALUES = ["", "3,3", "3,3,1,1", "a,b,c", "0,3,1", "-1", "٣", "ca6", "ca1,,ca2", "x", "[", "{}"]

noise = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=8)
stray = st.sampled_from(["--help", "--", "--format", "--count", "--stdin", "--profile", *BAD_VALUES]) | noise
max_work = st.sampled_from([str(DEFAULT_MAX_WORK), "1000", "10", "0", "-1"])
card_token = st.text("0123456789,", min_size=1, max_size=6)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
nested = st.tuples(st.integers(1, 3000), st.booleans()).map(
    lambda case: "[" * case[0] + ("]" * case[0] if case[1] else "")
)
loose_content = st.one_of(
    st.lists(card_token, max_size=10).map(" ".join),
    json_value.map(json.dumps),
    nested,
    nested.map(lambda text: '{"lines": ' + text + "}"),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@st.composite
def announcement_text(draw, params):
    """Distinct lines for ``params`` as compact text or JSON, one in three times with an odd line."""
    a, b, c = params
    v = a + b + c
    line = st.sampled_from(list(combinations(range(v), a))).map(list)
    lines = draw(st.lists(line, min_size=1, max_size=8, unique_by=tuple))
    if draw(st.sampled_from([False, False, True])):
        card = st.integers(0, v) | st.sampled_from([-1, True, 1.5, "1"])
        size = draw(st.sampled_from([a - 1, a, a + 1]))
        lines.insert(draw(st.integers(0, len(lines))), draw(st.lists(card, min_size=size, max_size=size)))
    style = draw(st.sampled_from(["compact", "array", "object"]))
    if style == "compact":
        return " ".join("".join(str(x) for x in line) for line in lines)
    if style == "array":
        return json.dumps(lines)
    declared = draw(st.sampled_from([[a, b, c], None, [a, b, c], [c, b, a], "331"]))
    return json.dumps({"params": declared, "lines": lines} if declared else {"lines": lines})


def params_text(params):
    return st.just(",".join(map(str, params)))


def hand(params):
    a, b, c = params
    return st.sampled_from(["".join(map(str, h)) for h in combinations(range(a + b + c), a)])


SWITCH = st.none()


def options(required, **optional):
    """Every required option and a random subset of the optional ones, in random order.

    A value strategy of ``SWITCH`` marks an option that takes no value.
    """

    def flag(name, value):
        return st.just([name]) if value is SWITCH else value.map(lambda text: [name, text])

    flags = [flag(name, value) for name, value in required.items()]
    flags += [st.one_of(st.none(), flag(name, value)) for name, value in optional.items()]
    return st.tuples(*flags).flatmap(lambda pairs: st.permutations([pair for pair in pairs if pair])).map(
        lambda pairs: [token for pair in pairs for token in pair]
    )


@st.composite
def corrupted(draw, argv):
    """``argv`` as it is, or with one token after the subcommand replaced, dropped or joined by a stray."""
    argv = draw(argv)
    action = draw(st.sampled_from(["keep", "keep", "replace", "drop", "insert"]))
    if action == "keep":
        return argv
    at = draw(st.integers(1, len(argv) - 1))
    if action == "replace":
        return [*argv[:at], draw(stray), *argv[at + 1:]]
    if action == "drop":
        return [*argv[:at], *argv[at + 1:]]
    return [*argv[:at], draw(stray), *argv[at:]]


@pytest.fixture(scope="module")
def announcement_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "announcement.txt"


def assert_exit_code(argv, path, text=""):
    """Run ``main`` with ``text`` on stdin and in ``path``."""
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, text[:80], code, err.getvalue()[-400:])
    assert "Traceback" not in err.getvalue()


@st.composite
def verify_case(draw, path, content=None):
    """Argv and the announcement text that ``--stdin`` and ``--file`` read."""
    params = draw(st.sampled_from(SMALL_PARAMS))
    text = draw(announcement_text(params) if content is None else content)
    sources = [["--announcement", text], ["--stdin"], ["--file", path], ["--file", path + ".absent"]]
    source = draw(st.sampled_from(sources))
    argv = options(
        {"--params": params_text(params)},
        **{
            "--axioms": st.sampled_from(["ca1,ca2,ca3", "ca1", "ca4,ca5", "CA2, ca3"]),
            "--format": st.sampled_from(["text", "json"]),
            "--max-work": max_work,
            "--profile": SWITCH,
        },
    )
    return draw(corrupted(argv.map(lambda argv: ["verify", *source, *argv]))), text


@fuzz(70)
@given(st.data())
def test_verify_exit_codes(announcement_file, data):
    argv, text = data.draw(verify_case(str(announcement_file)))
    assert_exit_code(argv, announcement_file, text)


@fuzz(40)
@given(st.data())
def test_verify_loose_content_exit_codes(announcement_file, data):
    argv, text = data.draw(verify_case(str(announcement_file), loose_content))
    assert_exit_code(argv, announcement_file, text)


@fuzz(30)
@given(
    corrupted(
        options(
            {"--bits": st.sampled_from(["3", "4", "5", "2", "0", "-1"])},
            **{"--format": st.sampled_from(["text", "json"]), "--max-work": max_work},
        ).map(lambda argv: ["construct", "binary", *argv])
    )
)
def test_construct_exit_codes(announcement_file, argv):
    assert_exit_code(argv, announcement_file)


@st.composite
def enumerate_argv(draw):
    params = draw(st.sampled_from(SMALL_PARAMS))
    argv = options(
        {"--params": params_text(params), "--hand": hand(params) | card_token},
        **{
            "--size": st.sampled_from(["5", "1", "2", "3", "4", "0", "-1"]),
            "--special-point": st.integers(-1, 8).map(str),
            "--max-work": max_work,
            "--count": SWITCH,
        },
    )
    return draw(corrupted(argv.map(lambda argv: ["enumerate", *argv])))


@fuzz(40)
@given(enumerate_argv())
def test_enumerate_exit_codes(announcement_file, argv):
    assert_exit_code(argv, announcement_file)


@st.composite
def protocol_argv(draw, subcommand, required, **optional):
    """A protocol, with the public point that fact2 protocols need, plus the options given."""
    protocol = draw(st.sampled_from(PROTOCOL_NAMES))
    if protocol.startswith("fact2"):
        required = {**required, "--point": st.integers(0, 6).map(str)}
    argv = options({"--protocol": st.just(protocol), **required}, **optional)
    return draw(corrupted(argv.map(lambda argv: [subcommand, *argv])))


@fuzz(15)
@given(
    protocol_argv(
        "sample",
        {"--hand": st.one_of(hand((3, 3, 1)), card_token)},
        **{
            "--seed": st.integers(-5, 10**6).map(str),
            "--n": st.integers(-2, 50).map(str),
            "--max-work": max_work,
        },
    ),
)
def test_sample_exit_codes(announcement_file, argv):
    assert_exit_code(argv, announcement_file)


@fuzz(20)
@given(
    protocol_argv(
        "analyze",
        {},
        **{
            "--announcement": announcement_text((3, 3, 1)) | loose_content,
            "--observer": st.sampled_from(["5", "0", "01", ""]) | card_token,
            "--format": st.sampled_from(["text", "json"]),
            "--max-work": max_work,
        },
    ),
)
def test_analyze_exit_codes(announcement_file, argv):
    assert_exit_code(argv, announcement_file)


@fuzz(20)
@given(st.lists(st.sampled_from(SUBCOMMANDS) | stray, max_size=4))
def test_free_argv_exit_codes(announcement_file, argv):
    assert_exit_code(argv, announcement_file)
