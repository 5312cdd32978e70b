"""``cardeal verify`` prints byte-identical text and JSON on a fixed corpus.

The corpus is the CA4 fixtures, two small CA2/CA3 fixtures, the binary
design with n = 4 at (8,7,1), (8,6,2) and (8,5,3), and 50 seeded random small
announcements. ``data/verify_golden.json`` holds the SHA-256 digest of each
output as the eager CA4/CA5 kernel printed it, when every violating c-set's
counts were stored, so the lazily built witnesses must render exactly as the
stored ones did. It also holds ``verify --profile`` digests for the two
(3,3,1) CA4 fixtures and the three binary rows, recorded when the text
report was still written out witness by witness, before it was rendered from
the JSON payload.

``data/protocol_cli_golden.json`` does the same for the protocol commands:
``analyze`` text and JSON for every kind (the fact2 kinds at points 0 and 3),
one ``analyze --announcement ... --observer ...`` run, ``sample`` at fixed
seeds and ``enumerate --special-point``. Its digests were recorded when
``build_protocol`` still recounted every announcement's triple point, so the
tables built by relabelling the reference hand's points must print exactly
as those did.

Regenerate the files only for a deliberate change of output format:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from cardeal.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
PROTOCOL_GOLDEN = Path(__file__).parent / "data" / "protocol_cli_golden.json"
RANDOM_PARAMS = ((3, 3, 1), (4, 3, 1), (3, 2, 2), (2, 3, 2), (2, 2, 3))


def _corpus() -> list[tuple[str, str]]:
    """(params, announcement text) pairs, in a fixed order."""
    cases = [
        ("3,3,1", "012 034 056 135 246"),
        ("3,3,1", "012 034 056 135 146 236 245"),
        ("3,3,1", "012 013"),
        ("3,3,1", "012"),
    ]
    binary = []
    for y in range(1, 16):
        for parity in (0, 1):
            binary.append([x for x in range(16) if (x & y).bit_count() % 2 == parity])
    text = " ".join(",".join(map(str, line)) for line in binary)
    cases += [(params, text) for params in ("8,7,1", "8,6,2", "8,5,3")]
    rng = random.Random(20261018)
    for _ in range(50):
        a, b, c = rng.choice(RANDOM_PARAMS)
        lines = rng.sample(list(combinations(range(a + b + c), a)), rng.randint(1, 12))
        text = " ".join("".join(map(str, line)) for line in lines)
        cases.append((f"{a},{b},{c}", text))
    return cases


def _profile_corpus() -> list[tuple[str, str]]:
    """The (3,3,1) CA4 fixtures and the binary rows, the cases ``--profile`` is pinned on."""
    cases = _corpus()
    return cases[:2] + cases[4:7]


def _protocol_corpus() -> list[list[str]]:
    """Argument lists of the pinned ``analyze``, ``sample`` and ``enumerate`` runs."""
    kinds = [["uniform60"], ["fact1"]] + [
        [kind, "--point", point] for kind in ("fact2-conditional", "fact2-literal") for point in ("0", "3")
    ]
    runs = [
        ["analyze", "--protocol", *kind, "--format", fmt] for kind in kinds for fmt in ("text", "json")
    ]
    runs += [
        ["analyze", "--protocol", "fact1", "--announcement", "012 034 056 135 246", "--observer", "3",
         "--format", fmt]
        for fmt in ("text", "json")
    ]
    runs += [
        ["sample", "--protocol", *kind, "--hand", hand, "--seed", seed, "--n", "25"]
        for kind in kinds
        for hand, seed in (("012", "1"), ("135", "20261019"))
    ]
    runs.append(["enumerate", "--params", "3,3,1", "--hand", "135", "--special-point", "0"])
    return runs


def _run(argv: list[str]) -> str:
    """Exit code and stdout of one ``cardeal`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _run_digest(argv: list[str]) -> str:
    return hashlib.sha256(_run(argv).encode()).hexdigest()


def _digest(params: str, text: str, fmt: str, *extra: str) -> str:
    """The digest of ``cardeal verify`` on one case."""
    return _run_digest(["verify", "--params", params, "--announcement", text, "--format", fmt, *extra])


def _record() -> dict:
    plain = {
        f"{params} {text} {fmt}": _digest(params, text, fmt)
        for params, text in _corpus()
        for fmt in ("text", "json")
    }
    profiled = {
        f"{params} {text} {fmt} --profile": _digest(params, text, fmt, "--profile")
        for params, text in _profile_corpus()
        for fmt in ("text", "json")
    }
    return {**plain, **profiled}


def _record_protocols() -> dict:
    return {" ".join(argv): _run_digest(argv) for argv in _protocol_corpus()}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_is_byte_identical(fmt):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = _corpus()
    assert len(cases) == 57
    for params, text in cases:
        key = f"{params} {text} {fmt}"
        assert _digest(params, text, fmt) == golden[key], key


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_profile_output_is_byte_identical(fmt):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = _profile_corpus()
    assert len(cases) == 5
    for params, text in cases:
        key = f"{params} {text} {fmt} --profile"
        assert _digest(params, text, fmt, "--profile") == golden[key], key


def test_protocol_commands_output_is_byte_identical():
    golden = json.loads(PROTOCOL_GOLDEN.read_text(encoding="utf-8"))
    runs = _protocol_corpus()
    assert len(runs) == len(golden) == 27
    for argv in runs:
        key = " ".join(argv)
        assert _run_digest(argv) == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    PROTOCOL_GOLDEN.write_text(
        json.dumps(_record_protocols(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
