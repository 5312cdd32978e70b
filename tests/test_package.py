"""The package's public surface, and the pytest settings in ``pyproject.toml``."""

import inspect
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import cardeal
from cardeal import axioms

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Every public name ``cardeal.axioms`` defines: the kernel, its report and
# witness records, and the report's JSON form.
AXIOMS_DEFINES = {
    "AXIOM_NAMES",
    "AmbiguityWitness",
    "AxiomReport",
    "AxiomVerdict",
    "CommonCardWitness",
    "CountVerdict",
    "UncoveredCardWitness",
    "UnevenCountWitness",
    "axiom_report_json",
    "check_axioms",
    "is_good",
}

# The parameter names of every public function, in order; a bare * opens the
# keyword-only ones. A parameter added, removed or renamed shows up here.
SIGNATURES = {
    "bias_report": "proto, *, max_work",
    "binary_design": "n, *, max_work",
    "build_protocol": "kind, params, point, *, max_work",
    "card_set": "cards, v, size",
    "check_axioms": "ann, params, *, max_work",
    "classify_by_triple": "anns, hand",
    "covalency": "ann, v, t, *, max_work",
    "covalency_over": "lines, points, t, *, max_work",
    "design_profile": "ann, v, *, max_work",
    "enumerate_good_announcements": "params, hand, k, *, max_work",
    "enumerate_ksets": "v, k",
    "format_announcement": "ann, params",
    "format_card_set": "cards, v",
    "is_good": "ann, params, *, max_work",
    "parse_announcement": "text, params",
    "parse_card_set": "text, v, size",
    "posterior_lines": "proto, ann, observer",
    "prior_point_in_hand": "params",
    "protocol_from_json": "data",
    "protocol_json": "proto",
    "sample_many": "proto, hand, seed, n",
    "triple_point": "ann",
    "validate_protocol": "proto, *, max_work",
}


def _defined_in(module):
    """The public names a module defines itself; a value without ``__module__`` counts as its own."""
    return {
        name
        for name in dir(module)
        if not name.startswith("_") and getattr(getattr(module, name), "__module__", module.__name__) == module.__name__
    }


def test_the_public_surface_is_sorted_resolved_and_pinned():
    names = cardeal.__all__
    assert list(names) == sorted(set(names))
    assert all(hasattr(cardeal, name) for name in names)
    # Nothing public hides outside __all__ but the submodules.
    public = {name for name in dir(cardeal) if not name.startswith("_")}
    assert {n for n in public - set(names) if not isinstance(getattr(cardeal, n), ModuleType)} == set()
    assert _defined_in(axioms) == AXIOMS_DEFINES
    from_axioms = {n for n in names if getattr(getattr(cardeal, n), "__module__", None) == axioms.__name__}
    assert from_axioms == {"AxiomReport", "check_axioms", "is_good"}


def _parameter_names(function):
    """A function's parameter names joined in order, with ``*`` before the first keyword-only one."""
    names = []
    for parameter in inspect.signature(function).parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(parameter.name)
    return ", ".join(names)


def test_public_function_signatures_are_pinned():
    functions = {name: getattr(cardeal, name) for name in cardeal.__all__ if inspect.isfunction(getattr(cardeal, name))}
    assert {name: _parameter_names(function) for name, function in functions.items()} == SIGNATURES


TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    # filterwarnings makes every warning an error. When a @given test fails,
    # hypothesis' report hook can warn that mypy_extensions.TypedDict is
    # deprecated; as an error, that ends the session and the next test never
    # runs. The one filter that ignores it keeps both outcomes.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
