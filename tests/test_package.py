"""The package's public surface, and the pytest settings in ``pyproject.toml``."""

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
