"""The suite's pytest settings keep a failing Hypothesis test to one failure.

With every warning an error, a warning raised while Hypothesis reports a
failing example used to abort the whole run with an INTERNALERROR, so no
later test ran.
"""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_run(pytester):
    settings = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    filters = "".join(f"    {entry}\n" for entry in settings["filterwarnings"])
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}")
    pytester.makepyfile(
        """
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @given(st.integers())
        @settings(max_examples=5, database=None)
        def test_fails(x):
            assert x != x


        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
