"""The suite's warning filters, applied to a fresh pytest run."""

pytest_plugins = ["pytester"]

INNER_TESTS = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_never_negative(x):
    assert x >= 0


def test_deprecated_call():
    warnings.warn("an old API", DeprecationWarning)
"""


def test_each_failure_is_reported_as_a_failed_test(pytester, request):
    # A failing @given test makes the Hypothesis plugin import libcst to
    # suggest a patch.  The DeprecationWarning that import raises must not
    # end the session as an INTERNALERROR, while any other DeprecationWarning
    # still fails the test that raised it.
    filters = "".join(f"    {line}\n" for line in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}")
    pytester.makepyfile(INNER_TESTS)
    result = pytester.runpytest_subprocess()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2)
