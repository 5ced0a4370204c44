"""The warning filters in pyproject.toml turn new warnings into errors, but a
failing hypothesis test must still be reported as one failure, with the tests
after it run, rather than stop the session with INTERNALERROR."""

pytest_plugins = ["pytester"]

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_hypothesis_test_is_reported(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_THEN_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
