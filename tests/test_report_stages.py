"""The report's summary and correlation stages against exact-Fraction references.

`pipeline._summary` and `pipeline.correlation_matrix` work on integer parts of
the expected ranks: `_summary` on each rank's numerator and denominator, and
`correlation_matrix` on each technique's ranks scaled once by the lcm of their
denominators. The references below are the straightforward versions: Fraction
division and comparison, and per-pair scaling of the retained pairs only. Both
must agree to the last bit, every None cell included.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flkit import pipeline
from flkit.metrics import CorrelationUndefinedError, _correlation_p, integer_r_squared
from flkit.pipeline import AT_N, _summary, correlation_matrix


def reference_scaled(values) -> list:
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def reference_r_squared(xs, ys, q=100):
    """r^2 and p of the pairs with x <= q or y <= q, each side scaled over
    the retained pairs only."""
    if len(xs) != len(ys):
        raise ValueError("coordinate sequences differ in length")
    pairs = [(x, y) for x, y in zip(xs, ys) if x <= q or y <= q]
    n = len(pairs)
    if n < 3:
        raise CorrelationUndefinedError(f"only {n} pairs retained after q={q} filter; need >= 3")
    rx = reference_scaled([p[0] for p in pairs])
    ry = reference_scaled([p[1] for p in pairs])
    sx, sy = sum(rx), sum(ry)
    sxx = n * sum(v * v for v in rx) - sx * sx
    syy = n * sum(v * v for v in ry) - sy * sy
    if sxx == 0 or syy == 0:
        raise CorrelationUndefinedError("zero variance in a retained coordinate")
    sxy = n * sum(a * b for a, b in zip(rx, ry)) - sx * sy
    den = sxx * syy
    r2 = sxy * sxy / den
    return r2, _correlation_p(r2, (den - sxy * sxy) / den, n - 2)


def reference_correlation_matrix(per_tech_values, q=100) -> dict:
    """Each pair over its common faults, null where either leaves one unranked."""
    techniques = sorted(per_tech_values)
    r2 = [[None] * len(techniques) for _ in techniques]
    pv = [[None] * len(techniques) for _ in techniques]
    for i, ta in enumerate(techniques):
        for j, tb in enumerate(techniques):
            if j < i:
                r2[i][j], pv[i][j] = r2[j][i], pv[j][i]
                continue
            common = sorted(set(per_tech_values[ta]) & set(per_tech_values[tb]))
            xs = [per_tech_values[ta][f] for f in common]
            ys = [per_tech_values[tb][f] for f in common]
            if any(v is None for v in xs) or any(v is None for v in ys):
                continue
            try:
                r2[i][j], pv[i][j] = reference_r_squared(xs, ys, q=q)
            except CorrelationUndefinedError:
                pass
    return {"techniques": techniques, "r2": r2, "p": pv}


def reference_summary(values, sizes) -> dict:
    """EXAM as float(Fraction), @n by Fraction comparison; the EXAM mean sums
    left to right, the one order every Python version keeps."""
    localized = [v for v in values.values() if v is not None]
    exam_vals = [float(v / sizes[fid]) for fid, v in values.items() if v is not None]
    total = 0.0
    for x in exam_vals:
        total += x
    return {
        "e_inspect": {
            fid: (str(v) if v is not None else None) for fid, v in sorted(values.items())
        },
        "at": {str(n): sum(1 for v in localized if v <= n) for n in AT_N},
        "exam_mean": total / len(exam_vals) if exam_vals else None,
        "not_localized": sum(1 for v in values.values() if v is None),
    }


def counted_pairs(per_tech, q):
    """correlation_matrix(per_tech, q) and the number of pairs it computed."""
    calls = []

    def counted(rx, ry):
        calls.append((rx, ry))
        return integer_r_squared(rx, ry)

    with mock.patch.object(pipeline, "integer_r_squared", counted):
        return correlation_matrix(per_tech, q=q), len(calls)


FAULTS = [f"f{i:02d}" for i in range(9)]
# Ranks as the pipeline makes them (ints and small-denominator Fractions, some
# past any q), plus None for a fault a technique does not localize.
RANK = st.one_of(
    st.integers(1, 12),
    st.integers(1, 150),
    st.builds(Fraction, st.integers(1, 240), st.integers(1, 7)),
    st.none(),
)
RANKS = st.dictionaries(st.sampled_from(FAULTS), RANK, max_size=len(FAULTS))
TECHNIQUES = st.dictionaries(
    st.sampled_from(["ir", "ochiai", "dstar", "muse", "stacktrace"]), RANKS, max_size=5
)


class TestCorrelationMatrix:
    @settings(max_examples=400, deadline=None)
    @given(TECHNIQUES, st.integers(1, 100))
    def test_matches_reference(self, per_tech, q):
        assert correlation_matrix(per_tech, q=q) == reference_correlation_matrix(per_tech, q=q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(Fraction, st.integers(1, 60), st.integers(1, 5)), min_size=6, max_size=9),
        st.integers(1, 100),
    )
    def test_dense_pairs_match_reference(self, ranks, q):
        # Every fault ranked by every technique, so most cells are defined.
        per_tech = {
            "a": dict(zip(FAULTS, ranks)),
            "b": dict(zip(FAULTS, reversed(ranks))),
            "c": dict(zip(FAULTS, [r * 3 + 1 for r in ranks])),
            "d": dict(zip(FAULTS, sorted(ranks))),
        }
        got = correlation_matrix(per_tech, q=q)
        assert got == reference_correlation_matrix(per_tech, q=q)

    @settings(max_examples=200, deadline=None)
    @given(TECHNIQUES.filter(bool), st.integers(1, 100), st.data())
    def test_equal_columns_are_computed_once(self, per_tech, q, data):
        # As history and ir rank every fault of a one-file corpus alike.
        copied = data.draw(st.sampled_from(sorted(per_tech)))
        with_copy = {**per_tech, "history": dict(reversed(per_tech[copied].items()))}
        got, calls = counted_pairs(with_copy, q)
        assert got == reference_correlation_matrix(with_copy, q=q)
        assert calls == counted_pairs(per_tech, q)[1]

    def test_fault_unranked_by_both_nulls_the_pair(self):
        a = {"f1": 1, "f2": 2, "f3": 3, "f4": None}
        b = {"f1": 2, "f2": 1, "f3": 3, "f4": None}
        got = correlation_matrix({"a": a, "b": b})
        assert got["r2"] == [[None, None], [None, None]]
        assert got == reference_correlation_matrix({"a": a, "b": b})

    def test_scaling_over_unretained_faults_keeps_bits(self):
        # f5's 1/7 enters a's scale but is past q on both sides, so the pair
        # is scaled over more faults than it keeps.
        a = {"f1": Fraction(3, 2), "f2": 2, "f3": Fraction(7, 2), "f4": 5, "f5": Fraction(701, 7)}
        b = {"f1": 1, "f2": Fraction(9, 4), "f3": 3, "f4": Fraction(13, 3), "f5": 200}
        got = correlation_matrix({"a": a, "b": b}, q=100)
        assert got["r2"][0][1] is not None
        assert got == reference_correlation_matrix({"a": a, "b": b}, q=100)


COORDINATE = st.one_of(RANK.filter(lambda v: v is not None), st.floats(0.5, 200))


class TestRSquared:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORDINATE, COORDINATE), max_size=12), st.integers(1, 100))
    def test_matches_reference(self, pairs, q):
        """correlation_matrix's cell for two techniques, float ranks included."""
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        try:
            want = reference_r_squared(xs, ys, q=q)
        except CorrelationUndefinedError:
            want = (None, None)
        faults = [f"f{i}" for i in range(len(pairs))]
        got = correlation_matrix({"a": dict(zip(faults, xs)), "b": dict(zip(faults, ys))}, q=q)
        assert (got["r2"][0][1], got["p"][0][1]) == want


class TestSummary:
    @settings(max_examples=400, deadline=None)
    @given(RANKS, st.data())
    def test_matches_reference(self, values, data):
        sizes = {f: data.draw(st.integers(1, 60), label=f) for f in values}
        assert _summary(values, sizes) == reference_summary(values, sizes)

    def test_exam_mean_sums_left_to_right(self):
        # EXAM 1/10, 2/10, 3/10: left to right 0.1 + 0.2 + 0.3 is
        # 0.6000000000000001, where a compensated sum (sum() from Python 3.12)
        # gives 0.6. The report keeps the left-to-right bits on every version.
        values = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}
        summary = _summary(values, {"a": 10, "b": 10, "c": 10})
        assert math.fsum([0.1, 0.2, 0.3]) / 3 == 0.19999999999999998
        assert summary["exam_mean"] == 0.6000000000000001 / 3 == 0.20000000000000004

    def test_at_n_counts_fraction_bounds(self):
        # 3 is within @3; 10/3 and 31/10 are not, 5 is within @5.
        values = {"a": Fraction(3), "b": Fraction(10, 3), "c": Fraction(31, 10), "d": 5, "e": None}
        summary = _summary(values, dict.fromkeys(values, 20))
        assert summary["at"] == {"1": 0, "3": 1, "5": 4, "10": 4}
        assert summary["not_localized"] == 1
