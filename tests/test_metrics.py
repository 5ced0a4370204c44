import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from hypothesis import given
from hypothesis import strategies as st

from flkit.metrics import (
    CorrelationUndefinedError,
    NotLocalizedError,
    e_inspect_at_n,
    expected_first_faulty_rank,
    r_squared,
)
from flkit.model import ProgramElement
from flkit.pipeline import _summary


def enumerate_expected_rank(t: int, t_f: int, start: int) -> Fraction:
    """Oracle: average the first-faulty position over every arrangement.

    All C(t, t_f) placements of the faulty elements among the t tied slots
    are equally likely; the first faulty element sits at start + min(slot).
    """
    total = Fraction(0)
    count = 0
    for placement in itertools.combinations(range(t), t_f):
        total += start + min(placement)
        count += 1
    return total / count


def fraction_sum_expected_rank(t: int, t_f: int, start: int) -> Fraction:
    """Second oracle, the sum the closed form replaced: the chance that
    exactly k correct elements precede the first faulty one, times k."""
    total = math.comb(t, t_f)
    return start + sum(
        Fraction(k * math.comb(t - k - 1, t_f - 1), total) for k in range(1, t - t_f + 1)
    )


def ranking_with_tied_group(t: int, t_f: int, start: int):
    """Scores whose first (and only) faulty tie-group has size t at position start."""
    # filler elements with distinct scores occupying positions 1..start-1
    scores = {ProgramElement("pre", i + 1): 100.0 - i for i in range(start - 1)}
    tied = [ProgramElement("g", i + 1) for i in range(t)]
    scores.update(dict.fromkeys(tied, 100.0 - start))
    return scores, set(tied[:t_f])


class TestExpectedFirstFaultyRank:
    @pytest.mark.parametrize("start", [1, 5])
    @pytest.mark.parametrize(
        "t,t_f", [(t, t_f) for t in range(1, 9) for t_f in range(1, t + 1)]
    )
    def test_matches_enumeration_oracle(self, t, t_f, start):
        scores, faulty = ranking_with_tied_group(t, t_f, start)
        got = expected_first_faulty_rank(scores, faulty)
        assert got == enumerate_expected_rank(t, t_f, start)

    def test_matches_fraction_sum_oracle(self):
        for t in range(1, 61):
            for t_f in range(1, t + 1):
                scores, faulty = ranking_with_tied_group(t, t_f, 3)
                got = expected_first_faulty_rank(scores, faulty)
                assert got == fraction_sum_expected_rank(t, t_f, 3), (t, t_f)
                assert t != t_f or got == 3

    def test_single_faulty_reduces_to_midpoint(self):
        # t_f = 1: expected rank is start + (t-1)/2
        scores, faulty = ranking_with_tied_group(7, 1, 3)
        assert expected_first_faulty_rank(scores, faulty) == 3 + Fraction(6, 2)

    def test_all_faulty_reduces_to_start(self):
        scores, faulty = ranking_with_tied_group(5, 5, 2)
        assert expected_first_faulty_rank(scores, faulty) == 2

    def test_untied_exact_position(self):
        a, b, c = (ProgramElement("f", i) for i in (1, 2, 3))
        assert expected_first_faulty_rank({a: 3.0, b: 2.0, c: 1.0}, {b}) == 2

    def test_only_first_faulty_group_counts(self):
        a, b, c = (ProgramElement("f", i) for i in (1, 2, 3))
        assert expected_first_faulty_rank({a: 3.0, b: 2.0, c: 1.0}, {b, c}) == 2

    def test_hand_worked_case(self):
        # t=4, t_f=2, start=1: (3*1 + 2*2 + 1*3) / 6 = 5/3
        scores, faulty = ranking_with_tied_group(4, 2, 1)
        assert expected_first_faulty_rank(scores, faulty) == Fraction(5, 3)

    def test_missing_fault_raises(self):
        scores, _ = ranking_with_tied_group(3, 1, 1)
        with pytest.raises(NotLocalizedError):
            expected_first_faulty_rank(scores, {ProgramElement("other", 9)})

    @given(st.integers(1, 10), st.data(), st.integers(1, 4))
    def test_value_within_group_bounds(self, t, data, start):
        t_f = data.draw(st.integers(1, t))
        scores, faulty = ranking_with_tied_group(t, t_f, start)
        v = expected_first_faulty_rank(scores, faulty)
        assert start <= v <= start + (t - t_f)


class TestAtNAndExam:
    def test_at_n_counts(self):
        vals = [Fraction(1), Fraction(5, 2), Fraction(4), Fraction(11)]
        assert e_inspect_at_n(vals, 1) == 1
        assert e_inspect_at_n(vals, 3) == 2
        assert e_inspect_at_n(vals, 4) == 3
        assert e_inspect_at_n(vals, 10) == 3

    def test_at_n_rejects_bad_n(self):
        with pytest.raises(ValueError):
            e_inspect_at_n([], 0)

    def test_exam_is_expected_rank_over_universe(self):
        # The report's EXAM mean: each localized fault's expected rank over
        # its universe size, averaged; unlocalized faults are left out.
        scores, faulty = ranking_with_tied_group(4, 2, 1)
        values = {"a": expected_first_faulty_rank(scores, faulty), "b": Fraction(1), "c": None}
        summary = _summary(values, {"a": 10, "b": 4, "c": 7})
        assert values["a"] == Fraction(5, 3)
        assert summary["exam_mean"] == (5 / 30 + 1 / 4) / 2
        assert summary["not_localized"] == 1


def least_squares_r2(xs, ys):
    """Oracle: r^2 via an explicit least-squares fit, residual form."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


class TestRSquared:
    def test_matches_least_squares_oracle(self):
        rng = random.Random(7)
        xs = [rng.uniform(1, 80) for _ in range(40)]
        ys = [2.0 * x + rng.gauss(0, 5) for x in xs]
        r2, p = r_squared(xs, ys, q=100)
        assert r2 == pytest.approx(least_squares_r2(xs, ys), abs=1e-9)
        assert 0.0 <= p <= 1.0

    def test_perfect_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [3.0, 5.0, 7.0, 9.0]
        r2, _ = r_squared(xs, ys)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_threshold_drops_far_pairs(self):
        # (150, 200) exceeds q in both coordinates and must be ignored.
        xs = [1.0, 2.0, 3.0, 150.0]
        ys = [2.0, 4.0, 6.0, 200.0]
        r2, _ = r_squared(xs, ys, q=100)
        assert r2 == pytest.approx(least_squares_r2(xs[:3], ys[:3]), abs=1e-9)

    def test_pair_kept_if_either_side_within_q(self):
        xs = [1.0, 2.0, 3.0, 150.0]
        ys = [2.0, 4.0, 6.0, 50.0]
        r2, _ = r_squared(xs, ys, q=100)
        assert r2 == pytest.approx(least_squares_r2(xs, ys), abs=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(CorrelationUndefinedError):
            r_squared([1.0, 2.0], [1.0, 2.0])

    def test_zero_variance(self):
        with pytest.raises(CorrelationUndefinedError):
            r_squared([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0, 2.0])

    def test_symmetry(self):
        xs = [1.0, 4.0, 2.0, 9.0, 5.0]
        ys = [2.0, 3.0, 8.0, 7.0, 1.0]
        assert r_squared(xs, ys)[0] == pytest.approx(r_squared(ys, xs)[0], abs=1e-12)


# Oracle tolerances, fixed before these tests were first run. Do not loosen them.
R2_ABS = 1e-12
P_ABS = 1e-12
P_REL = 1e-9  # checked where the oracle's p >= P_REL_FLOOR
P_REL_FLOOR = 1e-290


def exact_r2(a, b) -> Fraction:
    """Oracle: r^2 of two integer sequences, exact, from n-scaled deviations."""
    n, sa, sb = len(a), sum(a), sum(b)
    da = [n * x - sa for x in a]
    db = [n * y - sb for y in b]
    sab = sum(x * y for x, y in zip(da, db))
    return Fraction(sab * sab, sum(x * x for x in da) * sum(y * y for y in db))


def t_test_p(r2: Fraction, n: int) -> float:
    """Oracle: scipy's two-sided Student-t p at t^2 = (n - 2) r^2 / (1 - r^2)."""
    t = math.inf if r2 == 1 else math.sqrt((n - 2) * r2 / (1 - r2))
    return float(2 * stats.t.sf(t, n - 2))


def oracle_samples(count: int, seed: int):
    """Integer samples (a, b) with n log-uniform in 3..300 and r^2 spread over
    [0, 1], exactly 1 included, passed to r_squared as Fractions a/d, b/e."""
    rng = random.Random(seed)
    for _ in range(count):
        n = round(3 * 100 ** rng.random())
        a = [int(rng.random() * 601) - 300 for _ in range(n)]
        slope = rng.choice([-3, -1, 1, 2, 0.37])
        noise = 10 ** rng.uniform(-2, 4)
        b = [round(slope * x + noise * (rng.random() - 0.5)) for x in a]
        if len(set(a)) > 1 and len(set(b)) > 1:
            d, e = rng.choice([1, 2, 3, 12]), rng.choice([1, 4, 6])
            yield a, b, [Fraction(x, d) for x in a], [Fraction(y, e) for y in b]


class TestRSquaredOracle:
    """r^2 against scipy.stats.pearsonr; p against scipy's Student t at the
    exact r^2. pearsonr's own p comes from its rounded r, and near |r| = 1 that
    rounding dominates: for n = 3 an exactly collinear sample gets 1.3e-8."""

    def test_matches_scipy(self):
        seen = set()
        for a, b, xs, ys in oracle_samples(2000, seed=20):
            n = len(a)
            r2, p = r_squared(xs, ys, q=10**6)
            exact = exact_r2(a, b)
            assert r2 == float(exact)
            r, _ = stats.pearsonr([float(x) for x in xs], [float(y) for y in ys])
            assert abs(r2 - float(r) ** 2) <= R2_ABS
            want = t_test_p(exact, n)
            assert abs(p - want) <= P_ABS, (n, exact, p, want)
            if want >= P_REL_FLOOR:
                assert abs(p - want) <= P_REL * want, (n, exact, p, want)
            seen.add((n % 2, exact == 1, want < 1e-20))
        assert seen == {(odd, one, tiny) for odd in (0, 1) for one, tiny in
                        [(False, False), (False, True), (True, True)]}

    def test_n3_closed_form(self):
        rng = random.Random(3)
        for _ in range(300):
            a = [rng.randint(-20, 20) for _ in range(3)]
            b = [rng.randint(-20, 20) for _ in range(3)]
            if len(set(a)) > 1 and len(set(b)) > 1:
                r = math.sqrt(exact_r2(a, b))
                assert abs(r_squared(a, b)[1] - (1 - 2 * math.asin(r) / math.pi)) <= P_ABS

    def test_n4_closed_form(self):
        rng = random.Random(4)
        for _ in range(300):
            a = [rng.randint(-20, 20) for _ in range(4)]
            b = [rng.randint(-20, 20) for _ in range(4)]
            if len(set(a)) > 1 and len(set(b)) > 1:
                r = math.sqrt(exact_r2(a, b))
                assert abs(r_squared(a, b)[1] - (1 - r)) <= P_ABS

    @pytest.mark.parametrize(
        "xs",
        [
            [1, 2, 3],
            [Fraction(5, 3), Fraction(7, 2), 11, Fraction(1, 6)],
            [0.1 * i for i in range(1, 30)],
        ],
    )
    def test_self_correlation_is_exact(self, xs):
        assert r_squared(xs, xs) == (1.0, 0.0)

    def test_uncorrelated(self):
        assert r_squared([1, 2, 3, 4, 5], [2, 1, 3, 1, 2]) == (0.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            r_squared([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])
