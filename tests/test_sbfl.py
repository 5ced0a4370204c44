import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flkit.model import ProgramElement, ranked
from flkit.sbfl import (
    Counts,
    Spectrum,
    SpectrumError,
    build_spectrum,
    dstar,
    ochiai,
    spectrum_scores,
)


class TestFormulas:
    def test_ochiai_pinned_value(self):
        assert ochiai(2, 1, 0, 5) == pytest.approx(2 / math.sqrt(6), abs=1e-12)

    def test_ochiai_zero_ef(self):
        assert ochiai(0, 3, 2, 1) == 0.0

    def test_ochiai_perfect(self):
        assert ochiai(4, 0, 0, 6) == pytest.approx(1.0, abs=1e-12)

    def test_dstar_pinned_value(self):
        assert dstar(3, 1, 1, 0) == pytest.approx(4.5, abs=1e-12)

    def test_dstar_zero_denominator(self):
        assert dstar(2, 0, 0, 5) == math.inf

    def test_dstar_zero_ef(self):
        assert dstar(0, 0, 2, 5) == 0.0

    def test_dstar_star_parameter(self):
        assert dstar(3, 2, 1, 0, star=3) == pytest.approx(9.0, abs=1e-12)
        with pytest.raises(ValueError):
            dstar(1, 1, 1, 1, star=0)

    @given(
        st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)
    )
    def test_ochiai_bounded(self, ef, ep, nf, np):
        v = ochiai(ef, ep, nf, np)
        assert 0.0 <= v <= 1.0

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_ochiai_monotone_in_ef(self, ef, ep, nf, np):
        # executing in one more failed run (moving a run from nf to ef) never
        # lowers suspiciousness
        if nf >= 1:
            assert ochiai(ef + 1, ep, nf - 1, np) >= ochiai(ef, ep, nf, np)

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 20), st.integers(0, 20))
    def test_ochiai_antitone_in_ep(self, ef, ep, nf, np):
        assert ochiai(ef, ep, nf, np) <= ochiai(ef, ep - 1, nf, np + 1)

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(0, 20))
    def test_dstar_positive(self, ef, ep, nf):
        assert dstar(ef, ep, nf, 0) > 0


class TestSpectrum:
    def elems(self):
        return [ProgramElement("f", i) for i in (1, 2, 3)]

    def test_counts(self):
        a, b, c = self.elems()
        runs = [
            ({a, b}, True),
            ({a, c}, False),
            ({a}, False),
        ]
        sp = build_spectrum(runs, [a, b, c])
        assert sp.counts[a] == Counts(1, 2, 0, 0)
        assert sp.counts[b] == Counts(1, 0, 0, 2)
        assert sp.counts[c] == Counts(0, 1, 1, 1)

    def test_requires_a_failed_test(self):
        a = ProgramElement("f", 1)
        with pytest.raises(SpectrumError):
            build_spectrum([({a}, False)], [a])

    def test_inconsistent_counts_rejected(self):
        a = ProgramElement("f", 1)
        with pytest.raises(SpectrumError):
            Spectrum({a: Counts(1, 0, 1, 0)}, 1, 0)

    def test_scores_and_ranking(self):
        a, b, c = self.elems()
        runs = [({a, b}, True), ({a, c}, False)]
        sp = build_spectrum(runs, [a, b, c])
        scored = spectrum_scores(sp, ochiai)
        (first, _, top), (second, _, _), _ = ranked(scored)
        # b covered only by the failing run ranks strictly first
        assert (first, top, second) == (1, b, 2)
