"""Tests for exponentially weighted moving statistics, checked against a
direct O(n^2) evaluation of the paper's formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ewm_mean, ewm_mean_std


def reference_ewm_mean(x, span):
    alpha = 2.0 / (span + 1.0)
    out = np.empty(len(x))
    for t in range(len(x)):
        weights = (1.0 - alpha) ** np.arange(t + 1)
        out[t] = np.sum(weights * x[t::-1]) / weights.sum()
    return out


class TestEWMMean:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        x = rng.random(200) * 10
        got = ewm_mean(x, span=288)
        want = reference_ewm_mean(x, span=288)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_small_span_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.random(600)
        np.testing.assert_allclose(ewm_mean(x, span=2), reference_ewm_mean(x, 2), rtol=1e-9)

    def test_blockwise_continuity(self):
        # Longer than one block: the carry must keep the recursion exact.
        rng = np.random.default_rng(2)
        x = rng.random(2000)
        got = ewm_mean(x, span=288)
        want = reference_ewm_mean(x, span=288)
        np.testing.assert_allclose(got[-10:], want[-10:], rtol=1e-8)

    def test_constant_series(self):
        np.testing.assert_allclose(ewm_mean(np.full(100, 7.0), 288), 7.0)

    def test_first_value_is_itself(self):
        assert ewm_mean(np.array([3.0, 100.0]), 10)[0] == 3.0

    def test_empty(self):
        assert len(ewm_mean(np.array([]), 5)) == 0

    def test_span_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        np.testing.assert_allclose(ewm_mean(x, 1), x)

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            ewm_mean(np.array([1.0]), 0)

    @settings(max_examples=25)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=500),
    )
    def test_mean_bounded_by_minmax(self, values, span):
        x = np.array(values)
        m = ewm_mean(x, span)
        assert (m >= x.min() - 1e-6).all()
        assert (m <= x.max() + 1e-6).all()


class TestEWMStd:
    def test_constant_series_zero_sd(self):
        _, sd = ewm_mean_std(np.full(50, 3.0), 288)
        np.testing.assert_allclose(sd, 0.0, atol=1e-9)

    def test_sd_nonnegative(self):
        rng = np.random.default_rng(3)
        _, sd = ewm_mean_std(rng.random(500), 20)
        assert (sd >= 0).all()

    def test_step_increases_sd(self):
        x = np.r_[np.zeros(50), np.full(50, 10.0)]
        _, sd = ewm_mean_std(x, 30)
        assert sd[60] > sd[40]

    def test_long_run_sd_approximates_population(self):
        rng = np.random.default_rng(4)
        x = rng.normal(10.0, 2.0, size=20_000)
        _, sd = ewm_mean_std(x, span=288)
        assert abs(sd[-1] - 2.0) < 0.4


class TestAxisZeroForm:
    """A 2-D input is one series per column, each bit-equal to the 1-D
    call — the batched §5.3 pass depends on it."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1_300),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_columns_equal_the_1d_call(self, n, columns, span, seed):
        from repro.stats import AnomalyConfig, EWMAAnomalyDetector
        from repro.stats.ewma import _ewm_numerators

        rng = np.random.default_rng(seed)
        # sparse counts, a constant column and a wide-range column
        x = rng.poisson(0.5, (n, columns)) * rng.integers(1, 1_000, columns)
        x = x.astype(np.float64)
        x[:, 0] = 3.0
        x[:, -1] *= rng.random(n) * 1e6
        alpha = 2.0 / (span + 1.0)
        detector = EWMAAnomalyDetector(AnomalyConfig(span=span))
        numerators = _ewm_numerators(x, alpha)
        mean, sd = ewm_mean_std(x, span)
        mean_only = ewm_mean(x, span)
        flags = detector.detect(x)
        for j in range(columns):
            column = np.ascontiguousarray(x[:, j])
            assert np.array_equal(numerators[:, j],
                                  _ewm_numerators(column, alpha))
            m, s = ewm_mean_std(column, span)
            assert np.array_equal(mean[:, j], m)
            assert np.array_equal(sd[:, j], s)
            assert np.array_equal(mean_only[:, j], ewm_mean(column, span))
            assert np.array_equal(flags[:, j], detector.detect(column))
