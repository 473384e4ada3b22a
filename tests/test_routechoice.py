import pytest
from hypothesis import given, strategies as st

from gaussctm.routechoice import (
    RouteSummary,
    indifference_c,
    select_route,
    utility,
)

R1 = RouteSummary(1, 121.56, 25.43)
R2 = RouteSummary(2, 135.86, 13.87)
DYADIC = st.integers(50 * 2**10, 500 * 2**10).map(lambda k: k / 2**10)


class TestUtility:
    def test_zero_risk_weight_is_the_mean(self):
        assert utility(R1, 0.0) == 121.56
        assert utility(R2, 0.0) == 135.86

    def test_mean_plus_weighted_std(self):
        assert utility(R1, 1.0) == pytest.approx(146.99)
        assert utility(R2, 2.0) == pytest.approx(163.60)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            utility(R1, -0.5)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RouteSummary(1, 100.0, -1.0)


class TestSelectRoute:
    def test_risk_neutral_picks_faster_mean(self):
        assert select_route([R1, R2], 0.0) == 1

    def test_risk_averse_switches(self):
        assert select_route([R1, R2], 2.0) == 2

    def test_tie_goes_to_lowest_id(self):
        a = RouteSummary(1, 100.0, 10.0)
        b = RouteSummary(2, 100.0, 10.0)
        assert select_route([b, a], 1.5) == 1

    def test_empty_list(self):
        with pytest.raises(ValueError):
            select_route([], 1.0)


class TestIndifference:
    def test_crossing_point(self):
        c = indifference_c(R1, R2)
        assert c == pytest.approx((135.86 - 121.56) / (25.43 - 13.87))
        assert c == pytest.approx(1.2370, abs=1e-3)

    def test_dominated_route_never_crosses(self):
        better = RouteSummary(1, 100.0, 10.0)
        worse = RouteSummary(2, 120.0, 15.0)
        assert indifference_c(better, worse) is None

    def test_equal_spread_never_crosses(self):
        a = RouteSummary(1, 100.0, 10.0)
        b = RouteSummary(2, 120.0, 10.0)
        assert indifference_c(a, b) is None

    @given(st.floats(50.0, 500.0), st.floats(0.1, 50.0),
           st.floats(50.0, 500.0), st.floats(0.1, 50.0))
    def test_selection_flips_across_the_crossing(self, m1, s1, m2, s2):
        a, b = RouteSummary(1, m1, s1), RouteSummary(2, m2, s2)
        c = indifference_c(a, b)
        if c is None:
            return
        eps = max(c, 1.0) * 1e-6
        lo = select_route([a, b], max(c - eps, 0.0))
        hi = select_route([a, b], c + eps)
        assert lo != hi

    # means on a 2^-10 grid plus integer shifts add exactly, so the
    # shifted routes differ by the same mean difference, bit for bit
    @given(DYADIC, st.floats(0.1, 50.0), DYADIC, st.floats(0.1, 50.0),
           st.integers(-100, 100), st.floats(0.0, 5.0))
    def test_selection_invariant_to_common_mean_shift(self, m1, s1, m2, s2,
                                                      shift, c):
        a, b = RouteSummary(1, m1, s1), RouteSummary(2, m2, s2)
        a2 = RouteSummary(1, m1 + shift, s1)
        b2 = RouteSummary(2, m2 + shift, s2)
        assert select_route([a, b], c) == select_route([a2, b2], c)
