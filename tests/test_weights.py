import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wot.errors import ReductionError
from wot.weights import approx_reduce, candidate_divisors, gcd_reduce

weight_vectors = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30)


class TestGcdReduce:
    def test_demo_vector(self):
        report = gcd_reduce([100, 200, 300, 700])
        assert report.q == 100
        assert report.reduced == (1, 2, 3, 7)
        assert report.exact
        assert report.max_relative_error == 0

    def test_coprime_vector_unchanged(self):
        report = gcd_reduce([105, 190, 307, 689])
        assert report.q == 1
        assert report.reduced == (105, 190, 307, 689)

    def test_single_element(self):
        assert gcd_reduce([7]).q == 7
        assert gcd_reduce([7]).reduced == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ReductionError):
            gcd_reduce([])

    @given(weight_vectors)
    @settings(max_examples=200)
    def test_rescaling_reproduces_original(self, weights):
        report = gcd_reduce(weights)
        assert tuple(r * report.q for r in report.reduced) == tuple(weights)
        assert math.gcd(*report.reduced) == 1
        assert all(r >= 1 for r in report.reduced)

    @given(weight_vectors)
    @settings(max_examples=200)
    def test_work_shrinks_by_q(self, weights):
        report = gcd_reduce(weights)
        assert report.work_after * report.q == report.work_before


class TestApproxReduce:
    def test_demo_vector(self):
        report = approx_reduce([105, 190, 307, 689], 100)
        assert report.reduced == (1, 2, 3, 7)
        assert not report.exact
        # Worst rounding is item 1: |2*100 - 190| / 190.
        assert report.max_relative_error == Fraction(10, 190)

    def test_exact_when_divisible(self):
        report = approx_reduce([100, 200, 300, 700], 100)
        assert report.reduced == (1, 2, 3, 7)
        assert report.exact
        assert report.max_relative_error == 0

    def test_half_way_rounds_up(self):
        assert approx_reduce([150, 100], 100).reduced == (2, 1)
        assert approx_reduce([50, 100], 100).reduced == (1, 1)

    def test_vanishing_weight_rejected(self):
        with pytest.raises(ReductionError, match="vanishes"):
            approx_reduce([40, 100], 100)

    def test_q_below_two_rejected(self):
        with pytest.raises(ReductionError):
            approx_reduce([10, 20], 1)

    @given(weight_vectors)
    @settings(max_examples=200)
    def test_matches_gcd_reduce_at_the_gcd(self, weights):
        q = math.gcd(*weights)
        if q < 2:
            return
        via_gcd = gcd_reduce(weights)
        via_approx = approx_reduce(weights, q)
        assert via_approx.reduced == via_gcd.reduced
        assert via_approx.exact
        assert via_approx.max_relative_error == 0

    @given(weight_vectors, st.integers(min_value=2, max_value=50))
    @settings(max_examples=200)
    def test_nearest_integer_rule(self, weights, q):
        try:
            report = approx_reduce(weights, q)
        except ReductionError:
            assert any(w / q < 0.5 for w in weights)
            return
        for w, r in zip(weights, report.reduced):
            # r is the closest integer to w/q, ties to the larger.
            assert abs(r - w / q) <= 0.5
            if abs(r - w / q) == 0.5:
                assert r > w / q


def test_candidate_divisors_never_vanish():
    weights = [105, 190, 307, 689]
    for q in candidate_divisors(weights):
        report = approx_reduce(weights, q)
        assert all(r >= 1 for r in report.reduced)


def test_reduction_report_text():
    text = gcd_reduce([100, 200]).to_text()
    assert "q=100" in text
    assert "100\t1\t100" in text
