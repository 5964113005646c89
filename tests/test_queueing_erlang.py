"""Unit tests for the Erlang loss formula and inverse problems."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queueing.erlang import (
    erlang_b,
    erlang_b_inverse_capacity,
    mu_for_target_loss,
    offered_load_for_target_loss,
)

from .oracles import erlang_b_direct


class TestErlangB:
    def test_known_value(self):
        # E(2, 4) = (2^4/4!) / sum = 2/21.
        assert erlang_b(2.0, 4) == pytest.approx(2.0 / 21.0)

    def test_zero_load_never_blocks(self):
        assert erlang_b(0.0, 5) == 0.0

    def test_zero_servers_always_blocks(self):
        assert erlang_b(3.0, 0) == 1.0

    def test_matches_direct_formula(self):
        for rho in (0.5, 2.0, 10.0, 15.0):
            for k in (1, 5, 10, 50):
                assert erlang_b(rho, k) == pytest.approx(
                    erlang_b_direct(rho, k), rel=1e-10
                )

    def test_paper_operating_point(self):
        """rho = 15 Erlang on k = 10 slots (1/lambda=2 trunk): heavy loss."""
        assert 0.3 < erlang_b(15.0, 10) < 0.5

    def test_increasing_in_load(self):
        values = [erlang_b(rho, 10) for rho in (1.0, 5.0, 10.0, 20.0, 40.0)]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_decreasing_in_capacity(self):
        values = [erlang_b(10.0, k) for k in (1, 5, 10, 20, 40)]
        assert values == sorted(values, reverse=True)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 3)
        with pytest.raises(ValueError):
            erlang_b(1.0, -3)

    def test_non_integer_servers_rejected(self):
        with pytest.raises(TypeError):
            erlang_b(1.0, 2.5)  # type: ignore[arg-type]

    def test_numpy_integer_servers_accepted(self):
        np = pytest.importorskip("numpy")
        assert erlang_b(2.0, np.int64(4)) == pytest.approx(erlang_b(2.0, 4))
        assert erlang_b_direct(2.0, np.int32(4)) == pytest.approx(erlang_b(2.0, 4))

    def test_bool_servers_rejected(self):
        """bool is index-able as 0/1 but a boolean server count is a bug."""
        with pytest.raises(TypeError, match="bool"):
            erlang_b(1.0, True)  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="bool"):
            erlang_b_direct(1.0, False)  # type: ignore[arg-type]

    def test_string_servers_raise_type_error_not_comparison(self):
        """Type check fires before the range check: no str/int comparison."""
        with pytest.raises(TypeError, match="str"):
            erlang_b(1.0, "3")  # type: ignore[arg-type]

    def test_huge_capacity_is_stable(self):
        """The recursion must not overflow where factorials would."""
        assert 0.0 <= erlang_b(500.0, 600) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e3),
        st.integers(min_value=0, max_value=200),
    )
    def test_is_probability(self, rho, k):
        assert 0.0 <= erlang_b(rho, k) <= 1.0

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.integers(min_value=1, max_value=50),
    )
    def test_monotone_in_capacity_property(self, rho, k):
        assert erlang_b(rho, k + 1) <= erlang_b(rho, k) + 1e-12


class TestInverseProblems:
    def test_inverse_capacity_meets_target(self):
        k = erlang_b_inverse_capacity(offered_load=10.0, target_loss=0.01)
        assert erlang_b(10.0, k) <= 0.01
        assert erlang_b(10.0, k - 1) > 0.01

    def test_inverse_capacity_zero_load(self):
        # E(0, 0) = 1 by the formula (a serverless system blocks every
        # arrival), so one slot is the smallest capacity meeting any
        # target below 1 even at zero load.
        assert erlang_b_inverse_capacity(0.0, 0.05) == 1

    def test_offered_load_for_target(self):
        rho = offered_load_for_target_loss(servers=10, target_loss=0.1)
        assert erlang_b(rho, 10) == pytest.approx(0.1, abs=1e-9)

    def test_mu_for_target_loss_meets_target(self):
        mu = mu_for_target_loss(arrival_rate=0.5, servers=10, target_loss=0.05)
        assert erlang_b(0.5 / mu, 10) == pytest.approx(0.05, abs=1e-9)

    def test_mu_scales_linearly_with_rate(self):
        """Twice the traffic needs twice the mu (same rho target)."""
        mu1 = mu_for_target_loss(0.5, 10, 0.05)
        mu2 = mu_for_target_loss(1.0, 10, 0.05)
        assert mu2 == pytest.approx(2 * mu1, rel=1e-9)

    def test_paper_design_rule_shrinks_delay_near_sink(self):
        """Higher aggregate lambda (near sink) -> larger mu -> shorter 1/mu."""
        far = 1.0 / mu_for_target_loss(0.25, 10, 0.1)
        near = 1.0 / mu_for_target_loss(1.0, 10, 0.1)
        assert near < far

    def test_target_bounds_enforced(self):
        with pytest.raises(ValueError):
            mu_for_target_loss(1.0, 10, 0.0)
        with pytest.raises(ValueError):
            mu_for_target_loss(1.0, 10, 1.0)
        with pytest.raises(ValueError):
            offered_load_for_target_loss(10, -0.1)
        with pytest.raises(ValueError):
            erlang_b_inverse_capacity(1.0, 2.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            mu_for_target_loss(0.0, 10, 0.1)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            offered_load_for_target_loss(0, 0.1)

    def test_inverse_problems_type_check_servers(self):
        with pytest.raises(TypeError, match="str"):
            offered_load_for_target_loss("10", 0.1)  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="bool"):
            mu_for_target_loss(1.0, True, 0.1)  # type: ignore[arg-type]

    def test_inverse_problems_accept_numpy_servers(self):
        np = pytest.importorskip("numpy")
        rho = offered_load_for_target_loss(np.int64(10), 0.1)
        assert erlang_b(rho, 10) == pytest.approx(0.1, abs=1e-9)
        mu = mu_for_target_loss(0.5, np.int64(10), 0.05)
        assert erlang_b(0.5 / mu, 10) == pytest.approx(0.05, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_offered_load_inverse_consistency(self, servers, target):
        rho = offered_load_for_target_loss(servers, target)
        assert erlang_b(rho, servers) == pytest.approx(target, rel=1e-6)
