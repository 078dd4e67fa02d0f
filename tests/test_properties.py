"""Property-lab checks: scans, quadrature, root finding, claim batteries.

Frozen constants marked "oracle" come from one-off 40-digit
extended-precision computations (root/argmax located by high-precision
root finding, expectations by high-precision quadrature).
"""

import numpy as np
import pytest

from telulab import kernels
from telulab.errors import DomainError, UnsupportedOperationError
from telulab.kernels import GELU, MISH, RELU, TELU, elu
from telulab.properties import (
    Interval,
    PropertyReport,
    bounded_output_scan,
    find_derivative_roots,
    gaussian_mean,
    grad_consistency,
    interval_mean,
    lipschitz_estimate,
    report_to_dict,
    saturation_profile,
    sensitivity_ranking,
    sup_abs_derivative,
    verify_activation,
)

# oracle values (40-digit precision, frozen)
TELU_D1_ROOT = -1.0788600584646240567
TELU_D1_ARGMAX = 0.69656396039517238403
TELU_D1_SUP = 1.0619753087179159692
E_TELU_SIGMA = {
    0.5: 0.08675560488516313,
    1.0: 0.2621317250390463,
    2.0: 0.6731717527670703,
    4.0: 1.511058617863318,
}
E_RELU_SIGMA1 = 0.3989422804014327  # 1/sqrt(2*pi), closed form
TELU_INTERVAL_MEAN = {
    2.0: 0.35267277034564,
    8.0: 1.938021517803,
    32.0: 7.9844582050193,
    128.0: 31.996114551255,
}


class TestInterval:
    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, 1.0, samples=1)

    def test_grid_endpoints(self):
        g = Interval(-1.0, 1.0, 5).grid()
        assert g[0] == -1.0 and g[-1] == 1.0 and len(g) == 5


class TestPropertyReport:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            PropertyReport("x", "fails", None, 1.0, 0.0)

    def test_serialization(self):
        r = PropertyReport("x", "holds", (1.0, 2.0), 0.5, 1e-9)
        d = report_to_dict(r)
        assert d["witness"] == [1.0, 2.0]
        assert set(d) == {"claim_id", "verdict", "witness", "measured", "tolerance"}


class TestGradConsistency:
    def test_telu_tight(self):
        rep = grad_consistency(TELU, Interval(-5, 5, 1001), 1e-5)
        assert rep.verdict == "holds"
        assert rep.measured < 1e-6

    def test_relu_constant_region(self):
        rep = grad_consistency(RELU, Interval(1, 5, 100), 1e-5)
        assert rep.verdict == "holds"
        # derivative is constant 1 there; only float rounding noise remains
        assert rep.measured < 1e-10

    def test_gelu_holds(self):
        rep = grad_consistency(GELU, Interval(-5, 5, 1001), 1e-5)
        assert rep.verdict == "holds"

    def test_relu_grid_through_zero_gets_caveat(self):
        rep = grad_consistency(RELU, Interval(-5, 5, 1001), 1e-5)
        assert rep.verdict == "holds_with_caveat"

    def test_second_order_telu(self):
        rep = grad_consistency(TELU, Interval(-4, 4, 801), 1e-4, order=2)
        assert rep.verdict == "holds"
        assert rep.measured < 1e-4

    def test_second_order_relu_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            grad_consistency(RELU, Interval(-1, 1, 11), 1e-4, order=2)

    def test_deterministic(self):
        a = grad_consistency(TELU, Interval(-5, 5, 1001), 1e-5)
        b = grad_consistency(TELU, Interval(-5, 5, 1001), 1e-5)
        assert a == b


class TestDerivativeRoots:
    def test_relu_positive_axis_has_none(self):
        assert find_derivative_roots(RELU, Interval(0.5, 5.0, 100), 1e-10) == []

    def test_telu_root_bracketed(self):
        roots = find_derivative_roots(TELU, Interval(-1.2, -1.0, 101), 1e-10)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(TELU_D1_ROOT, abs=1e-9)
        assert abs(kernels.derivative(TELU, roots[0])) < 1e-9

    def test_telu_nonnegative_axis_clean(self):
        assert find_derivative_roots(TELU, Interval(0.0, 50.0, 5001), 1e-10) == []

    def test_telu_single_root_overall(self):
        roots = find_derivative_roots(TELU, Interval(-20.0, 20.0, 20001), 1e-10)
        assert len(roots) == 1

    def test_relu_dead_region_is_not_a_crossing(self):
        # f' is identically 0 on the negative axis: a plateau, not roots
        assert find_derivative_roots(RELU, Interval(-1.0, 1.0, 201), 1e-10) == []

    @pytest.mark.parametrize(
        "d1, expected",
        [
            # a sign change between the grid points 2 and 3 is bisected
            (lambda x: x - 2.5, [2.5]),
            # exact zeros on interior points whose neighbours straddle them
            (lambda x: x - 1.0, [1.0]),
            (lambda x: x - 5.0, [5.0]),
            (lambda x: 9.0 - x, [9.0]),
            # zeros on an endpoint are not crossings inside the interval
            (lambda x: x, []),
            (lambda x: x - 10.0, []),
            # a double zero: the neighbours share a sign
            (lambda x: (x - 7.0) ** 2, []),
            # a plateau of zeros on 4, 5 and 6
            (lambda x: np.where(np.abs(x - 5.0) <= 1.0, 0.0, x - 5.0), []),
        ],
    )
    def test_grid_index_cases(self, monkeypatch, d1, expected):
        # f' zeros land exactly on the grid 0, 1, ..., 10; the stub takes
        # the bisection's scalars as well as the grid
        monkeypatch.setattr(
            kernels, "derivative", lambda kind, x: d1(np.asarray(x, dtype=float))
        )
        roots = find_derivative_roots(TELU, Interval(0.0, 10.0, 11), 1e-12)
        assert roots == pytest.approx(expected, abs=1e-11)


class TestLipschitz:
    def test_relu_is_one(self):
        assert lipschitz_estimate(RELU, Interval(-10, 10, 10001)) == 1.0

    def test_telu_exceeds_one_slightly(self):
        est = sup_abs_derivative(TELU, Interval(-10, 10, 10001))
        assert 1.0 < est.refined_value < 1.1
        assert est.refined_value == pytest.approx(TELU_D1_SUP, abs=1e-9)
        assert est.argmax == pytest.approx(TELU_D1_ARGMAX, abs=1e-4)
        # two-stage agreement: dense grid already lands very close
        assert abs(est.refined_value - est.grid_value) < 1e-3

    def test_telu_saturated_tail_below_one(self):
        assert lipschitz_estimate(TELU, Interval(5, 10, 2001)) < 1.0 + 1e-9


class TestBoundedOutput:
    def test_telu_holds(self):
        rep = bounded_output_scan(TELU, Interval(-50, 50, 10001))
        assert rep.verdict == "holds"

    def test_relu_holds(self):
        rep = bounded_output_scan(RELU, Interval(-50, 50, 10001))
        assert rep.verdict == "holds"

    def test_elu_alpha_two_fails_with_witness(self):
        rep = bounded_output_scan(elu(2.0), Interval(-50, 0, 1001))
        assert rep.verdict == "fails"
        assert rep.witness is not None
        assert -2.0 < rep.witness < 0.0
        # direct check at x = -0.5: |2(e^-0.5 - 1)| ~ 0.787 > 0.5
        assert abs(kernels.value(elu(2.0), -0.5)) > 0.5


class TestIntervalMean:
    def test_relu_quarter_identity(self):
        for a in (1.0, 4.0, 8.0, 100.0):
            assert interval_mean(RELU, a) == pytest.approx(a / 4.0, rel=1e-12, abs=0)

    def test_relu_examples(self):
        assert interval_mean(RELU, 4.0) == pytest.approx(1.0, abs=1e-9)
        assert interval_mean(RELU, 8.0) == pytest.approx(2.0, abs=1e-9)

    def test_telu_matches_oracle(self):
        for a, expected in TELU_INTERVAL_MEAN.items():
            assert interval_mean(TELU, a) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_telu_below_relu(self):
        for a in (1.0, 2.0, 8.0, 32.0, 128.0):
            assert interval_mean(TELU, a) < a / 4.0

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(DomainError):
            interval_mean(TELU, 0.0)


class TestGaussianMean:
    def test_relu_closed_form(self):
        assert gaussian_mean(RELU, 1.0) == pytest.approx(E_RELU_SIGMA1, abs=1e-10)

    def test_relu_scales_linearly(self):
        for s in (0.5, 2.0, 4.0):
            assert gaussian_mean(RELU, s) == pytest.approx(
                s * E_RELU_SIGMA1, rel=1e-10, abs=0
            )

    def test_telu_matches_oracle(self):
        for s, expected in E_TELU_SIGMA.items():
            assert gaussian_mean(TELU, s) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_telu_between_zero_and_relu(self):
        for s in (0.5, 1.0, 2.0, 4.0):
            m = gaussian_mean(TELU, s)
            assert 0.0 < m < gaussian_mean(RELU, s)

    def test_telu_tiny_sigma_linearizes_to_zero(self):
        assert abs(gaussian_mean(TELU, 1e-4)) < 1e-6


class TestSaturation:
    def test_telu(self):
        pos_gap, neg_limit = saturation_profile(TELU)
        assert pos_gap < 1e-8
        assert neg_limit < 1e-3

    def test_relu_exact(self):
        assert saturation_profile(RELU) == (0.0, 0.0)

    def test_mish(self):
        pos_gap, neg_limit = saturation_profile(MISH)
        assert pos_gap < 1e-6
        assert neg_limit < 1e-3


class TestSensitivityRanking:
    def test_relu_unit_jump_in_oscillation(self):
        rows = sensitivity_ranking([RELU], Interval(-5, 5, 10001))
        assert rows[0].sup_abs_derivative == 1.0
        assert rows[0].derivative_oscillation >= 1.0

    def test_four_way_ranking_bounded(self):
        rows = sensitivity_ranking([TELU, GELU, elu(), MISH], Interval(-5, 5, 10001))
        assert len(rows) == 4
        sups = [r.sup_abs_derivative for r in rows]
        assert sups == sorted(sups)
        assert all(np.isfinite(s) and s <= 1.2 for s in sups)

    def test_telu_oscillation_matches_total_curvature(self):
        # independent oracle: total variation of f' equals integral of |f''|
        rows = sensitivity_ranking([TELU], Interval(-5, 5, 10001))
        xs = np.linspace(-5, 5, 200001)
        quad = np.trapezoid(np.abs(kernels.second_derivative(TELU, xs)), xs)
        assert rows[0].derivative_oscillation == pytest.approx(quad, rel=0.01, abs=0)

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            sensitivity_ranking([], Interval(-5, 5, 11))


class TestClaimBatteries:
    def test_telu_battery(self):
        reports = {r.claim_id: r for r in verify_activation(TELU)}
        assert reports["telu.bounded_output"].verdict == "holds"
        lip = reports["telu.lipschitz_constant"]
        assert lip.verdict == "holds_with_caveat"
        assert 1.0 < lip.measured < 1.1
        nv = reports["telu.nonvanishing_gradient"]
        assert nv.verdict == "holds_with_caveat"
        assert nv.witness == pytest.approx(TELU_D1_ROOT, abs=1e-8)
        assert reports["telu.gaussian_mean_shift"].verdict == "holds"
        assert reports["telu.interval_mean_trend"].verdict == "holds_with_caveat"
        rank = reports["telu.sensitivity_ranking"]
        # under (sup, total variation) ELU's flat derivative wins: position 2
        assert rank.measured == 2.0
        assert rank.verdict == "holds_with_caveat"
        assert all(r.ok for r in reports.values())

    def test_relu_battery(self):
        reports = {r.claim_id: r for r in verify_activation(RELU)}
        assert reports["relu.interval_mean_identity"].verdict == "holds"
        assert reports["relu.piecewise_derivative"].verdict == "holds"
        assert reports["relu.derivative_consistency"].verdict == "holds_with_caveat"

    def test_elu_alpha_two_battery_fails_bound(self):
        reports = {r.claim_id: r for r in verify_activation(elu(2.0))}
        assert reports["elu:2.bounded_output"].verdict == "fails"

    def test_batteries_deterministic(self):
        assert verify_activation(TELU) == verify_activation(TELU)
