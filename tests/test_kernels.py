"""Kernel-level checks: frozen oracle values, bounds, overflow safety.

Expected values marked "oracle" were computed once with 40-digit
extended-precision arithmetic and frozen here as literals.
"""

import math

import numpy as np
import pytest

from telulab import kernels
from telulab.errors import DomainError, UnsupportedOperationError
from telulab.kernels import (
    ALL_KINDS,
    GELU,
    MISH,
    RELU,
    TELU,
    elu,
    parse_kind,
)

# oracle: tanh(e), -tanh(1/e), tanh(1), 2*(1 - tanh(1)^2) at 40 digits
TANH_E = 0.9913289158005998378
NEG_TANH_INV_E = -0.35213549054658698153
TELU_AT_MINUS_2 = -0.26903008257898037872
TANH_1 = 0.76159415595576488812
TELU_D2_AT_0 = 0.83994868322805213879


class TestTeluValues:
    def test_zero_annihilates(self):
        assert kernels.value(TELU, 0.0) == 0.0

    def test_at_one(self):
        assert kernels.value(TELU, 1.0) == pytest.approx(TANH_E, rel=1e-15, abs=0)

    def test_at_minus_one(self):
        assert kernels.value(TELU, -1.0) == pytest.approx(NEG_TANH_INV_E, rel=1e-15, abs=0)

    def test_positive_tail_is_identity(self):
        for x in [20.0, 25.0, 100.0, 500.0]:
            assert kernels.value(TELU, x) == x

    def test_negative_tail_matches_x_exp_x(self):
        for x in [-20.0, -50.0, -500.0]:
            expected = x * math.exp(x)
            assert kernels.value(TELU, x) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_not_monotone_on_negative_axis(self):
        # the negative lobe has a genuine dip: f(-2) > f(-1)
        assert kernels.value(TELU, -2.0) > kernels.value(TELU, -1.0)
        assert kernels.value(TELU, -2.0) == pytest.approx(TELU_AT_MINUS_2, rel=1e-15, abs=0)

    def test_sign_follows_input(self):
        xs = np.linspace(-40, 40, 4001)
        v = kernels.value(TELU, xs)
        assert np.all(v[xs > 0] > 0)
        assert np.all(v[xs < 0] < 0)

    def test_bounded_by_absolute_input(self):
        xs = np.linspace(-500, 500, 20001)
        assert np.all(np.abs(kernels.value(TELU, xs)) <= np.abs(xs))

    def test_finite_over_wide_range(self):
        xs = np.linspace(-500, 500, 4001)
        for fn in (kernels.value, kernels.derivative, kernels.second_derivative):
            assert np.all(np.isfinite(fn(TELU, xs)))


class TestTeluDerivatives:
    def test_first_derivative_at_zero(self):
        assert kernels.derivative(TELU, 0.0) == pytest.approx(TANH_1, rel=1e-15, abs=0)

    def test_first_derivative_positive_on_nonnegative_axis(self):
        xs = np.linspace(0.0, 50.0, 5001)
        assert np.all(kernels.derivative(TELU, xs) > 0)

    def test_first_derivative_changes_sign_near_minus_one(self):
        assert kernels.derivative(TELU, -1.0) > 0
        assert kernels.derivative(TELU, -1.2) < 0

    def test_second_derivative_at_zero(self):
        assert kernels.second_derivative(TELU, 0.0) == pytest.approx(
            TELU_D2_AT_0, rel=1e-15, abs=0
        )

    def test_second_derivative_vanishes_far_left(self):
        # asymptotically f''(x) ~ exp(x) * (2 + x); at x = -30 that is
        # -2.62e-12, decaying to zero exponentially further left
        assert kernels.second_derivative(TELU, -30.0) == pytest.approx(
            math.exp(-30.0) * (2.0 - 30.0), rel=1e-9, abs=0
        )
        assert abs(kernels.second_derivative(TELU, -40.0)) < 1e-12

    def test_derivative_saturates_to_one(self):
        assert kernels.derivative(TELU, 20.0) == 1.0
        assert kernels.derivative(TELU, 300.0) == 1.0


class TestComparisonKernels:
    def test_relu_basics(self):
        assert kernels.value(RELU, -2.0) == 0.0
        assert kernels.value(RELU, 3.5) == 3.5
        assert kernels.derivative(RELU, 3.0) == 1.0
        assert kernels.derivative(RELU, -3.0) == 0.0

    def test_relu_subgradient_at_zero_is_flagged(self):
        assert kernels.derivative(RELU, 0.0) == 0.0
        assert kernels.derivative_kinks(RELU) == (0.0,)

    def test_relu_second_derivative_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            kernels.second_derivative(RELU, 1.0)

    def test_gelu_zero(self):
        assert kernels.value(GELU, 0.0) == 0.0

    def test_gelu_matches_reference_form(self):
        # literal cubic tanh approximation, written out independently
        xs = np.linspace(-6, 6, 101)
        c = math.sqrt(2.0 / math.pi)
        expected = 0.5 * xs * (1.0 + np.tanh(c * (xs + 0.044715 * xs**3)))
        np.testing.assert_allclose(kernels.value(GELU, xs), expected, rtol=1e-15)

    def test_elu_piecewise(self):
        k = elu(2.0)
        assert kernels.value(k, 1.5) == 1.5
        assert kernels.value(k, -1.0) == pytest.approx(2.0 * (math.exp(-1) - 1))
        assert kernels.derivative(k, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_elu_alpha_must_be_positive(self, alpha):
        with pytest.raises(DomainError):
            elu(alpha)

    def test_mish_silu_logish_smish_reference_points(self):
        # independent one-line reference implementations at a few points
        sig = lambda x: 1.0 / (1.0 + math.exp(-x))
        for x in [-3.0, -0.7, 0.0, 0.9, 4.0]:
            assert kernels.value(kernels.MISH, x) == pytest.approx(
                x * math.tanh(math.log1p(math.exp(x))), rel=1e-12, abs=0
            )
            assert kernels.value(kernels.SILU, x) == pytest.approx(
                x * sig(x), rel=1e-12, abs=0
            )
            assert kernels.value(kernels.LOGISH, x) == pytest.approx(
                x * math.log1p(sig(x)), rel=1e-12, abs=0
            )
            assert kernels.value(kernels.SMISH, x) == pytest.approx(
                x * math.tanh(math.log1p(sig(x))), rel=1e-12, abs=0
            )


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.spec_string())
    def test_first_derivative_matches_central_difference(self, kind):
        h = 1e-5
        xs = np.linspace(-5, 5, 1001)
        for k in kernels.derivative_kinks(kind):
            xs = xs[np.abs(xs - k) > 10 * h]
        fd = (kernels.value(kind, xs + h) - kernels.value(kind, xs - h)) / (2 * h)
        closed = kernels.derivative(kind, xs)
        denom = np.maximum(np.abs(closed), 1e-8)
        err = np.where(np.abs(closed) >= 1e-8, np.abs(closed - fd) / denom,
                       np.abs(closed - fd))
        assert err.max() < 1e-5, f"{kind.display_name}: worst {err.max():.2e}"

    @pytest.mark.parametrize(
        "kind",
        [k for k in ALL_KINDS if kernels.has_second_derivative(k)],
        ids=lambda k: k.spec_string(),
    )
    def test_second_derivative_matches_differenced_first(self, kind):
        h = 1e-4
        xs = np.linspace(-4, 4, 801)
        for k in kernels.second_derivative_kinks(kind):
            xs = xs[np.abs(xs - k) > 10 * h]
        fd = (kernels.derivative(kind, xs + h) - kernels.derivative(kind, xs - h)) / (
            2 * h
        )
        err = np.abs(kernels.second_derivative(kind, xs) - fd)
        assert err.max() < 1e-4, f"{kind.display_name}: worst {err.max():.2e}"


class TestInputHandling:
    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            kernels.value(TELU, float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(DomainError):
            kernels.derivative(MISH, float("inf"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_nonfinite_rejected_anywhere_in_an_array(self, bad, at):
        x = np.linspace(-1.0, 1.0, 7)
        x[at] = bad
        with pytest.raises(DomainError):
            kernels.value(TELU, x)

    def test_empty_and_zero_dimensional_accepted(self):
        assert kernels.value(TELU, np.empty(0)).shape == (0,)
        assert kernels.value(TELU, np.array(0.0)) == 0.0

    def test_arrays_and_scalars(self):
        out = kernels.value(TELU, np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        assert isinstance(kernels.value(TELU, 1.0), float)


class TestParsing:
    def test_simple_names(self):
        assert parse_kind("telu") is not None
        assert parse_kind("ReLU").tag == "relu"

    def test_elu_with_alpha(self):
        k = parse_kind("elu:2.5")
        assert k.tag == "elu" and k.alpha == 2.5

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            parse_kind("nosuch")

    def test_non_elu_parameter_rejected(self):
        with pytest.raises(DomainError):
            parse_kind("telu:2.0")

    def test_unparsable_elu_alpha_rejected(self):
        with pytest.raises(DomainError) as err:
            parse_kind("elu:abc")
        assert str(err.value) == "bad elu alpha 'abc'"

    def test_round_trip(self):
        for k in [*ALL_KINDS, elu(2.0)]:
            assert parse_kind(k.spec_string()) == k

    @pytest.mark.parametrize("tag", [k.tag for k in ALL_KINDS if k.tag != "elu"])
    def test_parameter_rejected_on_construction(self, tag):
        # the same text parse_kind gives, so a kind that takes no parameter
        # can never hold one that spec_string would drop
        msg = f"activation {tag!r} takes no parameter"
        for alpha in (2.0, 0.0, math.nan):
            with pytest.raises(DomainError, match=msg):
                kernels.ActivationKind(tag, alpha)
        with pytest.raises(DomainError, match=msg):
            parse_kind(f"{tag}:2")
        assert kernels.ActivationKind(tag, 1.0) == parse_kind(tag)


class TestKindTable:
    # display name, f' kinks, f'' kinks, f'' provided
    TRUTH = [
        (TELU, "TeLU", (), (), True),
        (RELU, "ReLU", (0.0,), (0.0,), False),
        (GELU, "GELU", (), (), True),
        (kernels.SILU, "SiLU", (), (), True),
        (MISH, "Mish", (), (), True),
        (kernels.LOGISH, "Logish", (), (), True),
        (kernels.SMISH, "Smish", (), (), True),
        (elu(), "ELU", (), (0.0,), True),
        (elu(2.0), "ELU(alpha=2)", (0.0,), (0.0,), True),
        (elu(0.5), "ELU(alpha=0.5)", (0.0,), (0.0,), True),
        (elu(1.0 + 2.0**-52), "ELU(alpha=1)", (0.0,), (0.0,), True),
    ]

    @pytest.mark.parametrize("kind,name,d1_kinks,d2_kinks,has_d2", TRUTH)
    def test_per_kind_answers(self, kind, name, d1_kinks, d2_kinks, has_d2):
        assert kind.display_name == name
        assert kernels.derivative_kinks(kind) == d1_kinks
        assert kernels.second_derivative_kinks(kind) == d2_kinks
        assert kernels.has_second_derivative(kind) == has_d2

    def test_unknown_tag_lists_every_kind(self):
        expected = "telu, relu, gelu, silu, mish, logish, smish, elu"
        with pytest.raises(DomainError, match=f"expected one of {expected}$"):
            kernels.ActivationKind("nosuch")


# --- seeded sweep: overflow safety, fused kernel, FD agreement, TeLU oracle ---

EDGE_VALUES = np.array(
    [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        np.nextafter(20.0, 0.0),
        20.0,
        np.nextafter(20.0, 40.0),
        np.nextafter(-20.0, 0.0),
        -20.0,
        np.nextafter(-20.0, -40.0),
        1e300,
        -1e300,
        1.7e308,
        -1.7e308,
    ]
)


def _sweep() -> np.ndarray:
    rng = np.random.default_rng(20240205)
    return np.concatenate(
        [rng.uniform(-500.0, 500.0, 20000), rng.normal(0.0, 8.0, 20000)]
    )


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _piecewise_telu_value(x):
    # frozen copy of the original piecewise TeLU kernel: the oracle
    mid = (x > -20.0) & (x < 20.0)
    lo = x <= -20.0
    xm, xl = np.where(mid, x, 0.0), np.where(lo, x, 0.0)
    out = np.where(x >= 20.0, x, 0.0)
    out = np.where(mid, xm * np.tanh(np.exp(xm)), out)
    return np.where(lo, xl * np.exp(xl), out)


def _piecewise_telu_d1(x):
    mid = x < 20.0
    xm = np.where(mid, x, 0.0)
    u = np.exp(xm)
    th = np.tanh(u)
    return np.where(mid, th + xm * u * (1.0 - th * th), 1.0)


def _two_branch_sigmoid(x):
    # a frozen copy of the sigmoid that computed each sign's branch on its
    # own entries: the oracle
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _unclamped_mish_d2(x):
    # a frozen copy of the f'' formula before its overflow clamp
    w = np.tanh(kernels._softplus(x))
    s = kernels._sigmoid(x)
    sp = s * (1.0 - s)
    return (1.0 - w * w) * (2.0 * s + x * (sp - 2.0 * w * s * s))


class TestKernelSweep:
    XS = np.concatenate([_sweep(), EDGE_VALUES])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.spec_string())
    def test_no_overflow_or_invalid(self, kind):
        with np.errstate(over="raise", invalid="raise"):
            for fn in (kernels.value, kernels.derivative, kernels.value_and_derivative):
                for out in np.atleast_2d(fn(kind, self.XS)):
                    assert np.all(np.isfinite(out))
                for x in EDGE_VALUES:
                    assert np.all(np.isfinite(fn(kind, float(x))))
            if kernels.has_second_derivative(kind):
                assert np.all(np.isfinite(kernels.second_derivative(kind, self.XS)))
                for x in EDGE_VALUES:
                    assert np.isfinite(kernels.second_derivative(kind, float(x)))

    @pytest.mark.parametrize("kind, oracle", [(MISH, _unclamped_mish_d2)], ids=["mish"])
    def test_second_derivative_clamp_changes_no_finite_result(self, kind, oracle):
        around = [-746.0, -745.5, -745.0, 19.0, 20.0, 21.0]
        xs = np.concatenate(
            [self.XS, around, np.nextafter(around, -np.inf), np.nextafter(around, np.inf)]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            old = oracle(xs)
        finite = np.isfinite(old)
        assert not finite.all()  # the oracle overflows at an edge value
        np.testing.assert_array_equal(
            _bits(kernels.second_derivative(kind, xs)[finite]), _bits(old[finite])
        )

    @pytest.mark.parametrize("kind", [*ALL_KINDS, elu(2.0)], ids=lambda k: k.spec_string())
    def test_fused_matches_separate_bit_for_bit(self, kind):
        f, d = kernels.value_and_derivative(kind, self.XS)
        np.testing.assert_array_equal(_bits(f), _bits(kernels.value(kind, self.XS)))
        np.testing.assert_array_equal(
            _bits(d), _bits(kernels.derivative(kind, self.XS))
        )
        for x in EDGE_VALUES:
            fs, ds = kernels.value_and_derivative(kind, float(x))
            assert isinstance(fs, float) and isinstance(ds, float)
            assert _bits(fs) == _bits(kernels.value(kind, float(x)))
            assert _bits(ds) == _bits(kernels.derivative(kind, float(x)))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.spec_string())
    def test_derivative_matches_central_difference(self, kind):
        xs = _sweep()
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        for k in kernels.derivative_kinks(kind):
            keep = np.abs(xs - k) > 10 * h
            xs, h = xs[keep], h[keep]
        fd = (kernels.value(kind, xs + h) - kernels.value(kind, xs - h)) / (2 * h)
        closed = kernels.derivative(kind, xs)
        err = np.abs(closed - fd) / np.maximum(1.0, np.abs(closed))
        assert err.max() < 1e-6, f"{kind.display_name}: worst {err.max():.2e}"

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        edges = np.array([709.0, 745.0, 1e308, np.inf])
        xs = np.concatenate([self.XS, edges, -edges])
        np.testing.assert_array_equal(
            _bits(kernels._sigmoid(xs)), _bits(_two_branch_sigmoid(xs))
        )
        for x in xs[-20:]:
            x = np.array(x)
            assert _bits(kernels._sigmoid(x)) == _bits(_two_branch_sigmoid(x))

    def test_telu_matches_piecewise_formulas_bit_for_bit(self):
        np.testing.assert_array_equal(
            _bits(kernels.value(TELU, self.XS)), _bits(_piecewise_telu_value(self.XS))
        )
        np.testing.assert_array_equal(
            _bits(kernels.derivative(TELU, self.XS)), _bits(_piecewise_telu_d1(self.XS))
        )
        for x in EDGE_VALUES:
            assert _bits(kernels.value(TELU, float(x))) == _bits(
                _piecewise_telu_value(np.asarray(x))
            )
            assert _bits(kernels.derivative(TELU, float(x))) == _bits(
                _piecewise_telu_d1(np.asarray(x))
            )
