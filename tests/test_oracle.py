"""The claim battery's numerics against an independent 40-digit oracle.

``gaussian_mean`` and ``interval_mean`` are checked against mpmath's
tanh-sinh quadrature (``mp.quad``), TeLU's negative f' root against
``mp.findroot``, ``sup_abs_derivative`` against the f'' root that
``mp.findroot`` finds from its argmax (f' and f'' by ``mp.diff``), TeLU's
f, f' and f'' kernels pointwise, and every other kind's f, f' and f'' over
the sweep grid (f' and f'' by ``mp.diff``).  Each activation is written out again in
mpmath from its defining formula, not from the float64 kernels.  The Gaussian integrals
run over a finite range, +-20 sigma (the tail beyond holds ~5e-89 of the
mass): over an infinite range mpmath evaluates tanh(exp(x)) at huge x.
"""

import numpy as np
import pytest

from telulab import kernels
from telulab.kernels import GELU, LOGISH, MISH, RELU, SILU, SMISH, TELU, elu
from telulab.properties import (
    Interval,
    find_derivative_roots,
    gaussian_mean,
    interval_mean,
    sup_abs_derivative,
)

mp = pytest.importorskip("mpmath").mp

SIGMAS = (0.5, 1.0, 2.0, 4.0)
HALF_WIDTHS = (1.0, 8.0, 128.0)
RTOL = 1e-12


def _sigmoid(x):
    return 1 / (1 + mp.exp(-x))


def _telu(x):
    # tanh(exp(x)) is 1 to far beyond 40 digits once x >= 30
    return x if x >= 30 else x * mp.tanh(mp.exp(x))


def _telu_d1(x):
    u = mp.exp(x)
    return mp.tanh(u) + x * u * mp.sech(u) ** 2


def _telu_d2(x):
    u = mp.exp(x)
    return u * mp.sech(u) ** 2 * (2 + x - 2 * x * u * mp.tanh(u))


def _gelu(x):
    # the cubic tanh approximation, as the kernels define GELU
    return x / 2 * (1 + mp.tanh(mp.sqrt(2 / mp.pi) * (x + mp.mpf("0.044715") * x**3)))


ORACLE_F = {
    "telu": _telu,
    "relu": lambda x: max(x, 0),
    "gelu": _gelu,
    "silu": lambda x: x * _sigmoid(x),
    "mish": lambda x: x * mp.tanh(mp.log1p(mp.exp(x))),
    "logish": lambda x: x * mp.log1p(_sigmoid(x)),
    "smish": lambda x: x * mp.tanh(mp.log1p(_sigmoid(x))),
    "elu": lambda x: x if x > 0 else mp.expm1(x),
}


def test_every_kind_has_an_oracle():
    assert {k.tag for k in kernels.ALL_KINDS} == set(ORACLE_F)


@pytest.mark.parametrize("kind", kernels.ALL_KINDS, ids=lambda k: k.spec_string())
def test_gaussian_mean_matches_mpmath(kind):
    f = ORACLE_F[kind.tag]
    with mp.workdps(40):
        for sigma in SIGMAS:
            density = lambda x: f(x) * mp.exp(-x * x / (2 * sigma**2))
            exact = mp.quad(density, [-20 * sigma, 0, 20 * sigma])
            exact /= sigma * mp.sqrt(2 * mp.pi)
            assert gaussian_mean(kind, sigma) == pytest.approx(float(exact), rel=RTOL, abs=0)


@pytest.mark.parametrize("kind", kernels.ALL_KINDS, ids=lambda k: k.spec_string())
def test_interval_mean_matches_mpmath(kind):
    f = ORACLE_F[kind.tag]
    with mp.workdps(40):
        for a in HALF_WIDTHS:
            exact = mp.quad(f, [-a, 0, a]) / (2 * a)
            assert interval_mean(kind, a) == pytest.approx(float(exact), rel=RTOL, abs=0)


def test_telu_negative_derivative_root_matches_mpmath():
    with mp.workdps(40):
        exact = mp.findroot(_telu_d1, -1.08)
    (root,) = find_derivative_roots(TELU, Interval(-5.0, 0.0, 5001), 1e-10)
    assert abs(root - float(exact)) <= 1e-10


SUP_INTERVAL = Interval(-10.0, 10.0, 10001)


@pytest.mark.parametrize("kind", [TELU, GELU, SILU, MISH, LOGISH, SMISH], ids=lambda k: k.spec_string())
def test_sup_abs_derivative_matches_mpmath(kind):
    # each kind's |f'| peaks inside the interval, where f'' has a root
    f = ORACLE_F[kind.tag]
    est = sup_abs_derivative(kind, SUP_INTERVAL)
    with mp.workdps(40):
        x_star = mp.findroot(lambda x: mp.diff(f, x, 2), est.argmax)
        exact = abs(mp.diff(f, x_star))
    assert est.refined_value == pytest.approx(float(exact), rel=RTOL, abs=0)
    assert abs(est.argmax - float(x_star)) <= 1e-6


@pytest.mark.parametrize("kind, sup", [(RELU, 1.0), (elu(), 1.0), (elu(2.0), 2.0)], ids=["relu", "elu", "elu:2"])
def test_sup_abs_derivative_of_piecewise_kinds_is_exact(kind, sup):
    assert sup_abs_derivative(kind, SUP_INTERVAL).refined_value == sup


def test_telu_kernels_match_mpmath_pointwise():
    xs = np.linspace(-30.0, 30.0, 1201)
    f, d1 = kernels.value(TELU, xs), kernels.derivative(TELU, xs)
    with mp.workdps(40):
        for x, fx, dx in zip(xs, f, d1):
            exact = _telu(mp.mpf(x))
            # within 2 ULP of the unrounded value (worst measured 1.73, at x = -10.15)
            assert abs(mp.mpf(fx) - exact) <= 2 * np.spacing(abs(float(exact))), x
            # within 1e-14 absolute (worst measured 5.7e-15, at x = 2.95)
            assert abs(mp.mpf(dx) - _telu_d1(mp.mpf(x))) <= 1e-14, x


@pytest.mark.parametrize("x", [1.0, 2.0, 2.8, 2.9, 2.95, 3.0])
def test_telu_second_derivative_matches_mpmath(x):
    # where tanh(exp(x)) rounds to 1 (x >~ 2.9) a 1 - tanh^2 form of sech^2
    # cancels: it read 1.7% off at 2.9 and exactly 0 from 2.95 on
    with mp.workdps(40):
        exact = _telu_d2(mp.mpf(x))
    # worst measured 2.1e-15 relative, at x = 2.9
    assert kernels.second_derivative(TELU, x) == pytest.approx(float(exact), rel=1e-14, abs=0)


SWEEP = np.linspace(-30.0, 30.0, 241)
OTHER_KINDS = [GELU, SILU, MISH, LOGISH, SMISH, RELU, elu(), elu(2.0)]


def _piece(kind, x):
    """The oracle f of ``kind`` on the piece of its domain that holds ``x``.
    ReLU and ELU are differentiated on one branch; x = 0 lies on the x <= 0
    branch, which is the convention of the kernels."""
    if kind.tag == "relu":
        return (lambda t: t) if x > 0 else (lambda t: 0 * t)
    if kind.tag == "elu":
        return (lambda t: t) if x > 0 else (lambda t: kind.alpha * mp.expm1(t))
    return ORACLE_F[kind.tag]


@pytest.mark.parametrize("kind", OTHER_KINDS, ids=lambda k: k.spec_string())
def test_kernels_match_mpmath_over_the_sweep(kind):
    f, d1 = kernels.value(kind, SWEEP), kernels.derivative(kind, SWEEP)
    d2 = kernels.second_derivative(kind, SWEEP) if kernels.has_second_derivative(kind) else None
    with mp.workdps(40):
        for i, x in enumerate(SWEEP):
            g, t = _piece(kind, x), mp.mpf(x)
            exact = g(t)
            err = abs(mp.mpf(f[i]) - exact)
            if kind == GELU and x < 0:
                # 1 + tanh(t) cancels, so only an absolute bound holds here
                # (worst measured 1.9e-16, at x = -5.25); see the tail test
                assert err <= 3e-16, x
            else:
                # worst measured 3.3e-16, Logish and Smish at x = -26.25
                assert err <= 4e-16 * abs(exact), x
            # worst measured 2.8e-15, SiLU at x = 30
            assert abs(mp.mpf(d1[i]) - mp.diff(g, t)) <= 3e-15, x
            if d2 is not None:
                # worst measured 2.1e-14, GELU at x = 6.75
                assert abs(mp.mpf(d2[i]) - mp.diff(g, t, 2)) <= 3e-14, x


@pytest.mark.xfail(
    strict=True,
    reason="open defect: 1 - s (SiLU, Logish, Smish), 1 - w*w (Mish) and "
    "1 + tanh(t) (GELU) cancel in float64 in the tails",
)
@pytest.mark.parametrize(
    "kind, x, order",
    # relative errors measured: 1.0e-3 for the first three, 1.0 (an exact
    # 0 returned) for Mish, 4.0e-3 for GELU's f
    [(SILU, 30.0, 2), (LOGISH, 30.0, 2), (SMISH, 30.0, 2), (MISH, 19.0, 2), (GELU, -6.75, 0)],
    ids=["silu", "logish", "smish", "mish", "gelu"],
)
def test_tails_keep_relative_accuracy(kind, x, order):
    got = (kernels.value, kernels.derivative, kernels.second_derivative)[order](kind, x)
    with mp.workdps(40):
        exact = mp.diff(ORACLE_F[kind.tag], mp.mpf(x), order)
    assert got == pytest.approx(float(exact), rel=1e-12, abs=0)
