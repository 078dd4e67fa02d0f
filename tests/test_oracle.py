"""The claim battery's numerics against an independent 40-digit oracle.

``gaussian_mean`` and ``interval_mean`` are checked against mpmath's
tanh-sinh quadrature (``mp.quad``) and TeLU's negative f' root against
``mp.findroot``.  Each activation is written out again in mpmath from its
defining formula, not from the float64 kernels.  The Gaussian integrals
run over a finite range, +-20 sigma (the tail beyond holds ~5e-89 of the
mass): over an infinite range mpmath evaluates tanh(exp(x)) at huge x.
"""

import pytest

from telulab import kernels
from telulab.kernels import TELU
from telulab.properties import Interval, find_derivative_roots, gaussian_mean, interval_mean

mp = pytest.importorskip("mpmath").mp

SIGMAS = (0.5, 1.0, 2.0, 4.0)
HALF_WIDTHS = (1.0, 8.0, 128.0)
RTOL = 1e-12


def _sigmoid(x):
    return 1 / (1 + mp.exp(-x))


def _telu(x):
    # tanh(exp(x)) is 1 to far beyond 40 digits once x >= 30
    return x if x >= 30 else x * mp.tanh(mp.exp(x))


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
            assert gaussian_mean(kind, sigma) == pytest.approx(float(exact), rel=RTOL)


@pytest.mark.parametrize("kind", kernels.ALL_KINDS, ids=lambda k: k.spec_string())
def test_interval_mean_matches_mpmath(kind):
    f = ORACLE_F[kind.tag]
    with mp.workdps(40):
        for a in HALF_WIDTHS:
            exact = mp.quad(f, [-a, 0, a]) / (2 * a)
            assert interval_mean(kind, a) == pytest.approx(float(exact), rel=RTOL)


def test_telu_negative_derivative_root_matches_mpmath():
    def d1(x):
        u = mp.exp(x)
        return mp.tanh(u) + x * u * mp.sech(u) ** 2

    with mp.workdps(40):
        exact = mp.findroot(d1, -1.08)
    (root,) = find_derivative_roots(TELU, Interval(-5.0, 0.0, 5001), 1e-10)
    assert abs(root - float(exact)) <= 1e-10
