"""Numeric verification engine for the activation properties.

Every advertised mathematical property of the activations (gradient
non-vanishing, output bounds, saturation, mean shift toward zero under a
symmetric input law, Lipschitz continuity, robustness ranking) is checked
here by direct numerics: dense grid scans, scan-then-bisect root finding,
golden-section supremum refinement, and composite Gauss-Legendre
quadrature split at the kinks of f'' (one rule for interval and Gaussian
means alike).  Results are reported as machine-readable
:class:`PropertyReport` records; a claim that only holds in weakened form
is reported as ``holds_with_caveat``, never silently patched.

All computations are deterministic: same inputs, bitwise-identical
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import kernels
from .errors import DomainError, UnsupportedOperationError
from .kernels import ActivationKind

__all__ = [
    "Interval",
    "PropertyReport",
    "SupEstimate",
    "SensitivityRow",
    "grad_consistency",
    "find_derivative_roots",
    "lipschitz_estimate",
    "sup_abs_derivative",
    "bounded_output_scan",
    "interval_mean",
    "gaussian_mean",
    "saturation_profile",
    "sensitivity_ranking",
    "verify_activation",
    "report_to_dict",
]

Witness = Union[None, float, tuple[float, float]]

#: relative tolerance for first-derivative / finite-difference agreement
D1_CONSISTENCY_TOL = 1e-5
#: absolute tolerance for second-derivative / differenced-f' agreement
D2_CONSISTENCY_TOL = 1e-4
#: |f'| below this uses absolute instead of relative error in scans
SMALL_DERIVATIVE = 1e-8
#: quadrature refinement target (successive-estimate relative change)
QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class Interval:
    """A scan interval with its grid resolution."""

    lo: float
    hi: float
    samples: int = 10001

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.samples < 2:
            raise DomainError("interval needs at least 2 samples")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.samples)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one numeric property check.

    ``verdict`` is one of ``holds``, ``fails``, ``holds_with_caveat``.  A
    failing report always carries a witness (the offending location).
    """

    claim_id: str
    verdict: str
    witness: Witness
    measured: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.verdict not in ("holds", "fails", "holds_with_caveat"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fails" and self.witness is None:
            raise ValueError("failing report must carry a witness")
        if not math.isfinite(self.measured):
            raise ValueError("measured quantity must be finite")

    @property
    def ok(self) -> bool:
        return self.verdict != "fails"


def report_to_dict(report: PropertyReport) -> dict:
    witness = report.witness
    if isinstance(witness, tuple):
        witness = list(witness)
    return {
        "claim_id": report.claim_id,
        "verdict": report.verdict,
        "witness": witness,
        "measured": report.measured,
        "tolerance": report.tolerance,
    }


def _bound_report(
    claim_id: str, holds: bool, witness: Witness, measured: float, tolerance: float
) -> PropertyReport:
    """``holds`` when the claim's bound is met; otherwise ``fails``, carrying
    ``witness``."""
    return PropertyReport(
        claim_id=claim_id,
        verdict="holds" if holds else "fails",
        witness=None if holds else witness,
        measured=measured,
        tolerance=tolerance,
    )


# --- derivative / finite-difference consistency -----------------------------


def grad_consistency(
    kind: ActivationKind, iv: Interval, h: float, order: int = 1
) -> PropertyReport:
    """Compare the closed-form derivative against central finite differences.

    ``order=1`` checks f' against differenced f (relative error, with an
    absolute fallback where |f'| < 1e-8); ``order=2`` checks f'' against
    differenced f' (absolute error).  Grid points within 10*h of a kink of
    the checked derivative are excluded and the report is downgraded to
    ``holds_with_caveat``.
    """
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if order == 2 and not kernels.has_second_derivative(kind):
        raise UnsupportedOperationError(
            f"{kind.display_name} has no second derivative to check"
        )

    if order == 1:
        closed_of, fd_of = kernels.derivative, kernels.value
        kinks, tol = kernels.derivative_kinks(kind), D1_CONSISTENCY_TOL
    else:
        closed_of, fd_of = kernels.second_derivative, kernels.derivative
        kinks, tol = kernels.second_derivative_kinks(kind), D2_CONSISTENCY_TOL

    xs = iv.grid()
    keep = np.ones_like(xs, dtype=bool)
    for k in kinks:
        keep &= np.abs(xs - k) > 10.0 * h
    caveat = not bool(keep.all())
    xs = xs[keep]

    closed = closed_of(kind, xs)
    fd = (fd_of(kind, xs + h) - fd_of(kind, xs - h)) / (2.0 * h)
    err = np.abs(closed - fd)
    if order == 1:
        big = np.abs(closed) >= SMALL_DERIVATIVE
        err = np.where(big, err / np.maximum(np.abs(closed), SMALL_DERIVATIVE), err)

    worst = int(np.argmax(err))
    measured = float(err[worst])
    holds = measured < tol
    verdict = ("holds_with_caveat" if caveat else "holds") if holds else "fails"
    name = "derivative_consistency" if order == 1 else "second_derivative_consistency"
    return PropertyReport(
        claim_id=f"{kind.spec_string()}.{name}",
        verdict=verdict,
        witness=float(xs[worst]),
        measured=measured,
        tolerance=tol,
    )


# --- root finding ------------------------------------------------------------


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_derivative_roots(
    kind: ActivationKind, iv: Interval, tol: float
) -> list[float]:
    """Locate every sign change of f' in ``iv`` by scan-then-bisect.

    Returns the bisection-refined locations (each within ``tol``), sorted
    ascending.  An empty list means no sign change at the scan resolution.
    """
    if tol <= 0:
        raise DomainError("root tolerance must be positive")
    xs = iv.grid()
    d = kernels.derivative(kind, xs)
    f = lambda x: kernels.derivative(kind, float(x))

    roots = [
        _bisect(f, float(xs[i]), float(xs[i + 1]), tol)
        for i in np.flatnonzero(d[:-1] * d[1:] < 0.0)
    ]
    # a zero landing exactly on an interior grid point is a sign change only
    # if the neighbors straddle it; plateaus of zeros (ReLU's dead region)
    # are not crossings
    interior = np.flatnonzero((d[1:-1] == 0.0) & (d[:-2] * d[2:] < 0.0)) + 1
    roots += [float(x) for x in xs[interior]]
    roots.sort()

    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > max(tol, 1e-12) * 10:
            deduped.append(r)
    return deduped


# --- supremum of |f'| ---------------------------------------------------------


@dataclass(frozen=True)
class SupEstimate:
    """Two-stage estimate of sup |f'|: dense grid, then golden-section."""

    grid_value: float
    refined_value: float
    argmax: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-9
) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def sup_abs_derivative(kind: ActivationKind, iv: Interval) -> SupEstimate:
    """Estimate sup |f'| over ``iv``: grid argmax plus golden-section refine."""
    xs = iv.grid()
    d = np.abs(kernels.derivative(kind, xs))
    i = int(np.argmax(d))
    grid_value = float(d[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    f = lambda x: abs(kernels.derivative(kind, float(x)))
    x_star, refined = _golden_max(f, lo, hi)
    if refined < grid_value:
        x_star, refined = float(xs[i]), grid_value
    return SupEstimate(grid_value=grid_value, refined_value=refined, argmax=x_star)


def lipschitz_estimate(kind: ActivationKind, iv: Interval) -> float:
    """sup |f'| over ``iv``; equals the Lipschitz constant on that interval."""
    return sup_abs_derivative(kind, iv).refined_value


# --- output bound scan --------------------------------------------------------


def bounded_output_scan(kind: ActivationKind, iv: Interval) -> PropertyReport:
    """Check -|x| <= f(x) <= |x| on the grid (slack 1e-12)."""
    xs = iv.grid()
    excess = np.abs(kernels.value(kind, xs)) - np.abs(xs)
    worst = int(np.argmax(excess))
    measured = float(excess[worst])
    holds = measured <= 1e-12
    return PropertyReport(
        claim_id=f"{kind.spec_string()}.bounded_output",
        verdict="holds" if holds else "fails",
        witness=float(xs[worst]),
        measured=measured,
        tolerance=1e-12,
    )


# --- quadrature ----------------------------------------------------------------


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _composite_gl(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: tuple[float, ...] = (),
    order: int = 24,
    rtol: float = QUAD_RTOL,
) -> float:
    """Composite Gauss-Legendre with panel doubling until the estimate is
    stable to ``rtol`` relative.  ``breakpoints`` become permanent panel
    edges so piecewise-smooth integrands converge at the smooth rate."""
    edges = np.array(sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)}))
    nodes0, weights0 = _leggauss(order)

    def estimate(panels_per_piece: int) -> float:
        # one kernel call for the nodes of every panel; each panel's sum is
        # then added in panel order, which a matrix-vector product would not
        cuts = np.linspace(edges[:-1], edges[1:], panels_per_piece + 1, axis=1)
        half = 0.5 * (cuts[:, 1:] - cuts[:, :-1]).ravel()
        mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1]).ravel()
        values = f(half[:, None] * nodes0 + mid[:, None])
        total = 0.0
        for h, row in zip(half, values):
            total += h * float(np.dot(weights0, row))
        return total

    panels = 4
    prev = estimate(panels)
    for _ in range(14):
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ArithmeticError("quadrature failed to stabilize")


def interval_mean(kind: ActivationKind, a: float) -> float:
    """(1/2a) * integral of f over [-a, a], by adaptive Gauss-Legendre."""
    if a <= 0:
        raise DomainError("half-width a must be positive")
    f = lambda xs: kernels.value(kind, xs)
    integral = _composite_gl(f, -a, a, kernels.second_derivative_kinks(kind))
    return integral / (2.0 * a)


def gaussian_mean(kind: ActivationKind, sigma: float) -> float:
    """E[f(X)] for X ~ Normal(0, sigma^2), converged to 1e-10.

    Adaptive Gauss-Legendre on [-13 sigma, 13 sigma], split at the kinks
    of f'' (ReLU, ELU) so that every kind converges at the smooth rate;
    the discarded Gaussian tail mass is ~1e-37.
    """
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    lim = 13.0 * sigma
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(xs: np.ndarray) -> np.ndarray:
        return kernels.value(kind, xs) * norm * np.exp(-0.5 * (xs / sigma) ** 2)

    return _composite_gl(integrand, -lim, lim, kernels.second_derivative_kinks(kind))


# --- saturation and sensitivity ------------------------------------------------


def saturation_profile(kind: ActivationKind) -> tuple[float, float]:
    """(pos_gap, neg_limit): max |f(x) - x| on [10, 30] and max |f(x)| on
    [-30, -10]."""
    pos = np.linspace(10.0, 30.0, 2001)
    neg = np.linspace(-30.0, -10.0, 2001)
    pos_gap = float(np.max(np.abs(kernels.value(kind, pos) - pos)))
    neg_limit = float(np.max(np.abs(kernels.value(kind, neg))))
    return pos_gap, neg_limit


@dataclass(frozen=True)
class SensitivityRow:
    kind: ActivationKind
    sup_abs_derivative: float
    derivative_oscillation: float


def sensitivity_ranking(
    kinds: list[ActivationKind], iv: Interval
) -> list[SensitivityRow]:
    """Rank activations by derivative magnitude and total variation of f'.

    Sorted ascending by (sup |f'|, total variation); the ordering is a
    measurement under this specific criterion, not an asserted fact.
    """
    if not kinds:
        raise DomainError("need at least one activation kind")
    rows = []
    xs = iv.grid()
    for kind in kinds:
        d = kernels.derivative(kind, xs)
        rows.append(
            SensitivityRow(
                kind=kind,
                sup_abs_derivative=float(np.max(np.abs(d))),
                derivative_oscillation=float(np.sum(np.abs(np.diff(d)))),
            )
        )
    return sorted(
        rows, key=lambda r: (r.sup_abs_derivative, r.derivative_oscillation)
    )


# --- claim batteries -------------------------------------------------------------


def _controlled_growth(kind: ActivationKind, pos_tol: float) -> PropertyReport:
    """f(x) - x vanishes on the positive tail (below ``pos_tol``) and f(x)
    on the negative tail (below 1e-3)."""
    pos_gap, neg_limit = saturation_profile(kind)
    return _bound_report(
        f"{kind.spec_string()}.controlled_growth",
        pos_gap < pos_tol and neg_limit < 1e-3,
        10.0,
        max(pos_gap, neg_limit),
        1e-3,
    )


def _telu_claims() -> list[PropertyReport]:
    telu = kernels.TELU
    out = []

    # gradient is never zero on the nonnegative axis; on the negative axis a
    # single isolated zero crossing exists, so the literal everywhere-nonzero
    # statement only holds in weakened form (no zero-derivative *region*).
    roots_pos = find_derivative_roots(telu, Interval(0.0, 50.0, 5001), 1e-10)
    roots_neg = find_derivative_roots(telu, Interval(-5.0, 0.0, 5001), 1e-10)
    scan = Interval(-5.0, 50.0, 10001).grid()
    min_d1 = float(np.min(kernels.derivative(telu, scan)))
    if roots_pos:
        verdict, witness = "fails", float(roots_pos[0])
    elif len(roots_neg) == 1:
        verdict, witness = "holds_with_caveat", float(roots_neg[0])
    elif not roots_neg:
        verdict, witness = "holds", None
    else:
        verdict, witness = "fails", float(roots_neg[0])
    out.append(
        PropertyReport(
            claim_id="telu.nonvanishing_gradient",
            verdict=verdict,
            witness=witness,
            measured=min_d1,
            tolerance=0.0,
        )
    )

    out.append(_controlled_growth(telu, 1e-8))

    worst = max(
        abs(gaussian_mean(telu, s)) / gaussian_mean(kernels.RELU, s)
        for s in (0.5, 1.0, 2.0, 4.0)
    )
    out.append(
        _bound_report("telu.gaussian_mean_shift", worst < 1.0, (4.0, worst), worst, 1.0)
    )

    # the uniform-interval average does not vanish as the interval grows
    # (it tracks a/4 like any asymptotically linear activation), but it does
    # stay strictly below ReLU's a/4 for every half-width: weakened form.
    means = {a: interval_mean(telu, a) for a in (1.0, 2.0, 8.0, 32.0, 128.0)}
    mean128 = means[128.0]
    ratio128 = mean128 / (128.0 / 4.0)
    below_relu = all(m < a / 4.0 for a, m in means.items())
    out.append(
        PropertyReport(
            claim_id="telu.interval_mean_trend",
            verdict="holds_with_caveat" if below_relu else "fails",
            witness=(128.0, mean128),
            measured=ratio128,
            tolerance=1.0,
        )
    )

    est = sup_abs_derivative(telu, Interval(-10.0, 10.0, 10001))
    if est.refined_value <= 1.0 + 1e-9:
        lip_verdict = "holds"
    elif est.refined_value < 1.1:
        lip_verdict = "holds_with_caveat"
    else:
        lip_verdict = "fails"
    out.append(
        PropertyReport(
            claim_id="telu.lipschitz_constant",
            verdict=lip_verdict,
            witness=est.argmax,
            measured=est.refined_value,
            tolerance=1.1,
        )
    )

    h = 1e-7
    xs = Interval(-10.0, 10.0, 2001).grid()
    df = np.max(np.abs(kernels.value(telu, xs + h) - kernels.value(telu, xs))) / h
    dd = (
        np.max(np.abs(kernels.derivative(telu, xs + h) - kernels.derivative(telu, xs)))
        / h
    )
    measured = float(max(df, dd))
    out.append(
        _bound_report(
            "telu.continuity_of_f_and_f_prime", measured < 1.5, 0.0, measured, 1.5
        )
    )

    # robustness ranking vs GELU/ELU/Mish under (sup|f'|, total variation):
    # a measurement, not ground truth — the qualitative criterion has no
    # canonical quantitative form.  TeLU's first-place claim is recorded
    # with its measured position as a caveat when it does not land first.
    rows = sensitivity_ranking(
        [telu, kernels.GELU, kernels.elu(), kernels.MISH], Interval(-5.0, 5.0, 10001)
    )
    position, telu_row = next((i, r) for i, r in enumerate(rows, 1) if r.kind == telu)
    out.append(
        PropertyReport(
            claim_id="telu.sensitivity_ranking",
            verdict="holds" if position == 1 else "holds_with_caveat",
            witness=(telu_row.sup_abs_derivative, telu_row.derivative_oscillation),
            measured=float(position),
            tolerance=1.0,
        )
    )
    return out


def _relu_claims() -> list[PropertyReport]:
    relu = kernels.RELU
    mean_dev = max(
        abs(interval_mean(relu, a) - a / 4.0) / (a / 4.0) for a in (1.0, 4.0, 8.0, 100.0)
    )
    dev = max(
        abs(kernels.derivative(relu, 3.0) - 1.0), abs(kernels.derivative(relu, -3.0))
    )
    return [
        _bound_report(
            "relu.interval_mean_identity", mean_dev <= 1e-9, 100.0, mean_dev, 1e-9
        ),
        _bound_report("relu.piecewise_derivative", dev == 0.0, 3.0, dev, 0.0),
    ]


def verify_activation(kind: ActivationKind) -> list[PropertyReport]:
    """Run the full claim battery for one activation kind.

    Every kind gets derivative-consistency and output-bound scans; TeLU,
    ReLU and Mish additionally get the checks specific to the properties
    advertised for them.
    """
    reports = [grad_consistency(kind, Interval(-5.0, 5.0, 1001), 1e-5)]
    if kernels.has_second_derivative(kind):
        reports.append(grad_consistency(kind, Interval(-5.0, 5.0, 1001), 1e-4, order=2))
    reports.append(bounded_output_scan(kind, Interval(-50.0, 50.0, 10001)))
    if kind == kernels.TELU:
        reports.extend(_telu_claims())
    elif kind == kernels.RELU:
        reports.extend(_relu_claims())
    elif kind == kernels.MISH:
        reports.append(_controlled_growth(kind, 1e-6))
    return reports
