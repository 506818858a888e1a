"""Negativity of two inertially moving detectors with Gaussian switching.

Conventions
-----------
All outputs are reported in units of the squared coupling constant, which
is fixed to 1 internally. Lengths enter only as d/sigma and gaps only as
sigma*Omega: the public API accepts a dimensionful switching width sigma
and rescales on entry, which makes the zero-gap scale invariance exact.

The correlation term is the single integral

    X = (1 - v^2)/(8 pi i) * int du  e^{-A(u)} / sqrt(v^2 u^2 + d^2)
        * e^{-i Omega u sqrt(1-v^2)} * (1 + i erfi(x(u)))

with A = (d^2 (1-v^2) + u^2 (1-v^4)) / 4 sigma^2 and
x = sqrt(1-v^2) sqrt(v^2 u^2 + d^2) / 2 sigma. The literal form overflows
once d/sigma or |u|/sigma is large, but A - x^2 = (1-v^2) u^2 / 4 sigma^2
exactly, so the integrand is evaluated as

    e^{-A} + i e^{-(1-v^2) u^2 / 4 sigma^2} * (2/sqrt(pi)) F(x)

with F the Dawson function. This is exact algebra, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import dawsn, erfcx

from .quadrature import IntegralResult, QuadratureSettings, integrate_line

__all__ = [
    "DetectorSettings",
    "EncounterGeometry",
    "HarvestQuantities",
    "RegionLabel",
    "PeakResult",
    "NoFiniteThresholdError",
    "transition_probability",
    "correlation_x",
    "negativity",
    "negativity_row",
    "static_x_abs",
    "static_negativity",
    "spacelike_min_distance",
    "omega_peak_threshold",
    "second_derivative_at_rest",
    "find_peak_velocity",
    "classify_region",
    "velocity_profile",
    "VelocityProfile",
    "velocity_scan_grid",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


@dataclass(frozen=True)
class DetectorSettings:
    """Switching width sigma and energy gap omega of the identical pair."""

    sigma: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not (self.omega >= 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega!r}")

    @property
    def gap(self) -> float:
        """Dimensionless gap sigma * omega."""
        return self.sigma * self.omega


@dataclass(frozen=True)
class EncounterGeometry:
    """Closest-approach distance d and center-of-mass speed v."""

    d: float
    v: float

    def __post_init__(self) -> None:
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"d must be finite and > 0, got {self.d!r}")
        if not (0.0 <= self.v < 1.0):
            raise ValueError(f"v must satisfy 0 <= v < 1, got {self.v!r}")


@dataclass(frozen=True)
class HarvestQuantities:
    """Computed P, X, M = |X| - P and negativity for one parameter point."""

    p: float
    x: complex
    m: float
    negativity: float
    x_error_estimate: float

    def __post_init__(self) -> None:
        if not (self.p >= 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and >= 0, got {self.p!r}")
        if self.negativity != max(self.m, 0.0):
            raise ValueError("negativity must equal max(m, 0)")
        if not math.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m!r}")


class RegionLabel(Enum):
    NO_ENTANGLEMENT = "no-entanglement"
    MONOTONE_DECREASING = "monotone-decreasing"
    PEAKED = "peaked"


@dataclass(frozen=True)
class PeakResult:
    """Interior maximizer of the negativity over v, if one exists.

    multimodal flags a scan with more than one strict interior local
    maximum, in which case v_star is the global one on the scan grid.
    """

    v_star: float
    n_star: float
    multimodal: bool = False


class VelocityProfile(NamedTuple):
    """One velocity scan at fixed (d, omega): grid, negativities, label, peak."""

    v: np.ndarray
    n: np.ndarray
    label: RegionLabel
    peak: Optional[PeakResult]


class NoFiniteThresholdError(ValueError):
    """The gap-threshold radicand is negative: no finite threshold at this d."""

    def __init__(self, d_over_sigma: float, radicand: float):
        self.d_over_sigma = d_over_sigma
        self.radicand = radicand
        super().__init__(
            f"no finite gap threshold at d/sigma = {d_over_sigma!r} "
            f"(radicand {radicand!r})"
        )


def transition_probability(det: DetectorSettings) -> float:
    """Single-detector excitation probability.

    P = (1/4 pi) [e^{-a^2} - sqrt(pi) a erfc(a)] with a = sigma*omega,
    evaluated as (1/4 pi) e^{-a^2} [1 - sqrt(pi) a erfcx(a)] so the
    large-gap cancellation is benign.
    """
    a = det.gap
    return math.exp(-a * a) * (1.0 - _SQRT_PI * a * float(erfcx(a))) / (4.0 * math.pi)


# Velocities per X integral. A batch shares one panel set, so every member
# is also evaluated where another one needs refining; the cap keeps a row's
# scan in a few batches of neighbouring velocities.
_X_BATCH = 16


def _x_integrals(d: float, vs, gap: float, settings: QuadratureSettings) -> list[IntegralResult]:
    """X at up to _X_BATCH velocities from one integral, in sigma = 1 units.

    In t = u / w(v) with w = 2/sqrt(1 - v^4) every velocity's envelope has
    width 1, A = d^2 (1-v^2)/4 + t^2 and the Dawson part's Gaussian is
    e^{-t^2/(1+v^2)}. The bracket in the module docstring is even in u, so
    the phase's sine half integrates to 0 and X = -i (1-v^2)/(8 pi) (R + i I)
    with R and I the integrals of its real and imaginary parts times
    cos(f u), f = gap sqrt(1-v^2): two real components per velocity. The
    Jacobian w is part of each component, so abs_tol still bounds the
    u-integral's error. The tail term sees the cosine at the window edge
    t = 10, where the widest envelope is already below e^{-50}.
    """
    v = np.asarray(vs, dtype=float)[:, None]
    v2 = v * v
    b2 = 1.0 - v2
    w = 2.0 / np.sqrt(b2 * (1.0 + v2))
    freq = 2.0 * gap / np.sqrt(1.0 + v2)  # f w, the phase's frequency in t
    d2 = d * d
    q_t2 = v2 * w * w  # q^2 = v^2 u^2 + d^2 = q_t2 t^2 + d^2
    dawsn_q = 0.5 * np.sqrt(b2)
    im_t2 = -1.0 / (1.0 + v2)
    re_scale = w * np.exp(-0.25 * d2 * b2)
    im_scale = w * _TWO_OVER_SQRT_PI
    m = v.shape[0]

    def integrand(t: np.ndarray) -> np.ndarray:
        t2 = t * t
        q = np.sqrt(q_t2 * t2 + d2)
        cos_q = np.cos(freq * t) / q
        out = np.empty((2 * m, t.size))
        np.multiply(re_scale * np.exp(-t2), cos_q, out=out[:m])
        imag = np.exp(im_t2 * t2)
        imag *= dawsn(dawsn_q * q)
        imag *= cos_q
        np.multiply(im_scale, imag, out=out[m:])
        return out

    # where d*d underflows, 1/q divides by zero at t = 0: the inf or NaN that
    # results is caught by the quadrature's finiteness check, so only
    # overflow warnings are left on
    with np.errstate(divide="ignore", invalid="ignore"):
        parts = integrate_line(integrand, 1.0, settings, max_frequency=float(freq.max()))
    pref = b2[:, 0] / (8.0 * math.pi)  # times 1/i
    return [
        IntegralResult(
            complex(c * im.value.real, -c * re.value.real),
            c * (re.error_estimate + im.error_estimate),
        )
        for c, re, im in zip(pref.tolist(), parts[:m], parts[m:])
    ]


def _x_row(d: float, vs, gap: float, settings: QuadratureSettings) -> list:
    """X at every v in vs, an IntegralResult or the exception of that v.

    Velocities go in batches of _X_BATCH. A batch that fails is re-run one
    v at a time, so each failure stays with its own v and every value in
    that batch is the one the v gets alone.
    """
    out: list = []
    for i in range(0, len(vs), _X_BATCH):
        batch = vs[i:i + _X_BATCH]
        try:
            out.extend(_x_integrals(d, batch, gap, settings))
        except Exception as exc:
            if len(batch) == 1:
                out.append(exc)
            else:
                out.extend(_x_row(d, [v], gap, settings)[0] for v in batch)
    return out


def _harvest(p: float, x: IntegralResult) -> HarvestQuantities:
    m = abs(x.value) - p
    return HarvestQuantities(p=p, x=x.value, m=m, negativity=max(m, 0.0),
                             x_error_estimate=x.error_estimate)


def correlation_x(
    det: DetectorSettings,
    geom: EncounterGeometry,
    settings: QuadratureSettings | None = None,
) -> IntegralResult:
    """Correlation term X with quadrature error estimate."""
    if settings is None:
        settings = QuadratureSettings()
    return _x_integrals(geom.d / det.sigma, [geom.v], det.gap, settings)[0]


def negativity(
    det: DetectorSettings,
    geom: EncounterGeometry,
    settings: QuadratureSettings | None = None,
) -> HarvestQuantities:
    """Assemble P, X, M = |X| - P and N = max(M, 0)."""
    return _harvest(transition_probability(det), correlation_x(det, geom, settings))


def negativity_row(
    det: DetectorSettings,
    d: float,
    vs,
    settings: QuadratureSettings | None = None,
) -> list:
    """negativity at (d, v) for every v in vs, batched over v.

    Each entry is HarvestQuantities, or the exception that v raises on its
    own. Values agree with negativity() to within the quadrature tolerance;
    where a batch fails they are identical to it.
    """
    if settings is None:
        settings = QuadratureSettings()
    for v in vs:
        EncounterGeometry(d, v)  # the checks negativity() makes
    p = transition_probability(det)
    return [x if isinstance(x, Exception) else _harvest(p, x)
            for x in _x_row(d / det.sigma, vs, det.gap, settings)]


def _static_terms(d: float, sigma: float) -> tuple[float, float, float, float]:
    """Check d and sigma; return the v = 0 pieces shared by the closed forms.

    Returns (ds, F, s, e) with ds = d/sigma, F the Dawson function at
    x = ds/2, s = e^{-x^2} erfi(x) = (2/sqrt(pi)) F and
    e = e^{-2x^2} + s^2 = (1 + erfi(x)^2) e^{-2x^2}. erfi only ever enters
    through s, which stays bounded where erfi(x) alone overflows (x >~ 27).
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"d must be finite and > 0, got {d!r}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    ds = d / sigma
    x = 0.5 * ds
    f = float(dawsn(x))
    s = _TWO_OVER_SQRT_PI * f
    return ds, f, s, math.exp(-2.0 * x * x) + s * s


def static_x_abs(det: DetectorSettings, d: float) -> float:
    """|X| at v = 0 in closed form.

    (sigma / 4 d sqrt(pi)) e^{-d^2/4sigma^2} e^{-(sigma omega)^2}
    sqrt(1 + erfi(d/2sigma)^2), with the Gaussian folded under the root:
    e^{-d^2/4sigma^2} sqrt(1 + erfi^2) = sqrt(e^{-d^2/2sigma^2} + s^2),
    s = e^{-x^2} erfi(x), so large separations never overflow.
    """
    ds, _, _, e = _static_terms(d, det.sigma)
    gap = det.gap
    return math.exp(-gap * gap) * math.sqrt(e) / (4.0 * ds * _SQRT_PI)


def static_negativity(det: DetectorSettings, d: float) -> float:
    """Closed-form negativity at v = 0: max(|X| - P, 0)."""
    return max(static_x_abs(det, d) - transition_probability(det), 0.0)


def spacelike_min_distance(v: float, sigma: float) -> float:
    """Minimal distance 6 sigma / sqrt(1 - v^2) for spacelike separation."""
    if not (0.0 <= v < 1.0):
        raise ValueError(f"v must satisfy 0 <= v < 1, got {v!r}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    return 6.0 * sigma / math.sqrt(1.0 - v * v)


def omega_peak_threshold(d: float, sigma: float = 1.0) -> float:
    """Gap threshold above which |X|^2 initially grows with v^2.

    Closed form with numerator and denominator of the inner ratio both
    multiplied by ds^2 e^{-ds^2/2} (ds = d/sigma), so only the bounded e
    and s of _static_terms appear and nothing is divided by ds, which keeps
    the d -> 0 limit 1/sqrt(2) finite. Raises NoFiniteThresholdError where
    the radicand goes negative.
    """
    ds, _, s, e = _static_terms(d, sigma)
    d2 = ds * ds
    denom = _SQRT_PI * (d2 + 2.0) * e - 2.0 * ds * s
    radicand = 2.0 - d2 + 4.0 * _SQRT_PI * e * d2 / denom
    if radicand < 0.0:
        raise NoFiniteThresholdError(ds, radicand)
    return math.sqrt(radicand) / (2.0 * sigma)


def second_derivative_at_rest(det: DetectorSettings, d: float) -> float:
    """d|X|^2/d(v^2) at v = 0, in closed form (units lambda^4).

    Positive exactly when omega exceeds the gap threshold at this d.
    """
    ds, f, _, e = _static_terms(d, det.sigma)
    g2 = det.gap * det.gap
    d2 = ds * ds
    poly_a = d2 * d2 + 4.0 * d2 * (g2 - 1.0) + 8.0 * g2 - 4.0
    poly_b = d2 + 4.0 * g2 - 2.0
    bracket = math.pi * e * poly_a - 4.0 * ds * f * poly_b
    return math.exp(-2.0 * g2) * bracket / (32.0 * math.pi * math.pi * d2 * d2)


def velocity_scan_grid(n: int = 64, min_one_minus_v: float = 1e-4) -> np.ndarray:
    """Scan grid over v, log-spaced in 1 - v so it densifies toward v = 1."""
    if n < 3:
        raise ValueError(f"need at least 3 scan points, got {n!r}")
    one_minus_v = np.logspace(0.0, math.log10(min_one_minus_v), n)
    v = 1.0 - one_minus_v
    v[0] = 0.0
    return v


def _golden_section_max(fun, lo: float, hi: float, xtol: float) -> float:
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d_ = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d_)
    while (b - a) > xtol:
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + inv_phi * (b - a)
            fd = fun(d_)
    return 0.5 * (a + b)


def velocity_profile(
    det: DetectorSettings,
    d: float,
    settings: QuadratureSettings | None = None,
) -> VelocityProfile:
    """Scan N over v once at fixed (d, omega), then label and refine the profile.

    The scan grid densifies toward v = 1 and runs through negativity_row;
    its highest interior local maximum above N(0) is refined by golden
    section to |dv| <= 1e-4, one negativity() per step. The label is
    `peaked` when the refined maximum still beats N(0), `no-entanglement`
    when N vanishes on the whole scan, and `monotone-decreasing` otherwise.
    """

    def n_of_v(v: float) -> float:
        return negativity(det, EncounterGeometry(d, v), settings).negativity

    v_grid = velocity_scan_grid()
    qs = negativity_row(det, d, v_grid, settings)
    failed = [q for q in qs if isinstance(q, Exception)]
    if failed:
        raise failed[0]
    n_vals = np.array([q.negativity for q in qs])
    if not np.any(n_vals > 0.0):
        return VelocityProfile(v_grid, n_vals, RegionLabel.NO_ENTANGLEMENT, None)

    interior = range(1, v_grid.size - 1)
    maxima = [i for i in interior if n_vals[i] > n_vals[i - 1] and n_vals[i] >= n_vals[i + 1]]
    i_star = max(maxima, key=lambda i: n_vals[i], default=0)
    # N >= 0 on the scan, so beating N(0) also means N > 0
    if n_vals[i_star] > n_vals[0]:
        v_star = _golden_section_max(
            n_of_v, float(v_grid[i_star - 1]), float(v_grid[i_star + 1]), 1e-4
        )
        n_star = n_of_v(v_star)
        if n_star > n_vals[0]:
            peak = PeakResult(v_star, n_star, multimodal=len(maxima) > 1)
            return VelocityProfile(v_grid, n_vals, RegionLabel.PEAKED, peak)
    return VelocityProfile(v_grid, n_vals, RegionLabel.MONOTONE_DECREASING, None)


def find_peak_velocity(
    det: DetectorSettings,
    d: float,
    settings: QuadratureSettings | None = None,
) -> Optional[PeakResult]:
    """Interior maximizer of N over v in (0, 1), or None: the profile's peak."""
    return velocity_profile(det, d, settings).peak


def classify_region(
    det: DetectorSettings,
    d: float,
    settings: QuadratureSettings | None = None,
) -> RegionLabel:
    """Classify a (d, omega) point by its negativity-vs-velocity profile."""
    return velocity_profile(det, d, settings).label
