"""Negativity of two inertially moving detectors with Gaussian switching.

Conventions
-----------
All outputs are reported in units of the squared coupling constant, which
is fixed to 1 internally. Lengths enter only as d/sigma and gaps only as
sigma*Omega: the public API accepts a dimensionful switching width sigma
and rescales once, on entry, which makes the zero-gap scale invariance
exact; the private row path takes sigma = 1 floats, d/sigma and gaps.

The correlation term is the single integral

    X = (1 - v^2)/(8 pi i) * int du  e^{-A(u)} / sqrt(v^2 u^2 + d^2)
        * e^{-i Omega u sqrt(1-v^2)} * (1 + i erfi(x(u)))

with A = (d^2 (1-v^2) + u^2 (1-v^4)) / 4 sigma^2 and
x = sqrt(1-v^2) sqrt(v^2 u^2 + d^2) / 2 sigma. The literal form overflows
once d/sigma or |u|/sigma is large, but A - x^2 = (1-v^2) u^2 / 4 sigma^2
exactly, so the integrand is evaluated as

    e^{-A} + i e^{-(1-v^2) u^2 / 4 sigma^2} * (2/sqrt(pi)) F(x)

with F the Dawson function. This is exact algebra, not an approximation.
The bracket is even in u, so the phase's sine half integrates to 0 and
the rest is even: integrate_line integrates it on u >= 0 only and
doubles it (see _x_integrals).

Rows
----
negativity_row() is the one path from X integrals to P, X, |X|, M and N:
a NegativityRow of arrays, one per quantity, at every v of a row at
fixed (d, omega), with NaN at any v that fails and that v's exception in
its failures map; no object is built per velocity. It is the one-gap
case of _negativity_rows(d, gaps, vs), which a sweep or region task
calls for several gaps at once: X is integrated for a batch of
velocities (as many as the start-panel budget holds with the whole gap
axis on the panels of the batch's fastest velocity, and at least 16) and
a block of its gaps (as many as the budget holds on the panels of the
block's largest gap) at once, in proper time s = u sqrt(1 - v^2),
where the phase is cos(gap s) at every velocity: the cosine is evaluated
once per (gap, node) and the rest of the integrand once per (velocity,
node), and integrate_line takes the two as a factor pair, whose every
(gap, v) sum on a panel comes out of one matrix product, with no value
formed per (gap, v, node). negativity() is
the view of a one-gap row of one velocity, with X and its error estimate
among its fields, that raises that velocity's failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import dawsn, erfcx

from .quadrature import QuadratureError, QuadratureSettings, _line_capacity, _stacks, integrate_line

__all__ = [
    "DetectorSettings",
    "EncounterGeometry",
    "HarvestQuantities",
    "RegionLabel",
    "PeakResult",
    "NoFiniteThresholdError",
    "transition_probability",
    "negativity",
    "negativity_row",
    "NegativityRow",
    "static_x_abs",
    "static_negativity",
    "spacelike_min_distance",
    "omega_peak_threshold",
    "second_derivative_at_rest",
    "find_peak_velocity",
    "classify_region",
    "velocity_profile",
    "VelocityProfile",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


def _check_sigma(sigma: float) -> None:
    """Refuse a switching width that is not finite and > 0."""
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")


def _check_d(d: float) -> None:
    """Refuse a distance, or a d/sigma, that is not finite and > 0."""
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"d must be finite and > 0, got {d!r}")


def _check_v(v: float) -> None:
    """Refuse a speed outside [0, 1)."""
    if not (0.0 <= v < 1.0):
        raise ValueError(f"v must satisfy 0 <= v < 1, got {v!r}")


@dataclass(frozen=True)
class DetectorSettings:
    """Switching width sigma and energy gap omega of the identical pair."""

    sigma: float
    omega: float

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
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
        _check_d(self.d)
        _check_v(self.v)


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


class NegativityRow(NamedTuple):
    """negativity() at every v of a row, one array per quantity, indexed like v.

    A v whose X integral fails holds NaN in x, x_abs, x_error_estimate, m
    and negativity, and failures maps its index to the exception it raises
    on its own.
    """

    p: float
    x: np.ndarray
    x_abs: np.ndarray
    x_error_estimate: np.ndarray
    m: np.ndarray
    negativity: np.ndarray
    failures: dict


class RegionLabel(Enum):
    NO_ENTANGLEMENT = "no-entanglement"
    MONOTONE_DECREASING = "monotone-decreasing"
    PEAKED = "peaked"


@dataclass(frozen=True)
class PeakResult:
    """Interior maximizer of the negativity over v, if one exists.

    v_star maximizes the velocity scan's Chebyshev interpolant of |X|
    between the neighbours of the scan's highest interior local maximum,
    and n_star is negativity() there. multimodal flags a scan with more
    than one strict interior local maximum; v_star is the highest one's.
    """

    v_star: float
    n_star: float
    multimodal: bool = False


class VelocityProfile(NamedTuple):
    """One velocity scan at fixed (d, omega): its nodes v (64, or 127 or 253
    where a peak needed more), N there, the label and the peak. An
    unrefined scan's v is the shared read-only _SCAN_VELOCITIES."""

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


# The fewest velocities per X integral (see _v_batches): a batch holds as
# many as the start-panel budget takes with the row's whole gap axis, and
# never fewer than this. Where the budget holds fewer (large gaps),
# _gap_blocks cuts the gap axis of a batch of this many instead. Without
# the floor, a 1 x 40 x 16 sweep with gaps up to 200 and a 1 x 20 x 50 one
# with gaps up to 30 took 2.4 and 1.39 times as long as with it
# (process-time medians of 30 alternated in-process runs, 2-CPU x86-64
# host).
_MIN_V_BATCH = 16


def _x_start(d: float, vs, gaps) -> tuple[float, float, float]:
    """integrate_line's start-panel arguments for X at the velocities vs and
    gaps gaps: (envelope_width, max_frequency, singularity_distance), in s;
    see _x_integrals.

    The width is 2 at every v, that of the Dawson part's Gaussian
    e^{-s^2/4}: integrate_line's window ends at sqrt(ln(1/eps)) widths,
    and at that many of e^{-A}'s narrower width 2/sqrt(1 + v^2)
    the Dawson part is still far above eps. The frequency is the largest
    gap, and s_b = d sqrt(1 - v^2) / v is nearest at the largest v.
    s_b = inf at v = 0, and a Python float quotient overflows to inf.
    """
    v_max = float(np.max(vs))
    s_b = d * math.sqrt((1.0 - v_max) * (1.0 + v_max)) / v_max if v_max > 0.0 else math.inf
    return 2.0, float(np.max(gaps)), s_b


def _x_integrand(d: float, vs, gaps):
    """X's integrand in s at the velocities vs and the 1-D array of gaps
    gaps, in sigma = 1 units; see _x_integrals. It maps n nodes to the
    factor pair (h, c) of integrate_line: h of shape (2 len(vs), n) holds
    the velocity factors R_v of every v, then the factors I_v likewise, and
    c of shape (len(gaps), n) the cosines of every gap. Component
    k 2 len(vs) + i, the product c_k h_i, is R at (gap k, v i) for
    i < len(vs), and I at (gap k, v i - len(vs)) for the rest.
    """
    v = np.asarray(vs, dtype=float)[:, None]
    v2 = v * v
    b2 = (1.0 - v) * (1.0 + v)  # 1 - v^2 without cancellation as v -> 1
    d2 = d * d
    q_s2 = v2 / b2  # q^2 = v^2 u^2 + d^2 = q_s2 s^2 + d^2
    re_s2 = -0.25 * (1.0 + v2)
    dawsn_q = 0.5 * np.sqrt(b2)
    jacobian = 1.0 / np.sqrt(b2)  # du/ds
    re_scale = jacobian * np.exp(-0.25 * d2 * b2)
    im_scale = jacobian * _TWO_OVER_SQRT_PI
    phase = np.asarray(gaps, dtype=float)[:, None]

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s2 = s * s
        q = np.sqrt(q_s2 * s2 + d2)
        h = np.empty((2, v.shape[0], s.size))
        real, imag = h[0], h[1]
        np.exp(re_s2 * s2, out=real)
        real *= re_scale
        real /= q
        dawsn(dawsn_q * q, out=imag)
        imag *= im_scale * np.exp(-0.25 * s2)
        imag /= q
        return h.reshape(-1, s.size), np.cos(phase * s)

    return integrand


def _x_integrals(d: float, vs, gaps, settings: QuadratureSettings) -> tuple[np.ndarray, np.ndarray]:
    """X and its error estimate at a batch of velocities vs and a 1-D
    array of gaps from one integral, in sigma = 1 units: a complex and a
    float array of shape (len(gaps), len(vs)). _v_batches and _gap_blocks
    size the batch and the block for the start-panel budget.

    X is integrated in proper time s = u sqrt(1 - v^2) = u / gamma. There
    the phase cos(f u), f = gap sqrt(1-v^2), is cos(gap s) at every
    velocity, A = d^2 (1-v^2)/4 + s^2 (1+v^2)/4, the Dawson part's Gaussian
    is e^{-s^2/4} and q = sqrt(v^2 s^2 / (1-v^2) + d^2). The bracket in the
    module docstring is even in u, so the phase's sine half integrates to 0
    and X = -i (1-v^2)/(8 pi) (R + i I), with R and I the integrals of its
    real and imaginary parts times cos(f u) / q: two real components per
    (gap, v). Each is a factor of (v, s) times cos(gap s), so the cosine is
    evaluated once per gap and node and the Gaussians, q and dawsn once per
    velocity and node. integrate_line gets them as the factor pair of
    _x_integrand and contracts each panel's cosines, GK15 weights and
    velocity factors in one matrix product; no (gap, v) product is formed,
    except for one gap at up to 8 velocities, whose products cost less
    than the contraction (quadrature._MULTIPLY_OUT_ROWS). The
    Jacobian du/ds = 1/sqrt(1-v^2), e^{-d^2 (1-v^2)/4} and 2/sqrt(pi) are
    per-velocity scales, so abs_tol still bounds the u-integral's error.

    Both components are even in s, as integrate_line requires: it
    integrates them on the window [0, sqrt(ln(1/eps)) W] = [0, 12.007],
    W = 2 the width of the Dawson part's Gaussian e^{-s^2/4} (e^{-A} is no
    wider at any v), where that Gaussian is below eps, and doubles the
    result; its one tail term, charged twice, sees the components at the
    edge.

    The Gaussians, cos and dawsn are entire, so the only complex
    singularities are the branch points s = +-i s_b of q, the images of
    u = +-i d/v, with s_b = d sqrt(1-v^2) / v, about d sqrt(2 (1-v)) as
    v -> 1. The smallest s_b in the batch is passed as the integral's
    singularity_distance, so the start panels are graded toward s = 0 from
    it and a near-lightspeed X converges on its first pass; a batch at
    v = 0 alone has s_b = inf and uniform start panels. _x_start gives
    these arguments here and to _gap_blocks alike.
    """
    width, max_frequency, s_b = _x_start(d, vs, gaps)
    # where d*d underflows, 1/q divides by zero at v = 0 (no node sits at
    # s = 0): the inf or NaN that results is caught by the quadrature's
    # finiteness check, so only overflow warnings are left on
    with np.errstate(divide="ignore", invalid="ignore"):
        parts = integrate_line(_x_integrand(d, vs, gaps), width, settings,
                               max_frequency=max_frequency, singularity_distance=s_b)
    v = np.asarray(vs, dtype=float)
    pref = (1.0 - v) * (1.0 + v) / (8.0 * math.pi)  # times 1/i
    value = parts.value.real.reshape(-1, 2, v.size)  # (gap, R then I, v)
    err = parts.error_estimate.reshape(value.shape)
    x = np.empty((value.shape[0], v.size), dtype=complex)
    x.real = pref * value[:, 1]
    x.imag = -pref * value[:, 0]
    return x, pref * (err[:, 0] + err[:, 1])


def _gap_blocks(d: float, batch, gaps: np.ndarray) -> list[slice]:
    """Slices of gaps, each for one X integral at the velocities of batch.

    A block's start panels are sized by its largest gap (see _x_start).
    From the largest gap left over down, a block takes as many gaps as fit
    within integrate_line's start-panel limit on that gap's own panels, at
    2 len(batch) components each (quadrature._stacks): an extra gap costs
    one cosine per node and one more row of each panel's matrix product
    (see _x_integrals), while the rest of the integrand and the integral's
    fixed cost are paid once per block. A row's values thus
    depend on its whole gap axis. A gap over the limit alone is a block of
    its own; integrate_line refuses it, and its row falls back to single
    velocities.

    The gaps must ascend, as a GridSpec's points do, for a block's largest
    gap to be its last. In any other order a block can exceed the limit;
    integrate_line then refuses it before evaluating anything, and the
    block falls back gap by gap: correct, only slower.
    """
    # A lone gap is its own block, whatever its start panels; the shortcut
    # skips sizing it, which every one-gap call (negativity, a peak search)
    # would pay for nothing. Without it, on a 2-CPU x86-64 host, one-point
    # negativity took 0.163 ms instead of 0.143, and in-process region-map
    # and validate --grid coarse 8.08 and 57.3 ms instead of 7.72 and 56.3
    # (process-time medians of 6 alternated processes).
    if gaps.size == 1:
        return [slice(0, 1)]
    components = 2 * len(batch)
    return _stacks(gaps.size, lambda j: _line_capacity(*_x_start(d, batch, gaps[j])) // components)


def _v_batches(d: float, vs, gaps: np.ndarray) -> list[slice]:
    """Slices of vs, each for the X integrals of one batch of velocities.

    A batch's start panels are graded from its largest velocity's s_b (see
    _x_start). From the fastest velocity left over down, a batch takes as
    many velocities as fit within integrate_line's start-panel limit on
    that velocity's own panels together with the whole gap axis, at
    2 len(gaps) components each (quadrature._stacks), and at least
    _MIN_V_BATCH: an extra velocity is two more rows of each panel's
    matrix product (see _x_integrals), while the cosines and the
    integral's fixed cost are paid once per batch. Where the budget binds,
    _gap_blocks cuts the gaps of the batch of _MIN_V_BATCH. A row's values
    thus depend on its whole velocity axis.

    The velocities must ascend, as a GridSpec's points and a velocity
    scan's nodes do, for a batch's fastest velocity to be its last. In any
    other order a batch can exceed the limit; integrate_line then refuses
    it before evaluating anything, and its velocities fall back to one at
    a time: correct, only slower.
    """
    components = 2 * gaps.size

    def fit(i: int) -> int:
        # at the floor the batch reaches vs[0]; with no gap, nothing is integrated
        if i < _MIN_V_BATCH or gaps.size == 0:
            return _MIN_V_BATCH
        return max(_MIN_V_BATCH, _line_capacity(*_x_start(d, [vs[i]], gaps)) // components)

    return _stacks(len(vs), fit)


def negativity(
    det: DetectorSettings,
    geom: EncounterGeometry,
    settings: QuadratureSettings | None = None,
) -> HarvestQuantities:
    """P, X, M = |X| - P and N = max(M, 0) at one point, with X's error
    estimate: negativity_row at geom's one velocity, whose failure is raised."""
    row = negativity_row(det, geom.d, [geom.v], settings)
    if row.failures:
        raise row.failures[0]
    return HarvestQuantities(p=row.p, x=complex(row.x[0]), m=float(row.m[0]),
                             negativity=float(row.negativity[0]),
                             x_error_estimate=float(row.x_error_estimate[0]))


def negativity_row(
    det: DetectorSettings,
    d: float,
    vs,
    settings: QuadratureSettings | None = None,
) -> NegativityRow:
    """negativity at (d, v) for every v in vs, batched over v, as arrays.

    Velocities go in batches as large as the start-panel budget allows,
    and at least _MIN_V_BATCH (see _v_batches), so a row that fits the
    budget is one X integral; the plan assumes that vs ascends. A batch
    that fails is re-run one v at a time, so each failure stays with its
    own v and every value in that batch is the one the v gets alone. A v
    that fails holds NaN and its exception in failures. |X| is np.hypot
    of its parts, which is the value abs() gives a Python complex.
    """
    return _negativity_rows(d / det.sigma, [det.gap], vs, settings)[0]


def _negativity_rows(d: float, gaps, vs, settings: QuadratureSettings | None = None) -> list[NegativityRow]:
    """negativity_row at every gap in gaps, in sigma = 1 units (d is
    d/sigma, a gap sigma*omega), with X in blocks over the gaps and batches
    over v.

    X is integrated for a batch of velocities (_v_batches) and a block of
    gaps (_gap_blocks) at once, so a row that fits the start-panel budget
    is one X integral; both plans assume ascending axes. With vs empty
    there is no batch, and every row is empty. A block that fails is
    re-run as each of its gaps alone, which then falls back to single
    velocities as in negativity_row, so each failure stays with its own
    (omega, v) and every value in a failed block is the one it gets alone.
    """
    if settings is None:
        settings = QuadratureSettings()
    _check_d(d)  # also when vs is empty
    for v in vs:
        _check_v(v)
    ps = [transition_probability(DetectorSettings(1.0, gap)) for gap in gaps]
    gaps = np.array(gaps, dtype=float)
    x = np.empty((gaps.size, len(vs)), dtype=complex)
    err = np.empty(x.shape)
    failures: list[dict] = [{} for _ in ps]

    def run(block: slice, i: int, batch) -> None:
        try:
            x[block, i:i + len(batch)], err[block, i:i + len(batch)] = \
                _x_integrals(d, batch, gaps[block], settings)
        except Exception as exc:
            if block.stop - block.start > 1:
                for j in range(block.start, block.stop):
                    run(slice(j, j + 1), i, batch)
            elif len(batch) > 1:
                for j in range(len(batch)):
                    run(block, i + j, batch[j:j + 1])
            else:
                failures[block.start][i] = exc
                x[block, i], err[block, i] = complex(math.nan, math.nan), math.nan

    for cut in _v_batches(d, vs, gaps):
        batch = vs[cut]
        for block in _gap_blocks(d, batch, gaps):
            run(block, cut.start, batch)
    rows = []
    for p, x_j, err_j, failed in zip(ps, x, err, failures):
        x_abs = np.hypot(x_j.real, x_j.imag)
        m = x_abs - p
        rows.append(NegativityRow(p, x_j, x_abs, err_j, m, np.maximum(m, 0.0), failed))
    return rows


def _static_terms(d: float, sigma: float) -> tuple[float, float, float, float]:
    """Check d, sigma and d/sigma, as the row path checks d/sigma; return
    the v = 0 pieces shared by the closed forms.

    Returns (ds, F, s, e) with ds = d/sigma, F the Dawson function at
    x = ds/2, s = e^{-x^2} erfi(x) = (2/sqrt(pi)) F and
    e = e^{-2x^2} + s^2 = (1 + erfi(x)^2) e^{-2x^2}. erfi only ever enters
    through s, which stays bounded where erfi(x) alone overflows (x >~ 27).
    """
    _check_d(d)
    _check_sigma(sigma)
    ds = d / sigma
    _check_d(ds)
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
    _check_v(v)
    _check_sigma(sigma)
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


# The velocity scan: Chebyshev-Lobatto nodes x_j = cos(theta_j), theta_j =
# pi j / (n - 1), in tau = log(1 - v) = log(1e-4) (1 - x) / 2, so v runs
# from 0 to 1 - 1e-4, densest at both ends. Doubling the node intervals
# nests: 64 -> 127 -> 253 nodes, and no more.
_SCAN_NODES = 64
_MAX_SCAN_NODES = 253


def _velocity(theta):
    """v = -expm1(tau) at x = cos(theta), tau = log(1e-4) sin^2(theta / 2);
    + 0.0 makes theta = 0 give v = 0, not -0."""
    return -np.expm1(math.log(1e-4) * np.sin(0.5 * theta) ** 2) + 0.0


# The _SCAN_NODES velocities of an unrefined velocity scan, from 0 up:
# computed once and read-only, since every scan shares it
_SCAN_VELOCITIES = _velocity(np.pi * np.arange(_SCAN_NODES) / (_SCAN_NODES - 1))
_SCAN_VELOCITIES.flags.writeable = False


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """The Chebyshev series through values at the Lobatto points, from one
    real FFT of their even extension (Trefethen, ATAP, ch. 3)."""
    n = values.size - 1
    coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
    coeffs[[0, n]] *= 0.5
    return coeffs


def _series_max(coeffs: np.ndarray, i: int) -> float:
    """The angle theta at which the Chebyshev series coeffs, as the cosine
    sum f = sum_k c_k cos(k theta), peaks between the Lobatto angles
    pi (i -+ 1) / n: Newton's method on f' from theta_i = pi i / n, kept in
    that bracket, while f is concave; theta_i if the steps do not beat it.
    """
    n = coeffs.size - 1
    k = np.arange(n + 1)
    lo, hi = math.pi * (i - 1) / n, math.pi * (i + 1) / n
    theta = theta_i = math.pi * i / n
    kc = k * coeffs
    for _ in range(20):
        curvature = -float(np.dot(k * kc, np.cos(k * theta)))
        if not curvature < 0.0:
            break
        step = -float(np.dot(kc, np.sin(k * theta))) / curvature
        theta, last = min(max(theta - step, lo), hi), theta
        if abs(theta - last) <= 1e-13:
            break
    f_theta, f_theta_i = np.cos(np.outer([theta, theta_i], k)) @ coeffs
    return theta if f_theta > f_theta_i else theta_i


def velocity_profile(
    det: DetectorSettings,
    d: float,
    settings: QuadratureSettings | None = None,
) -> VelocityProfile:
    """Scan N over v once at fixed (d, omega); label it and find its peak.

    The scan is one negativity_row at the _SCAN_NODES nodes. The label is
    `no-entanglement` if N vanishes at every node, `monotone-decreasing`
    unless the highest interior local maximum of N beats N(0), and else
    `peaked` if n_star does: v_star maximizes the Chebyshev interpolant of
    |X| between that node's two neighbours, and n_star is negativity() at
    v_star. While the interpolant's last three coefficients exceed
    100 (rel_tol max|X| + abs_tol), the nodes double, with one more
    negativity_row for the midpoints; a peak unresolved at _MAX_SCAN_NODES
    raises QuadratureError. A failed node raises, the lowest-indexed first.
    """
    if settings is None:
        settings = QuadratureSettings()
    d, gap = d / det.sigma, det.gap
    return _profile(d, gap, _negativity_rows(d, [gap], _SCAN_VELOCITIES, settings)[0], settings)


def _profile(d: float, gap: float, row: NegativityRow, settings: QuadratureSettings) -> VelocityProfile:
    """velocity_profile's label, refinement and peak from its scan row at
    the _SCAN_VELOCITIES nodes, in sigma = 1 units.

    A region task hands each gap's row of one _negativity_rows scan here.
    """
    v = _SCAN_VELOCITIES
    x_abs, n_vals, failures = row.x_abs, row.negativity, row.failures
    while True:
        if failures:
            raise failures[min(failures)]
        if not np.any(n_vals > 0.0):
            return VelocityProfile(v, n_vals, RegionLabel.NO_ENTANGLEMENT, None)
        maxima = [i for i in range(1, v.size - 1)
                  if n_vals[i] > n_vals[i - 1] and n_vals[i] >= n_vals[i + 1]]
        i_star = max(maxima, key=lambda i: n_vals[i], default=0)
        # N >= 0 on the scan, so beating N(0) also means N > 0
        if not n_vals[i_star] > n_vals[0]:
            return VelocityProfile(v, n_vals, RegionLabel.MONOTONE_DECREASING, None)
        coeffs = _chebyshev_coefficients(x_abs)
        tail = float(np.max(np.abs(coeffs[-3:])))
        bound = 100.0 * (settings.rel_tol * float(np.max(x_abs)) + settings.abs_tol)
        if tail <= bound:
            break
        if v.size >= _MAX_SCAN_NODES:
            raise QuadratureError(f"velocity profile unresolved at {v.size} nodes: "
                                  f"tail coefficient {tail:.3e} > {bound:.3e}")
        at = np.arange(1, v.size)  # each midpoint goes in before node j = 1, 2, ...
        v_mid = _velocity(np.pi * (at - 0.5) / (v.size - 1))
        mid = _negativity_rows(d, [gap], v_mid, settings)[0]
        v, x_abs, n_vals = (np.insert(v, at, v_mid), np.insert(x_abs, at, mid.x_abs),
                            np.insert(n_vals, at, mid.negativity))
        failures = {2 * j + 1: exc for j, exc in mid.failures.items()}

    v_star = float(_velocity(_series_max(coeffs, i_star)))
    n_star = negativity(DetectorSettings(1.0, gap), EncounterGeometry(d, v_star), settings).negativity
    if n_star > n_vals[0]:
        peak = PeakResult(v_star, n_star, multimodal=len(maxima) > 1)
        return VelocityProfile(v, n_vals, RegionLabel.PEAKED, peak)
    return VelocityProfile(v, n_vals, RegionLabel.MONOTONE_DECREASING, None)


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
