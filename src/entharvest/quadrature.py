"""Adaptive Gauss-Kronrod integration for Gaussian-enveloped integrands.

The integrals in this package all share the same structure: a complex
integrand dominated by a Gaussian envelope of known width, possibly
multiplied by a bounded oscillatory phase of known maximal (angular)
frequency. Infinite domains are truncated at c = sqrt(ln(1/eps)) = 6.0
envelope widths, where the envelope falls below eps of its peak, and the
discarded tail is charged to the error estimate via the analytic Gaussian
tail bound.

Integrands must be vectorized: they are called with a 1-D numpy array of
n abscissae and return n values (real or complex), or an (m, n) array of
m components, or a factor pair (h, c) of real arrays of shape (I, n) and
(J, n), for the m = I J components c_j h_i in row j I + i. A pair's
products are never formed: on each panel the Kronrod and Gauss sums of
every component come from one matrix product of its c, the weights and
its h (one row of c with at most _MULTIPLY_OUT_ROWS rows of h is
multiplied out instead, which costs less there). All
components share one panel set, each is held to its own tolerance, and a
panel is split while any unfinished component needs it; so one call
integrates a whole family, such as X at several velocities and gaps.
Such a call returns one IntegralResult whose value and error estimate are
arrays of shape (m,), so no object is built per component.
Start panels are a quarter period of the fastest oscillation wide (at most
one envelope width) and pave the whole window. An integrand may also
declare its singularity distance: the distance from 0 to its nearest
complex singularity, such as a branch point at +-i t_b. GK15 converges
fast on a panel about as wide as its distance from the nearest
singularity (Trefethen & Weideman, SIAM Rev. 56, 2014), so where that
distance is below the uniform width the start panels next to 0 are
graded geometrically from it. The count of start panels, times the
number of components, is capped before anything is allocated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSettings",
    "IntegralResult",
    "QuadratureError",
    "NonFiniteIntegrandError",
    "ConvergenceError",
    "integrate_line",
    "integrate_halfline",
    "integrate_interval",
]

Integrand = Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]]


def _whole_number(name: str, value) -> int:
    """value as an int if it is a whole number, such as 100 or 100.0; a
    bool, though an int to Python, is not one."""
    if not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _real_number(name: str, value) -> float:
    """value as a float if it is a real number, such as 2 or 0.5; a bool or
    a string is not one. An int past the float range is an infinity, as a
    JSON 1e400 reads."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and limits governing a single integration.

    rel_tol / abs_tol define convergence: the refinement error must drop
    below max(abs_tol, rel_tol * |value|). max_subdivisions caps the total
    number of panel bisections before giving up.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-13
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_subdivisions",
                           _whole_number("max_subdivisions", self.max_subdivisions))
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < _real_number(name, value) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions!r}"
            )


@dataclass(frozen=True, eq=False)
class IntegralResult:
    """An integral and its error estimate: a complex value and a float for a
    scalar integrand, a complex array and a float array of shape (m,) for one
    with m components. Results compare and hash by identity, since array
    fields have no single truth value."""

    value: complex | np.ndarray
    error_estimate: float | np.ndarray

    def __post_init__(self) -> None:
        e = self.error_estimate
        if isinstance(e, float) and math.isfinite(e) and e >= 0.0:
            return
        err = np.asarray(e)
        if not ((err >= 0.0) & np.isfinite(err)).all():
            raise ValueError(
                f"error_estimate must be finite and >= 0, got {self.error_estimate!r}"
            )


class QuadratureError(Exception):
    """Base class for integration failures."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned NaN or infinity inside the window."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"integrand is non-finite at x = {abscissa!r}")


class ConvergenceError(QuadratureError):
    """The subdivision budget ran out before the tolerance was met."""

    def __init__(self, error_estimate: float, value: complex, worst_abscissa: float):
        self.error_estimate = error_estimate
        self.value = value
        self.worst_abscissa = worst_abscissa
        super().__init__(
            f"no convergence: error {error_estimate:.3e} with value {value!r}; "
            f"worst panel near x = {worst_abscissa!r}"
        )


# 15-point Kronrod extension of 7-point Gauss-Legendre, nodes ascending.
# Gauss nodes sit at the odd indices.
_NODES = np.array(
    [
        -0.99145537112081263921,
        -0.94910791234275852453,
        -0.86486442335976907279,
        -0.74153118559939443986,
        -0.58608723546769113029,
        -0.40584515137739716691,
        -0.20778495500789846760,
        0.0,
        0.20778495500789846760,
        0.40584515137739716691,
        0.58608723546769113029,
        0.74153118559939443986,
        0.86486442335976907279,
        0.94910791234275852453,
        0.99145537112081263921,
    ]
)
_WK = np.array(
    [
        0.02293532201052922496,
        0.06309209262997855329,
        0.10479001032225018384,
        0.14065325971552591875,
        0.16900472663926790283,
        0.19035057806478540991,
        0.20443294007529889241,
        0.20948214108472782801,
        0.20443294007529889241,
        0.19035057806478540991,
        0.16900472663926790283,
        0.14065325971552591875,
        0.10479001032225018384,
        0.06309209262997855329,
        0.02293532201052922496,
    ]
)
_WG = np.array(
    [
        0.12948496616886969327,
        0.27970539148927666790,
        0.38183005050511894495,
        0.41795918367346938776,
        0.38183005050511894495,
        0.27970539148927666790,
        0.12948496616886969327,
    ]
)
# The Kronrod weights, and the Gauss weights at their nodes with 0 at the
# others, as the rows of one matrix
_W2 = np.stack([_WK, np.zeros(15)])
_W2[1, 1::2] = _WG


# Start panels allowed before any evaluation, counted once per component of
# a vector-valued integrand. One X integral has two components and, on its
# even half window [0, 2c] = [0, 12.007] in proper time, panels
# pi / (2 gap) wide: about 7.64 * gap start panels each, so the limit falls
# near gap 4287 (267.9 for a batch of 16, 266.7-267.1 at d/sigma in
# [0.5, 4] for one that reaches v = 1 - 1e-9 and so carries graded panels
# too), where P has long underflowed to 0. The count bounds a pass's
# arrays: 15 values per component and panel for an (m, n) integrand, and
# for a factor pair 2 sums per component and panel besides 15 (I + J)
# factor values per panel. Past it the start arrays alone would need
# gigabytes.
_MAX_START_PANELS = 1 << 16

# The most rows of h for which a factor pair with one row of c is
# multiplied out rather than contracted (_eval_panels): so a one-gap X
# integral at up to 8 velocities, a one-point negativity among them. On a
# 2-CPU x86-64 host, at 16 panels (timeit minima, seeded factors), c h
# took 9.4, 11.6, 14.9, 19.0, 22.6 and 58.5 us at 2, 8, 16, 24, 32 and 128
# rows, the contraction 15.2, 15.2, 15.9, 17.0, 18.6 and 32.7 us; the two
# met near 24 rows at 6 panels and between 8 and 16 rows at 30.
_MULTIPLY_OUT_ROWS = 16

# _adaptive splits no panel narrower than this fraction of its window.
_MIN_WIDTH = 1e-15

# Envelope widths past which e^{-u^2/w^2} is below eps: c = sqrt(ln(1/eps)) = 6.0036.
_NEGLIGIBLE_SIGMAS = math.sqrt(-math.log(np.finfo(float).eps))


def _stacks(size: int, fit: Callable[[int], int]) -> list[slice]:
    """Cut members 0 .. size - 1, ordered from the coarsest start panels to
    the finest, into stacks of one vector integral each: from the finest
    member i left over, a stack takes i and its neighbours below, fit(i)
    members in all (as many as the start-panel budget holds on i's own
    panels) and at least one. The slices come in ascending order. A lone
    member is one stack, and fit is not called for it."""
    # Sizing a lone member decides nothing, and every one-gap X call
    # (negativity, a peak search) would pay for it. Without this shortcut,
    # on a 2-CPU x86-64 host, one-point negativity took 0.163 ms instead of
    # 0.143, and in-process region-map and validate --grid coarse 8.08 and
    # 57.3 ms instead of 7.72 and 56.3 (process-time medians of 6
    # alternated processes).
    if size == 1:
        return [slice(0, 1)]
    stacks, hi = [], size
    while hi > 0:
        lo = max(0, hi - max(1, fit(hi - 1)))
        stacks.append(slice(lo, hi))
        hi = lo
    return stacks[::-1]


def _check_start_panels(count: float, components: int) -> None:
    """Refuse count start panels for components components past the budget,
    or a count that is not a number."""
    if not components * count <= _MAX_START_PANELS:
        raise QuadratureError(
            f"{components} x {count:.3g} start panels exceed the limit of {_MAX_START_PANELS}"
        )


def _start_edges(lo: float, b: float, spacing: float,
                 singularity_distance: float = math.inf) -> np.ndarray:
    """Edges of the start panels on [lo, b], checked for one component.

    Uniform panels, at least 4 and at most spacing wide, of width h. When
    the singularity distance s, floored at the smallest width _adaptive
    splits, is below h, the panels from lo = 0 are graded instead: [0, s],
    [s, 2s], [2s, 4s], ... while narrower than h, then uniform panels of
    width at most h up to b. Otherwise the edges are
    np.linspace(lo, b, n + 1). A panel count that is not finite, as when
    b - lo overflows, is refused before it is rounded.
    """
    width = b - lo
    _check_start_panels(width / spacing, 1)  # before rounding: it may be inf
    n = max(4, math.ceil(width / spacing))
    h = width / n
    s = max(singularity_distance, _MIN_WIDTH * width)
    if not s < h:
        return np.linspace(lo, b, n + 1)
    graded, edge = 1, s  # [0, s], then [edge, 2 edge] while edge < h
    while edge < h:
        graded, edge = graded + 1, 2.0 * edge
    uniform = math.ceil((b - edge) / h)
    _check_start_panels(graded + uniform, 1)
    return np.concatenate(([0.0], s * np.exp2(np.arange(graded)),
                           np.linspace(edge, b, uniform + 1)[1:]))


def _eval_panels(f: Integrand, lo: np.ndarray, hi: np.ndarray, scale: float):
    """GK15 on every panel, times scale: (kronrod, |kronrod - gauss|), each of
    shape (panels,) for a scalar integrand and (m, panels) for m components,
    m = J I for a factor pair (see _contract)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _NODES
    flat = x.reshape(-1)
    y = f(flat)
    jac = scale * half
    if isinstance(y, tuple):
        h, c = y
        if c.shape[0] > 1 or h.shape[0] > _MULTIPLY_OUT_ROWS:
            return _contract(h, c, flat, jac)
        y = c * h  # one row of c and few of h: the products cost less
    y = np.asarray(y)
    y = y.reshape(*y.shape[:-1], *x.shape)
    if not np.isfinite(y).all():
        finite = np.isfinite(y).reshape(-1, flat.size).all(axis=0)
        raise NonFiniteIntegrandError(float(flat[~finite][0]))
    kron = (y @ _WK) * jac
    gauss = (y[..., 1::2] @ _WG) * jac
    return kron, np.abs(kron - gauss)


def _products(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The components c_j h_i of the factor pair (h, c), in row j I + i."""
    return (c[:, None, :] * h).reshape(-1, h.shape[-1])


def _contract(h: np.ndarray, c: np.ndarray, flat: np.ndarray, jac: np.ndarray):
    """_eval_panels of the components c_j h_i of the factor pair h (I, n),
    c (J, n), component j I + i, without forming them: on each panel p the
    Kronrod and Gauss sums are C_p diag(jac_p w) H_p^T, rows j and columns
    i, from one batched matmul over the panels.

    Every Kronrod weight is positive, so a non-finite node makes its
    Kronrod sums non-finite. Only then are the factors searched, for the
    first node where a product c_j h_i is not finite, which is the first
    where max_j |c_j| max_i |h_i| is not. (A product that overflows where
    jac_p w times it does not is integrated, not refused.)
    """
    panels, m = jac.size, h.shape[0] * c.shape[0]
    cw = np.empty((panels, 2, c.shape[0], 15))  # c times each weight row, panel by panel
    # an inf factor times a Gauss weight of 0 is a NaN, which the check catches
    with np.errstate(invalid="ignore"):
        np.multiply(c.reshape(-1, panels, 15).transpose(1, 0, 2)[:, None],
                    (jac[:, None, None] * _W2)[:, :, None, :], out=cw)
        sums = np.matmul(cw.reshape(panels, -1, 15), h.reshape(-1, panels, 15).transpose(1, 2, 0))
    sums = sums.reshape(panels, 2, m)
    kron = sums[:, 0].T
    if not np.isfinite(kron).all():
        with np.errstate(invalid="ignore", over="ignore"):
            finite = np.isfinite(np.abs(c).max(axis=0) * np.abs(h).max(axis=0))
        if not finite.all():
            raise NonFiniteIntegrandError(float(flat[~finite][0]))
    return kron, np.abs(kron - sums[:, 1].T)


def _adaptive(f: Integrand, edges: np.ndarray, settings: QuadratureSettings,
              scale: float = 1.0):
    """Globally adaptive GK15 of scale * f from the start panels between edges.

    f returns n values for n nodes, or an (m, n) array or a factor pair of
    m components that share one panel set. Returns (value, refinement error), scalars or of
    shape (m,). A component is finished when its error is at most
    max(abs_tol, rel_tol * |value|); a panel splits when its error in any
    unfinished component exceeds that component's equal share. The scale is
    in the panel weights, so the test and any ConvergenceError see the
    scaled value at no cost per node.
    """
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi, scale)
    shape = vals.shape[:-1]
    vals, errs = vals.reshape(-1, lo.size), errs.reshape(-1, lo.size)

    min_width = _MIN_WIDTH * (edges[-1] - edges[0])
    splits = 0
    while True:
        total = vals.sum(axis=1)
        err = errs.sum(axis=1)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(total))
        unfinished = err > tol
        if not unfinished.any():
            return total.reshape(shape), err.reshape(shape)
        # a panel's error as a fraction of its worst unfinished component's tolerance
        score = (errs[unfinished] / tol[unfinished, None]).max(axis=0)
        worst = int(np.argmax(score))
        if splits >= settings.max_subdivisions or (hi[worst] - lo[worst]) <= min_width:
            k = int(np.argmax(np.where(unfinished, err / tol, -1.0)))
            raise ConvergenceError(
                float(err[k]), complex(total[k]), float(0.5 * (lo[worst] + hi[worst]))
            )

        mask = score > 1.0 / (2.0 * lo.size)
        n_split = int(mask.sum())
        if splits + n_split > settings.max_subdivisions:
            # cap: split only the worst panels within the remaining budget
            budget = settings.max_subdivisions - splits
            order = np.argsort(score)[::-1][:budget]
            mask = np.zeros_like(mask)
            mask[order] = True
            n_split = budget
        splits += n_split

        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi, scale)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[:, ~mask], new_vals.reshape(-1, new_lo.size)], axis=1)
        errs = np.concatenate([errs[:, ~mask], new_errs.reshape(-1, new_lo.size)], axis=1)


def _initial_spacing(envelope_width: float, max_frequency: float) -> float:
    # a quarter period of the fastest phase: the integrands are analytic in
    # a strip around the real axis, where GK15 converges fast on panels this
    # wide (Trefethen & Weideman, SIAM Rev. 56, 2014)
    if max_frequency > 0.0:
        return min(envelope_width, math.pi / (2.0 * max_frequency))
    return envelope_width


def _gaussian_tail_bound(edge_magnitude, envelope_width: float, edge: float):
    # int_a^inf e^{-u^2/w^2} du <= (w^2 / 2a) e^{-a^2/w^2}; the integrand at
    # the window edge already carries the e^{-a^2/w^2} factor.
    return edge_magnitude * envelope_width * envelope_width / (2.0 * edge)


def _result(values: np.ndarray, errors: np.ndarray) -> IntegralResult:
    """Scalars for a scalar integrand, arrays of shape (m,) for m components."""
    if values.ndim == 0:
        return IntegralResult(complex(values), float(errors))
    return IntegralResult(values.astype(complex, copy=False), errors)


def _window_start(envelope_width: float, max_frequency: float,
                  singularity_distance: float = math.inf) -> np.ndarray:
    """Edges of the start panels on the window [0, c w], c =
    _NEGLIGIBLE_SIGMAS, past which the envelope is below eps of its peak;
    checked for one component, so a window whose end overflows is refused
    for its count."""
    w = float(envelope_width)
    if not (w > 0.0 and math.isfinite(w)):
        raise ValueError(f"envelope_width must be finite and > 0, got {envelope_width!r}")
    return _start_edges(0.0, _NEGLIGIBLE_SIGMAS * w, _initial_spacing(w, max_frequency),
                        singularity_distance)


def _integrate_window(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
    max_frequency: float,
    scale: float,
    singularity_distance: float = math.inf,
) -> IntegralResult:
    """scale times the integral on [0, a], a = c w, plus the Gaussian tail
    bound beyond a, also times scale. The call at a alone that gives the
    tail bound also gives the component count, so the start-panel budget is
    checked before the first pass allocates."""
    start = _window_start(envelope_width, max_frequency, singularity_distance)
    a = float(start[-1])  # c w
    edge = integrand(np.array([a]))
    if isinstance(edge, tuple):
        edge = _products(*edge)  # |c_j h_i| = |c_j| |h_i| at a
    edge = scale * np.abs(np.asarray(edge))
    _check_start_panels(start.size - 1, edge.size)
    value, err = _adaptive(integrand, start, settings, scale)
    return _result(value, err + _gaussian_tail_bound(edge.sum(axis=-1), float(envelope_width), a))


def integrate_line(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
    max_frequency: float = 0.0,
    singularity_distance: float = math.inf,
) -> IntegralResult:
    """Integrate an even integrand over the real line, truncated at
    +-c w, c = sqrt(ln(1/eps)) = 6.0.

    envelope_width w declares that |integrand(u)| decays at least like
    exp(-u^2/w^2), relative to its peak; max_frequency declares the largest
    angular frequency of any oscillatory factor and sets the initial panel
    spacing. At c w that envelope is below eps, so w must be no narrower
    than the integrand's own width, or a tail that is not negligible is
    cut off and the tail bound charged at c w undercounts it. The
    integrand must satisfy integrand(-u) == integrand(u): only [0, c w] is
    integrated, with every panel weighted twice, so the convergence test,
    the error estimate and the one edge's doubled tail bound all refer to
    the full-line value, and the start-panel budget counts the half window.
    singularity_distance declares the distance from u = 0 to the
    integrand's nearest complex singularity, such as the branch points
    +-i t_b of a factor 1/sqrt(c^2 u^2 + d^2), t_b = d / c. Where it is
    below the uniform start width, the start panels next to 0 are graded
    [0, s], [s, 2s], [2s, 4s], ... from s = singularity_distance, so a
    near-singularity at a known distance is resolved on the first pass;
    the graded panels count in the start-panel budget. At its default, inf,
    the start panels are uniform.
    An integrand that returns m components, shape (m, n), gets one result
    whose value and error estimate have shape (m,).
    """
    return _integrate_window(integrand, envelope_width, settings, max_frequency, 2.0,
                             singularity_distance)


def _line_capacity(
    envelope_width: float,
    max_frequency: float = 0.0,
    singularity_distance: float = math.inf,
) -> int:
    """The most components integrate_line takes with these arguments.

    Past it, components times start panels exceed the start-panel limit
    and integrate_line refuses before evaluating anything; 0 when one
    component's start panels alone exceed it.
    """
    try:
        start = _window_start(envelope_width, max_frequency, singularity_distance)
    except QuadratureError:
        return 0
    return _MAX_START_PANELS // (start.size - 1)


def integrate_halfline(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
) -> IntegralResult:
    """As integrate_line with no oscillatory factor, on the domain
    [0, c * width], for any integrand, weighted once: the same window at
    scale 1, on start panels one envelope width wide."""
    return _integrate_window(integrand, envelope_width, settings, 0.0, 1.0)


def integrate_interval(
    integrand: Integrand,
    a: float,
    b: float,
    settings: QuadratureSettings,
    initial_spacing: float | None = None,
) -> IntegralResult:
    """Adaptive integration on a finite interval, no truncation tail.

    Nothing is evaluated before the start panels here, so their budget
    counts one component; the windowed integrators count all of them.
    """
    a, b = float(a), float(b)
    width = b - a
    if not (width > 0.0):
        raise ValueError(f"empty integration interval [{a!r}, {b!r}]")
    spacing = width if initial_spacing is None else min(initial_spacing, width)
    value, err = _adaptive(integrand, _start_edges(a, b, spacing), settings)
    return _result(value, err)
