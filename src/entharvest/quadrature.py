"""Adaptive Gauss-Kronrod integration for Gaussian-enveloped integrands.

The integrals in this package all share the same structure: a complex
integrand dominated by a Gaussian envelope of known width, possibly
multiplied by a bounded oscillatory phase of known maximal (angular)
frequency. Infinite domains are truncated at a configurable number of
envelope widths and the discarded tail is charged to the error estimate
via the analytic Gaussian tail bound.

Integrands must be vectorized: they are called with a 1-D numpy array of
abscissae and must return an array of the same shape (real or complex).
Real and imaginary parts share the same panels, so a single refinement
decision keeps both consistently converged.
"""

from __future__ import annotations

import math
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

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and limits governing a single integration.

    rel_tol / abs_tol define convergence: the refinement error must drop
    below max(abs_tol, rel_tol * |value|). truncation_sigmas is the
    half-width of the integration window in units of the integrand's
    envelope width. max_subdivisions caps the total number of panel
    bisections before giving up.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-13
    truncation_sigmas: float = 10.0
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not (self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if not (self.truncation_sigmas >= 6.0):
            raise ValueError(
                f"truncation_sigmas must be >= 6, got {self.truncation_sigmas!r}"
            )
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions!r}"
            )


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error_estimate: float

    def __post_init__(self) -> None:
        if not (self.error_estimate >= 0.0 and math.isfinite(self.error_estimate)):
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


# Start panels allowed before any evaluation. The count grows like 51 * gap
# for the X integral at v = 0, so the limit falls near gap 1300, where P has
# long underflowed to 0; past it the start arrays alone would need gigabytes.
_MAX_START_PANELS = 1 << 16


def _eval_panels(f: Integrand, lo: np.ndarray, hi: np.ndarray):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center[:, None] + np.outer(half, _NODES)
    flat = x.reshape(-1)
    y = np.asarray(f(flat), dtype=complex).reshape(x.shape)
    finite = np.isfinite(y.real) & np.isfinite(y.imag)
    if not finite.all():
        bad = flat[~finite.reshape(-1)]
        raise NonFiniteIntegrandError(float(bad[0]))
    kron = (y * _WK).sum(axis=1) * half
    gauss = (y[:, 1::2] * _WG).sum(axis=1) * half
    return kron, np.abs(kron - gauss)


def _adaptive(
    f: Integrand,
    a: float,
    b: float,
    settings: QuadratureSettings,
    initial_spacing: float | None = None,
):
    """Globally adaptive GK15 on [a, b]; returns (value, refinement error)."""
    width = b - a
    if not (width > 0.0):
        raise ValueError(f"empty integration interval [{a!r}, {b!r}]")
    spacing = width if initial_spacing is None else min(initial_spacing, width)
    n0 = width / spacing
    if n0 > _MAX_START_PANELS:
        raise QuadratureError(f"{n0:.3g} start panels exceed the limit of {_MAX_START_PANELS}")
    n0 = max(4, math.ceil(n0))
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi)

    min_width = 1e-15 * width
    splits = 0
    while True:
        total = vals.sum()
        err = float(errs.sum())
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if err <= tol:
            return complex(total), err
        worst = int(np.argmax(errs))
        if splits >= settings.max_subdivisions or (hi[worst] - lo[worst]) <= min_width:
            raise ConvergenceError(err, complex(total), float(0.5 * (lo[worst] + hi[worst])))

        mask = errs > tol / (2.0 * lo.size)
        n_split = int(mask.sum())
        if splits + n_split > settings.max_subdivisions:
            # cap: split only the worst panels within the remaining budget
            budget = settings.max_subdivisions - splits
            order = np.argsort(errs)[::-1][:budget]
            mask = np.zeros_like(mask)
            mask[order] = True
            n_split = budget
        splits += n_split

        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])


def _initial_spacing(envelope_width: float, max_frequency: float) -> float:
    if max_frequency > 0.0:
        return min(envelope_width, math.pi / (4.0 * max_frequency))
    return envelope_width


def _gaussian_tail_bound(edge_magnitude: float, envelope_width: float, edge: float) -> float:
    # int_a^inf e^{-u^2/w^2} du <= (w^2 / 2a) e^{-a^2/w^2}; the integrand at
    # the window edge already carries the e^{-a^2/w^2} factor.
    return edge_magnitude * envelope_width * envelope_width / (2.0 * edge)


def _integrate_window(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
    max_frequency: float,
    two_sided: bool,
) -> IntegralResult:
    """[-a, a] (two_sided) or [0, a] with a = truncation_sigmas * width,
    plus the Gaussian tail bound beyond each truncated edge."""
    w = float(envelope_width)
    if not (w > 0.0 and math.isfinite(w)):
        raise ValueError(f"envelope_width must be finite and > 0, got {envelope_width!r}")
    a = settings.truncation_sigmas * w
    lo = -a if two_sided else 0.0
    value, err = _adaptive(integrand, lo, a, settings, _initial_spacing(w, max_frequency))
    edges = np.array([-a, a] if two_sided else [a])
    edge = np.abs(np.asarray(integrand(edges), dtype=complex))
    tail = _gaussian_tail_bound(float(edge.sum()), w, a)
    return IntegralResult(value, err + tail)


def integrate_line(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
    max_frequency: float = 0.0,
) -> IntegralResult:
    """Integrate over the real line, truncated at +-truncation_sigmas widths.

    envelope_width w declares that |integrand(u)| decays at least like
    exp(-u^2/w^2); max_frequency declares the largest angular frequency of
    any oscillatory factor and sets the initial panel spacing.
    """
    return _integrate_window(integrand, envelope_width, settings, max_frequency, True)


def integrate_halfline(
    integrand: Integrand,
    envelope_width: float,
    settings: QuadratureSettings,
    max_frequency: float = 0.0,
) -> IntegralResult:
    """As integrate_line, on the domain [0, truncation_sigmas * width]."""
    return _integrate_window(integrand, envelope_width, settings, max_frequency, False)


def integrate_interval(
    integrand: Integrand,
    a: float,
    b: float,
    settings: QuadratureSettings,
    initial_spacing: float | None = None,
) -> IntegralResult:
    """Adaptive integration on a finite interval, no truncation tail."""
    value, err = _adaptive(integrand, float(a), float(b), settings, initial_spacing)
    return IntegralResult(value, err)
