"""Momentum-space oracles for P and X.

These evaluate the mode-expansion (plane-wave) forms of the transition
probability and correlation term as nested 1-D numerical integrals,
deliberately stopping two analytic steps short of the fast closed-form /
single-integral paths so that agreement validates the radial-integral
algebra and the final variable rescaling, not just arithmetic.

P oracle: spherical momentum coordinates; after the trivial azimuthal
integral,

    P = (1-v^2)/(4 pi) * int_0^inf r dr int_{-1}^{1} dmu
        e^{-(r + g - v r mu)^2}

in sigma = 1 units with g = sigma*omega.

X oracle: outer integral over the proper-time difference u with weight
e^{-u^2/4} cos(g u) / rho, rho = sqrt(u^2 v^2 + d^2 (1-v^2)), inner
radial integral

    int_0^inf [e^{-r^2} + i (2/sqrt(pi)) F(r)] sin(r rho) dr

with prefactor -sqrt(pi) (1-v^2) / (4 pi^2). This is the line integral
with weight e^{-u^2/4} e^{-i g u} / rho: rho and the inner integral are
even in u, so the sine half of the phase is odd and drops out, and the
even rest is integrate_line's fold, u >= 0 weighted twice, so each inner
integral serves both +u and -u. The imaginary part
of the inner integrand decays only like 1/r, so the radial integral stops
at the fixed cutoff _RADIAL_CUTOFF and is supplemented by an analytic tail
computed from the asymptotic Dawson series and the sine integral;
truncating that series is charged to the error estimate.

Both oracles run at the QuadratureSettings() defaults, the settings the
self-check battery's pass bounds assume, and hold their outer and inner
integrals to them; every outer integral, and the P oracle's radial one,
ends where its Gaussian envelope falls below eps, as every windowed
integral does.

Phase convention. The mode-expansion route lands, after the variable
rescaling, on the negated complex conjugate of the single-integral form
implemented by the fast path (the two are related by u -> u/gamma plus an
overall -conj; |X| is identical). The oracle applies that -conj as its
final step so both paths report X in the same convention and the full
complex values can be compared directly. The fold drops only a term that
is exactly zero, so the relation holds for the folded integral as well.

Batched inner integrals. Each outer pass hands the inner parameters of all
its nodes (r for P; rho for X, after np.unique, so at v = 0 a pass needs a
single inner integral) to a few vector integrals, stacks cut by the budget
below alone (quadrature._stacks, as X's gaps are): every member of a stack
gets its own component and tolerance on the start panels of its finest
member. An X radial integral starts on panels a quarter period of
sin(r rho) wide, min(1, pi / (2 rho)), the rule quadrature._initial_spacing
gives every other integrand (GK15 converges fast on panels that wide in a
strip of analyticity), and is refined to the same tolerance as any other.
Its integrand evaluates e^{-r^2} and F(r) once per node for the whole
stack and sin(r rho) once per (rho, r) pair, and writes its two real
products straight into one complex array. A call holds at most
_PANEL_BUDGET components x start panels, so its arrays stay the size of
one large inner integral (unbounded stacks raised validate's peak RSS by
30%); a parameter that needs more start panels than that runs alone. The
batching changes only the loop: each inner error is charged as before.

Gap axis. X's inner integrals depend on u through rho alone, not on the
gap, so _x_oracle integrates X at a whole axis of gaps in one outer
integral, one component per gap on start panels sized for the largest:
each outer pass computes the inner integrals and the sine tail once for
every gap, and each gap is charged its own outer error plus the inner
bound they share. x_momentum_oracle is its one-gap view. The P oracle's
inner integrand depends on the gap, so it stays one gap per call.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import dawsn as _dawsn_vec
from scipy.special import sici

from .model import DetectorSettings, EncounterGeometry, _check_v
from .quadrature import (
    _NEGLIGIBLE_SIGMAS,
    QuadratureSettings,
    _stacks,
    integrate_halfline,
    integrate_interval,
    integrate_line,
)

__all__ = ["p_momentum_oracle", "x_momentum_oracle"]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# Asymptotic Dawson coefficients: F(x) ~ sum_k (2k-1)!! / 2^{k+1} x^{-(2k+1)}
_DAWSON_ASYMPTOTIC = (0.5, 0.25, 0.375, 0.9375, 3.28125)
_NEXT_COEFF = 14.765625  # 9!!/2^6, first dropped term

# Components x start panels allowed in one vector inner integral: a bound on
# the arrays one call allocates. A parameter whose own start panels exceed it
# is integrated alone.
_PANEL_BUDGET = 2048

# The X oracle's radial momentum cutoff, in units of 1/sigma. Past it
# e^{-r^2} is below 1e-62 and the Dawson part is summed analytically by
# _sine_tail, whose first dropped term is bounded by about 2.2e-11 / rho.
_RADIAL_CUTOFF = 12.0


def _inner_integrals(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: np.ndarray,
    spacing: np.ndarray,
    a: float,
    b: float,
    quad: QuadratureSettings,
) -> tuple[np.ndarray, np.ndarray]:
    """int_a^b f(p, x) dx for every p in params; (values, errors) aligned with params.

    f takes a column of m parameters and n nodes and returns (m, n).
    spacing[i] is the start-panel width params[i] needs on its own. The
    parameters are ordered from the widest spacing to the finest and cut
    into stacks (quadrature._stacks): from the finest one left over, a
    stack takes as many neighbours as _PANEL_BUDGET holds on that one's
    start panels, and is one vector integral on its spacing.
    """
    values = np.empty(params.shape, dtype=complex)
    errors = np.empty(params.shape)
    width = b - a
    order = np.argsort(-spacing, kind="stable")
    panels = np.maximum(4, np.ceil(width / np.minimum(spacing[order], width)))
    for stack in _stacks(order.size, lambda i: _PANEL_BUDGET // int(panels[i])):
        chunk = order[stack]
        res = integrate_interval(
            partial(f, params[chunk, None]), a, b, quad, float(spacing[chunk[-1]]))
        values[chunk] = res.value
        errors[chunk] = res.error_estimate
    return values, errors


def p_momentum_oracle(det: DetectorSettings, v: float) -> tuple[float, float]:
    """Transition probability from the momentum integral; (value, error)."""
    quad = QuadratureSettings()
    _check_v(v)
    g = det.gap
    inner_err_max = 0.0

    def angular(r: np.ndarray, mu: np.ndarray) -> np.ndarray:
        arg = r + g - v * r * mu
        return np.exp(-arg * arg)

    def outer(r: np.ndarray) -> np.ndarray:
        nonlocal inner_err_max
        spacing = np.minimum(2.0, 1.0 / (1.0 + v * r))
        val, err = _inner_integrals(angular, r, spacing, -1.0, 1.0, quad)
        inner_err_max = max(inner_err_max, float((err * r).max()))
        return r * val.real

    # radial decay scale 1/(1-v): exponent >= (r (1-v) + g)^2
    width = 1.0 / (1.0 - v)
    res = integrate_halfline(outer, width, quad)
    pref = (1.0 - v * v) / (4.0 * math.pi)
    err = pref * (res.error_estimate + inner_err_max * _NEGLIGIBLE_SIGMAS * width)
    return pref * res.value.real, err


def _sine_tail(a: float, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_a^inf (2/sqrt(pi)) F(r) sin(r rho) dr via the asymptotic series.

    Returns (value, series-truncation bound), each of rho's shape. Uses the
    recursion
    S_{n+2}(x) = sin x/((n+1) x^{n+1}) + cos x/((n+1) n x^n) - S_n(x)/((n+1) n)
    for S_n(x) = int_x^inf sin t / t^n dt, seeded by S_1 = pi/2 - Si(x).
    """
    x = a * rho
    si, _ = sici(x)
    s = 0.5 * math.pi - si
    sin_x = np.sin(x)
    cos_x = np.cos(x)
    total = _DAWSON_ASYMPTOTIC[0] * s  # rho^0 * S_1
    n = 1
    for k in range(1, len(_DAWSON_ASYMPTOTIC)):
        s = (
            sin_x / ((n + 1) * x ** (n + 1))
            + cos_x / ((n + 1) * n * x ** n)
            - s / ((n + 1) * n)
        )
        n += 2
        total += _DAWSON_ASYMPTOTIC[k] * rho ** (2 * k) * s
    bound = _TWO_OVER_SQRT_PI * _NEXT_COEFF / (a ** 11 * rho)
    return _TWO_OVER_SQRT_PI * total, bound


def _radial(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """[e^{-r^2} + i (2/sqrt(pi)) F(r)] sin(r rho) for a column of rho values.

    The rho-independent factors are evaluated once per node and sin(rho r)
    once per (rho, r) pair; the two real products go straight into the real
    and imaginary views of the result, bit for bit the complex product.
    """
    s = rho * r
    np.sin(s, out=s)
    out = np.empty(s.shape, dtype=complex)
    np.multiply(np.exp(-r * r), s, out=out.real)
    np.multiply(_TWO_OVER_SQRT_PI * _dawsn_vec(r), s, out=out.imag)
    return out


def _x_oracle(d: float, v: float, gaps) -> tuple[np.ndarray, np.ndarray]:
    """X and its error estimate at every gap in gaps from one outer integral,
    in sigma = 1 units (d is d/sigma, a gap sigma*omega): a complex and a
    float array indexed like gaps. See the module docstring's gap axis."""
    quad = QuadratureSettings()
    phase = np.asarray(gaps, dtype=float)[:, None]
    b2 = 1.0 - v * v
    d2_over_gamma2 = d * d * b2
    inner_err_max = 0.0

    def outer(u: np.ndarray) -> np.ndarray:
        nonlocal inner_err_max
        rho, inverse = np.unique(np.sqrt(u * u * v * v + d2_over_gamma2), return_inverse=True)
        # a quarter period of sin(rho r), min(1, pi / (2 rho)) as in
        # quadrature._initial_spacing, without dividing by rho
        spacing = math.pi / (2.0 * np.maximum(rho, 0.5 * math.pi))
        val, err = _inner_integrals(_radial, rho, spacing, 0.0, _RADIAL_CUTOFF, quad)
        tail, tail_bound = _sine_tail(_RADIAL_CUTOFF, rho)
        inner_err_max = max(inner_err_max, float(((err + tail_bound) / rho).max()))
        weight = np.exp(-0.25 * u * u) * np.cos(phase * u) / rho[inverse]
        return weight * (val + 1j * tail)[inverse]

    res = integrate_line(outer, 2.0, quad, max_frequency=float(phase.max()))
    pref = _SQRT_PI * b2 / (4.0 * math.pi * math.pi)
    # inner errors enter through the outer weight; 2 sqrt(pi) bounds the
    # Gaussian weight's integral
    err = pref * (res.error_estimate + inner_err_max * 2.0 * _SQRT_PI)
    # land in the fast path's phase convention (see module docstring)
    return pref * res.value.conjugate(), err


def x_momentum_oracle(det: DetectorSettings, geom: EncounterGeometry) -> tuple[complex, float]:
    """Correlation term X from the nested momentum integral; (value, error)."""
    x, err = _x_oracle(geom.d / det.sigma, geom.v, [det.gap])
    return complex(x[0]), float(err[0])
