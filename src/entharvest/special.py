"""Scalar special functions used by the detector formulas.

Everything here is real-valued and stateless. The imaginary error
function erfi never appears on its own anywhere in the package: it is
always wanted in the product e^{-x^2} erfi(x), which stays bounded even
where erfi(x) alone overflows double precision (x >~ 27). That product
equals (2/sqrt(pi)) F(x) with F the Dawson function, which is how it is
computed here.
"""

from __future__ import annotations

import math

from scipy.special import dawsn, erfcx

__all__ = ["erfcx_real", "dawson", "erfi_scaled"]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def erfcx_real(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x).

    Stable where erfc underflows; used for the large-gap limit of the
    transition probability.
    """
    return float(erfcx(_require_finite(x, "x")))


def dawson(x: float) -> float:
    """Dawson function F(x) = e^{-x^2} int_0^x e^{t^2} dt.

    Odd in x, with |F| <= 0.5410442855... attained near x = 0.924.
    """
    return float(dawsn(_require_finite(x, "x")))


def erfi_scaled(x: float) -> float:
    """Overflow-safe product e^{-x^2} erfi(x) = (2/sqrt(pi)) F(x), x >= 0.

    Callers pass magnitudes; negative arguments are rejected rather than
    reflected so that sign handling stays at the call site.
    """
    x = _require_finite(x, "x")
    if x < 0.0:
        raise ValueError(f"erfi_scaled requires x >= 0, got {x!r}")
    return _TWO_OVER_SQRT_PI * float(dawsn(x))
