"""Gamma and beta functions for positive real arguments.

Everything downstream (kernel normalizations, contraction constants,
closed-form moments of power heads) funnels through these two functions.
Gamma is the standard library's, which is accurate to a few ulps on the
(0, 3] range this package uses: operator orders live in [0.05, 0.95] and
the beta arguments are sums of such orders.
"""

from __future__ import annotations

import math

__all__ = ["gamma", "beta"]


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0.

    math.gamma also accepts negative non-integers, so positivity is
    checked here: a non-positive order is always an upstream error.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires a positive argument, got {x!r}")
    return math.gamma(x)


def beta(q: float, r: float) -> float:
    """Euler beta B(q, r) = Gamma(q)Gamma(r)/Gamma(q+r) for q, r > 0."""
    q = float(q)
    r = float(r)
    if not (q > 0.0 and r > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({q!r}, {r!r})")
    return gamma(q) * gamma(r) / gamma(q + r)
