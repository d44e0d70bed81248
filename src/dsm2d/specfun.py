"""Real Bessel function of the first kind, order 1.

Self-contained double-precision J1 (no scipy). Three zones:

* |x| < 1.75       ascending Maclaurin series (no cancellation there);
* 1.75 - 18.25     Taylor expansion about the nearest half-integer anchor.
                   Anchor values are computed once at import in 50-digit
                   decimal arithmetic, and the Taylor coefficients follow
                   from the Bessel ODE recurrence, so the local step never
                   exceeds 0.25 and accuracy stays near machine level
                   (a direct ascending series loses ~5 digits to
                   cancellation by x ~ 15). Sixteen terms suffice: over
                   all anchors max |c_m| 0.25^m is 2.7e-17 at m = 12,
                   1.4e-22 at m = 15 and 2.1e-24 at m = 16, and the
                   16-term sums round to the same doubles as 26-term
                   ones on every point tested (tests/test_specfun.py);
* |x| > 18.25      Hankel large-argument expansion, truncated where its
                   terms are far below double precision.

J0 appears in only two places: the 50-digit anchor values J0(a), which
seed the J1 recurrence, and the quadrature oracle below.

An independent trapezoid-rule quadrature of the integral representation

    J_n(x) = (1/pi) * integral_0^pi cos(n*tau - x*sin(tau)) dtau

serves as a brute-force oracle. It shares no code with the evaluation
path above and converges geometrically in the panel count, so tests can
pit the two routes against each other.

Accuracy: absolute error well under 1e-10 for |x| <= 1000 (measured
worst case is ~2e-14, at the Hankel handover).
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

MACLAURIN_CUTOFF = 1.75
ASYMPTOTIC_CUTOFF = 18.25

_ANCHOR_HALF_STEPS = np.arange(4, 38)  # anchors 2.0, 2.5, ..., 18.5
_TAYLOR_TERMS = 16
_MACLAURIN_TERMS = 24
_ASYMPTOTIC_TERMS = 15  # terms of P and Q each

# Location of the first maximum of J1 as commonly tabulated to 4 decimals
# (the true extremum is at 1.84118378...). The 4-digit value is used for
# closed-form peak predictions so reported coordinates match tabulated ones.
J1_FIRST_MAX = 1.8412


# ---------------------------------------------------------------------------
# Import-time tables: anchor values in 50-digit decimal, Taylor
# coefficients from the ODE recurrence, rounded to doubles at the end.
# ---------------------------------------------------------------------------

def _decimal_maclaurin(order: int, a: Decimal) -> Decimal:
    # J_order(a) = sum_k (-1)^k (a/2)^(2k+order) / (k! (k+order)!)
    half = a / 2
    q = half * half
    term = Decimal(1) if order == 0 else half
    total = term
    k = 1
    while True:
        term = -term * q / (k * (k + order))
        total += term
        if abs(term) < Decimal("1e-46"):
            return total
        k += 1


def _taylor_coeffs_j1(a: Decimal, j0a: Decimal, j1a: Decimal, count: int):
    # t^m coefficient of (a+t)^2 y'' + (a+t) y' + ((a+t)^2 - 1) y = 0:
    #   a^2 (m+2)(m+1) c_{m+2} + a(m+1)(2m+1) c_{m+1}
    #     + (m^2 + a^2 - 1) c_m + 2a c_{m-1} + c_{m-2} = 0
    c = [j1a, j0a - j1a / a]
    for m in range(count - 2):
        prev1 = c[m - 1] if m >= 1 else Decimal(0)
        prev2 = c[m - 2] if m >= 2 else Decimal(0)
        c.append(-(a * (m + 1) * (2 * m + 1) * c[m + 1]
                   + (m * m + a * a - 1) * c[m]
                   + 2 * a * prev1 + prev2)
                 / (a * a * (m + 2) * (m + 1)))
    return c


def _build_taylor_tables():
    # Row j holds the t^j coefficient at every anchor (one column each).
    table = np.empty((_TAYLOR_TERMS, len(_ANCHOR_HALF_STEPS)))
    with localcontext() as ctx:  # the caller's decimal context is untouched
        ctx.prec = 50
        for col, half_steps in enumerate(_ANCHOR_HALF_STEPS):
            a = Decimal(int(half_steps)) / 2
            j0a = _decimal_maclaurin(0, a)
            j1a = _decimal_maclaurin(1, a)
            table[:, col] = [float(v) for v in _taylor_coeffs_j1(a, j0a, j1a, _TAYLOR_TERMS)]
    return table


def _hankel_coeffs(order: int, count: int) -> np.ndarray:
    # a_k = prod_{i=1..k} (4 order^2 - (2i-1)^2) / (k! 8^k)
    mu = 4.0 * order * order
    a = np.empty(count)
    a[0] = 1.0
    for k in range(count - 1):
        a[k + 1] = a[k] * (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    return a


_TAYLOR_J1 = _build_taylor_tables()
_ANCHORS = _ANCHOR_HALF_STEPS / 2.0
_HANKEL_A1 = _hankel_coeffs(1, 2 * _ASYMPTOTIC_TERMS + 1)


# ---------------------------------------------------------------------------
# Evaluation zones
# ---------------------------------------------------------------------------

def _maclaurin(ax: np.ndarray) -> np.ndarray:
    q = 0.25 * ax * ax
    term = 0.5 * ax
    total = term.copy()
    for k in range(1, _MACLAURIN_TERMS):
        term = term * (-q) / (k * (k + 1))
        total += term
    return total


def _taylor(ax: np.ndarray) -> np.ndarray:
    idx = np.clip(np.rint(2.0 * ax).astype(int) - _ANCHOR_HALF_STEPS[0],
                  0, len(_ANCHORS) - 1)
    t = ax - _ANCHORS[idx]
    # idx is in range, so mode="wrap" only skips the slower bounds check
    result = _TAYLOR_J1[-1].take(idx, mode="wrap")
    for j in range(_TAYLOR_TERMS - 2, -1, -1):
        result *= t
        result += _TAYLOR_J1[j].take(idx, mode="wrap")
    return result


def _hankel(ax: np.ndarray) -> np.ndarray:
    # J1(x) = sqrt(2/(pi x)) [cos(w) P(x) - sin(w) Q(x)], w = x - 3 pi/4
    inv2 = 1.0 / (ax * ax)
    p = np.zeros_like(ax)
    q = np.zeros_like(ax)
    for j in range(_ASYMPTOTIC_TERMS - 1, -1, -1):
        sign = -1.0 if j % 2 else 1.0
        p *= inv2
        p += sign * _HANKEL_A1[2 * j]
        q *= inv2
        q += sign * _HANKEL_A1[2 * j + 1]
    q /= ax
    w = ax - 0.75 * np.pi
    p *= np.cos(w)  # cos(w) p - sin(w) q bit for bit: products commute
    q *= np.sin(w)
    p -= q
    return np.sqrt(2.0 / (np.pi * ax)) * p


def bessel_j1(x):
    """J1(x) for finite real x (scalar or array).

    Odd symmetry is exact by construction: the value is computed on |x|
    and negated for negative arguments.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("Bessel argument must be finite")
    # A fresh array; the zones are disjoint, so each overwrites only its own
    # arguments with values and no second full-size array is needed.
    out = np.abs(xa).ravel()
    small = out < MACLAURIN_CUTOFF
    large = out > ASYMPTOTIC_CUTOFF
    mid = ~small & ~large
    if np.any(small):
        out[small] = _maclaurin(out[small])
    if np.any(mid):
        out[mid] = _taylor(out[mid])
    if np.any(large):
        out[large] = _hankel(out[large])
    neg = xa.ravel() < 0  # odd symmetry, exact; -0.0 keeps J1 = +0.0
    if neg.any():
        np.negative(out, out=out, where=neg)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out[0])
    return out.reshape(xa.shape)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def bessel_j_oracle(order: int, x: float, panels: int = 4096) -> float:
    """Brute-force J_order(x) by trapezoid quadrature of the cosine integral.

    Composite trapezoid rule on [0, pi] with ``panels`` panels applied to
    cos(order*tau - x*sin(tau)). The integrand extends to a smooth
    2*pi-periodic function, so the rule converges geometrically once the
    panel count exceeds ~e|x|/2; doubling panels is the convergence check
    used in tests.
    """
    if panels < 64:
        raise ValueError("panels must be >= 64")
    tau = np.linspace(0.0, np.pi, panels + 1)
    f = np.cos(order * tau - x * np.sin(tau))
    weights = np.ones(panels + 1)
    weights[0] = weights[-1] = 0.5
    return float(np.dot(weights, f) * (np.pi / panels) / np.pi)

