"""Real Bessel function of the first kind, order 1.

Self-contained double-precision J1 (no scipy). Two zones:

* |x| <= 18.25     Taylor expansion about the nearest half-integer anchor
                   0.0, 0.5, ..., 18.0, so the local step never exceeds
                   0.25 (a direct ascending series loses ~5 digits to
                   cancellation by x ~ 15). The Bessel ODE recurrence
                   builds every column once at import in 50-digit
                   decimal arithmetic. At anchor 0 it is the Maclaurin
                   series, and 120 terms of that series give J1 and J1'
                   at the other anchors to seed them. Sixteen terms
                   suffice: over all anchors max |c_m| 0.25^m is 2.7e-17
                   at m = 12, 1.4e-22 at m = 15 and 2.1e-24 at m = 16,
                   and the 16-term sums round to the same doubles as
                   26-term ones on every point tested (tests/test_specfun.py);
* |x| > 18.25      Hankel large-argument expansion, truncated where its
                   terms are far below double precision.

J0 appears only in the quadrature oracle below.

``bessel_tail_order`` finds where the orders J_m(x) fall below a tail
level, by Miller's backward recurrence; it shares no code with J1 either.

An independent trapezoid-rule quadrature of the integral representation

    J_n(x) = (1/pi) * integral_0^pi cos(n*tau - x*sin(tau)) dtau

serves as a brute-force oracle. It shares no code with the evaluation
path above and converges geometrically in the panel count, so tests can
pit the two routes against each other.

Accuracy: below 1.75, where the closed-form map has its zeros, the error
is at most 1.9 ulp and 7.7e-17 (mean 0.31 ulp) against a 45-digit series
on 22,000 points; the absolute error is well under 1e-10 for |x| <= 1000
(measured worst case is ~2e-14, at the Hankel handover).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

ASYMPTOTIC_CUTOFF = 18.25

_ANCHORS = np.arange(np.rint(2.0 * ASYMPTOTIC_CUTOFF) + 1) / 2.0  # 0.0 .. 18.0
_TAYLOR_TERMS = 16
_ASYMPTOTIC_TERMS = 15  # terms of P and Q each

TAIL = 1e-16  # bessel_tail_order's level: below it a Bessel order is dropped
_LOG_START_BOUND = math.log(1e-40)  # bessel_tail_order starts where J_M is below this
_RESCALE = 2.0 ** 500

# Location of the first maximum of J1 as commonly tabulated to 4 decimals
# (the true extremum is at 1.84118378...). The 4-digit value is used for
# closed-form peak predictions so reported coordinates match tabulated ones.
J1_FIRST_MAX = 1.8412


# ---------------------------------------------------------------------------
# Import-time tables: Taylor coefficients from the ODE recurrence in
# 50-digit decimal, rounded to doubles at the end.
# ---------------------------------------------------------------------------

def _taylor_coeffs_j1(a: Decimal, j1a: Decimal, dj1a: Decimal, count: int):
    # t^m coefficient of (a+t)^2 y'' + (a+t) y' + ((a+t)^2 - 1) y = 0:
    #   a^2 (m+2)(m+1) c_{m+2} + a(m+1)(2m+1) c_{m+1}
    #     + (m^2 + a^2 - 1) c_m + 2a c_{m-1} + c_{m-2} = 0,
    # which at a = 0 reads (m^2 - 1) c_m + c_{m-2} = 0: the Maclaurin series.
    c = [j1a, dj1a]
    for m in range(count - 2):
        if a == 0:
            c.append(-c[m] / ((m + 1) * (m + 3)))
            continue
        prev1 = c[m - 1] if m >= 1 else Decimal(0)
        prev2 = c[m - 2] if m >= 2 else Decimal(0)
        c.append(-(a * (m + 1) * (2 * m + 1) * c[m + 1]
                   + (m * m + a * a - 1) * c[m]
                   + 2 * a * prev1 + prev2)
                 / (a * a * (m + 2) * (m + 1)))
    return c


def _build_taylor_tables(terms: int) -> np.ndarray:
    # Row j holds the t^j coefficient at every anchor (one column each).
    table = np.empty((terms, len(_ANCHORS)))
    with localcontext() as ctx:  # the caller's decimal context is untouched
        ctx.prec = 50
        # Maclaurin terms to x^119: the first one left out is ~1e-50 at a = 18
        series = _taylor_coeffs_j1(Decimal(0), Decimal(0), Decimal(1) / 2, 120)
        for col, anchor in enumerate(_ANCHORS):
            a = Decimal(anchor)  # exact: a half-integer
            q = a * a
            j1a = dj1a = Decimal(0)
            for m in range(len(series) - 1, 0, -2):  # J1 is odd: Horner in a^2
                j1a = j1a * q + series[m]
                dj1a = dj1a * q + m * series[m]
            j1a *= a
            table[:, col] = [float(v) for v in _taylor_coeffs_j1(a, j1a, dj1a, terms)]
    return table


def _hankel_coeffs(count: int) -> np.ndarray:
    # a_k = prod_{i=1..k} (4 - (2i-1)^2) / (k! 8^k), the order-1 coefficients
    a = np.empty(count)
    a[0] = 1.0
    for k in range(count - 1):
        a[k + 1] = a[k] * (4.0 - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    return a


_TAYLOR_J1 = _build_taylor_tables(_TAYLOR_TERMS)
_HANKEL_A1 = _hankel_coeffs(2 * _ASYMPTOTIC_TERMS + 1)


# ---------------------------------------------------------------------------
# Evaluation zones
# ---------------------------------------------------------------------------

def _taylor(ax: np.ndarray) -> np.ndarray:
    idx = np.rint(2.0 * ax).astype(int)
    t = ax - _ANCHORS[idx]
    # idx is in range, so mode="wrap" only skips the slower bounds check
    result = _TAYLOR_J1[-1].take(idx, mode="wrap")
    for j in range(_TAYLOR_TERMS - 2, -1, -1):
        result *= t
        result += _TAYLOR_J1[j].take(idx, mode="wrap")
    return result


def _hankel(ax: np.ndarray) -> np.ndarray:
    # J1(x) = sqrt(2/(pi x)) [cos(w) P(x) - sin(w) Q(x)], w = x - 3 pi/4
    with np.errstate(over="ignore"):  # ax * ax -> inf makes inv2 0, its limit
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
    with np.errstate(over="ignore"):  # pi * ax -> inf: the amplitude's limit 0
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
    large = out > ASYMPTOTIC_CUTOFF
    near = ~large
    if np.any(near):
        out[near] = _taylor(out[near])
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


# ---------------------------------------------------------------------------
# Tail order
# ---------------------------------------------------------------------------

def bessel_tail_order(x: float) -> int:
    """Smallest order L >= 0 with |J_L(x)| <= 1e-16 and |J_{L+1}(x)| <= 1e-16.

    For finite x >= 0. Miller's backward recurrence
    J_{m-1} = (2m/x) J_m - J_{m+1} runs from J_{M+1} = 0, J_M = 1 down to
    J_0, with M the first order where the bound |J_M(x)| <= (x/2)^M / M!
    (DLMF 10.14.4) is below 1e-40, and is normalized by
    J_0 + 2 sum_k J_{2k} = 1 (DLMF 10.12.4). Values past 2^500 are scaled down by 2^-500, so nothing
    overflows; L > x, and the work is O(M), M about 1.4 x for large x.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"need a finite x >= 0, got {x!r}")
    if x <= 2.0 * TAIL:  # |J_1| <= x/2 and |J_2| <= x^2/8 lie within TAIL; J_0 does not
        return 1
    log_half, log_bound, top = math.log(x / 2.0), 0.0, 0
    while log_bound > _LOG_START_BOUND:  # M >= 3, since x/2 > TAIL
        top += 1
        log_bound += log_half - math.log(top)
    values = np.empty(top + 1)
    shifts = np.empty(top + 1, dtype=np.int64)  # values[m] is J_m * 2**-shifts[m]
    prev, cur, shift = 0.0, 1.0, 0
    for m in range(top, -1, -1):
        values[m], shifts[m] = cur, shift
        prev, cur = cur, 2.0 * m / x * cur - prev
        if abs(cur) > _RESCALE:
            prev, cur, shift = prev / _RESCALE, cur / _RESCALE, shift + 500
    values = np.ldexp(values, shifts - shift)  # the last scale; tiny orders go to 0
    small = np.append(np.abs(values) <= TAIL * abs(values[0] + 2.0 * values[2::2].sum()),
                      True)  # J_{top+1}, below 1e-40
    return int(np.flatnonzero(small[:-1] & small[1:])[0])
