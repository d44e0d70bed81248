"""Real Bessel function of the first kind, order 1.

Self-contained double-precision J1 (no scipy). Two zones:

* |x| <= 48        Taylor expansion about the nearest anchor on the
                   1/8 lattice 0, 1/8, ..., 48, so the local step t never
                   exceeds 1/16 (a direct ascending series loses ~5 digits
                   to cancellation by x ~ 15). Ten terms leave a
                   truncation of at most 3e-19: |c_m| <= 1/m!, and
                   (1/16)^10 / 10! is 2.5e-19. Every array within this
                   zone takes one index and ten gathers, with no masks.
                   48 covers the default grid's largest closed-form
                   argument, k 2 sqrt(2) = 44.4 at wavelength 0.4;
* |x| > 48         Hankel large-argument expansion, truncated where its
                   terms are far below double precision.

Row j of the 10 x 385 table holds the t^j coefficient of J1(a + t) at
every anchor a, each the double nearest its exact value (at anchor 0,
the exact Maclaurin series). It ships as j1_taylor.npy, which import
loads read-only. tests/test_specfun.py rebuilds all 3,850 coefficients
in 64-digit decimal arithmetic, from J1's series and the Bessel
equation's recurrence, checks the file against them bit for bit, and
names the command that writes the file from them.

J0 appears only in the quadrature oracle below.

``bessel_tail_order`` finds where the orders J_m(x) fall below a tail
level, by Miller's backward recurrence in plain doubles.

An independent trapezoid-rule quadrature of the integral representation

    J_n(x) = (1/pi) * integral_0^pi cos(n*tau - x*sin(tau)) dtau

serves as a brute-force oracle. It shares no code with the evaluation
path above, so tests can pit the two routes against each other.

Accuracy, measured: below 1.75, where the closed-form map has its zeros,
the error is at most 2 ulp against a 45-digit series; on [0, 48] the
absolute error is at most 1.1e-16 against a 40-digit reference, and on
(48, 1000] at most 1e-15, set by the rounded phase x - 3 pi/4 of the
Hankel expansion.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ASYMPTOTIC_CUTOFF = 48.0  # the last Taylor anchor; the Hankel expansion beyond
_STEP = 8  # anchors per unit argument
_ASYMPTOTIC_TERMS = 15  # terms of P and Q each

TAIL = 1e-16  # bessel_tail_order's level: below it a Bessel order is dropped
_LOG_START_BOUND = math.log(1e-40)  # bessel_tail_order starts where J_M is below this
_RESCALE = 2.0 ** 500

# Location of the first maximum of J1 as commonly tabulated to 4 decimals
# (the true extremum is at 1.84118378...). The 4-digit value is used for
# closed-form peak predictions so reported coordinates match tabulated ones.
J1_FIRST_MAX = 1.8412


# Loaded at import, not on the first call: a block taken by a first call made
# in the middle of a large computation can end up on top of the heap and keep
# it from shrinking (9 MB more peak RSS, measured in a process that checks
# three demo outputs).
_TABLE = np.load(Path(__file__).with_name("j1_taylor.npy"))
_TABLE.flags.writeable = False


def _hankel_coeffs(count: int) -> np.ndarray:
    # a_k = prod_{i=1..k} (4 - (2i-1)^2) / (k! 8^k), the order-1 coefficients
    a = np.empty(count)
    a[0] = 1.0
    for k in range(count - 1):
        a[k + 1] = a[k] * (4.0 - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    return a


_HANKEL_A1 = _hankel_coeffs(2 * _ASYMPTOTIC_TERMS + 1)


# ---------------------------------------------------------------------------
# Evaluation zones
# ---------------------------------------------------------------------------

def _taylor(ax: np.ndarray) -> np.ndarray:
    t = _STEP * ax
    np.rint(t, out=t)
    idx = t.astype(np.intp)
    t /= _STEP
    np.subtract(ax, t, out=t)  # exact: Sterbenz, or the anchor is 0
    # idx is in range, so mode="wrap" only skips the slower bounds check
    result = _TABLE[-1].take(idx, mode="wrap")
    for row in _TABLE[-2::-1]:
        result *= t
        result += row.take(idx, mode="wrap")
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
    ax = xa.ravel()
    neg = None
    if not ax.min(initial=0.0) >= 0.0:  # a negative argument, or NaN
        neg = ax < 0  # odd symmetry, exact; -0.0 keeps J1 = +0.0
        ax = np.abs(ax)
    top = ax.max(initial=0.0)
    if top <= ASYMPTOTIC_CUTOFF:
        out = _taylor(ax)
    elif not math.isfinite(top):
        raise ValueError("Bessel argument must be finite")
    else:
        out = np.empty_like(ax)
        large = ax > ASYMPTOTIC_CUTOFF
        near = ~large
        out[near] = _taylor(ax[near])
        out[large] = _hankel(ax[large])
    if neg is not None:
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

    Rounding sets a floor that more panels do not lower: the phase
    order*tau - x*sin(tau), up to a few hundred radians, rounds by up to
    ~1e-14 at each node. The absolute error stays near 1e-16 at order 1
    and reaches 1e-16 to 4e-16 for orders 50-265 at x from 22 to 200
    (J_151(100) is 3.4e-16 off at 16384 panels).
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
