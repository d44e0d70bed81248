"""Bessel implementations against the independent quadrature oracle."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dsm2d.specfun import (ASYMPTOTIC_CUTOFF, bessel_j1, bessel_j_oracle,
                           bessel_tail_order)

# J1(1.8412) frozen from bessel_j_oracle(1, 1.8412, 1 << 16); the argument
# is the tabulated location of J1's first maximum.
J1_AT_PEAK = 0.5818652242276432


def test_j1_at_zero():
    assert bessel_j1(0.0) == 0.0


def test_j1_global_max_value():
    assert bessel_j1(1.8412) == pytest.approx(J1_AT_PEAK, abs=1e-10)


def test_j1_odd_symmetry_exact():
    for x in (1.8412, 0.3, 7.7, 123.456):
        assert bessel_j1(-x) == -bessel_j1(x)


def test_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_j1(bad)


def test_vectorized_matches_scalar():
    xs = np.linspace(-40.0, 40.0, 257)
    v1 = bessel_j1(xs)
    for i, x in enumerate(xs):
        assert v1[i] == bessel_j1(float(x))


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def test_oracle_at_zero():
    assert abs(bessel_j_oracle(1, 0.0, panels=64)) < 1e-12
    assert bessel_j_oracle(0, 0.0, panels=64) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_few_panels():
    with pytest.raises(ValueError):
        bessel_j_oracle(1, 1.0, panels=32)


def test_oracle_panel_doubling_converged():
    for x in (1.8412, 9.3, 37.0):
        a = bessel_j_oracle(1, x, panels=4096)
        b = bessel_j_oracle(1, x, panels=8192)
        assert abs(a - b) < 1e-12


def test_oracle_agrees_at_peak():
    assert abs(bessel_j1(1.8412) - bessel_j_oracle(1, 1.8412, panels=4096)) < 1e-10


def test_oracle_agrees_high_argument():
    assert abs(bessel_j1(100.0) - bessel_j_oracle(1, 100.0, panels=65536)) < 1e-8


def test_oracle_agreement_random_sample():
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-200.0, 200.0, size=1000)
    worst = max(abs(bessel_j1(float(x)) - bessel_j_oracle(1, float(x), 1 << 16))
                for x in xs)
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Classical identities, with the oracle supplying J0 and J2
# ---------------------------------------------------------------------------

def test_recurrence_residual():
    xs = np.logspace(math.log10(0.1), math.log10(500.0), 40)
    for x in xs:
        j2 = bessel_j_oracle(2, float(x), 1 << 15)
        j0 = bessel_j_oracle(0, float(x), 1 << 15)
        residual = j0 + j2 - (2.0 / x) * bessel_j1(float(x))
        assert abs(residual) < 1e-9


def test_derivative_identity():
    h = 1e-5
    for x in (0.5, 1.8412, 3.0, 12.0, 14.49, 14.51, 25.0, 130.0):
        j0_prime = (bessel_j_oracle(0, x + h) - bessel_j_oracle(0, x - h)) / (2.0 * h)
        assert abs(j0_prime + bessel_j1(x)) < 1e-8


def test_import_keeps_the_callers_decimal_precision(fresh_python):
    # The 50-digit Taylor tables are built in a local decimal context.
    probe = ("import decimal; decimal.getcontext().prec = 7; import dsm2d; "
             "print(decimal.getcontext().prec)")
    assert fresh_python(probe).strip() == "7"


def test_j1_at_huge_arguments_is_finite_and_warning_free():
    # 1/(x*x) and pi*x overflow on the way; both go to their limit 0, and
    # the RuntimeWarning filter of the test suite fails any numpy warning.
    for x in (1e155, 1e300, 1.7e308):
        value = bessel_j1(x)
        assert math.isfinite(value)
        assert abs(value) <= math.sqrt(2.0 / math.pi) / math.sqrt(x)
        assert bessel_j1(-x) == -value


def test_global_bounds():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1000.0, 1000.0, size=4000)
    assert np.all(np.abs(bessel_j1(xs)) <= 0.59)


def test_taylor_zone_matches_row_gather_horner_bitwise():
    # Reference: Horner over a gathered (n, terms) coefficient matrix.
    from dsm2d.specfun import _ANCHORS, _TAYLOR_J1, _taylor

    ax = np.random.default_rng(11).uniform(0.0, ASYMPTOTIC_CUTOFF, size=5000)
    idx = np.rint(2.0 * ax).astype(int)
    coeffs = _TAYLOR_J1.T[idx]
    want = coeffs[:, -1].copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        want = want * (ax - _ANCHORS[idx]) + coeffs[:, j]
    assert np.array_equal(_taylor(ax), want)


def _taylor_reference(ax, terms=26):
    # Horner over 26-term tables from the package's own builder.
    from dsm2d.specfun import _ANCHORS, _build_taylor_tables

    table = _build_taylor_tables(terms)
    idx = np.rint(2.0 * ax).astype(int)
    t = ax - _ANCHORS[idx]
    want = table[-1][idx]
    for j in range(terms - 2, -1, -1):
        want = want * t + table[j][idx]
    return want


def test_taylor_zone_is_bitwise_the_26_term_series():
    # Terms 16 to 25 stay below 2.2e-24 for |t| <= 0.25 and leave every
    # rounded result as it was.
    from dsm2d.specfun import _ANCHORS, _taylor

    lo, hi = 0.0, ASYMPTOTIC_CUTOFF
    edges = np.concatenate([_ANCHORS - 0.25, _ANCHORS + 0.25])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
    ax = np.concatenate([np.linspace(lo, hi, 600_001),
                         np.random.default_rng(3).uniform(lo, hi, 600_000),
                         edges[(edges >= lo) & (edges <= hi)]])
    assert _taylor(ax).tobytes() == _taylor_reference(ax).tobytes()


def test_every_taylor_anchor_is_reachable():
    from dsm2d.specfun import _TAYLOR_J1

    assert _TAYLOR_J1.shape[1] == np.rint(2.0 * ASYMPTOTIC_CUTOFF) + 1


def _j1_maclaurin_45_digits(x: float) -> Decimal:
    # sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!), to 45 significant digits
    with localcontext() as ctx:
        ctx.prec = 45
        half = Decimal(x) / 2
        term = total = half
        k = 1
        while abs(term) > abs(total) * Decimal("1e-46"):
            term = -term * half * half / (k * (k + 1))
            total += term
            k += 1
        return total


def test_j1_near_zero_is_within_two_ulp():
    # The closed-form map sits at J1(0) = 0 at every center, so the
    # arguments below 1.75 carry the paper's zero.
    xs = np.concatenate([np.random.default_rng(17).uniform(0.0, 1.75, 20_000),
                         np.logspace(-300.0, math.log10(1.75), 2_000,
                                     endpoint=False)])
    got = bessel_j1(xs)
    worst_abs = worst_ulp = 0.0
    for x, value in zip(xs.tolist(), got.tolist()):
        exact = _j1_maclaurin_45_digits(x)
        error = abs(Decimal(value) - exact)
        worst_abs = max(worst_abs, float(error))
        worst_ulp = max(worst_ulp, float(error / Decimal(np.spacing(float(exact)))))
    assert worst_abs <= 2.0 ** -52
    assert worst_ulp <= 2.0


def test_j1_negative_arguments_are_bitwise_negated():
    x = np.concatenate([np.linspace(0.0, 60.0, 20_001)[1:],
                        np.random.default_rng(5).uniform(0.0, 1000.0, 20_000)])
    assert bessel_j1(-x).tobytes() == (-bessel_j1(x)).tobytes()
    mixed = np.array([-0.0, 0.0, -2.5, 2.5, -30.0])
    got = bessel_j1(mixed)
    assert got[:2].tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0
    assert got[2:].tobytes() == np.array([-bessel_j1(2.5), bessel_j1(2.5),
                                          -bessel_j1(30.0)]).tobytes()
    assert math.copysign(1.0, bessel_j1(-0.0)) == 1.0


# ---------------------------------------------------------------------------
# Tail order
# ---------------------------------------------------------------------------

def _jn_series(order: int, x: float) -> Decimal:
    # sum_k (-1)^k (x/2)^(2k+n) / (k! (k+n)!) with enough digits that the
    # cancellation of terms up to e^x leaves 20 or more below 1e-16
    with localcontext() as ctx:
        ctx.prec = int(0.44 * x) + 40
        half = Decimal(x) / 2
        term = half ** order / math.factorial(order)
        total, k = term, 1
        while k <= x or abs(term) > Decimal("1e-60"):
            term = -term * half * half / (k * (k + order))
            total += term
            k += 1
        return total


@pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 10.0, 22.2, 35.6, 44.4, 71.3,
                               100.0, 150.5, 200.0])
def test_tail_order_is_the_first_order_past_the_tail(x):
    # |J_L| and |J_{L+1}| are at most 1e-16 and |J_{L-1}| is not, by an
    # exact series. Near 1e-16 the quadrature oracle is off by a few 1e-16
    # (the phase n tau - x sin tau rounds), so it checks the series at an
    # order where J is large instead.
    order = bessel_tail_order(x)
    tail = [abs(_jn_series(m, x)) for m in (order - 1, order, order + 1)]
    assert tail[0] > Decimal("1e-16") >= max(tail[1:])
    mid = round(x / 2)
    assert abs(float(_jn_series(mid, x)) - bessel_j_oracle(mid, x, 8192)) < 1e-12


def test_tail_order_of_tiny_and_large_arguments():
    # J_0 stays near 1 while J_1 <= x/2 and J_2 fall under the tail: L = 1
    for x in (0.0, 5e-324, 1e-300, 2e-16):
        assert bessel_tail_order(x) == 1
    assert bessel_tail_order(3e-16) == 2
    # L - x grows like x^(1/3); the 2^-500 rescaling keeps every value finite
    for x in (1e3, 1e4):
        assert x < bessel_tail_order(x) < x + 12.0 * x ** (1 / 3)


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_tail_order_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        bessel_tail_order(bad)
