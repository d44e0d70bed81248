"""Bessel implementations against the independent quadrature oracle."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


def test_import_builds_no_table_and_imports_no_decimal(fresh_python):
    # The Taylor table is built on the first J1 call, in double-double
    # arithmetic: importing the package does neither.
    probe = ("import sys; import dsm2d; from dsm2d import specfun; "
             "print('decimal' in sys.modules, specfun._taylor_table.cache_info().currsize); "
             "specfun.bessel_j1(1.0); "
             "print('decimal' in sys.modules, specfun._taylor_table.cache_info().currsize)")
    assert fresh_python(probe).split() == ["False", "0", "False", "1"]


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


# ---------------------------------------------------------------------------
# The Taylor table against a decimal reference
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


@functools.cache
def _reference_table(terms: int) -> np.ndarray:
    # The package's anchors a = i/8 up to 48, each coefficient the double
    # nearest its 64-digit value. J1(a) and J1'(a) come from 240 Maclaurin
    # terms: the first one left out is below 1e-60 at a = 48, where the sum
    # cancels about 20 of the 64 digits.
    table = np.empty((terms, 8 * int(ASYMPTOTIC_CUTOFF) + 1))
    with localcontext() as ctx:
        ctx.prec = 64
        series = _taylor_coeffs_j1(Decimal(0), Decimal(0), Decimal(1) / 2, 240)
        for col in range(table.shape[1]):
            a = Decimal(col) / 8
            q = a * a
            j1a = dj1a = Decimal(0)
            for m in range(len(series) - 1, 0, -2):  # J1 is odd: Horner in a^2
                j1a = j1a * q + series[m]
                dj1a = dj1a * q + m * series[m]
            j1a *= a
            table[:, col] = [float(v) for v in _taylor_coeffs_j1(a, j1a, dj1a, terms)]
    return table


def _horner(table: np.ndarray, ax: np.ndarray) -> np.ndarray:
    # Reference: Horner over a gathered (n, terms) coefficient matrix.
    idx = np.rint(8.0 * ax).astype(int)
    coeffs = table.T[idx]
    t = ax - idx / 8.0
    want = coeffs[:, -1].copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        want = want * t + coeffs[:, j]
    return want


def test_every_taylor_coefficient_is_the_nearest_double():
    from dsm2d.specfun import _taylor_table

    table = _taylor_table()
    assert table.tobytes() == _reference_table(table.shape[0]).tobytes()
    assert not np.any(table[::2, 0])  # anchor 0: J1 is odd, even terms are 0.0


def test_taylor_zone_matches_row_gather_horner_bitwise():
    from dsm2d.specfun import _taylor, _taylor_table

    ax = np.random.default_rng(11).uniform(0.0, ASYMPTOTIC_CUTOFF, size=5000)
    assert np.array_equal(_taylor(ax), _horner(_taylor_table(), ax))


def test_taylor_zone_rounds_like_the_26_term_series():
    # Terms 10 to 25 sum to at most 3e-19 for |t| <= 1/16, far below an
    # ulp: they tip the rounding only at near-ties, 197 of these 1.2 million
    # points (12 terms would tip none), each time by at most 2^-53, one ulp
    # of J1's largest values.
    from dsm2d.specfun import _taylor

    lo, hi = 0.0, ASYMPTOTIC_CUTOFF
    anchors = np.arange(8 * int(hi) + 1) / 8.0
    edges = np.concatenate([anchors - 1 / 16, anchors + 1 / 16])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
    ax = np.concatenate([np.linspace(lo, hi, 600_001),
                         np.random.default_rng(3).uniform(lo, hi, 600_000),
                         edges[(edges >= lo) & (edges <= hi)]])
    got, want = _taylor(ax), _horner(_reference_table(26), ax)
    assert np.count_nonzero(got != want) <= ax.size // 4000
    assert np.max(np.abs(got - want)) <= 2.0 ** -53


def test_every_taylor_anchor_is_reachable():
    # one column per anchor 0, 1/8, ..., 48; the last one is J1(48) itself
    from dsm2d.specfun import _taylor_table

    table = _taylor_table()
    assert table.shape == (10, 8 * ASYMPTOTIC_CUTOFF + 1)
    assert bessel_j1(ASYMPTOTIC_CUTOFF) == table[0, -1]
    assert bessel_j1(np.nextafter(ASYMPTOTIC_CUTOFF, np.inf)) != table[0, -1]


def test_j1_is_within_1_5e_16_up_to_48_and_past_it():
    # Against a decimal series on 22,000 points: [0, 48] and the Hankel
    # handover at 48, both sides.
    rng = np.random.default_rng(29)
    xs = np.concatenate([np.linspace(0.0, ASYMPTOTIC_CUTOFF, 10_001),
                         rng.uniform(0.0, ASYMPTOTIC_CUTOFF, 8_000),
                         rng.uniform(47.5, 48.5, 3_999), [ASYMPTOTIC_CUTOFF]])
    got = bessel_j1(xs)
    worst = max(abs(float(Decimal(value) - _jn_series(1, x)))
                for x, value in zip(xs.tolist(), got.tolist()))
    assert worst <= 1.5e-16


_WITHIN = st.floats(-ASYMPTOTIC_CUTOFF, ASYMPTOTIC_CUTOFF)
_BEYOND = st.floats(ASYMPTOTIC_CUTOFF, 1e6, exclude_min=True)


@given(st.lists(_WITHIN, min_size=1, max_size=40),
       st.lists(st.tuples(_BEYOND, st.booleans()), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_j1_of_an_array_is_j1_of_each_element(within, beyond, rng):
    # One index and ten gathers for arrays at or below 48, the zone split
    # for arrays that straddle it: either way the values are elementwise.
    straddle = within + [-x if negate else x for x, negate in beyond]
    rng.shuffle(straddle)
    for xs in (within, straddle):
        alone = np.array([bessel_j1(x) for x in xs])
        assert bessel_j1(np.array(xs)).tobytes() == alone.tobytes()


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
