"""Bessel implementations against the independent quadrature oracle."""

import math

import numpy as np
import pytest

from dsm2d.specfun import (ASYMPTOTIC_CUTOFF, MACLAURIN_CUTOFF, bessel_j1,
                           bessel_j_oracle)

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


def test_global_bounds():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1000.0, 1000.0, size=4000)
    assert np.all(np.abs(bessel_j1(xs)) <= 0.59)


def test_taylor_zone_matches_row_gather_horner_bitwise():
    # Reference: Horner over a gathered (n, terms) coefficient matrix.
    from dsm2d.specfun import _ANCHORS, _TAYLOR_J1, _taylor

    ax = np.random.default_rng(11).uniform(1.75, 18.25, size=5000)
    idx = np.clip(np.rint(2.0 * ax).astype(int) - 4, 0, len(_ANCHORS) - 1)
    coeffs = _TAYLOR_J1.T[idx]
    want = coeffs[:, -1].copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        want = want * (ax - _ANCHORS[idx]) + coeffs[:, j]
    assert np.array_equal(_taylor(ax), want)


def _taylor_reference(ax, terms=26):
    # Horner over 26-term tables, built the way specfun builds its own.
    from decimal import Decimal, localcontext

    from dsm2d.specfun import (_ANCHOR_HALF_STEPS, _ANCHORS,
                               _decimal_maclaurin, _taylor_coeffs_j1)

    table = np.empty((terms, len(_ANCHORS)))
    with localcontext() as ctx:
        ctx.prec = 50
        for col, half_steps in enumerate(_ANCHOR_HALF_STEPS):
            a = Decimal(int(half_steps)) / 2
            j0a, j1a = _decimal_maclaurin(0, a), _decimal_maclaurin(1, a)
            table[:, col] = [float(v) for v in _taylor_coeffs_j1(a, j0a, j1a, terms)]
    idx = np.clip(np.rint(2.0 * ax).astype(int) - _ANCHOR_HALF_STEPS[0],
                  0, len(_ANCHORS) - 1)
    t = ax - _ANCHORS[idx]
    want = table[-1][idx]
    for j in range(terms - 2, -1, -1):
        want = want * t + table[j][idx]
    return want


def test_taylor_zone_is_bitwise_the_26_term_series():
    # Terms 16 to 25 stay below 2.2e-24 for |t| <= 0.25 and leave every
    # rounded result as it was.
    from dsm2d.specfun import _ANCHORS, _taylor

    lo, hi = MACLAURIN_CUTOFF, ASYMPTOTIC_CUTOFF
    edges = np.concatenate([_ANCHORS - 0.25, _ANCHORS + 0.25])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
    ax = np.concatenate([np.linspace(lo, hi, 600_001),
                         np.random.default_rng(3).uniform(lo, hi, 600_000),
                         edges[(edges >= lo) & (edges <= hi)]])
    assert _taylor(ax).tobytes() == _taylor_reference(ax).tobytes()


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
