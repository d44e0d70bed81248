"""Correlation indicator, its closed Bessel form, and peak predictions.

The indicator correlates measured far-field samples against the test
vector exp(-i*k*theta_n . x_s) at each sampling point x_s and normalizes
by both norms, so its value lies in [0, 1]; the per-point oracle
``dsm_indicator_raw`` builds that test vector itself. For data following
the small-inclusion expansion and enough observation directions, the
sampled correlation collapses to a closed form: each inclusion contributes

    r_m^2 * (mu_0 / (mu_m + mu_0)) * exp(i k d.x_m)
        * ((x_m - x_s)/|x_m - x_s| . d) * J1(k |x_m - x_s|)

and the indicator is the modulus of the sum, normalized by its maximum.
Because J1(0) = 0, the map dips to zero AT each true center and peaks on
either side of it along the incident direction, at distance 1.8412/k --
the argument of J1's first maximum. The peak predictor returns those
offset locations in closed form.

The per-inclusion phase exp(i k d.x_m) is kept inside the sum: it is
what the correlation of multi-inclusion data actually produces, and
dropping it would change the interference pattern between inclusions
(for a single inclusion it is a global phase with no effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import FarFieldData
from .model import Scene, WaveContext, contrast_factor
from .specfun import J1_FIRST_MAX, bessel_j1


@dataclass(frozen=True)
class PeakPrediction:
    """Predicted indicator-peak pair for one inclusion.

    The two positions sit at x_m -/+ offset_radius * d, so each satisfies
    k*|x_m - p| = 1.8412 with (x_m - p)/|x_m - p| = +/- d.
    """

    inclusion_index: int
    positions: tuple
    offset_radius: float


def dsm_indicator_raw(data: FarFieldData, k: float, point) -> float:
    """Normalized correlation |<psi, e>| / (||psi|| ||e||), in [0, 1], with
    <f, g> = sum_n f[n] * conj(g[n]) and e_n = exp(-i*k*theta_n . x_s).

    Norms are sqrt of the self inner product, which is what makes the
    Cauchy-Schwarz bound (and hence the [0, 1] range) hold.
    """
    psi = data.samples
    e = np.exp(-1j * k * (data.observation_set.directions
                          @ np.asarray(point, dtype=float)))
    denom = (math.sqrt(abs(np.sum(psi * np.conj(psi))))
             * math.sqrt(abs(np.sum(e * np.conj(e)))))
    if denom == 0.0:
        raise ValueError("indicator undefined for all-zero data")
    return float(abs(np.sum(psi * np.conj(e)))) / denom


def closed_form_magnitude(scene: Scene, wave: WaveContext, point) -> float:
    """Closed-form indicator magnitude (up to one global constant).

    Modulus of the coherent inclusion sum described in the module
    docstring. The x_s = x_m term is defined as 0: J1 vanishes linearly
    at 0, so the singular unit vector is removable.
    """
    pos = np.asarray(point, dtype=float)
    k = wave.wavenumber
    d = wave.incident_direction
    mu0 = scene.background_permeability
    total = 0.0 + 0.0j
    for inc in scene.inclusions:
        dx = inc.center - pos
        dist = float(np.hypot(dx[0], dx[1]))
        if dist == 0.0:
            continue
        contrast = contrast_factor(inc.permeability, mu0)
        directional = float(np.dot(dx, d)) / dist
        phase = np.exp(1j * k * float(np.dot(d, inc.center)))
        total += inc.radius ** 2 * contrast * directional * phase * bessel_j1(k * dist)
    return abs(total)


def predicted_peaks(scene: Scene, wave: WaveContext) -> list:
    """Closed-form peak pair x_m -/+ (1.8412/k)*d for every inclusion."""
    rho = J1_FIRST_MAX / wave.wavenumber
    d = wave.incident_direction
    out = []
    for m, inc in enumerate(scene.inclusions):
        lo = inc.center - rho * d
        hi = inc.center + rho * d
        out.append(PeakPrediction(inclusion_index=m, positions=(lo, hi),
                                  offset_radius=rho))
    return out
