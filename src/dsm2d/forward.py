"""Far-field synthesis from the small-inclusion expansion, plus noise.

For well-separated inclusions that are small against the wavelength, the
far-field pattern of the scattered wave reduces to a closed-form sum over
inclusions: each contributes a dipole-like angular factor d.M.theta, a
polarizability scalar set by the permeability contrast, and plane-wave
phase factors carrying its position. This module evaluates that sum
directly, for all observation directions in one vectorized pass with a
short loop over inclusions; no PDE is solved.

Synthetic data can be perturbed with circular complex Gaussian noise
calibrated to an exact signal-to-noise ratio in dB. Serialization is a
CSV of complex samples with a JSON sidecar holding scene/wave metadata;
values are printed with 17 significant digits so a reload is lossless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (ObservationSet, Scene, WaveContext, make_observation_set,
                    scene_config_document)

# The noise-to-signal power ratio 10 ** (-snr_db / 10) is a finite double
# exactly when snr_db lies above -10 log10(DBL_MAX) = -3082.547... dB.
SNR_DB_FLOOR = -10.0 * math.log10(np.finfo(float).max)


@dataclass(frozen=True)
class FarFieldData:
    """Complex far-field samples, one per observation direction."""

    observation_set: ObservationSet
    incident_direction: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        d = np.array(self.incident_direction, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "incident_direction", d)
        s = np.array(self.samples, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        if self.samples.shape != (self.observation_set.count,):
            raise ValueError("need exactly one sample per observation direction")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("far-field samples must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive-noise request: target SNR in dB and an RNG seed.

    ``snr_db = math.inf`` disables noise entirely; values at or below
    ``SNR_DB_FLOOR`` (and NaN) are rejected. The seed feeds a
    PCG64 generator (numpy default_rng), which has a documented, portable
    stream; run outputs are reproducible across platforms.
    """

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if not self.snr_db > SNR_DB_FLOOR:
            raise ValueError(f"snr_db must be a number above {SNR_DB_FLOOR:.3f} dB, "
                             f"got {self.snr_db!r}")


def contrast_factor(mu_m: float, mu_0: float) -> float:
    """Per-inclusion contrast weight mu_0 / (mu_m + mu_0).

    The polarizability tensor of a small disk is twice this weight times
    the identity, so d.M.theta = 2 * weight * (d.theta); the closed-form
    indicator uses the weight itself. Monotone decreasing in mu_m:
    very-high-contrast inclusions scatter weakly and fade from the
    indicator map.
    """
    if not (mu_m > 0) or not (mu_0 > 0):
        raise ValueError("permeabilities must be positive")
    return mu_0 / (mu_m + mu_0)


def synthesize_far_field(scene: Scene, wave: WaveContext,
                         obs: ObservationSet) -> FarFieldData:
    """Noise-free far-field samples at every observation direction theta_n.

    psi(d, theta) = -(k^2 (1+i) / (4 sqrt(k pi)))
                    * sum_m r_m^2 * pi * factor_m * (d.theta)
                    * exp(i k d.x_m) * exp(-i k theta.x_m)

    with factor_m = 2 * contrast_factor(mu_m, mu_0) and pi the unit-disk area.
    """
    k = wave.wavenumber
    d = wave.incident_direction
    theta = obs.directions[:, np.newaxis, :]
    # matmul sends each 2-element dot to np.dot's kernel, and the prefactor
    # is applied in real arithmetic, so every sample rounds exactly as the
    # scalar expression of the sum for that one direction does.
    d_theta = np.matmul(theta, d[:, np.newaxis])[:, 0, 0]
    mu0 = scene.background_permeability
    total = np.zeros(obs.count, dtype=complex)
    for inc in scene.inclusions:
        angular = 2.0 * contrast_factor(inc.permeability, mu0) * d_theta
        theta_x = np.matmul(theta, inc.center[:, np.newaxis])[:, 0, 0]
        phase = np.exp(1j * k * float(np.dot(d, inc.center)) - 1j * k * theta_x)
        total += inc.radius ** 2 * math.pi * angular * phase
    prefactor = -(k * k) * (1.0 + 1.0j) / (4.0 * math.sqrt(k * math.pi))
    samples = np.empty(obs.count, dtype=complex)
    samples.real = prefactor.real * total.real - prefactor.imag * total.imag
    samples.imag = prefactor.real * total.imag + prefactor.imag * total.real
    return FarFieldData(observation_set=obs,
                        incident_direction=wave.incident_direction,
                        samples=samples)


def add_noise(data: FarFieldData, spec: NoiseSpec) -> FarFieldData:
    """Perturb samples with circular complex Gaussian noise at exact SNR.

    Noise is drawn i.i.d. per sample (real and imaginary parts in index
    order from the seeded stream) and then rescaled so that
    10*log10(||data||^2 / ||noise||^2) equals ``spec.snr_db`` exactly.
    An infinite SNR returns the data unchanged, bit for bit.
    """
    if spec.snr_db == math.inf:
        return FarFieldData(observation_set=data.observation_set,
                            incident_direction=data.incident_direction,
                            samples=data.samples)
    signal_power = float(np.sum(np.abs(data.samples) ** 2))
    if signal_power == 0.0:
        raise ValueError("SNR is undefined for all-zero data")
    rng = np.random.default_rng(spec.seed)
    draws = rng.standard_normal((data.observation_set.count, 2))
    noise = draws[:, 0] + 1j * draws[:, 1]
    raw_power = float(np.sum(np.abs(noise) ** 2))
    target_power = signal_power * 10.0 ** (-spec.snr_db / 10.0)
    if not math.isfinite(target_power):
        raise ValueError(f"noise power overflows at {spec.snr_db} dB "
                         f"for signal power {signal_power:.6g}")
    noise *= math.sqrt(target_power / raw_power)
    return FarFieldData(observation_set=data.observation_set,
                        incident_direction=data.incident_direction,
                        samples=data.samples + noise)


def achieved_snr_db(clean: FarFieldData, noisy: FarFieldData) -> float:
    """SNR in dB of ``noisy`` relative to ``clean`` (recomputed from norms)."""
    eta = noisy.samples - clean.samples
    return 10.0 * math.log10(float(np.sum(np.abs(clean.samples) ** 2))
                             / float(np.sum(np.abs(eta) ** 2)))


# ---------------------------------------------------------------------------
# Serialization: CSV of samples + JSON sidecar with metadata
# ---------------------------------------------------------------------------

CSV_HEADER = "n,theta_x,theta_y,re,im"


def write_far_field(data: FarFieldData, csv_path, *,
                    scene: Scene = None, wave: WaveContext = None,
                    noise: NoiseSpec = None) -> None:
    """Write samples as CSV plus a JSON sidecar next to it.

    The sidecar path is the CSV path with extension replaced by ``.json``.
    All floats are printed with %.17g, so reading back reproduces the
    exact doubles.
    """
    csv_path = Path(csv_path)
    lines = [CSV_HEADER]
    for n, (theta, s) in enumerate(zip(data.observation_set.directions,
                                       data.samples), start=1):
        lines.append(f"{n},{theta[0]:.17g},{theta[1]:.17g},"
                     f"{s.real:.17g},{s.imag:.17g}")
    csv_path.write_text("\n".join(lines) + "\n")

    meta = {
        "num_observation_directions": data.observation_set.count,
        "incident_direction": [float(v) for v in data.incident_direction],
    }
    if wave is not None:
        meta["wavelength"] = wave.wavelength
        meta["wavenumber"] = wave.wavenumber
    if scene is not None and wave is not None:
        meta["scene"] = scene_config_document(
            scene, wave, data.observation_set)
    if noise is not None:
        meta["noise"] = {"snr_db": ("inf" if noise.snr_db == math.inf
                                    else noise.snr_db),
                         "seed": noise.seed}
    sidecar = csv_path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def read_far_field(csv_path):
    """Load far-field CSV (+ sidecar if present); lossless round trip.

    Returns ``(FarFieldData, metadata_dict)``; the metadata dict is empty
    when no sidecar file exists.
    """
    csv_path = Path(csv_path)
    rows = csv_path.read_text().strip().splitlines()
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{csv_path}: expected header '{CSV_HEADER}'")
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    if values.shape[0] == 0:
        raise ValueError(f"{csv_path}: no samples")
    count = values.shape[0]
    obs = make_observation_set(count)
    if not np.allclose(values[:, 1:3], obs.directions, atol=1e-12):
        raise ValueError(f"{csv_path}: directions are not the uniform "
                         f"{count}-point set")
    samples = values[:, 3] + 1j * values[:, 4]

    meta = {}
    sidecar = csv_path.with_suffix(".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    incident = np.asarray(meta.get("incident_direction", [1.0, 0.0]), dtype=float)
    data = FarFieldData(observation_set=obs, incident_direction=incident,
                        samples=samples)
    return data, meta
