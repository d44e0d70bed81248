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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (ObservationSet, Scene, WaveContext, contrast_factor,
                    make_observation_set, scene_config_document)

# The noise-to-signal power ratio 10 ** (-snr_db / 10) is a finite double
# exactly when snr_db lies above -10 log10(DBL_MAX) = -3082.547... dB.
SNR_DB_FLOOR = -10.0 * math.log10(np.finfo(float).max)


@dataclass(frozen=True)
class FarFieldData:
    """Complex far-field samples; sample n is taken at direction n of the
    ``observation_set`` that their count N fixes."""

    samples: np.ndarray
    observation_set: ObservationSet = field(init=False)

    def __post_init__(self):
        s = np.array(self.samples, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or not np.all(np.isfinite(s)):
            raise ValueError("far-field samples must be a finite 1-D array")
        object.__setattr__(self, "observation_set", make_observation_set(s.size))


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


def noise_document(spec: NoiseSpec) -> dict:
    """``spec`` as JSON: an infinite SNR (no noise) is written ``"inf"``."""
    return {"snr_db": "inf" if spec.snr_db == math.inf else spec.snr_db,
            "seed": spec.seed}


def unit_scaled(samples: np.ndarray) -> tuple:
    """``(samples * 2**-e, e)``, with the largest real or imaginary part of
    the scaled samples in [0.5, 1).

    A power-of-two factor is exact, so sums and products of the scaled
    samples are the originals' times a power of two, bit for bit, while
    their squares can neither overflow nor underflow to zero.
    """
    e = int(np.frexp(max(np.max(np.abs(samples.real)),
                         np.max(np.abs(samples.imag))))[1])
    scaled = np.empty_like(samples)
    scaled.real = np.ldexp(samples.real, -e)
    scaled.imag = np.ldexp(samples.imag, -e)
    return scaled, e


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
    # k|x_m| or an amplitude past the double range gives inf or NaN samples,
    # which FarFieldData rejects: numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for inc in scene.inclusions:
            angular = 2.0 * contrast_factor(inc.permeability, mu0) * d_theta
            theta_x = np.matmul(theta, inc.center[:, np.newaxis])[:, 0, 0]
            phase = np.exp(1j * k * float(np.dot(d, inc.center)) - 1j * k * theta_x)
            total += inc.radius ** 2 * math.pi * angular * phase
        prefactor = -(k * k) * (1.0 + 1.0j) / (4.0 * math.sqrt(k * math.pi))
        samples = np.empty(obs.count, dtype=complex)
        samples.real = prefactor.real * total.real - prefactor.imag * total.imag
        samples.imag = prefactor.real * total.imag + prefactor.imag * total.real
    if not samples.any():
        raise ValueError("far field is zero in every direction: the "
                         "amplitude underflows, or d is normal to every theta")
    return FarFieldData(samples)


def add_noise(data: FarFieldData, spec: NoiseSpec) -> FarFieldData:
    """Perturb samples with circular complex Gaussian noise at exact SNR.

    Noise is drawn i.i.d. per sample (real and imaginary parts in index
    order from the seeded stream) and then rescaled so that
    10*log10(||data||^2 / ||noise||^2) equals ``spec.snr_db`` exactly.
    The powers are taken on ``unit_scaled`` samples, so data anywhere in
    the double range work and scaling the data by 2**j scales the noisy
    result by 2**j, bit for bit. An infinite SNR returns ``data`` itself.
    """
    if spec.snr_db == math.inf:
        return data
    scaled, e = unit_scaled(data.samples)
    signal_power = float(np.sum(np.abs(scaled) ** 2))  # times 4**-e, exactly
    if signal_power == 0.0:
        raise ValueError("SNR is undefined for all-zero data")
    rng = np.random.default_rng(spec.seed)
    draws = rng.standard_normal((data.observation_set.count, 2))
    noise = draws[:, 0] + 1j * draws[:, 1]
    raw_power = float(np.sum(np.abs(noise) ** 2))
    target_power = signal_power * 10.0 ** (-spec.snr_db / 10.0)  # times 4**-e
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        noise *= np.ldexp(math.sqrt(target_power / raw_power), e)
        samples = data.samples + noise
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"noise power overflows at {spec.snr_db} dB")
    return FarFieldData(samples)


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

    meta = {"num_observation_directions": data.observation_set.count}
    if wave is not None:
        meta["wavelength"] = wave.wavelength
    if scene is not None and wave is not None:
        meta["scene"] = scene_config_document(scene, wave, data.observation_set)
    if noise is not None:
        meta["noise"] = noise_document(noise)
    sidecar = csv_path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def read_far_field(csv_path):
    """Load far-field CSV (+ sidecar if present); lossless round trip.

    Returns ``(FarFieldData, metadata_dict)``; the metadata dict is empty
    when no sidecar file exists. A ``ValueError`` names the bad file.
    """
    csv_path = Path(csv_path)
    try:
        rows = csv_path.read_text().strip().splitlines()
        if not rows or rows[0] != CSV_HEADER:
            raise ValueError(f"expected header '{CSV_HEADER}'")
        values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        if values.shape[0] == 0:
            raise ValueError("no samples")
        if values.shape[1:] != (5,) or not np.all(np.isfinite(values)):
            raise ValueError("every row needs 5 finite values")
        data = FarFieldData(values[:, 3] + 1j * values[:, 4])
        if not np.allclose(values[:, 1:3], data.observation_set.directions, atol=1e-12):
            raise ValueError(f"directions are not the uniform {len(values)}-point set")
    except ValueError as exc:  # also undecodable bytes
        raise ValueError(f"{csv_path}: {exc}") from exc

    meta = {}
    sidecar = csv_path.with_suffix(".json")
    try:
        if sidecar.exists():
            meta = json.loads(sidecar.read_text())
        if not isinstance(meta, dict):
            raise ValueError("sidecar must be a JSON object")
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc
    return data, meta
