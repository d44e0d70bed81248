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

The CSV is written without ``savetxt``, in chunks of ``BAND_NODES // 4``
rows (four floats a row). Each chunk is a matrix of NUL-padded uint32 words:
two for ``n,``, then eight per float (a sign word, six digit words, and
``,`` or ``\n`` as the end word) from ``_value_words``, which gives the
bytes of Python's ``%.17g`` by exact integer arithmetic where
1e-4 <= |x| < 1 and leaves other values to Python. The NULs are dropped
and the rest is written as it is. The map export uses the same kernel.
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
BAND_NODES = 2 ** 16  # CSV rows or nodes, or closed-form terms, per work unit

# Tables for exact %.17g, built from bytes so byte order does not matter:
# "0." to "0.000" plus a leading digit; 4-digit groups, full and zero-stripped.
_U32, _M32, _ONE, _E8 = (np.uint64(k) for k in (32, 2 ** 32 - 1, 1, 10 ** 8))
_POW5 = np.array([5 ** 17, 5 ** 18, 5 ** 19, 5 ** 20], dtype=np.uint64)
_LEAD = np.array([p + bytes([d]) for p in (b"0.", b"0.0", b"0.00", b"0.000")
                  for d in b"0123456789"], "S8").view(np.uint32).reshape(40, 2)
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + np.uint8(48)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_GROUPS = np.stack([_DIGITS, _DIGITS * ~_TRAILING]).view(np.uint32).ravel()
_MINUS, _COMMA, _NEWLINE = (np.array([c], "S4").view(np.uint32)[0] for c in (b"-", b",", b"\n"))


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
    # The noise power signal * 10**(-snr/10), unscaled, must be a finite
    # double; data whose own power overflows are judged by their samples.
    with np.errstate(over="ignore", under="ignore"):
        signal = float(np.ldexp(signal_power, 2 * e))
    overflows = signal < math.inf and signal * 10.0 ** (-spec.snr_db / 10.0) == math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        noise *= np.ldexp(math.sqrt(signal_power / raw_power)
                          * 10.0 ** (-spec.snr_db / 20.0), e)
        samples = data.samples + noise
    if overflows or not np.all(np.isfinite(samples)):
        raise ValueError(f"noise power overflows at {spec.snr_db} dB")
    return FarFieldData(samples)


def achieved_snr_db(clean: FarFieldData, noisy: FarFieldData) -> float:
    """SNR in dB of ``noisy`` relative to ``clean`` (recomputed from norms),
    both norms taken on one ``unit_scaled`` power-of-two scale."""
    eta = noisy.samples - clean.samples
    scaled, _ = unit_scaled(np.concatenate([clean.samples, eta]))
    powers = np.abs(scaled) ** 2
    n = clean.samples.size
    return 10.0 * math.log10(float(np.sum(powers[:n])) / float(np.sum(powers[n:])))


def _value_words(v: np.ndarray, end, out: np.ndarray) -> None:
    """``f"{x:.17g}"`` then the word ``end`` per value of ``v``, written to
    ``out`` (shape ``v.shape + (8,)``, uint32) as NUL-padded words: a sign
    word, six digit words and the end word.

    Exact integer arithmetic where 1e-4 <= |x| < 1; Python formats other
    values, into the first six words.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1.0)
    f = np.where(fast, a, 0.5)  # 0.5: placeholder for the other values
    # e = -1 - floor(log10 f) exactly, as each double 10**-k lies above 10**-k.
    e = (f < 0.1).astype(np.intp) + (f < 0.01) + (f < 0.001)
    # 17 digits N = round-half-even(m * 5**s / 2**q) of f = m * 2**(ex - 53),
    # s = 17 + e, q = 36 - e - ex, m * 5**s < 2**100 from 32-bit limbs; no
    # double here rounds up to a power of ten, so N < 10**17.
    frac, ex = np.frexp(f)
    m, p = (frac * 2.0 ** 53).astype(np.uint64), _POW5[e]
    m0, m1, p0, p1 = m & _M32, m >> _U32, p & _M32, p >> _U32
    lo, mid = m0 * p0, m1 * p0 + m0 * p1
    t = (lo >> _U32) + (mid & _M32)
    low, high = (lo & _M32) | (t << _U32), m1 * p1 + (mid >> _U32) + (t >> _U32)
    q = (36 - e - ex).astype(np.uint64)
    n = (high << (np.uint64(64) - q)) | (low >> q)
    rem, half = low & ((_ONE << q) - _ONE), _ONE << (q - _ONE)
    n += (rem > half) | ((rem == half) & (n & _ONE == _ONE))
    head, tail = (part.astype(np.intp) for part in np.divmod(n, _E8))
    lead, hi = np.divmod(head, 10 ** 8)
    out[..., 0] = (v < 0.0) * _MINUS
    out[..., 1:3] = _LEAD.take(10 * e + lead, axis=0)
    groups = (hi // 10000, hi % 10000, tail // 10000, tail % 10000)
    last = np.maximum.reduce([k * (g != 0) for k, g in enumerate(groups)])
    for k, g in enumerate(groups):  # zero-stripped from the last nonzero one
        out[..., 3 + k] = _GROUPS.take(g + 10000 * (k >= last))
    out[..., 7] = end
    slow = ~fast
    out[slow, :6] = np.array([f"{x:.17g}".encode() for x in v[slow].tolist()],
                             "S24").view(np.uint32).reshape(-1, 6)
    out[slow, 6] = 0


# ---------------------------------------------------------------------------
# Serialization: CSV of samples + JSON sidecar with metadata
# ---------------------------------------------------------------------------

CSV_HEADER = "n,theta_x,theta_y,re,im"


def write_far_field(data: FarFieldData, csv_path, *,
                    scene: Scene = None, wave: WaveContext = None,
                    noise: NoiseSpec = None) -> None:
    """Write samples as CSV plus a JSON sidecar next to it.

    The sidecar path is the CSV path with extension replaced by ``.json``.
    All floats are printed as Python's %.17g (module doc), so reading back
    reproduces the exact doubles.
    """
    csv_path = Path(csv_path)
    obs = data.observation_set
    # n <= MAX_DIRECTIONS = 10**6: "n," in 8 bytes, leading zeros as NULs
    powers = 10 ** np.arange(6, -1, -1)
    ends = np.array([_COMMA, _COMMA, _COMMA, _NEWLINE])
    rows = BAND_NODES // 4  # four floats a row
    with open(csv_path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, obs.count, rows):
            hi = min(lo + rows, obs.count)
            n = np.arange(lo + 1, hi + 1)[:, np.newaxis]
            number = np.full((hi - lo, 8), ord(","), np.uint8)
            number[:, :7] = (n >= powers) * (n // powers % 10 + 48)
            values = np.empty((hi - lo, 4))
            values[:, :2] = obs.directions[lo:hi]
            values[:, 2] = data.samples.real[lo:hi]
            values[:, 3] = data.samples.imag[lo:hi]
            words = np.empty((hi - lo, 34), np.uint32)
            words[:, :2] = number.view(np.uint32)
            _value_words(values, ends, words[:, 2:].reshape(-1, 4, 8))
            raw = words.view(np.uint8).ravel()
            fh.write(raw[raw != 0])

    meta = {"num_observation_directions": obs.count}
    if wave is not None:
        meta["wavelength"] = wave.wavelength
    if scene is not None and wave is not None:
        meta["scene"] = scene_config_document(scene, wave, obs)
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
        with open(csv_path) as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise ValueError(f"expected header '{CSV_HEADER}'")
            # loadtxt warns on input with no rows: find one first, then
            # hand it the rest of the file from just after the header
            start = fh.tell()
            if not any(line.strip() for line in fh):
                raise ValueError("no samples")
            fh.seek(start)
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] != 5 or not np.all(np.isfinite(values)):
            raise ValueError("every row needs 5 finite values")
        data = FarFieldData(values[:, 3] + 1j * values[:, 4])
        if not np.allclose(values[:, 1:3], data.observation_set.directions,
                           rtol=0.0, atol=1e-12):
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
