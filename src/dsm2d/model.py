"""Domain types for scenes, incident waves, and observation geometry.

A scene is a homogeneous 2D background of relative permeability ``mu_0``
containing small circular inclusions, each with its own permeability.
The incident field is a plane wave of wavelength ``lambda`` travelling
along a unit direction ``d``; far-field samples are taken at N uniformly
spaced unit observation directions, which are derived from N alone.

All types are frozen dataclasses with read-only array fields, safe to
share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Minimum admissible k-scaled pairwise separation between inclusion
# centers before a warning is raised. The single-scattering picture needs
# k*|x_m - x_m'| well above 0.75; one order of magnitude is a
# conservative margin that the shipped scenes clear easily.
DEFAULT_SEPARATION_THRESHOLD = 7.5

UNIT_TOL = 1e-12

# Most observation directions accepted; a far-field CSV of it is ~80 MB.
# The data map also needs N * (nx + ny) <= imaging.MAX_GRID_NODES.
MAX_DIRECTIONS = 10 ** 6


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True)
class Inhomogeneity:
    """A small disk scatterer: center, radius, relative permeability."""

    center: np.ndarray
    radius: float
    permeability: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(self.center))
        if self.center.shape != (2,) or not np.all(np.isfinite(self.center)):
            raise ValueError("center must be a finite 2D point")
        # an r^2 of inf or 0 would give non-finite or all-zero data
        if not (self.radius > 0 and 0.0 < self.radius * self.radius < math.inf):
            raise ValueError(f"radius must be positive with a finite, nonzero "
                             f"square, got {self.radius!r}")
        if not (self.permeability > 0):
            raise ValueError("permeability must be positive")


@dataclass(frozen=True)
class Scene:
    """Background permeability plus an ordered list of inclusions.

    Centers must be pairwise distinct; coincident inclusions are rejected
    outright since no separation threshold can rescue a zero distance.
    """

    background_permeability: float
    inclusions: tuple

    def __post_init__(self):
        object.__setattr__(self, "inclusions", tuple(self.inclusions))
        if not (self.background_permeability > 0):
            raise ValueError("background permeability must be positive")
        if len(self.inclusions) < 1:
            raise ValueError("scene needs at least one inclusion")
        mu0 = self.background_permeability
        for m, a in enumerate(self.inclusions):
            if not math.isfinite(a.permeability + mu0):
                raise ValueError(f"inclusion {m}: permeability plus background "
                                 "permeability must be finite")
            if a.radius ** 2 * contrast_factor(a.permeability, mu0) == 0.0:
                raise ValueError(f"inclusion {m}: its weight radius**2 * "
                                 "contrast_factor underflows to zero")
            for b in self.inclusions[m + 1:]:
                if np.array_equal(a.center, b.center):
                    raise ValueError(
                        "inclusion centers must be pairwise distinct "
                        f"(duplicate at {a.center.tolist()})")

    @property
    def centers(self) -> np.ndarray:
        return np.array([inc.center for inc in self.inclusions])


@dataclass(frozen=True)
class WaveContext:
    """Incident plane wave: wavelength, derived wavenumber, unit direction."""

    wavelength: float
    incident_direction: np.ndarray
    wavenumber: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "wavenumber", wavenumber_from_wavelength(self.wavelength))
        d = _readonly(self.incident_direction)
        object.__setattr__(self, "incident_direction", d)
        if d.shape != (2,) or not np.all(np.isfinite(d)):
            raise ValueError("incident direction must be a finite 2D vector")
        if abs(float(np.hypot(d[0], d[1])) - 1.0) > UNIT_TOL:
            raise ValueError("incident direction must be a unit vector")

    @classmethod
    def from_degrees(cls, wavelength: float, angle_deg: float) -> "WaveContext":
        """Build from a propagation angle in degrees (0 = +x axis)."""
        if not math.isfinite(angle_deg):  # math.cos(inf) says "domain error"
            raise ValueError(f"incident angle must be finite, got {angle_deg!r}")
        ang = math.radians(angle_deg)
        return cls(wavelength, np.array([math.cos(ang), math.sin(ang)]))


@dataclass(frozen=True)
class ObservationSet:
    """N uniformly spaced unit directions, derived from ``count`` = N alone:
    theta_n = [cos(2*pi*n/N), sin(2*pi*n/N)] for n = 1..N.

    The trig calls take j = min(n mod N, N - n mod N) and the sine's sign
    follows n, so the n = N entry is exactly (1, 0) and direction N - n is
    exactly (cos theta_n, -sin theta_n): the set is exactly mirror-symmetric."""

    count: int
    directions: np.ndarray = field(init=False)

    def __post_init__(self):
        count = self.count
        if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
                or not 1 <= count <= MAX_DIRECTIONS):
            raise ValueError(f"direction count must be an integer in "
                             f"[1, {MAX_DIRECTIONS:,}], got {count!r}")
        n = np.arange(1, count + 1) % count
        ang = 2.0 * np.pi * np.minimum(n, count - n) / count
        sin = np.sin(ang)
        object.__setattr__(self, "count", int(count))
        object.__setattr__(self, "directions", _readonly(np.column_stack(
            [np.cos(ang), np.where(2 * n > count, -sin, sin)])))


def make_observation_set(count: int) -> ObservationSet:
    """``ObservationSet(count)``: the uniform, mirrored ``count``-point set."""
    return ObservationSet(count)


def wavenumber_from_wavelength(wavelength: float) -> float:
    """k = 2*pi / lambda, for a positive finite lambda with a finite k."""
    if not (0 < wavelength < math.inf and math.isfinite(2.0 * math.pi / wavelength)):
        raise ValueError(f"wavelength must be positive with a finite "
                         f"wavenumber 2*pi/wavelength, got {wavelength!r}")
    return 2.0 * math.pi / wavelength


@dataclass(frozen=True)
class ValidationEntry:
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def ok(self) -> bool:
        return len(self.entries) == 0


def validate_scene(scene: Scene, wave: WaveContext) -> ValidationReport:
    """Check the standing assumptions: separation and small-radius bounds.

    Emits a warning for every inclusion pair with k*|x_m - x_m'| below
    ``DEFAULT_SEPARATION_THRESHOLD`` and for every radius exceeding
    lambda/2. ``Scene`` already rejects coincident centers, so every
    distance here is positive. Warnings do not block imaging.
    """
    entries = []
    k = wave.wavenumber
    incs = scene.inclusions
    for m in range(len(incs)):
        for mp in range(m + 1, len(incs)):
            with np.errstate(over="ignore"):  # an inf distance warns of nothing
                dist = float(np.hypot(*(incs[m].center - incs[mp].center)))
            if k * dist < DEFAULT_SEPARATION_THRESHOLD:
                entries.append(ValidationEntry(
                    f"inclusions {m} and {mp}: k*distance = {k * dist:.4g} "
                    f"below threshold {DEFAULT_SEPARATION_THRESHOLD:.4g}"))
    for m, inc in enumerate(incs):
        if inc.radius > wave.wavelength / 2.0:
            entries.append(ValidationEntry(
                f"inclusion {m}: radius {inc.radius:.4g} exceeds half the "
                f"wavelength {wave.wavelength:.4g}"))
    return ValidationReport(entries=tuple(entries))


def load_scene_config(path, doc=None, overrides=None) -> dict:
    """Build ``scene``, ``wave`` and ``observations`` from the JSON file at
    ``path``, or from ``doc`` (a sidecar's scene, named by ``path``) when
    given, in the :func:`scene_config_document` layout.

    ``overrides`` maps document keys to values written over the document
    first (the CLI's wave flags). Every ``ValueError`` reads
    ``scene in <path>: ...``; an unreadable file raises ``OSError``.
    """
    try:
        if doc is None:
            with open(path) as fh:
                doc = json.load(fh)
        if overrides and isinstance(doc, dict):
            doc = {**doc, **overrides}
        inclusions = tuple(
            Inhomogeneity(center=np.asarray(item["center"], dtype=float),
                          radius=float(item["radius"]),
                          permeability=float(item["permeability"]))
            for item in doc["inclusions"])
        scene = Scene(background_permeability=float(doc["background_permeability"]),
                      inclusions=inclusions)
        wave = WaveContext.from_degrees(float(doc["wavelength"]),
                                        float(doc["incident_direction_degrees"]))
        obs = make_observation_set(doc["num_observation_directions"])
    except KeyError as exc:
        raise ValueError(f"scene in {path}: missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ValueError(f"scene in {path}: malformed document: {exc}") from exc
    except ValueError as exc:  # also invalid JSON and undecodable bytes
        raise ValueError(f"scene in {path}: {exc}") from exc
    return {"scene": scene, "wave": wave, "observations": obs}


def scene_config_document(scene: Scene, wave: WaveContext, obs: ObservationSet) -> dict:
    """Inverse of :func:`load_scene_config`: domain objects to a JSON document."""
    angle = math.degrees(math.atan2(wave.incident_direction[1],
                                    wave.incident_direction[0]))
    return {
        "background_permeability": scene.background_permeability,
        "inclusions": [
            {"center": inc.center.tolist(), "radius": inc.radius,
             "permeability": inc.permeability}
            for inc in scene.inclusions],
        "wavelength": wave.wavelength,
        "incident_direction_degrees": angle,
        "num_observation_directions": obs.count,
    }
