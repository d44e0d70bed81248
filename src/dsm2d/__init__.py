"""Single-incident-wave far-field correlation imaging of small 2D scatterers.

Pipeline: build a scene of small permeability-contrast disks, synthesize
its far-field pattern for one incident plane wave, correlate the samples
against plane-wave test vectors over a search grid, and read target
locations off the normalized map. The map's structure is governed by the
first-order Bessel function J1, which is why each scatterer shows up as a
peak pair straddling its true center rather than a single spot.
"""

from .forward import (FarFieldData, NoiseSpec, add_noise, read_far_field,
                      synthesize_far_field, write_far_field)
from .imaging import (IndicatorMap, Peak, SearchGrid, compute_map, export_map,
                      extract_peaks)
from .indicator import (PeakPrediction, closed_form_magnitude,
                        dsm_indicator_raw, predicted_peaks)
from .model import (Inhomogeneity, ObservationSet, Scene, ValidationReport,
                    WaveContext, contrast_factor, load_scene_config,
                    make_observation_set, validate_scene,
                    wavenumber_from_wavelength)
from .specfun import J1_FIRST_MAX, bessel_j1

__version__ = "0.1.0"

__all__ = [
    "FarFieldData", "IndicatorMap", "Inhomogeneity", "J1_FIRST_MAX",
    "NoiseSpec", "ObservationSet", "Peak", "PeakPrediction", "Scene",
    "SearchGrid", "ValidationReport", "WaveContext", "add_noise", "bessel_j1",
    "closed_form_magnitude", "compute_map", "contrast_factor",
    "dsm_indicator_raw", "export_map", "extract_peaks", "load_scene_config",
    "make_observation_set", "predicted_peaks", "read_far_field",
    "synthesize_far_field", "validate_scene", "wavenumber_from_wavelength",
    "write_far_field",
]
