"""Phonons and Ramsey spin coherence of an ion Coulomb ring chain.

The package is organized around dimensionless chain parameters (`model`),
the linear-phase normal modes (`linear_modes`), the zigzag phase
(`zigzag`), the Ramsey signal of a recoil-kicked ion (`ramsey`), its short-
and long-time asymptotics (`asymptotics`), and Fourier analysis of the
visibility (`spectral`). `output` writes CSVs and run manifests for `cli`,
the command line and the figure scenarios, which `import coulombchain` skips.
"""

from .errors import (CoulombChainError, InvalidParameter, NumericalFailure,
                     ResourceLimit, SoftModeSingularity,
                     UnstableConfiguration, UnstableLinearPhase)
from .model import (ChainParams, DerivedScales, H_STIFFNESS, PhysicalInput,
                    critical_frequency_infinite, derive_parameters, zeta3)
from .linear_modes import (ModeMatrix, ModeSet, axial_mode_set,
                           critical_frequency_finite, dispersion_axial,
                           dispersion_transverse, group_velocity,
                           max_group_velocity, mode_matrix,
                           transverse_mode_set)
from .ramsey import (DisplacementAmplitudes, VisibilityTrace,
                     chain_amplitudes, evaluate_trace, exponent_A,
                     exponent_A_thermal, linear_chain_amplitudes, overlap,
                     thermal_weights, visibility, weighted_trig_sum)
from .zigzag import (ZigzagEquilibrium, ZigzagMode, ZigzagSpectrum,
                     classify_zigzag_modes, zigzag_equilibrium,
                     zigzag_spectrum)
from .asymptotics import (AInfinityForms, AnalyticAInfinity, CuspReport,
                          DerivativeScan, GammaForms, GammaScan,
                          RevivalEstimate, a_infinity, a_infinity_analytic,
                          b_analytic, bessel_Y0, cusp_secant_slopes,
                          find_revival_burst, gamma_coefficient,
                          gamma_derivative_scan, gamma_fit,
                          gamma_transition_scan, revival_time)
from .spectral import (FourierSpectrum, overlay_band, find_peaks,
                       fourier_spectrum, spectral_band_check,
                       transverse_band, visibility_trace)
from .output import RunManifest, emit_csv

__version__ = "0.1.0"
