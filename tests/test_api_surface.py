"""The public API, pinned: its names and its settable values.

The names `coulombchain` exports (its submodules aside) and the public
methods and properties of its exported classes are pinned, so that adding or
removing one, a dense route included, shows up as a diff of this file.

Every parameter with a default of a callable exported from `coulombchain`
(dataclass fields included, through the constructor) and of the public
methods of its exported classes is an option a caller may set. That set is
pinned the same way.
"""

import inspect
from functools import cached_property

import coulombchain

EXPORTS = {
    "AInfinityForms",
    "AnalyticAInfinity",
    "ChainParams",
    "CoulombChainError",
    "CuspReport",
    "DerivativeScan",
    "DerivedScales",
    "DisplacementAmplitudes",
    "FourierSpectrum",
    "GammaForms",
    "GammaScan",
    "H_STIFFNESS",
    "InvalidParameter",
    "ModeMatrix",
    "ModeSet",
    "NumericalFailure",
    "PhysicalInput",
    "ResourceLimit",
    "RevivalEstimate",
    "RunManifest",
    "SoftModeSingularity",
    "UnstableConfiguration",
    "UnstableLinearPhase",
    "VisibilityTrace",
    "ZigzagEquilibrium",
    "ZigzagMode",
    "ZigzagSpectrum",
    "a_infinity",
    "a_infinity_analytic",
    "axial_mode_set",
    "b_analytic",
    "bessel_Y0",
    "classify_zigzag_modes",
    "critical_frequency_finite",
    "critical_frequency_infinite",
    "cusp_secant_slopes",
    "derive_parameters",
    "dispersion_axial",
    "dispersion_transverse",
    "emit_csv",
    "evaluate_trace",
    "exponent_A",
    "exponent_A_thermal",
    "find_peaks",
    "find_revival_burst",
    "fourier_spectrum",
    "gamma_coefficient",
    "gamma_derivative_scan",
    "gamma_fit",
    "gamma_transition_scan",
    "group_velocity",
    "linear_chain_amplitudes",
    "max_group_velocity",
    "mode_matrix",
    "overlap",
    "overlay_band",
    "revival_time",
    "spectral_band_check",
    "thermal_weights",
    "transverse_band",
    "transverse_mode_set",
    "visibility",
    "visibility_trace",
    "weighted_trig_sum",
    "zeta3",
    "zigzag_displacement_amplitudes",
    "zigzag_equilibrium",
    "zigzag_spectrum",
}

MEMBERS = {
    "AnalyticAInfinity.evaluate",
    "ChainParams.delta_trans",
    "ChainParams.eta0",
    "ChainParams.from_delta",
    "ChainParams.soft_gap",
    "CuspReport.separation",
    "ModeMatrix.row",
    "ModeSet.k",
    "ModeSet.n",
    "ModeSet.sigma",
    "PhysicalInput.omega0",
    "RunManifest.write",
    "ZigzagSpectrum.beta",
    "ZigzagSpectrum.k",
    "ZigzagSpectrum.n",
    "ZigzagSpectrum.sigma",
    "ZigzagSpectrum.special",
}

PINNED = {
    "ChainParams(theta)",
    "DisplacementAmplitudes(kind)",
    "PhysicalInput(temperature_k)",
    "evaluate_trace(theta)",
    "evaluate_trace(with_overlap)",
    "find_revival_burst(baseline_gap)",
    "find_revival_burst(baseline_span)",
    "find_revival_burst(window)",
    "gamma_transition_scan(zigzag_N)",
    "linear_chain_amplitudes(probe_site)",
    "overlap(theta)",
    "visibility(theta)",
    "visibility_trace(T_F)",
    "visibility_trace(n_s)",
}


def _defaulted(fn) -> list:
    try:
        sig = inspect.signature(fn)
    except ValueError:          # the exceptions keep the builtin constructor
        return []
    return [p.name for p in sig.parameters.values()
            if p.default is not p.empty]


def _public_options() -> set:
    out = set()
    for name in dir(coulombchain):
        obj = getattr(coulombchain, name)
        if name.startswith("_") or not callable(obj):
            continue
        out.update(f"{name}({p})" for p in _defaulted(obj))
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not attr.startswith("_") and inspect.isfunction(member):
                out.update(f"{name}.{attr}({p})" for p in _defaulted(member))
    return out


def test_public_options_are_pinned():
    found = _public_options()
    assert found - PINNED == set(), "new options"
    assert PINNED - found == set(), "removed options"


def _exports() -> dict:
    return {name: getattr(coulombchain, name) for name in dir(coulombchain)
            if not name.startswith("_")
            and not inspect.ismodule(getattr(coulombchain, name))}


def test_exported_names_are_pinned():
    found = set(_exports())
    assert found - EXPORTS == set(), "new names"
    assert EXPORTS - found == set(), "removed names"


def test_class_members_are_pinned():
    kinds = (property, cached_property, classmethod, staticmethod)
    found = {f"{name}.{attr}"
             for name, obj in _exports().items() if inspect.isclass(obj)
             for attr, member in vars(obj).items()
             if not attr.startswith("_")
             and (isinstance(member, kinds) or inspect.isfunction(member))}
    assert found - MEMBERS == set(), "new members"
    assert MEMBERS - found == set(), "removed members"
