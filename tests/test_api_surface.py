"""The settable values of the public API, pinned.

Every parameter with a default of a callable exported from `coulombchain`
(dataclass fields included, through the constructor) and of the public
methods of its exported classes is an option a caller may set. The set is
pinned so that adding or removing one shows up as a diff of this file.
"""

import inspect

import coulombchain

PINNED = {
    "ChainParams(theta)",
    "ChainParams.from_delta(theta)",
    "DisplacementAmplitudes(kind)",
    "PhysicalInput(temperature_k)",
    "ZigzagSpectrum.probe_row(coordinate)",
    "ZigzagSpectrum.probe_row(site)",
    "a_infinity_analytic(delta_ref)",
    "evaluate_trace(theta)",
    "evaluate_trace(with_overlap)",
    "find_peaks(dc_floor_bins)",
    "find_revival_burst(baseline_gap)",
    "find_revival_burst(baseline_span)",
    "find_revival_burst(factor)",
    "find_revival_burst(window)",
    "gamma_transition_scan(zigzag_N)",
    "linear_chain_amplitudes(probe_site)",
    "overlap(theta)",
    "ramsey_probability(theta)",
    "visibility(theta)",
    "visibility_trace(T_F)",
    "visibility_trace(n_s)",
    "zigzag_displacement_amplitudes(probe_site)",
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
