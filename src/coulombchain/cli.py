"""Command line and the figure scenarios; `output` writes their files.

Subcommands
-----------
spectrum      linear-chain mode table (n, k a, parity, omega_x, omega_y)
zigzag        order-parameter scan b(nu_t) and labeled zigzag spectrum
visibility    V(t) trace on an explicit time window
fourier       sampled V(t) -> normalized spectrum, peaks, optional band table
gamma-scan    Gamma(Delta) across the transition with cusp statistics
asymptotics   Gamma(Delta), dGamma/dDelta, A_inf(Delta), revival-time tables
longtime      exact V(t) against the long-time plateau-plus-tail envelope
figures       canned parameter sets of the six bundled scenarios (2..7)

Each subcommand is declared once, in `_COMMANDS`, with its options. Parameters
come from CLI flags, then a flat key=value config file, then defaults.
Config lines go through the subcommand's own parser, so each key must name
one of its options and is typed like the flag; dimensionless values win
over physical (SI) ones with a warning, and a temperature in kelvin without
the SI inputs is a usage error. Each table is computed by one
pipeline function, shared by the subcommands and the figures. A pipeline
writes CSVs through the path callable `run()` hands it and returns the
manifest's params and derived values. `run()` owns the rest: it checks
grid bounds and their spans are finite before any pipeline starts, makes
`--out` when the first file is written, times the run and writes
`<subcommand>_manifest.json` with every CSV and the subcommand's own valued
options as parsed, overlaid by the derived values. CSV payloads carry no
timestamps, so identical inputs give bit-identical files; wall time lives in
the manifest only.

Exit codes: 0 success; 1 numerical, memory or I/O failure (message names
the error class); 2 usage errors, including invalid parameter values.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (MIN_BURST_SAMPLES, _line_fit, a_infinity,
                          a_infinity_analytic, b_analytic, cusp_secant_slopes,
                          find_revival_burst, gamma_coefficient,
                          gamma_derivative_scan, gamma_fit,
                          gamma_transition_scan, revival_time)
from .errors import CoulombChainError, InvalidParameter
from .linear_modes import (axial_mode_set, critical_frequency_finite,
                           transverse_mode_set)
from .model import (ChainParams, PhysicalInput, critical_frequency_infinite,
                    derive_parameters)
from .output import Columns, RunManifest, emit_csv
from .ramsey import chain_amplitudes, evaluate_trace, linear_chain_amplitudes
from .spectral import (DEFAULT_N_S, DEFAULT_T_F, check_trace_samples,
                       find_peaks, fourier_spectrum, overlay_band,
                       spectral_band_check, transverse_band, visibility_trace)
from .zigzag import zigzag_equilibrium, zigzag_spectrum

_PHYSICAL_KEYS = ("mass_kg", "charge_c", "spacing_m",
                  "transverse_frequency_rad_s", "laser_wavenumber_per_m")
# (low, high) options that bound a scan or time grid; run() rejects
# non-finite values, and spans high - low that overflow.
_GRID_BOUNDS = (("nu_min", "nu_max"), ("t_min", "t_max"),
                ("delta_min", "delta_max"))


def _read_config(path: str, parser: argparse.ArgumentParser) -> list:
    """Flat key = value lines as '--key=value' options ('#' comments and
    blank lines ignored). The subcommand's `parser` types and checks each
    line on its own, so a rejected key or value is reported as path:line.
    A `config` key is rejected too: files do not nest."""
    parser.exit_on_error = False        # option errors raise, to be located
    args = []
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameter(
                    f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if not key:
                raise InvalidParameter(f"{path}:{ln}: empty key")
            option = f"--{key.replace('_', '-')}={val}"
            if option.startswith("--config="):
                parser.error(f"{path}:{ln}: a config file cannot name "
                             f"another ({option})")
            try:
                unknown = parser.parse_known_args([option])[1]
            except argparse.ArgumentError as exc:
                parser.error(f"{path}:{ln}: {exc}")
            if unknown:
                parser.error(f"{path}:{ln}: unrecognized option {option}")
            args.append(option)
    return args


def _require(ns, key: str):
    if getattr(ns, key) is None:
        raise InvalidParameter(f"missing required parameter: {key}")
    return getattr(ns, key)


def _resolve_chain(ns, default_eta: float | None = None) -> ChainParams:
    """ChainParams from options; dimensionless beats physical with a warning.

    The mode tables take no `eta_c`, `theta` or `temperature_k` option; an
    absent one reads as None, as if not given, so their chains take the SI
    inputs' eta_c or `default_eta`, and theta 0."""
    N = _require(ns, "N")
    eta_c, theta, temperature_k = (getattr(ns, k, None) for k in
                                   ("eta_c", "theta", "temperature_k"))
    phys_given = [k for k in _PHYSICAL_KEYS if getattr(ns, k) is not None]
    if temperature_k is not None and not phys_given:
        raise InvalidParameter(
            f"temperature_k needs the physical inputs "
            f"{', '.join(_PHYSICAL_KEYS)}; none is given (use --theta for "
            "the dimensionless temperature k_B T / (hbar omega_0))")
    derived = None
    if phys_given:
        if len(phys_given) < len(_PHYSICAL_KEYS):
            missing = sorted(set(_PHYSICAL_KEYS) - set(phys_given))
            raise InvalidParameter(
                "physical input needs all of "
                f"{', '.join(_PHYSICAL_KEYS)}; missing {', '.join(missing)}")
        phys = PhysicalInput(**{k: getattr(ns, k) for k in _PHYSICAL_KEYS},
                             temperature_k=temperature_k or 0.0)
        derived = derive_parameters(phys)

    nu_t = ns.nu_t
    if nu_t is not None and ns.delta is not None:
        raise InvalidParameter("give either nu_t or delta, not both")
    if ns.delta is not None:
        nu_t = critical_frequency_infinite() + ns.delta
    if derived is not None and any(
            v is not None for v in (nu_t, eta_c, theta)):
        print("warning: both physical and dimensionless parameters given; "
              "dimensionless values take precedence", file=sys.stderr)
    if nu_t is None:
        nu_t = derived.nu_t if derived else None
    if nu_t is None:
        raise InvalidParameter("missing required parameter: nu_t or delta")

    if eta_c is None:
        eta_c = derived.eta_c if derived else default_eta
    if eta_c is None:
        raise InvalidParameter("missing required parameter: eta_c")
    if theta is None:
        theta = derived.theta if derived else 0.0
    return ChainParams(N=N, nu_t=float(nu_t), eta_c=float(eta_c),
                       theta=float(theta))


def _params_dict(p: ChainParams) -> dict:
    return {"N": p.N, "nu_t": p.nu_t, "eta_c": p.eta_c, "theta": p.theta,
            "delta": p.delta_trans, "eta0": p.eta0}


# ------------------------------------------------------------------ pipelines
# One function per table; the subcommands and the figure scenarios share them.


def _spectrum(path, name: str, p: ChainParams, prominence: float,
              T_F: float = DEFAULT_T_F, n_s: int = DEFAULT_N_S,
              trace_name: str | None = None):
    """V(t) on the centred window, its normalized spectrum table and the
    spectral peaks of at least `prominence`, found before any file is
    written."""
    tr = visibility_trace(p, T_F=T_F, n_s=n_s)
    spec = fourier_spectrum(tr)
    peaks = find_peaks(spec, prominence=prominence)
    if trace_name:
        emit_csv(("t", "A", "V"), Columns(tr.t, tr.A, tr.V), path(trace_name))
    emit_csv(("omega", "F"), Columns(spec.omega, spec.F), path(name))
    return tr, spec, peaks


def _bands(p: ChainParams) -> dict:
    """(omega_min, omega_max) of both band conventions. Both need the linear
    side of the infinite-chain nu_c and a nonempty band, so take them before
    writing."""
    if p.delta_trans < 0:
        raise InvalidParameter(
            "the band table needs delta = nu_t - nu_c >= 0; got delta = "
            f"{p.delta_trans:g} (use --no-band to skip it)")
    bands = {"transverse": transverse_band(p), "overlay": overlay_band(p)}
    for name, (lo, hi) in bands.items():
        if not lo < hi:
            raise InvalidParameter(f"the {name} band [{lo:g}, {hi:g}] is "
                                   "empty (use --no-band to skip it)")
    return bands


def _band_fractions(bands: dict, spec) -> list:
    """(convention, omega_min, omega_max, power fraction) of each band."""
    return [(name, lo, hi, spectral_band_check(spec, lo, hi))
            for name, (lo, hi) in bands.items()]


def _gamma_scan(path, name: str, deltas, N: int, eta_c: float):
    """Gamma(Delta) across the transition; cusp slopes, or None when the grid
    does not straddle zero (the table is still valid)."""
    scan = gamma_transition_scan(deltas, N=N, eta_c=eta_c)
    emit_csv(("delta", "gamma", "phase"),
             Columns(scan.deltas, scan.gamma, scan.kinds), path(name))
    try:
        return scan, cusp_secant_slopes(scan)
    except InvalidParameter:
        return scan, None


def _dgamma(path, name: str, der) -> None:
    emit_csv(("delta", "dgamma_ddelta"), Columns(der.deltas, der.dgamma),
             path(name))


def _a_infinity(path, name: str, der, ana) -> None:
    """The scan's exact A_inf per detuning next to the analytic form `ana`."""
    emit_csv(("delta", "a_inf", "a_inf_analytic"),
             [(d, a, ana.evaluate(float(d)))
              for d, a in zip(der.deltas, der.a_inf)], path(name))


def _longtime(path, name: str, p: ChainParams, t_max: float | None,
              samples: int):
    """Exact V(t) against the envelope exp(-A_inf + B(t)), with the chain's
    exact plateau A_inf and the continuum tail B(t), on t = dt, 2 dt, ...,
    t_max (the tail needs t > 0), and the revival burst; returns t, V, the
    envelope and the manifest grids. At theta > 0 V is thermal but the
    envelope is still the theta = 0 one, so the columns part by design."""
    if not p.delta_trans > 0:
        raise InvalidParameter(
            "longtime needs the linear side, delta = nu_t - nu_c > 0; got "
            f"delta = {p.delta_trans:g}")
    rev = revival_time(p.N, p.nu_t)
    if t_max is None:
        t_max = 1.35 * rev.t_star
    if not t_max > 0:
        raise InvalidParameter("t_max must be positive")
    if samples < MIN_BURST_SAMPLES:
        raise InvalidParameter(f"samples must be >= {MIN_BURST_SAMPLES} "
                               "(the revival detector's minimum)")
    check_trace_samples(samples)
    amps = linear_chain_amplitudes(p)
    dt = t_max / samples
    t = dt * np.arange(1, samples + 1)
    tr = evaluate_trace(amps, t, theta=p.theta, with_overlap=False)
    # Detector windows scale with t* so short chains stay detectable; at
    # t* ~ 1230 they reduce to the documented 50/50/200 defaults. It runs
    # before the envelope and the table, so a grid it rejects makes neither.
    burst = find_revival_burst(t, tr.V, window=0.04 * rev.t_star,
                               baseline_gap=0.04 * rev.t_star,
                               baseline_span=0.16 * rev.t_star)
    V_ana = np.exp(-a_infinity(amps).direct + b_analytic(t, p))
    emit_csv(("t", "V_exact", "V_analytic"), Columns(t, tr.V, V_ana),
             path(name))
    return t, tr.V, V_ana, {
        "t_max": float(t_max), "t_star": rev.t_star, "v_max": rev.v_max,
        "k_star": rev.k_star, "burst_time": burst, "soft_gap": p.soft_gap}


# ---------------------------------------------------------------- subcommands


def _cmd_spectrum(ns, path):
    p = _resolve_chain(ns, default_eta=0.0)
    ms_y = transverse_mode_set(p)
    ms_x = axial_mode_set(p.N)
    emit_csv(("n", "k_a", "parity", "omega_x", "omega_y"),
             Columns(ms_y.n, ms_y.k, ms_y.sigma, ms_x.omega, ms_y.omega),
             path("spectrum.csv"))
    return _params_dict(p), {"modes": len(ms_y)}


def _cmd_zigzag(ns, path):
    p = _resolve_chain(ns, default_eta=0.0)
    nu_cn = critical_frequency_finite(p.N)
    nu_min = nu_cn - 0.15 if ns.nu_min is None else ns.nu_min
    nu_max = nu_cn + 0.05 if ns.nu_max is None else ns.nu_max
    if ns.points < 1:
        raise InvalidParameter("points must be >= 1")

    # The spectrum can fail (an unstable ansatz); take it before writing.
    spec = zigzag_spectrum(p)
    eqs = [zigzag_equilibrium(dataclasses.replace(p, nu_t=float(nu)))
           for nu in np.linspace(nu_min, nu_max, ns.points)]
    emit_csv(("nu_t", "b", "energy_per_ion"),
             [(eq.nu_t, eq.b, eq.energy_per_ion) for eq in eqs],
             path("zigzag_amplitude.csv"))
    emit_csv(("k_a", "beta", "parity", "omega", "n", "special"),
             Columns(spec.k, spec.beta, spec.sigma, spec.omega, spec.n,
                     spec.special),
             path("zigzag_spectrum.csv"))
    return _params_dict(p), {"nu_min": float(nu_min), "nu_max": float(nu_max),
                             "b": spec.b}


def _cmd_visibility(ns, path):
    p = _resolve_chain(ns)
    if not ns.t_min < ns.t_max:
        raise InvalidParameter("need t_min < t_max")
    if ns.samples < 2:
        raise InvalidParameter("samples must be >= 2")
    check_trace_samples(ns.samples)
    amps = chain_amplitudes(p)
    t = np.linspace(ns.t_min, ns.t_max, ns.samples)
    tr = evaluate_trace(amps, t, theta=p.theta)
    emit_csv(("t", "A", "V", "Re_S", "Im_S"),
             Columns(tr.t, tr.A, tr.V, tr.S.real, tr.S.imag),
             path("visibility.csv"))
    return _params_dict(p), {"kind": amps.kind}


def _cmd_fourier(ns, path):
    p = _resolve_chain(ns)
    bands = _bands(p) if ns.band else {}
    _, spec, peaks = _spectrum(path, "fourier.csv", p, ns.prominence,
                               T_F=ns.T_F, n_s=ns.n_s)
    emit_csv(("omega", "F"), peaks, path("fourier_peaks.csv"))
    grids = {"bin_width": spec.bin_width}
    if bands:
        rows = _band_fractions(bands, spec)
        emit_csv(("convention", "omega_min", "omega_max", "power_fraction"),
                 rows, path("fourier_band.csv"))
        grids["band"] = {r[0]: {"omega_min": r[1], "omega_max": r[2],
                                "power_fraction": r[3]} for r in rows}
    return _params_dict(p), grids


def _cmd_gamma_scan(ns, path):
    N, eta_c = _require(ns, "N"), _require(ns, "eta_c")
    if ns.points < 7 or ns.points % 2 == 0:
        raise InvalidParameter("points must be odd and >= 7 (both sides + 0)")
    if ns.delta_min == ns.delta_max:
        raise InvalidParameter("delta_min and delta_max must differ, got "
                               f"{ns.delta_min:g} for both")
    deltas = np.linspace(ns.delta_min, ns.delta_max, ns.points)
    _, rep = _gamma_scan(path, "gamma_scan.csv", deltas, N, eta_c)
    cusp = {} if rep is None else {
        "left_slope": rep.left_slope, "right_slope": rep.right_slope,
        "left_stderr": rep.left_stderr, "right_stderr": rep.right_stderr,
        "separation_se": rep.separation}
    return {"N": N, "eta_c": eta_c}, {"cusp": cusp}


def _cmd_asymptotics(ns, path):
    N, eta_c = _require(ns, "N"), _require(ns, "eta_c")
    if min(ns.delta_min, ns.delta_max) <= 0:
        raise InvalidParameter("asymptotics needs delta_min, delta_max > 0")
    if ns.points < 3:
        raise InvalidParameter("points must be >= 3 (the dGamma/dDelta fit)")
    deltas = np.logspace(math.log10(ns.delta_min), math.log10(ns.delta_max),
                         ns.points)
    # First, so a grid without 3 distinct Delta writes no CSV.
    der = gamma_derivative_scan(deltas, N=N, eta_c=eta_c)
    chains = [ChainParams.from_delta(N, float(d), eta_c) for d in deltas]

    emit_csv(("delta", "gamma"), Columns(deltas, der.gamma),
             path("gamma_table.csv"))
    _dgamma(path, "dgamma_table.csv", der)
    ana = a_infinity_analytic(chains[-1], deltas[-1], der.a_inf[-1])
    _a_infinity(path, "a_infinity_table.csv", der, ana)

    revs = [revival_time(N, p.nu_t) for p in chains]
    emit_csv(("delta", "nu_t", "v_max", "k_star", "t_star"),
             [(d, p.nu_t, r.v_max, r.k_star, r.t_star)
              for d, p, r in zip(deltas, chains, revs)],
             path("revival_table.csv"))

    return {"N": N, "eta_c": eta_c}, {
        "dgamma_fit": {"a": der.a, "b": der.b, "r_squared": der.r_squared},
        "a_inf_analytic": {"slope": ana.slope, "offset": ana.offset,
                           "delta_ref": ana.delta_ref}}


def _cmd_longtime(ns, path):
    p = _resolve_chain(ns)
    return (_params_dict(p),
            _longtime(path, "longtime.csv", p, ns.t_max, ns.samples)[3])


# ------------------------------------------------------------------- figures
# Each scenario writes its tables and returns (params, proxies); a proxy is
# a (name, passed, detail) check of one of the paper's claims. Scenarios
# share a per-run `memo`, so work two of them need is done once.


def _derivative_scan(memo: dict):
    """The N = 1000 dGamma/dDelta scan of scenarios 5 and 7, made by the
    first of them that runs."""
    if "derivative scan" not in memo:
        memo["derivative scan"] = gamma_derivative_scan(
            np.logspace(-4, -2, 12), N=1000, eta_c=0.05)
    return memo["derivative scan"]


def _spectrum_scenario(path, fig: str, delta: float):
    """Scenarios 2 and 3: V(t) and its spectrum at N = 100, eta_c = 0.25 and
    `delta`; the chain, spectrum, peaks, omega_y and the scenario's params."""
    p = ChainParams.from_delta(100, delta, 0.25)
    tr, spec, peaks = _spectrum(path, f"fig{fig}_spectrum.csv", p, 1e-4,
                                trace_name=f"fig{fig}_visibility.csv")
    params = {**_params_dict(p), "mean_V": float(np.mean(tr.V))}
    return p, spec, peaks, transverse_mode_set(p).omega, params


def _fig2(path, memo):
    p, spec, peaks, omega_y, params = _spectrum_scenario(path, "2", 1e-1)
    (_, lo, hi, frac), (_, _, _, frac_c) = _band_fractions(_bands(p), spec)
    # Away from the transition the signal is perturbative, so every line
    # sits on a mode frequency; combination lines are below prominence.
    worst = max((float(np.min(np.abs(omega_y - w))) for w, _ in peaks),
                default=0.0)
    return params, [
        ("fig2 band confinement", frac >= 0.95,
         f"power fraction {frac:.4f} in [{lo:.4f}, {hi:.4f}]; "
         f"overlay-form fraction {frac_c:.4f}"),
        ("fig2 peaks on mode grid", bool(peaks) and worst <= spec.bin_width,
         f"{len(peaks)} peaks, worst offset {worst:.2e} "
         f"(bin {spec.bin_width:.2e})")]


def _fig3(path, memo):
    p, spec, peaks, omega_y, params = _spectrum_scenario(path, "3", 1e-4)
    soft = float(np.min(omega_y[omega_y > 0]))
    top = peaks[0][0] if peaks else math.nan
    # Deeper decay near the transition: mean V below scenario 2's.
    ref = visibility_trace(ChainParams.from_delta(p.N, 1e-1, p.eta_c))
    mean_v, mean_ref = params["mean_V"], float(np.mean(ref.V))
    return params, [
        ("fig3 soft-mode peak",
         bool(peaks) and abs(top - soft) <= spec.bin_width,
         f"top peak {top:.6f} vs omega_y(pi) {soft:.6f}"),
        ("fig3 deeper decay", mean_v < mean_ref,
         f"mean V {mean_v:.4f} vs {mean_ref:.4f} at the larger detuning")]


def _fig4(path, memo):
    N, eta_c = 1000, 0.05
    rows, worst = [], 0.0
    for d in (1e-4, 1e-3, 1e-2):
        p = ChainParams.from_delta(N, d, eta_c)
        amps = linear_chain_amplitudes(p)
        gamma = gamma_coefficient(amps).direct
        half = 0.095 / p.nu_t
        t = np.linspace(-half, half, 201)
        tr = evaluate_trace(amps, t, with_overlap=False)
        gfit, resid = gamma_fit(tr)
        rel = abs(gfit - gamma) / gamma
        worst = max(worst, rel)
        rows.append((d, gamma, gfit, rel, resid))
    emit_csv(("delta", "gamma", "gamma_fit", "rel_dev", "fit_rms"),
             rows, path("fig4_gamma.csv"))
    return {"N": N, "eta_c": eta_c, "deltas": [1e-4, 1e-3, 1e-2]}, [
        ("fig4 quadratic fit", worst < 0.01,
         f"worst relative deviation {worst:.2e}")]


def _fig5(path, memo):
    N_scan, N_fit, eta_c = 256, 1000, 0.05
    scan, rep = _gamma_scan(path, "fig5_gamma.csv",
                            np.linspace(-1e-2, 1e-2, 21), N_scan, eta_c)
    d_min = scan.deltas[int(np.argmin(scan.gamma))]
    der = _derivative_scan(memo)
    _dgamma(path, "fig5_dgamma.csv", der)
    return {"N_scan": N_scan, "N_fit": N_fit, "eta_c": eta_c}, [
        ("fig5 minimum at zero", d_min == 0.0, f"minimum at delta = {d_min:g}"),
        ("fig5 cusp slopes", rep.separation > 5.0,
         f"left {rep.left_slope:.4g}, right {rep.right_slope:.4g}, "
         f"{rep.separation:.1f} standard errors apart"),
        ("fig5 log fit", der.r_squared > 0.99,
         f"R^2 = {der.r_squared:.6f}, b = {der.b:.4g}")]


def _fig6(path, memo):
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    t, V, V_ana, g = _longtime(path, "fig6_longtime.csv", p, None, 50_000)
    t_star, burst = g["t_star"], g["burst_time"]
    mask = (t >= 3.0 / g["soft_gap"]) & (t <= 0.8 * t_star)
    mad = float(np.mean(np.abs(V_ana[mask] - V[mask])))
    keep = ("t_star", "v_max", "k_star", "burst_time")
    return {**_params_dict(p), **{k: g[k] for k in keep}}, [
        ("fig6 v_max", abs(g["v_max"] - 0.81) / 0.81 < 0.01,
         f"v_max = {g['v_max']:.4f}"),
        ("fig6 k_star", abs(g["k_star"] - 2.64) / 2.64 < 0.02,
         f"k* = {g['k_star']:.4f}"),
        ("fig6 t_star", abs(t_star - 1229.0) / 1229.0 < 0.02,
         f"t* = {t_star:.2f}"),
        ("fig6 revival detector",
         burst is not None and abs(burst - t_star) < 0.1 * t_star,
         f"burst at {burst if burst is None else round(burst, 2)} "
         f"vs t* = {t_star:.2f}"),
        ("fig6 envelope deviation", mad < 0.05,
         f"mean absolute deviation {mad:.2e}")]


def _fig7(path, memo):
    N, eta_c = 1000, 0.05
    der = _derivative_scan(memo)
    ana = a_infinity_analytic(ChainParams.from_delta(N, 1e-3, eta_c),
                              der.deltas[-1], der.a_inf[-1])
    _a_infinity(path, "fig7_a_infinity.csv", der, ana)
    slope = -_line_fit(np.log(der.deltas), der.a_inf, "the A_inf fit")[0]
    rel = abs(slope - ana.slope) / ana.slope
    return {"N": N, "eta_c": eta_c, "slope_fit": slope,
            "slope_analytic": ana.slope}, [
        ("fig7 saturation slope", rel < 0.10,
         f"fit slope {slope:.6g} vs analytic {ana.slope:.6g} "
         f"({rel:.1%} off)")]


_FIGURES = {"2": _fig2, "3": _fig3, "4": _fig4, "5": _fig5,
            "6": _fig6, "7": _fig7}


def _cmd_figures(ns, path):
    names = sorted(_FIGURES) if ns.which == "all" else [ns.which]
    scenario_params, checks, memo = {}, [], {}
    for name in names:
        print(f"scenario {name}:")
        scenario_params[name], proxies = _FIGURES[name](path, memo)
        for check, ok, detail in proxies:
            print(f"  proxy {check}: {'ok' if ok else 'FAIL'} ({detail})")
            checks.append((check, bool(ok), detail))
    for check, ok, detail in checks:
        if not ok:
            print(f"error: proxy failed: {check} ({detail})", file=sys.stderr)
    if all(ok for _, ok, _ in checks):
        print(f"all {len(checks)} proxies passed")
    return {"scenarios": scenario_params}, {
        "proxies": [{"name": n, "passed": ok, "detail": d}
                    for n, ok, d in checks]}


# ----------------------------------------------------------------- front end


_OUT = ("--out", dict(default=".", help="output directory (default .)"))
_COMMON = (
    ("--config", dict(help="flat key = value file of option values")),
    _OUT,
    ("--N", dict(type=int, help="ion count")))
_ETA = (("--eta-c", dict(type=float, help="Lamb-Dicke parameter at the "
                                          "critical frequency")),)
# The confinement, or all five SI inputs: PhysicalInput converts them as one.
_CRYSTAL = (
    *_COMMON,
    ("--nu-t", dict(type=float, help="transverse confinement, omega_0 units")),
    ("--delta", dict(type=float, help="detuning nu_t - nu_c, omega_0 units")),
    *(("--" + key.replace("_", "-"), dict(type=float))
      for key in _PHYSICAL_KEYS))
_PROBE = (   # ...and the spin probe's kick and temperature
    *_CRYSTAL, *_ETA,
    ("--theta", dict(type=float, help="temperature k_B T / (hbar omega_0)")),
    ("--temperature-k", dict(type=float,
                             help="initial temperature in K; needs the SI "
                                  "inputs above")))

# Subcommand: (help, pipeline, shared options, its own options); options
# are (flag, argparse keyword arguments) pairs.
_COMMANDS = {
    "spectrum": ("linear-chain mode table", _cmd_spectrum, _CRYSTAL, ()),
    "zigzag": ("order parameter and zigzag spectrum", _cmd_zigzag, _CRYSTAL, (
        ("--nu-min", dict(type=float,
                          help="scan start (default: just below critical)")),
        ("--nu-max", dict(type=float)),
        ("--points", dict(type=int, default=41)))),
    "visibility": ("V(t) on a time window", _cmd_visibility, _PROBE, (
        ("--t-min", dict(type=float, default=0.0)),
        ("--t-max", dict(type=float, default=100.0)),
        ("--samples", dict(type=int, default=2001)))),
    "fourier": ("normalized spectrum of V(t)", _cmd_fourier, _PROBE, (
        ("--T-F", dict(type=float, default=DEFAULT_T_F,
                       help="sampling interval length, 1/omega_0")),
        ("--n-s", dict(type=int, default=DEFAULT_N_S, help="sample count")),
        ("--prominence", dict(type=float, default=1e-4)),
        ("--no-band", dict(dest="band", action="store_false",
                           help="skip the band-confinement table")))),
    "gamma-scan": ("Gamma(Delta) across the transition", _cmd_gamma_scan,
                   _COMMON + _ETA, (
        ("--delta-min", dict(type=float, default=-1e-2)),
        ("--delta-max", dict(type=float, default=1e-2)),
        ("--points", dict(type=int, default=21)))),
    "asymptotics": ("Gamma, dGamma/dDelta, A_inf, t* tables",
                    _cmd_asymptotics, _COMMON + _ETA, (
        ("--delta-min", dict(type=float, default=1e-4)),
        ("--delta-max", dict(type=float, default=1e-2)),
        ("--points", dict(type=int, default=12)))),
    "longtime": ("exact vs analytic V(t)", _cmd_longtime, _PROBE, (
        ("--t-max", dict(type=float, help="trace end (default 1.35 t*)")),
        ("--samples", dict(type=int, default=50_000,
                           help=f"sample count, >= {MIN_BURST_SAMPLES}")))),
    "figures": ("canned scenario runs", _cmd_figures, (_OUT,), (
        ("--which", dict(choices=[*sorted(_FIGURES), "all"],
                         default="all")),)),
}


def _add_options(sp, options) -> list:
    """Add `options` to `sp`; returns the dests that take a value."""
    actions = [sp.add_argument(flag, **kw) for flag, kw in options]
    return [a.dest for a in actions if a.nargs != 0]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coulombchain",
        description="Ring-chain phonons and Ramsey visibility toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    # allow_abbrev=False: a flag or config key names its option in full.
    for name, (help_, func, shared, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        _add_options(sp, shared)
        sp.set_defaults(func=func, recorded=_add_options(sp, options),
                        parser=sp)  # run() checks config lines against it
    return ap


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code, 1 also when
    the manifest records a failed proxy."""
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = ap.parse_args(argv)
        if getattr(ns, "config", None):
            # Config lines enter as options ahead of the command line's, so
            # the parser types them, rejects unknown keys and lets flags win.
            ns = ap.parse_args([*argv[:1], *_read_config(ns.config, ns.parser),
                                *argv[1:]])
        for pair in _GRID_BOUNDS:
            lo, hi = (getattr(ns, key, None) for key in pair)
            for key, v in zip(pair, (lo, hi)):
                if v is not None and not math.isfinite(v):
                    raise InvalidParameter(f"{key} must be finite, got {v}")
            if None not in (lo, hi) and not math.isfinite(hi - lo):
                raise InvalidParameter(
                    f"{pair[1]} - {pair[0]} must be finite, got {hi} - {lo}")
        outputs: list[str] = []

        def path(name: str) -> str:
            os.makedirs(ns.out, exist_ok=True)
            outputs.append(os.path.join(ns.out, name))
            return outputs[-1]

        t0 = time.perf_counter()
        params, derived = ns.func(ns, path)
        # Own options as parsed; derived values also resolve None defaults.
        grids = {**{k: getattr(ns, k) for k in ns.recorded}, **derived}
        manifest = RunManifest(subcommand=ns.subcommand, params=params,
                               grids=grids, version=__version__,
                               wall_time_s=time.perf_counter() - t0,
                               outputs=outputs)
        manifest.write(os.path.join(ns.out, f"{ns.subcommand}_manifest.json"))
        return 1 if any(not c["passed"] for c in grids.get("proxies", ())) else 0
    except InvalidParameter as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except CoulombChainError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:          # numpy raises a private subclass
        print(f"error [MemoryError]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
