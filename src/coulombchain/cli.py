"""Command-line front end: parameter resolution, CSV emission, run manifests.

Subcommands
-----------
spectrum      linear-chain mode table (n, k a, parity, omega_x, omega_y)
zigzag        order-parameter scan b(nu_t) and labeled zigzag spectrum
visibility    V(t) trace on an explicit time window
fourier       sampled V(t) -> normalized spectrum, peaks, optional band table
gamma-scan    Gamma(Delta) across the transition with cusp statistics
asymptotics   Gamma(Delta), dGamma/dDelta, A_inf(Delta), revival-time tables
longtime      exact V(t) against the calibrated long-time envelope
figures       canned parameter sets of the six bundled scenarios (2..7)

Parameters come from CLI flags, then a flat key=value config file, then
defaults; dimensionless values win over physical (SI) ones with a warning.
Every run writes the CSVs listed in its JSON manifest. CSV payloads carry
no timestamps, so identical inputs give bit-identical files; wall time
lives in the manifest only.

Exit codes: 0 success; 1 numerical or I/O failure (message names the error
class); 2 usage errors, including invalid parameter values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .asymptotics import (a_infinity, a_infinity_analytic, b_analytic,
                          cusp_secant_slopes, find_revival_burst,
                          gamma_coefficient, gamma_derivative_scan, gamma_fit,
                          gamma_transition_scan, revival_time)
from .errors import CoulombChainError, InvalidParameter
from .linear_modes import (axial_mode_set, critical_frequency_finite,
                           transverse_mode_set)
from .model import (ChainParams, PhysicalInput, critical_frequency_infinite,
                    derive_parameters, gap_parameters)
from .ramsey import evaluate_trace, linear_chain_amplitudes
from .spectral import (DEFAULT_N_S, DEFAULT_T_F, overlay_band, find_peaks,
                       fourier_spectrum, spectral_band_check, transverse_band,
                       visibility_trace)
from .zigzag import classify_zigzag_modes, zigzag_equilibrium, zigzag_spectrum

_PHYSICAL_KEYS = ("mass_kg", "charge_c", "spacing_m",
                  "transverse_frequency_rad_s", "laser_wavenumber_per_m")

_FLOAT_KEYS = {"nu_t", "delta", "eta_c", "theta", "t_min", "t_max", "T_F",
               "delta_min", "delta_max", "nu_min", "nu_max", "prominence",
               "temperature_k", *_PHYSICAL_KEYS}
_INT_KEYS = {"N", "samples", "n_s", "points"}


@dataclasses.dataclass
class RunManifest:
    """Inputs and outputs of one CLI run; JSON-serialized next to the CSVs."""

    subcommand: str
    params: dict
    grids: dict
    version: str
    wall_time_s: float
    outputs: list

    def write(self, path: str) -> None:
        _atomic_write(path, json.dumps(dataclasses.asdict(self), indent=2,
                                       sort_keys=True) + "\n")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def emit_csv(header, rows, path: str) -> None:
    """Write a rectangular table: header row, >= 12 significant digits,
    newline-terminated, no locale formatting, atomic replace."""
    ncol = len(header)
    lines = [",".join(header)]
    for row in rows:
        if len(row) != ncol:
            raise InvalidParameter(
                f"row of width {len(row)} in a {ncol}-column table")
        lines.append(",".join(_cell(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_config(path: str) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    out = {}
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
            out[key] = val
    return out


def _coerce(key: str, val: str):
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
    except ValueError:
        raise InvalidParameter(f"config value {key} = {val!r} is not numeric")
    return val


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


class _Settings:
    """Merged view of CLI flags over config file values."""

    def __init__(self, ns: argparse.Namespace):
        cfg = _read_config(ns.config) if getattr(ns, "config", None) else {}
        self.values = {k: _coerce(k, v) for k, v in cfg.items()}
        for key, val in vars(ns).items():
            if key in ("config", "func", "out") or val is None:
                continue
            self.values[key] = val
        self.out = getattr(ns, "out", None) or self.values.get("out", ".")

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise InvalidParameter(f"missing required parameter: {key}")
        return self.values[key]


def _resolve_chain(s: _Settings, default_eta: float | None = None,
                   even_only: bool = True) -> ChainParams:
    """ChainParams from settings; dimensionless beats physical with a warning."""
    N = s.require("N")
    phys_given = [k for k in _PHYSICAL_KEYS if s.get(k) is not None]
    derived = None
    if phys_given:
        if len(phys_given) < len(_PHYSICAL_KEYS):
            missing = sorted(set(_PHYSICAL_KEYS) - set(phys_given))
            raise InvalidParameter(
                "physical input needs all of "
                f"{', '.join(_PHYSICAL_KEYS)}; missing {', '.join(missing)}")
        phys = PhysicalInput(
            mass_kg=s.get("mass_kg"), charge_c=s.get("charge_c"),
            spacing_m=s.get("spacing_m"),
            transverse_frequency_rad_s=s.get("transverse_frequency_rad_s"),
            laser_wavenumber_per_m=s.get("laser_wavenumber_per_m"),
            temperature_k=s.get("temperature_k", 0.0))
        derived = derive_parameters(phys, N)

    nu_t = s.get("nu_t")
    delta = s.get("delta")
    if nu_t is not None and delta is not None:
        raise InvalidParameter("give either nu_t or delta, not both")
    if delta is not None:
        nu_t = critical_frequency_infinite() + delta
    if derived is not None and (nu_t is not None or s.get("eta_c") is not None):
        _warn("both physical and dimensionless parameters given; "
              "dimensionless values take precedence")
    if nu_t is None:
        nu_t = derived.nu_t if derived else None
    if nu_t is None:
        raise InvalidParameter("missing required parameter: nu_t or delta")

    eta_c = s.get("eta_c")
    if eta_c is None:
        eta_c = derived.eta_c if derived else default_eta
    if eta_c is None:
        raise InvalidParameter("missing required parameter: eta_c")
    theta = s.get("theta")
    if theta is None:
        theta = derived.theta if derived else 0.0
    return ChainParams(N=N, nu_t=float(nu_t), eta_c=float(eta_c),
                       theta=float(theta))


def _params_dict(p: ChainParams) -> dict:
    return {"N": p.N, "nu_t": p.nu_t, "eta_c": p.eta_c, "theta": p.theta,
            "delta": p.delta_trans, "eta0": p.eta0, "probe_site": 1}


class _Run:
    """Collects output paths and writes the manifest on close."""

    def __init__(self, subcommand: str, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.subcommand = subcommand
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.t0 = time.time()

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.outputs.append(p)
        return p

    def finish(self, params: dict, grids: dict) -> None:
        man = RunManifest(subcommand=self.subcommand, params=params,
                          grids=grids, version=__version__,
                          wall_time_s=time.time() - self.t0,
                          outputs=list(self.outputs))
        man.write(os.path.join(self.out_dir, f"{self.subcommand}_manifest.json"))


# ---------------------------------------------------------------- subcommands


def _cmd_spectrum(ns) -> int:
    s = _Settings(ns)
    p = _resolve_chain(s, default_eta=0.0)
    run = _Run("spectrum", s.out)
    ms_y = transverse_mode_set(p)
    ms_x = axial_mode_set(p.N)
    rows = [(m.n, m.k, m.sigma, wx, wy)
            for m, wx, wy in zip(ms_y.modes, ms_x.omega, ms_y.omega)]
    emit_csv(("n", "k_a", "parity", "omega_x", "omega_y"), rows,
             run.path("spectrum.csv"))
    run.finish(_params_dict(p), {"modes": len(rows)})
    return 0


def _cmd_zigzag(ns) -> int:
    s = _Settings(ns)
    p = _resolve_chain(s, default_eta=0.0)
    nu_cn = critical_frequency_finite(p.N)
    nu_min = s.get("nu_min", nu_cn - 0.15)
    nu_max = s.get("nu_max", nu_cn + 0.05)
    points = s.get("points", 41)
    run = _Run("zigzag", s.out)

    grid = np.linspace(nu_min, nu_max, points)
    rows = []
    for nu in grid:
        eq = zigzag_equilibrium(ChainParams(N=p.N, nu_t=float(nu),
                                            eta_c=p.eta_c, theta=p.theta))
        rows.append((eq.nu_t, eq.b, eq.energy_per_ion))
    emit_csv(("nu_t", "b", "energy_per_ion"), rows,
             run.path("zigzag_amplitude.csv"))

    spec = zigzag_spectrum(p)
    modes = classify_zigzag_modes(spec)
    emit_csv(("k_a", "beta", "parity", "omega", "n", "special"),
             [(m.k, m.beta, m.sigma, m.omega, m.n, m.special) for m in modes],
             run.path("zigzag_spectrum.csv"))
    run.finish(_params_dict(p),
               {"nu_min": float(nu_min), "nu_max": float(nu_max),
                "points": int(points), "b": spec.b})
    return 0


def _cmd_visibility(ns) -> int:
    s = _Settings(ns)
    p = _resolve_chain(s)
    t_min = s.get("t_min", 0.0)
    t_max = s.get("t_max", 100.0)
    samples = s.get("samples", 2001)
    if not t_min < t_max:
        raise InvalidParameter("need t_min < t_max")
    if samples < 2:
        raise InvalidParameter("samples must be >= 2")
    run = _Run("visibility", s.out)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(t_min, t_max, samples)
    tr = evaluate_trace(amps, t, theta=p.theta)
    emit_csv(("t", "A", "V", "Re_S", "Im_S"),
             zip(tr.t, tr.A, tr.V, tr.S.real, tr.S.imag),
             run.path("visibility.csv"))
    run.finish(_params_dict(p),
               {"t_min": float(t_min), "t_max": float(t_max),
                "samples": int(samples)})
    return 0


def _cmd_fourier(ns) -> int:
    s = _Settings(ns)
    p = _resolve_chain(s)
    T_F = s.get("T_F", DEFAULT_T_F)
    n_s = s.get("n_s", DEFAULT_N_S)
    prominence = s.get("prominence", 1e-4)
    run = _Run("fourier", s.out)
    tr = visibility_trace(p, T_F=T_F, n_s=n_s)
    spec = fourier_spectrum(tr)
    emit_csv(("omega", "F"), zip(spec.omega, spec.F), run.path("fourier.csv"))
    peaks = find_peaks(spec, prominence=prominence)
    emit_csv(("omega", "F"), peaks, run.path("fourier_peaks.csv"))
    grids = {"T_F": float(T_F), "n_s": int(n_s),
             "bin_width": spec.bin_width, "prominence": float(prominence)}
    if ns.band:
        rows = []
        for name, (lo, hi) in (("transverse", transverse_band(p)),
                               ("overlay", overlay_band(p))):
            rows.append((name, lo, hi, spectral_band_check(spec, lo, hi)))
        emit_csv(("convention", "omega_min", "omega_max", "power_fraction"),
                 rows, run.path("fourier_band.csv"))
        grids["band"] = {r[0]: {"omega_min": r[1], "omega_max": r[2],
                                "power_fraction": r[3]} for r in rows}
    run.finish(_params_dict(p), grids)
    return 0


def _cmd_gamma_scan(ns) -> int:
    s = _Settings(ns)
    N = s.require("N")
    eta_c = s.require("eta_c")
    d_min = s.get("delta_min", -1e-2)
    d_max = s.get("delta_max", 1e-2)
    points = s.get("points", 21)
    if points < 7 or points % 2 == 0:
        raise InvalidParameter("points must be odd and >= 7 (both sides + 0)")
    run = _Run("gamma-scan", s.out)
    deltas = np.linspace(d_min, d_max, points)
    scan = gamma_transition_scan(deltas, N=N, eta_c=eta_c)
    emit_csv(("delta", "gamma", "phase"),
             zip(scan.deltas, scan.gamma, scan.kinds),
             run.path("gamma_scan.csv"))
    cusp = {}
    try:
        rep = cusp_secant_slopes(scan)
        cusp = {"left_slope": rep.left_slope, "right_slope": rep.right_slope,
                "left_stderr": rep.left_stderr,
                "right_stderr": rep.right_stderr,
                "separation_se": rep.separation}
    except InvalidParameter:
        pass  # grid does not straddle zero; scan table is still valid
    run.finish({"N": N, "eta_c": eta_c},
               {"delta_min": float(d_min), "delta_max": float(d_max),
                "points": int(points), "cusp": cusp})
    return 0


def _cmd_asymptotics(ns) -> int:
    s = _Settings(ns)
    N = s.require("N")
    eta_c = s.require("eta_c")
    d_min = s.get("delta_min", 1e-4)
    d_max = s.get("delta_max", 1e-2)
    points = s.get("points", 12)
    if d_min <= 0:
        raise InvalidParameter("asymptotics tables need delta_min > 0")
    run = _Run("asymptotics", s.out)
    deltas = np.logspace(math.log10(d_min), math.log10(d_max), points)

    gam = [gamma_coefficient(linear_chain_amplitudes(
        ChainParams.from_delta(N, float(d), eta_c))).direct for d in deltas]
    emit_csv(("delta", "gamma"), zip(deltas, gam), run.path("gamma_table.csv"))

    der = gamma_derivative_scan(deltas, N=N, eta_c=eta_c)
    emit_csv(("delta", "dgamma_ddelta"), zip(der.deltas, der.dgamma),
             run.path("dgamma_table.csv"))

    ref = ChainParams.from_delta(N, float(deltas[-1]), eta_c)
    ana = a_infinity_analytic(ref, delta_ref=float(deltas[-1]))
    rows = []
    for d in deltas:
        p = ChainParams.from_delta(N, float(d), eta_c)
        rows.append((d, a_infinity(linear_chain_amplitudes(p)).direct,
                     ana.evaluate(float(d))))
    emit_csv(("delta", "a_inf", "a_inf_analytic"), rows,
             run.path("a_infinity_table.csv"))

    rev_rows = []
    for d in deltas:
        p = ChainParams.from_delta(N, float(d), eta_c)
        r = revival_time(N, p.nu_t)
        rev_rows.append((d, p.nu_t, r.v_max, r.k_star, r.t_star))
    emit_csv(("delta", "nu_t", "v_max", "k_star", "t_star"), rev_rows,
             run.path("revival_table.csv"))

    run.finish({"N": N, "eta_c": eta_c},
               {"delta_min": float(d_min), "delta_max": float(d_max),
                "points": int(points),
                "dgamma_fit": {"a": der.a, "b": der.b,
                               "r_squared": der.r_squared},
                "a_inf_analytic": {"slope": ana.slope, "offset": ana.offset,
                                   "delta_ref": ana.delta_ref}})
    return 0


def _cmd_longtime(ns) -> int:
    s = _Settings(ns)
    p = _resolve_chain(s)
    rev = revival_time(p.N, p.nu_t)
    t_max = s.get("t_max", 1.35 * rev.t_star)
    samples = s.get("samples", 50_000)
    run = _Run("longtime", s.out)

    amps = linear_chain_amplitudes(p)
    dt = t_max / samples
    t = dt * np.arange(1, samples + 1)     # analytic form needs t > 0
    tr = evaluate_trace(amps, t, theta=p.theta, with_overlap=False)
    gaps = gap_parameters(p)
    ana = a_infinity_analytic(p, delta_ref=gaps.Delta)
    V_ana = np.exp(-ana.evaluate(gaps.Delta) + b_analytic(t, p))
    emit_csv(("t", "V_exact", "V_analytic"), zip(t, tr.V, V_ana),
             run.path("longtime.csv"))

    # Detector windows scale with t* so short chains stay detectable; at
    # t* ~ 1230 they reduce to the documented 50/50/200 defaults.
    burst = find_revival_burst(t, tr.V, window=0.04 * rev.t_star,
                               baseline_gap=0.04 * rev.t_star,
                               baseline_span=0.16 * rev.t_star)
    run.finish(_params_dict(p),
               {"t_max": float(t_max), "samples": int(samples),
                "t_star": rev.t_star, "v_max": rev.v_max,
                "k_star": rev.k_star, "burst_time": burst,
                "soft_gap": gaps.delta})
    return 0


# ------------------------------------------------------------------- figures


def _proxy(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append((name, bool(ok), detail))
    tag = "ok" if ok else "FAIL"
    print(f"  proxy {name}: {tag} ({detail})")


def _fig_spectrum_run(run: _Run, tag: str, p: ChainParams):
    """Shared body of the two spectrum scenarios; returns trace and spectrum."""
    tr = visibility_trace(p, T_F=DEFAULT_T_F, n_s=DEFAULT_N_S)
    emit_csv(("t", "A", "V"), zip(tr.t, tr.A, tr.V),
             run.path(f"{tag}_visibility.csv"))
    spec = fourier_spectrum(tr)
    emit_csv(("omega", "F"), zip(spec.omega, spec.F),
             run.path(f"{tag}_spectrum.csv"))
    return tr, spec


_FIG2_PARAMS = dict(N=100, delta=1e-1, eta_c=0.25)
_FIG3_PARAMS = dict(N=100, delta=1e-4, eta_c=0.25)


def _fig2(run: _Run, checks: list) -> dict:
    p = ChainParams.from_delta(**_FIG2_PARAMS)
    tr, spec = _fig_spectrum_run(run, "fig2", p)

    lo, hi = transverse_band(p)
    frac = spectral_band_check(spec, lo, hi)
    lo_c, hi_c = overlay_band(p)
    frac_c = spectral_band_check(spec, lo_c, hi_c)
    _proxy(checks, "fig2 band confinement", frac >= 0.95,
           f"power fraction {frac:.4f} in [{lo:.4f}, {hi:.4f}]; "
           f"overlay-form fraction {frac_c:.4f}")

    # Away from the transition the signal is perturbative, so every line
    # sits on a mode frequency; combination lines are below prominence.
    peaks = find_peaks(spec, prominence=1e-4)
    omega_y = transverse_mode_set(p).omega
    worst = max((float(np.min(np.abs(omega_y - w))) for w, _ in peaks),
                default=0.0)
    _proxy(checks, "fig2 peaks on mode grid",
           bool(peaks) and worst <= spec.bin_width,
           f"{len(peaks)} peaks, worst offset {worst:.2e} "
           f"(bin {spec.bin_width:.2e})")
    out = _params_dict(p)
    out["mean_V"] = float(np.mean(tr.V))
    return out


def _fig3(run: _Run, checks: list) -> dict:
    p = ChainParams.from_delta(**_FIG3_PARAMS)
    tr, spec = _fig_spectrum_run(run, "fig3", p)

    omega_y = transverse_mode_set(p).omega
    soft = float(np.min(omega_y[omega_y > 0]))
    peaks = find_peaks(spec, prominence=1e-4)
    top = peaks[0][0] if peaks else math.nan
    _proxy(checks, "fig3 soft-mode peak",
           bool(peaks) and abs(top - soft) <= spec.bin_width,
           f"top peak {top:.6f} vs omega_y(pi) {soft:.6f}")

    # Deeper decay near the transition: mean V below the detuned scenario's.
    ref = visibility_trace(ChainParams.from_delta(**_FIG2_PARAMS),
                           T_F=DEFAULT_T_F, n_s=DEFAULT_N_S)
    mean_v, mean_ref = float(np.mean(tr.V)), float(np.mean(ref.V))
    _proxy(checks, "fig3 deeper decay", mean_v < mean_ref,
           f"mean V {mean_v:.4f} vs {mean_ref:.4f} at the larger detuning")
    out = _params_dict(p)
    out["mean_V"] = mean_v
    return out


def _fig4(run: _Run, checks: list) -> dict:
    N, eta_c = 1000, 0.05
    rows = []
    worst = 0.0
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
             rows, run.path("fig4_gamma.csv"))
    _proxy(checks, "fig4 quadratic fit", worst < 0.01,
           f"worst relative deviation {worst:.2e}")
    return {"N": N, "eta_c": eta_c, "deltas": [1e-4, 1e-3, 1e-2]}


def _fig5(run: _Run, checks: list) -> dict:
    N_scan, N_fit, eta_c = 256, 1000, 0.05
    deltas = np.linspace(-1e-2, 1e-2, 21)
    scan = gamma_transition_scan(deltas, N=N_scan, eta_c=eta_c)
    emit_csv(("delta", "gamma", "phase"),
             zip(scan.deltas, scan.gamma, scan.kinds),
             run.path("fig5_gamma.csv"))
    i_min = int(np.argmin(scan.gamma))
    rep = cusp_secant_slopes(scan)
    _proxy(checks, "fig5 minimum at zero", scan.deltas[i_min] == 0.0,
           f"minimum at delta = {scan.deltas[i_min]:g}")
    _proxy(checks, "fig5 cusp slopes", rep.separation > 5.0,
           f"left {rep.left_slope:.4g}, right {rep.right_slope:.4g}, "
           f"{rep.separation:.1f} standard errors apart")

    dgrid = np.logspace(-4, -2, 12)
    der = gamma_derivative_scan(dgrid, N=N_fit, eta_c=eta_c)
    emit_csv(("delta", "dgamma_ddelta"), zip(der.deltas, der.dgamma),
             run.path("fig5_dgamma.csv"))
    _proxy(checks, "fig5 log fit", der.r_squared > 0.99,
           f"R^2 = {der.r_squared:.6f}, b = {der.b:.4g}")
    return {"N_scan": N_scan, "N_fit": N_fit, "eta_c": eta_c}


def _fig6(run: _Run, checks: list) -> dict:
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    rev = revival_time(p.N, p.nu_t)
    _proxy(checks, "fig6 v_max", abs(rev.v_max - 0.81) / 0.81 < 0.01,
           f"v_max = {rev.v_max:.4f}")
    _proxy(checks, "fig6 k_star", abs(rev.k_star - 2.64) / 2.64 < 0.02,
           f"k* = {rev.k_star:.4f}")
    _proxy(checks, "fig6 t_star", abs(rev.t_star - 1229.0) / 1229.0 < 0.02,
           f"t* = {rev.t_star:.2f}")

    amps = linear_chain_amplitudes(p)
    t_max = 1.35 * rev.t_star
    n = 50_000
    dt = t_max / n
    t = dt * np.arange(1, n + 1)
    tr = evaluate_trace(amps, t, with_overlap=False)
    gaps = gap_parameters(p)
    ana = a_infinity_analytic(p, delta_ref=gaps.Delta)
    V_ana = np.exp(-ana.evaluate(gaps.Delta) + b_analytic(t, p))
    emit_csv(("t", "V_exact", "V_analytic"), zip(t, tr.V, V_ana),
             run.path("fig6_longtime.csv"))

    burst = find_revival_burst(t, tr.V)
    _proxy(checks, "fig6 revival detector",
           burst is not None and abs(burst - rev.t_star) < 0.1 * rev.t_star,
           f"burst at {burst if burst is None else round(burst, 2)} "
           f"vs t* = {rev.t_star:.2f}")
    mask = (t >= 3.0 / gaps.delta) & (t <= 0.8 * rev.t_star)
    mad = float(np.mean(np.abs(V_ana[mask] - tr.V[mask])))
    _proxy(checks, "fig6 envelope deviation", mad < 0.05,
           f"mean absolute deviation {mad:.2e}")
    out = _params_dict(p)
    out.update({"t_star": rev.t_star, "v_max": rev.v_max,
                "k_star": rev.k_star, "burst_time": burst})
    return out


def _fig7(run: _Run, checks: list) -> dict:
    N, eta_c = 1000, 0.05
    deltas = np.logspace(-4, -2, 12)
    rows = []
    for d in deltas:
        p = ChainParams.from_delta(N, float(d), eta_c)
        rows.append((d, a_infinity(linear_chain_amplitudes(p)).direct))
    slope = -float(np.polyfit(np.log(deltas), [r[1] for r in rows], 1)[0])
    p_ref = ChainParams.from_delta(N, 1e-3, eta_c)
    pred = a_infinity_analytic(p_ref).slope
    ana = a_infinity_analytic(p_ref)
    emit_csv(("delta", "a_inf", "a_inf_analytic"),
             [(d, a, ana.evaluate(float(d))) for (d, a) in rows],
             run.path("fig7_a_infinity.csv"))
    rel = abs(slope - pred) / pred
    _proxy(checks, "fig7 saturation slope", rel < 0.10,
           f"fit slope {slope:.6g} vs analytic {pred:.6g} ({rel:.1%} off)")
    return {"N": N, "eta_c": eta_c, "slope_fit": slope,
            "slope_analytic": pred}


_FIGURES = {"2": _fig2, "3": _fig3, "4": _fig4, "5": _fig5,
            "6": _fig6, "7": _fig7}


def _cmd_figures(ns) -> int:
    s = _Settings(ns)
    which = ns.which
    names = sorted(_FIGURES) if which == "all" else [which]
    run = _Run("figures", s.out)
    checks: list = []
    scenario_params = {}
    for name in names:
        print(f"scenario {name}:")
        scenario_params[name] = _FIGURES[name](run, checks)
    failed = [c for c in checks if not c[1]]
    run.finish({"scenarios": scenario_params},
               {"which": which,
                "proxies": [{"name": n, "passed": ok, "detail": d}
                            for n, ok, d in checks]})
    if failed:
        for name, _, detail in failed:
            print(f"error: proxy failed: {name} ({detail})", file=sys.stderr)
        return 1
    print(f"all {len(checks)} proxies passed")
    return 0


# ----------------------------------------------------------------- front end


def _add_common(sp, physical: bool = True):
    sp.add_argument("--config", help="flat key = value parameter file")
    sp.add_argument("--out", help="output directory (default .)")
    sp.add_argument("--N", type=int, help="ion count")
    sp.add_argument("--nu-t", dest="nu_t", type=float,
                    help="transverse confinement, omega_0 units")
    sp.add_argument("--delta", type=float,
                    help="detuning nu_t - nu_c, omega_0 units")
    sp.add_argument("--eta-c", dest="eta_c", type=float,
                    help="Lamb-Dicke parameter at the critical frequency")
    sp.add_argument("--theta", type=float,
                    help="temperature k_B T / (hbar omega_0)")
    if physical:
        sp.add_argument("--mass-kg", dest="mass_kg", type=float)
        sp.add_argument("--charge-c", dest="charge_c", type=float)
        sp.add_argument("--spacing-m", dest="spacing_m", type=float)
        sp.add_argument("--transverse-frequency-rad-s",
                        dest="transverse_frequency_rad_s", type=float)
        sp.add_argument("--laser-wavenumber-per-m",
                        dest="laser_wavenumber_per_m", type=float)
        sp.add_argument("--temperature-k", dest="temperature_k", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coulombchain",
        description="Ring-chain phonons and Ramsey visibility toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="linear-chain mode table")
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("zigzag", help="order parameter and zigzag spectrum")
    _add_common(sp)
    sp.add_argument("--nu-min", dest="nu_min", type=float,
                    help="scan start (default: just below critical)")
    sp.add_argument("--nu-max", dest="nu_max", type=float)
    sp.add_argument("--points", type=int)
    sp.set_defaults(func=_cmd_zigzag)

    sp = sub.add_parser("visibility", help="V(t) on a time window")
    _add_common(sp)
    sp.add_argument("--t-min", dest="t_min", type=float)
    sp.add_argument("--t-max", dest="t_max", type=float)
    sp.add_argument("--samples", type=int)
    sp.set_defaults(func=_cmd_visibility)

    sp = sub.add_parser("fourier", help="normalized spectrum of V(t)")
    _add_common(sp)
    sp.add_argument("--T-F", dest="T_F", type=float,
                    help="sampling interval length, 1/omega_0")
    sp.add_argument("--n-s", dest="n_s", type=int, help="sample count")
    sp.add_argument("--prominence", type=float)
    band = sp.add_mutually_exclusive_group()
    band.add_argument("--band", action="store_true", default=True,
                      help="emit band-confinement table (default)")
    band.add_argument("--no-band", dest="band", action="store_false")
    sp.set_defaults(func=_cmd_fourier)

    sp = sub.add_parser("gamma-scan",
                        help="Gamma(Delta) across the transition")
    _add_common(sp, physical=False)
    sp.add_argument("--delta-min", dest="delta_min", type=float)
    sp.add_argument("--delta-max", dest="delta_max", type=float)
    sp.add_argument("--points", type=int)
    sp.set_defaults(func=_cmd_gamma_scan)

    sp = sub.add_parser("asymptotics",
                        help="Gamma, dGamma/dDelta, A_inf, t* tables")
    _add_common(sp, physical=False)
    sp.add_argument("--delta-min", dest="delta_min", type=float)
    sp.add_argument("--delta-max", dest="delta_max", type=float)
    sp.add_argument("--points", type=int)
    sp.set_defaults(func=_cmd_asymptotics)

    sp = sub.add_parser("longtime", help="exact vs analytic V(t)")
    _add_common(sp)
    sp.add_argument("--t-max", dest="t_max", type=float)
    sp.add_argument("--samples", type=int)
    sp.set_defaults(func=_cmd_longtime)

    sp = sub.add_parser("figures", help="canned scenario runs")
    sp.add_argument("--which", choices=[*sorted(_FIGURES), "all"],
                    default="all")
    sp.add_argument("--config", help="flat key = value parameter file")
    sp.add_argument("--out", help="output directory (default .)")
    sp.set_defaults(func=_cmd_figures)
    return ap


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except InvalidParameter as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except CoulombChainError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
