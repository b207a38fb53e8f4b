"""Acceptance suite: the package's headline quantitative claims, end to end.

Every test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them all) and pins the tolerance it checks. Shared heavy runs are
cached so the suite stays fast.
"""

import functools
import math
import time

import mpmath
import numpy as np
import pytest

from coulombchain import (ChainParams, a_infinity, a_infinity_analytic,
                          axial_mode_set, b_analytic, b_of_t, bessel_Y0,
                          critical_frequency_finite,
                          critical_frequency_infinite, cusp_secant_slopes,
                          dispersion_axial, dispersion_transverse,
                          evaluate_trace, exponent_A, find_peaks,
                          find_revival_burst, fourier_spectrum,
                          gamma_coefficient, gamma_derivative_scan, gamma_fit,
                          gamma_transition_scan,
                          group_velocity, linear_chain_amplitudes,
                          max_group_velocity, revival_time,
                          spectral_band_check, thermal_weights,
                          transverse_band, transverse_mode_set,
                          visibility_trace, zigzag_equilibrium,
                          zigzag_spectrum)
from coulombchain.spectral import overlay_band
from oracles import dense_mode_matrix, label_residuals


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def _spectrum_run(delta: float):
    """N = 100 interference run at one detuning; cached across criteria."""
    p = ChainParams.from_delta(100, delta, 0.25)
    t0 = time.perf_counter()
    tr = visibility_trace(p)               # T_F = 1e4, n_s = 1e5 defaults
    spec = fourier_spectrum(tr)
    elapsed = time.perf_counter() - t0
    return p, tr, spec, elapsed


def test_criterion_1_critical_frequency():
    t0 = time.perf_counter()
    nu_c = critical_frequency_infinite()
    nu_1e4 = critical_frequency_finite(10_000)
    elapsed = time.perf_counter() - t0
    ref = float(mpmath.sqrt(3.5 * mpmath.zeta(3)))
    dev = abs(nu_c - ref) / ref
    gap = abs(nu_1e4 - nu_c)
    ok = dev < 1e-10 and gap < 1e-4 and elapsed < 1.0
    _verdict(1, ok, f"nu_c rel dev {dev:.2e} (tol 1e-10); "
                    f"|nu_c(1e4) - nu_c| = {gap:.2e} (tol 1e-4); "
                    f"{elapsed:.3f}s (limit 1s)")


def test_criterion_2_detuned_spectrum():
    p, tr, spec, elapsed = _spectrum_run(0.1)
    lo, hi = transverse_band(p)
    frac = spectral_band_check(spec, lo, hi)
    frac_c = spectral_band_check(spec, *overlay_band(p))
    peaks = find_peaks(spec, prominence=1e-4)
    grid = transverse_mode_set(p).omega
    worst = max(float(np.min(np.abs(grid - w))) for w, _ in peaks)
    ok = (frac >= 0.95 and worst <= spec.bin_width and elapsed < 120.0
          and len(peaks) > 0)
    _verdict(2, ok,
             f"band power fraction {frac:.4f} (min 0.95; overlay-edge "
             f"fraction {frac_c:.4f} reported); {len(peaks)} peaks all "
             f"within one bin of the mode grid (worst offset {worst:.2e}, "
             f"bin {spec.bin_width:.2e}); {elapsed:.1f}s (limit 120s)")


def test_criterion_3_near_critical_spectrum():
    p, tr, spec, _ = _spectrum_run(1e-4)
    soft = float(transverse_mode_set(p).omega.min())
    peaks = find_peaks(spec, prominence=1e-4)
    top = peaks[0][0]
    _, tr_ref, _, _ = _spectrum_run(0.1)
    mean_v = float(np.mean(tr.V))
    mean_ref = float(np.mean(tr_ref.V))
    ok = abs(top - soft) <= spec.bin_width and mean_v < mean_ref
    _verdict(3, ok,
             f"dominant line at {top:.6f} vs soft mode {soft:.6f} "
             f"(bin {spec.bin_width:.2e}); mean V {mean_v:.4f} < "
             f"detuned run's {mean_ref:.4f}")


def test_criterion_4_gaussian_decay_rate():
    devs = []
    for delta in (1e-4, 1e-3, 1e-2):
        p = ChainParams.from_delta(1000, delta, 0.05)
        amps = linear_chain_amplitudes(p)
        gamma = gamma_coefficient(amps).direct
        half = 0.095 / p.nu_t
        tr = evaluate_trace(amps, np.linspace(-half, half, 201),
                            with_overlap=False)
        gfit, _ = gamma_fit(tr)
        devs.append(abs(gfit - gamma) / gamma)
    worst = max(devs)
    _verdict(4, worst < 0.01,
             "short-time quadratic fit vs mode-sum rate: rel devs "
             + ", ".join(f"{d:.2e}" for d in devs) + " (tol 1e-2)")


def test_criterion_5_transition_cusp_and_log_divergence():
    t0 = time.perf_counter()
    scan = gamma_transition_scan(np.linspace(-1e-2, 1e-2, 21),
                                 N=256, eta_c=0.05)
    i0 = int(np.argmin(np.abs(scan.deltas)))
    min_at_zero = int(np.argmin(scan.gamma)) == i0
    rep = cusp_secant_slopes(scan)
    der = gamma_derivative_scan(np.logspace(-4, -2, 10), N=1000, eta_c=0.05)
    elapsed = time.perf_counter() - t0
    ok = (min_at_zero and rep.separation > 5.0 and der.r_squared > 0.99
          and elapsed < 600.0)
    _verdict(5, ok,
             f"minimum at zero detuning: {min_at_zero}; secant slopes "
             f"{rep.left_slope:.3e} / {rep.right_slope:.3e} differ by "
             f"{rep.separation:.1f} standard errors (min 5); log-law fit "
             f"R^2 = {der.r_squared:.6f} (min 0.99); {elapsed:.1f}s "
             f"(limit 600s)")


def test_criterion_6_revival_prediction():
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    v_max, k_star = max_group_velocity(p.nu_t, 1000)
    rev = revival_time(1000, p.nu_t)
    amps = linear_chain_amplitudes(p)
    n = 50_000
    dt = 1.35 * rev.t_star / n
    t = dt * np.arange(1, n + 1)
    tr = evaluate_trace(amps, t, with_overlap=False)
    burst = find_revival_burst(t, tr.V)
    ana = a_infinity_analytic(p, delta_ref=1e-3)
    v_ana = np.exp(-ana.evaluate(1e-3) + b_analytic(t, p))
    gap = p.soft_gap
    win = (t >= 3.0 / gap) & (t <= 0.8 * rev.t_star)
    mad = float(np.median(np.abs(tr.V[win] - v_ana[win])))
    burst_dev = abs(burst - rev.t_star) / rev.t_star if burst else math.inf
    ok = (abs(v_max - 0.81) / 0.81 < 0.01
          and abs(k_star - 2.64) / 2.64 < 0.02
          and abs(rev.t_star - 1229.0) / 1229.0 < 0.02
          and burst_dev < 0.10 and mad < 0.05)
    _verdict(6, ok,
             f"v_max {v_max:.4f} (0.81 +- 1%), k* {k_star:.4f} "
             f"(2.64 +- 2%), t* {rev.t_star:.1f} (1229 +- 2%); detected "
             f"burst at {burst:.1f} ({100 * burst_dev:.1f}% from t*, "
             f"max 10%); pre-revival MAD {mad:.2e} (max 0.05)")


def test_criterion_7_plateau_log_slope():
    deltas = np.logspace(-4, -2, 9)
    a_inf = []
    for d in deltas:
        p = ChainParams.from_delta(1000, float(d), 0.05)
        a_inf.append(a_infinity(linear_chain_amplitudes(p)).direct)
    slope = float(np.polyfit(np.log(deltas), a_inf, 1)[0])
    p = ChainParams.from_delta(1000, 1e-3, 0.05)
    pref = p.eta0 ** 2 * p.nu_t / (2 * math.pi * math.sqrt(math.log(2.0)))
    dev = abs(slope + pref) / pref
    _verdict(7, dev < 0.10,
             f"plateau-vs-log-detuning slope {slope:.6e} vs analytic "
             f"{-pref:.6e} (rel dev {dev:.2e}, tol 0.10)")


def test_criterion_8_property_suite():
    checks = []

    R = dense_mode_matrix(100)
    checks.append(("orthogonality",
                   np.max(np.abs(R.T @ R - np.eye(100))) < 1e-10))

    p = ChainParams.from_delta(100, 0.05, 0.2)
    amps = linear_chain_amplitudes(p)
    total = float(np.sum(amps.weight * amps.omega))
    checks.append(("sum rule",
                   abs(total - p.eta0 ** 2 * p.nu_t)
                   < 1e-10 * p.eta0 ** 2 * p.nu_t))

    t = np.linspace(0.0, 40.0, 501)
    A = exponent_A(t, amps)
    ident = np.max(np.abs(A - (a_infinity(amps).direct - b_of_t(t, amps))))
    checks.append(("decomposition", ident < 1e-12))

    tr = evaluate_trace(amps, t, with_overlap=True)
    checks.append(("overlap modulus",
                   float(np.max(np.abs(np.abs(tr.S) - tr.V))) < 1e-12))

    checks.append(("cold limit",
                   np.array_equal(thermal_weights(amps, 0.0), amps.weight)))

    from test_ramsey import brute_force_n4
    p4 = ChainParams(N=4, nu_t=2.5, eta_c=0.25)
    amps4 = linear_chain_amplitudes(p4)
    tt = np.array([0.3, 1.7, 5.2])
    s_pkg = evaluate_trace(amps4, tt, with_overlap=True).S
    s_ref = np.array([brute_force_n4(2.5, 0.25, float(v))[4] for v in tt])
    checks.append(("four-ion oracle",
                   float(np.max(np.abs(s_pkg - s_ref))) < 1e-12))

    xs = np.logspace(-2, 3, 60)
    y_dev = max(abs(float(bessel_Y0(x)) - float(mpmath.bessely(0, float(x))))
                for x in xs)
    checks.append(("bessel oracle", y_dev < 1e-7))
    asym_ok = all(
        abs(bessel_Y0(x) - (math.sin(x) - math.cos(x))
            / math.sqrt(math.pi * x))
        < 0.01 * abs(bessel_Y0(x)) for x in (25.0, 50.0, 100.0, 1000.0))
    checks.append(("bessel asymptote", asym_ok))

    h = 1e-6
    vg_ok = True
    for k in (0.3, 1.0, 2.0, 2.8):
        vg = group_velocity(k, 2.2, 100)
        fd = abs(float(dispersion_transverse(k + h, 2.2, 100)
                       - dispersion_transverse(k - h, 2.2, 100)) / (2 * h))
        vg_ok = vg_ok and abs(vg - fd) / fd < 1e-6
    checks.append(("group velocity", vg_ok))

    ok = all(flag for _, flag in checks)
    _verdict(8, ok, "; ".join(
        f"{name} {'ok' if flag else 'FAILED'}" for name, flag in checks))


def test_criterion_9_buckled_phase_structure():
    N = 256
    nu_c = critical_frequency_finite(N)
    p_crit = ChainParams(N=N, nu_t=nu_c, eta_c=0.0)
    k = axial_mode_set(N).k
    folded_linear = np.sort(np.concatenate(
        [dispersion_axial(k, N), dispersion_transverse(k, nu_c, N)]))
    fold = float(np.max(np.abs(zigzag_spectrum(p_crit).omega
                               - folded_linear)))

    eps = np.logspace(-6, -2, 9)
    b = np.array([zigzag_equilibrium(
        ChainParams(N=N, nu_t=nu_c - float(e), eta_c=0.0)).b for e in eps])
    expo = float(np.polyfit(np.log(eps), np.log(b), 1)[0])

    sp = zigzag_spectrum(ChainParams(N=N, nu_t=nu_c - 0.02, eta_c=0.0))
    tagged = np.isin(sp.n, (0, N // 4))
    n_tagged = int(np.count_nonzero(tagged))
    worst_res = float(np.max(label_residuals(sp, sp.n, sp.plus)[tagged]))

    ok = (fold < 1e-8 and abs(expo - 0.5) < 0.05
          and n_tagged == 8 and worst_res < 1e-6)
    _verdict(9, ok,
             f"spectrum fold mismatch {fold:.2e} (tol 1e-8); bifurcation "
             f"exponent {expo:.4f} (0.5 +- 0.05); {n_tagged} structural "
             f"modes at the zone center and quarter point, worst residual "
             f"{worst_res:.2e} (tol 1e-6)")
