"""Time traces and their Fourier-side diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from coulombchain import (ChainParams, FourierSpectrum, VisibilityTrace,
                          evaluate_trace, overlay_band, find_peaks,
                          fourier_spectrum, linear_chain_amplitudes,
                          spectral_band_check, transverse_band,
                          visibility_trace)
from coulombchain import linear_modes, spectral
from coulombchain.errors import InvalidParameter, ResourceLimit
from coulombchain.ramsey import _uniform_step
from coulombchain.spectral import (DC_FLOOR_BINS, _peak_prominences,
                                   check_trace_samples)
from oracles import prominences_by_walk


def _tone_trace(omegas, amps, n_s=4096, T_F=400.0):
    dt = T_F / n_s
    t = -0.5 * T_F + dt * np.arange(n_s)
    V = np.full(n_s, 0.8)
    for w, a in zip(omegas, amps):
        V = V + a * np.cos(w * t)
    return VisibilityTrace(t=t, A=-np.log(V), V=V, S=None,
                           theta=0.0, nu_t=2.5)


def test_trace_grid_and_symmetry():
    p = ChainParams(N=8, nu_t=2.5, eta_c=0.1)
    tr = visibility_trace(p, T_F=200.0, n_s=2048)
    dt = 200.0 / 2048
    assert tr.t[0] == -100.0
    assert np.allclose(np.diff(tr.t), dt, rtol=0, atol=1e-12)
    # V is even: the grid pairs index n with n_s - n
    n = np.arange(1, 1024)
    assert np.max(np.abs(tr.V[n] - tr.V[2048 - n])) < 1e-12


def test_trace_limits():
    p = ChainParams(N=8, nu_t=2.5, eta_c=0.1)
    with pytest.raises(InvalidParameter):
        visibility_trace(p, n_s=512)
    for T_F in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match=f"T_F must be positive "
                           f"and finite, got {T_F}"):
            visibility_trace(p, T_F=T_F)
    with pytest.raises(ResourceLimit):
        visibility_trace(p, n_s=10**9)


def test_trace_samples_keep_the_build_budget():
    # 150 B per sample: about 1.3e7 samples fit the 2e9-byte budget of
    # every O(N) build, and 1e8 samples would trace about 14 GB.
    limit = linear_modes._BUILD_BUDGET // spectral._SAMPLE_BYTES
    check_trace_samples(limit)
    for n in (limit + 1, 5 * 10 ** 7, 10 ** 8):
        with pytest.raises(ResourceLimit, match=f"trace arrays of {n} "
                           f"samples need about .* \\(150 per sample\\)"):
            check_trace_samples(n)


def test_constant_trace_is_pure_dc():
    spec = fourier_spectrum(_tone_trace([], []))
    assert spec.F[0] == pytest.approx(1.0)
    assert np.max(spec.F[1:]) < 1e-12
    assert spec.bin_width == pytest.approx(2 * np.pi / 400.0, rel=1e-12)


def test_single_tone_lands_in_its_bin():
    w0 = 1.3
    spec = fourier_spectrum(_tone_trace([w0], [1e-3]))
    peaks = find_peaks(spec, prominence=1e-4)
    assert len(peaks) == 1
    assert abs(peaks[0][0] - w0) <= spec.bin_width


def test_two_tones_two_peaks():
    spec = fourier_spectrum(_tone_trace([0.9, 2.2], [1e-3, 5e-4]))
    peaks = find_peaks(spec, prominence=1e-4)
    assert len(peaks) == 2
    assert peaks[0][1] > peaks[1][1]            # sorted by amplitude
    assert abs(peaks[0][0] - 0.9) <= spec.bin_width
    assert abs(peaks[1][0] - 2.2) <= spec.bin_width
    assert find_peaks(spec, prominence=2.0) == []
    with pytest.raises(InvalidParameter):
        find_peaks(spec, prominence=0.0)


@pytest.mark.parametrize("F, prominence, match", [
    ([0, 1, 0, 2, 0, 3, math.nan, 1, 0, 5, 0], 1e-4,
     r"F must be finite; F\[6\] = nan"),
    ([0, 1, 0, -math.inf, 0, 1, 0], 1e-4, r"F must be finite; F\[3\] = -inf"),
    ([0, 1, 0, 2, 0], math.nan, "prominence must be positive and finite, "
                                "got nan"),
    ([0, 1, 0, 2, 0], math.inf, "prominence must be positive and finite"),
    ([0, 1, 0, 2, 0], -1.0, "prominence must be positive and finite"),
], ids=["nan_F", "inf_F", "nan_prominence", "inf_prominence",
        "negative_prominence"])
def test_find_peaks_rejects_bad_inputs(F, prominence, match):
    F = np.array(F, dtype=float)
    spec = FourierSpectrum(omega=np.arange(len(F), dtype=float), F=F,
                           bin_width=1.0)
    with pytest.raises(InvalidParameter, match=match):
        find_peaks(spec, prominence=prominence)


def _seeded_peak_arrays(rng, count):
    """Arrays with plateaus, ties, edge maxima and random walks."""
    for trial in range(count):
        n = int(rng.integers(0, 300))
        kind = trial % 4
        if kind == 0:                           # few levels: ties, plateaus
            yield rng.integers(0, 4, n).astype(float)
        elif kind == 1:                         # random walk
            yield np.cumsum(rng.normal(size=n))
        elif kind == 2:                         # rounded walk: flat tops
            yield np.round(np.cumsum(rng.normal(size=n)))
        else:                                   # runs of repeated values
            runs = rng.normal(size=n // 3 + 1)
            yield np.repeat(runs, rng.integers(1, 5, runs.size))[:n]


def _peak_test_arrays():
    crafted = [[], [1.0], [1, 2], [2, 1, 2], [0, 1, 1, 0], [0, 1, 1, 1, 1, 0],
               [3, 1, 2, 1, 3], [0, 2, 0, 2, 0], [2, 2, 1, 2, 2], [1, 2, 2],
               [0, 1, 1, 2, 1, 1, 0], [5, 0, 1, 0, 1, 0, 5],
               # edge rises: a base that ends at a higher edge sample
               [5, 4, 1, 3, 0], [0, 3, 1, 4, 5], [9, 2, 3, 1, 4, 0, 8],
               [6, 6, 1, 2, 0, 3, 7, 7],
               # equal-height peaks, which never end each other's run
               [1, 3, 1, 3, 1, 3, 1], [0, 2, 1, 2, 0, 2, 1],
               [4, 1, 3, 0, 3, 1, 4], [0, 2, 0, 2, 2, 0, 2, 0],
               [1, 3, 0, 3, 2, 3, 1, 4, 0],
               # runs of maxima falling then rising: deep stacks each side
               [0, 5, 0, 4, 0, 3, 0, 2, 0, 3, 0, 4, 0, 5, 0],
               [0, 1, 0, 2, 0, 3, 0, 3, 0, 2, 0, 1, 0]]
    arrays = [np.array(a, dtype=float) for a in crafted]
    return arrays + list(_seeded_peak_arrays(np.random.default_rng(1729),
                                             1000))


def test_peak_prominences_equal_scipy():
    signal = pytest.importorskip("scipy.signal")
    for x in _peak_test_arrays():
        peaks, prom = _peak_prominences(x)
        want, props = signal.find_peaks(x, prominence=(None, None))
        assert np.array_equal(peaks, want), x
        assert np.array_equal(prom, props["prominences"]), x


def test_peak_prominences_equal_the_walk_from_each_peak():
    # The same arrays as the scipy test, against a walk out from each peak
    # to its first strictly higher sample, so this runs without scipy.
    for x in _peak_test_arrays():
        peaks, prom = _peak_prominences(x)
        want, want_prom = prominences_by_walk(x)
        assert np.array_equal(peaks, want), x
        assert np.array_equal(prom, want_prom), x


def test_find_peaks_equals_scipy_on_a_near_critical_spectrum():
    signal = pytest.importorskip("scipy.signal")
    spec = fourier_spectrum(
        visibility_trace(ChainParams.from_delta(100, 1e-4, 0.25)))
    for prominence in (1e-6, 1e-4, 1e-2):
        idx, _ = signal.find_peaks(spec.F, prominence=prominence)
        want = sorted(((float(spec.omega[i]), float(spec.F[i]))
                       for i in idx[idx > DC_FLOOR_BINS]),
                      key=lambda p: -p[1])
        assert find_peaks(spec, prominence) == want
    assert len(find_peaks(spec, 1e-4)) > 10


def test_find_peaks_on_scenario_two_allocates_under_1_5_mib():
    # 50001 bins with 4259 local maxima: the O(n) scan for the maxima sets
    # the peak, and the stacks over the maxima are small.
    spec = fourier_spectrum(
        visibility_trace(ChainParams.from_delta(100, 1e-1, 0.25)))
    assert len(spec.F) == 50_001
    tracemalloc.start()
    try:
        find_peaks(spec, prominence=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_spectrum_against_plain_dft():
    p = ChainParams(N=8, nu_t=2.5, eta_c=0.15)
    tr = visibility_trace(p, T_F=300.0, n_s=2048)
    spec = fourier_spectrum(tr)
    ref = np.abs(np.fft.rfft(tr.V))
    ref = ref / ref[0]
    assert spec.F.shape == ref.shape
    assert np.max(np.abs(spec.F - ref)) < 1e-8
    assert np.all(np.diff(spec.omega) > 0)


def test_band_fractions():
    bw = 2 * np.pi / 400.0
    w0 = 96 * bw                    # exactly on a bin: no leakage
    spec = fourier_spectrum(_tone_trace([w0], [1e-3]))
    assert spectral_band_check(spec, 1.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert spectral_band_check(spec, 2.0, 3.0) < 1e-9
    with pytest.raises(InvalidParameter):
        spectral_band_check(spec, 2.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_are_rejected(bad):
    tr = _tone_trace([1.0], [1e-3])
    V = tr.V.copy()
    V[7] = bad
    with pytest.raises(InvalidParameter, match=f"V\\[7\\] = {bad}"):
        fourier_spectrum(VisibilityTrace(t=tr.t, A=tr.A, V=V, S=None,
                                         theta=0.0, nu_t=tr.nu_t))
    spec = fourier_spectrum(tr)
    F = spec.F.copy()
    F[7] = bad
    with pytest.raises(InvalidParameter, match=f"F\\[7\\] = {bad}"):
        spectral_band_check(FourierSpectrum(omega=spec.omega, F=F,
                                            bin_width=spec.bin_width),
                            1.0, 2.0)


def test_band_conventions():
    p = ChainParams.from_delta(100, 0.1, 0.25)
    lo, hi = transverse_band(p)
    assert hi == p.nu_t
    assert lo == pytest.approx(p.soft_gap, rel=1e-14)
    clo, chi = overlay_band(p)
    assert chi == p.nu_t
    d = p.delta_trans
    assert clo == pytest.approx(np.sqrt(2 * d * p.nu_t + d * d), rel=1e-14)
    assert clo > lo        # the overlay edge sits above the soft gap


def _grid_trace(t):
    V = 0.8 + 0.01 * np.cos(t / (t[-1] - t[0]) * 200.0)
    return VisibilityTrace(t=t, A=-np.log(V), V=V, S=None, theta=0.0,
                           nu_t=2.5)


def test_nonuniform_grid_rejected():
    tr = _tone_trace([1.0], [1e-3])
    t = tr.t.copy()
    t[100] += 1e-3
    bad = VisibilityTrace(t=t, A=tr.A, V=tr.V, S=None, theta=0.0, nu_t=2.5)
    with pytest.raises(InvalidParameter):
        fourier_spectrum(bad)
    # Steps drawn from [1e-14, 5e-14]: they vary fivefold, yet every one
    # lies within a fixed atol of 1e-12 of the first.
    t = np.cumsum(np.random.default_rng(0).uniform(1e-14, 5e-14, 2000))
    with pytest.raises(InvalidParameter, match="requires a uniform grid"):
        fourier_spectrum(_grid_trace(t))


def test_uniform_grid_far_from_t0_is_accepted():
    # At t ~ 1e6 the 0.1 steps round by 2 ulp of 1e6 (2.3e-10), more than
    # 1e-9 dt plus a fixed 1e-12; the allowance is 8 ulp of max|t|, as for
    # the NUFFT route that evaluate_trace takes on this grid.
    t = 1e6 + 0.1 * np.arange(4096)
    assert _uniform_step(t) is not None
    amps = linear_chain_amplitudes(ChainParams(N=16, nu_t=2.5, eta_c=0.2))
    spec = fourier_spectrum(evaluate_trace(amps, t, with_overlap=False))
    assert spec.bin_width == pytest.approx(2 * math.pi / 409.6, rel=1e-8)


@pytest.mark.parametrize("dt", [0.1, 0.013])
def test_grid_built_by_accumulation_is_accepted(dt):
    # The samples drift from t_0 + i dt by far more than the NUFFT allows,
    # but every step is dt to rounding: uniform for a DFT.
    t = np.cumsum(np.full(10**5, dt))
    assert _uniform_step(t) is None
    spec = fourier_spectrum(_grid_trace(t))
    assert spec.bin_width == 2 * math.pi / (float(t[1] - t[0]) * len(t))


@pytest.mark.parametrize("T_F", [1e-310, 1e-305])
def test_window_too_short_for_its_top_frequency_rejected(T_F):
    # 2 pi k / T_F overflows above k = 286 at 1e-305, and at every k >= 1
    # (the bin width too) at 1e-310.
    tr = visibility_trace(ChainParams(N=8, nu_t=2.5, eta_c=0.1), T_F=T_F,
                          n_s=1024)
    with pytest.raises(InvalidParameter, match=f"T_F = {T_F:g} is too short"):
        fourier_spectrum(tr)


def test_shortest_window_with_a_finite_top_frequency():
    tr = visibility_trace(ChainParams(N=8, nu_t=2.5, eta_c=0.1), T_F=1e-300,
                          n_s=1024)
    spec = fourier_spectrum(tr)
    assert np.all(np.isfinite(spec.omega)) and math.isfinite(spec.bin_width)
    assert spec.omega[-1] == pytest.approx(2 * math.pi * 512 / 1e-300,
                                           rel=1e-12)


def test_longer_window_refines_bins():
    w0 = 1.3
    s1 = fourier_spectrum(_tone_trace([w0], [1e-3], T_F=400.0))
    s2 = fourier_spectrum(_tone_trace([w0], [1e-3], T_F=800.0, n_s=8192))
    assert s2.bin_width == pytest.approx(0.5 * s1.bin_width, rel=1e-12)
    p1 = find_peaks(s1, 1e-4)[0][0]
    p2 = find_peaks(s2, 1e-4)[0][0]
    assert abs(p2 - w0) <= abs(p1 - w0) + s2.bin_width
