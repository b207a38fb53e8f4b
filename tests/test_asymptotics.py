"""Short- and long-time asymptotics: Gamma, A_inf, Y0, revivals."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from coulombchain import (ChainParams, GammaScan, VisibilityTrace,
                          a_infinity, a_infinity_analytic, b_analytic,
                          bessel_Y0, cusp_secant_slopes, evaluate_trace,
                          exponent_A, find_revival_burst, gamma_coefficient,
                          gamma_derivative_scan, gamma_fit,
                          gamma_transition_scan, linear_chain_amplitudes,
                          revival_time, weighted_trig_sum)
from coulombchain import asymptotics
from coulombchain.asymptotics import (_running_extrema, _sliding_medians,
                                      _window_extrema)
from coulombchain.errors import InvalidParameter, UnstableLinearPhase
from oracles import dgamma_richardson


def test_gamma_two_forms():
    for N, delta, eta_c in ((4, 0.3, 0.2), (16, 0.05, 0.1), (100, 1e-3, 0.25)):
        p = ChainParams.from_delta(N, delta, eta_c)
        g = gamma_coefficient(linear_chain_amplitudes(p))
        assert g.mean_frequency is not None
        assert g.direct == pytest.approx(g.mean_frequency, rel=1e-10)


def test_a_infinity_two_forms():
    for N, delta, eta_c in ((4, 0.3, 0.2), (16, 0.05, 0.1), (100, 1e-3, 0.25)):
        p = ChainParams.from_delta(N, delta, eta_c)
        a = a_infinity(linear_chain_amplitudes(p))
        assert a.mean_inverse is not None
        assert a.direct == pytest.approx(a.mean_inverse, rel=1e-10)


def test_a_decomposition_identity():
    # A(t) = A_inf - B(t) pointwise
    p = ChainParams.from_delta(16, 0.1, 0.2)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(0.0, 50.0, 777)
    A = exponent_A(t, amps)
    B = weighted_trig_sum(t, amps.omega, amps.weight, "cos")
    a_inf = a_infinity(amps).direct
    assert np.max(np.abs(A - (a_inf - B))) < 1e-12
    B0 = weighted_trig_sum(0.0, amps.omega, amps.weight, "cos")
    assert float(B0) == pytest.approx(a_inf, rel=1e-14)


def _synthetic_trace(gamma, nu_t=2.0, n=101):
    half = 0.1 / nu_t
    t = np.linspace(-half, half, n)
    A = gamma * t ** 2
    return VisibilityTrace(t=t, A=A, V=np.exp(-A), S=None,
                           theta=0.0, nu_t=nu_t)


def test_gamma_fit_recovers_synthetic():
    g, resid = gamma_fit(_synthetic_trace(0.0123))
    assert g == pytest.approx(0.0123, rel=1e-12)
    assert resid < 1e-15


def test_gamma_fit_window_validation():
    with pytest.raises(InvalidParameter):
        gamma_fit(_synthetic_trace(0.01, n=20))   # too few samples in window
    tr = _synthetic_trace(0.01)
    bad = VisibilityTrace(t=tr.t, A=tr.A, V=tr.V, S=None, theta=0.0, nu_t=-1.0)
    with pytest.raises(InvalidParameter):
        gamma_fit(bad)


def test_gamma_fit_against_mode_sum():
    p = ChainParams.from_delta(100, 1e-2, 0.1)
    amps = linear_chain_amplitudes(p)
    half = 0.095 / p.nu_t
    t = np.linspace(-half, half, 201)
    from coulombchain import evaluate_trace
    tr = evaluate_trace(amps, t, with_overlap=False)
    gfit, _ = gamma_fit(tr)
    g = gamma_coefficient(amps).direct
    assert gfit == pytest.approx(g, rel=1e-2)


def test_gamma_derivative_scan_log_law():
    deltas = np.logspace(-4, -2, 10)
    der = gamma_derivative_scan(deltas, N=1000, eta_c=0.05)
    assert der.r_squared > 0.99
    # slope of the log law is negative: dGamma/dDelta grows toward 0+
    assert der.b < 0
    assert np.all(der.dgamma > 0)
    assert der.dgamma[0] > der.dgamma[-1]
    p = ChainParams.from_delta(1000, 1e-3, 0.05)
    ana = a_infinity_analytic(p, der.deltas[-1], der.a_inf[-1])
    slope = p.nu_t / 2 * ana.slope
    assert abs(der.b) == pytest.approx(slope, rel=0.15)
    # Gamma and A_inf are those of freshly built sets, bit for bit, and
    # dGamma/dDelta is nu_t A_inf / 2 of that same A_inf.
    chains = [ChainParams.from_delta(1000, float(d), 0.05) for d in deltas]
    fresh = [linear_chain_amplitudes(c) for c in chains]
    assert der.gamma.tolist() == [gamma_coefficient(a).direct for a in fresh]
    assert der.a_inf.tolist() == [a_infinity(a).direct for a in fresh]
    nu_t = np.array([c.nu_t for c in chains])
    assert np.array_equal(der.dgamma, 0.5 * nu_t * der.a_inf)


def test_gamma_derivative_scan_validation():
    with pytest.raises(UnstableLinearPhase):
        gamma_derivative_scan(np.array([-1e-3, 1e-3, 1e-2]), N=64, eta_c=0.1)
    with pytest.raises(InvalidParameter):
        gamma_derivative_scan(np.array([1e-3, 1e-2]), N=64, eta_c=0.1)


@pytest.mark.parametrize("deltas, distinct", [([1e-3, 1e-3, 2e-3], 2),
                                              ([1e-3] * 3, 1)])
def test_gamma_derivative_fit_needs_three_distinct_deltas(deltas, distinct):
    # A line through fewer distinct points fits exactly (R^2 = 1) or, at
    # one abscissa, not at all (numpy's RankWarning and arbitrary a, b).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter,
                           match=f"3 distinct Delta, got {distinct}"):
            gamma_derivative_scan(deltas, N=16, eta_c=0.05)


def test_gamma_derivative_scan_checks_its_grid_before_building(monkeypatch):
    # A grid the fit rejects builds no amplitude set, however many points.
    calls = []
    monkeypatch.setattr(asymptotics, "linear_chain_amplitudes",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(InvalidParameter, match="3 distinct Delta, got 1"):
        gamma_derivative_scan(np.full(20, 1e-3), N=20000, eta_c=0.05)
    assert calls == []


# Delta so close to the transition that nu_c + Delta e^(+-h) round to the
# same or neighbouring doubles: finite differences of Gamma fail there.
NEAR_TRANSITION = [1e-15, 1e-14, 1e-13, 1e-12, 1e-10]


def test_dgamma_is_half_nu_t_a_infinity_near_the_transition():
    der = gamma_derivative_scan(NEAR_TRANSITION, N=64, eta_c=0.1)
    for delta, dgamma in zip(NEAR_TRANSITION, der.dgamma):
        p = ChainParams.from_delta(64, delta, 0.1)
        a_inf = a_infinity(linear_chain_amplitudes(p)).mean_inverse
        assert dgamma == pytest.approx(0.5 * p.nu_t * a_inf, rel=1e-12)


@pytest.mark.parametrize("N", [16, 64, 256, 1000, 4000])
@pytest.mark.parametrize("eta_c", [0.05, 0.25])
def test_dgamma_matches_richardson_differences(N, eta_c):
    deltas = np.logspace(-4, 0, 17)
    der = gamma_derivative_scan(deltas, N=N, eta_c=eta_c)
    oracle = [dgamma_richardson(float(d), N, eta_c) for d in deltas]
    np.testing.assert_allclose(der.dgamma, oracle, rtol=1e-9, atol=0)


@pytest.mark.parametrize("site", [1, 2, 7, 32, 64])
def test_dgamma_identity_holds_at_every_probe_site(site):
    deltas = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    der = gamma_derivative_scan(deltas, N=64, eta_c=0.1)
    for delta, dgamma in zip(deltas, der.dgamma):
        p = ChainParams.from_delta(64, float(delta), 0.1)
        a_inf = a_infinity(linear_chain_amplitudes(p, probe_site=site)).direct
        assert dgamma == pytest.approx(0.5 * p.nu_t * a_inf, rel=1e-12)
        assert dgamma == pytest.approx(
            dgamma_richardson(float(delta), 64, 0.1, probe_site=site),
            rel=1e-9)


def test_transition_scan_and_cusp():
    deltas = np.linspace(-8e-3, 8e-3, 9)
    scan = gamma_transition_scan(deltas, N=64, eta_c=0.05)
    assert scan.kinds == ("zigzag",) * 4 + ("linear",) * 5
    # both phases meet continuously at the transition
    i0 = int(np.argmin(np.abs(scan.deltas)))
    assert scan.deltas[i0] == 0.0
    assert int(np.argmin(scan.gamma)) == i0
    left = scan.gamma[i0 - 1]
    assert left == pytest.approx(scan.gamma[i0], rel=0.05)
    rep = cusp_secant_slopes(scan)
    assert rep.left_slope < 0 < rep.right_slope
    assert rep.separation > 5.0


def test_cusp_needs_both_sides():
    scan = gamma_transition_scan(np.linspace(1e-3, 1e-2, 7), N=64, eta_c=0.05)
    with pytest.raises(InvalidParameter):
        cusp_secant_slopes(scan)


def test_cusp_side_needs_three_distinct_deltas():
    # Three equal Delta on the left and no zero point: the left line has one
    # abscissa and no slope.
    d = np.array([-1e-3, -1e-3, -1e-3, 1e-3, 2e-3, 3e-3])
    scan = GammaScan(deltas=d, gamma=np.abs(d),
                     kinds=("zigzag",) * 3 + ("linear",) * 3)
    with pytest.raises(InvalidParameter, match="distinct Delta, got 1"):
        cusp_secant_slopes(scan)


def test_a_infinity_analytic_tracks_exact():
    p_ref = ChainParams.from_delta(1000, 1e-3, 0.05)
    a_ref = a_infinity(linear_chain_amplitudes(
        ChainParams.from_delta(1000, 1e-2, 0.05))).direct
    ana = a_infinity_analytic(p_ref, 1e-2, a_ref)
    assert ana.delta_ref == 1e-2
    for d in np.logspace(-4, -2, 9):
        p = ChainParams.from_delta(1000, float(d), 0.05)
        exact = a_infinity(linear_chain_amplitudes(p)).direct
        assert ana.evaluate(float(d)) == pytest.approx(exact, rel=1e-2)
    with pytest.raises(UnstableLinearPhase):
        ana.evaluate(-1e-3)
    with pytest.raises(InvalidParameter):
        a_infinity_analytic(p_ref, 0.0, a_ref)


def test_a_infinity_analytic_is_a_closed_form(monkeypatch):
    # The plateau passes through the caller's (delta_ref, a_ref) with the
    # slope eta0^2 nu_t / (2 pi h); no amplitude set is built for it.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a_infinity_analytic built an amplitude set")

    for name in ("linear_chain_amplitudes", "zigzag_displacement_amplitudes"):
        monkeypatch.setattr(asymptotics, name, counted)
    p = ChainParams.from_delta(1000, 1e-3, 0.05)
    ana = a_infinity_analytic(p, 2.5e-3, 0.75)
    assert calls == []
    assert ana.evaluate(2.5e-3) == pytest.approx(0.75, rel=4e-16)
    h = math.sqrt(math.log(2.0))
    assert ana.slope == pytest.approx(
        p.eta0 ** 2 * p.nu_t / (2 * math.pi * h), rel=1e-15)
    assert ana.evaluate(2.5e-4) - ana.evaluate(2.5e-3) == pytest.approx(
        ana.slope * math.log(10.0), rel=1e-12)


@pytest.mark.parametrize("delta_ref, a_ref, word", [
    (0.0, 1.0, "delta_ref"), (-1e-3, 1.0, "delta_ref"),
    (math.nan, 1.0, "delta_ref"), (math.inf, 1.0, "delta_ref"),
    (1e-2, math.nan, "a_ref"), (1e-2, math.inf, "a_ref"),
    (1e-2, -math.inf, "a_ref")])
def test_a_infinity_analytic_rejects_a_bad_reference(delta_ref, a_ref, word):
    p = ChainParams.from_delta(64, 1e-3, 0.05)
    with pytest.raises(InvalidParameter, match=word):
        a_infinity_analytic(p, delta_ref, a_ref)


def _closed_form_line(x, y):
    """Textbook least squares: slope Sxy / Sxx, intercept mean(y) - slope
    mean(x), slope error sqrt(SSres / ((n - 2) Sxx)), R^2 = 1 - SSres/SStot."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((xi - mx) ** 2 for xi in x)
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    ss_tot = sum((yi - my) ** 2 for yi in y)
    return slope, intercept, math.sqrt(ss_res / ((n - 2) * sxx)), \
        1.0 - ss_res / ss_tot


def test_line_fit_matches_the_closed_form_on_a_noisy_line():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-3.0, 5.0, 40))
    y = 0.4 - 1.7 * x + rng.normal(0.0, 0.3, x.size)
    fit = asymptotics._line_fit(x, y, "the test fit")
    ref = _closed_form_line(x.tolist(), y.tolist())
    assert fit == pytest.approx(ref, rel=1e-12)
    assert 0.9 < fit[3] < 1.0


def test_line_fit_of_an_exact_line():
    x = np.log(np.logspace(-4, -2, 12))
    y = 3.0 - 0.25 * x
    slope, intercept, stderr, r2 = asymptotics._line_fit(x, y, "the fit")
    assert slope == pytest.approx(-0.25, rel=1e-13)
    assert intercept == pytest.approx(3.0, rel=1e-13)
    assert stderr < 1e-14
    assert r2 == pytest.approx(1.0, abs=1e-15)
    # A constant y has no spread to explain: R^2 is 1 by convention.
    assert asymptotics._line_fit(x, np.full_like(x, 2.0), "the fit")[3] == 1.0


# ---------------------------------------------------------------------- Y0

# Frozen reference values of the irregular Bessel function (mpmath oracle).
Y0_REFERENCE = {
    1.0: 0.088256964215676956,
    10.0: 0.055671167283599395,
    500.0: 0.010506708739831373,
    1000.0: 0.0047159179776228135,
}


def test_y0_against_oracle():
    xs = np.concatenate([np.logspace(-2, 3, 200), [11.9, 12.0, 12.1]])
    ours = bessel_Y0(xs)
    for x, y in zip(xs, ours):
        ref = float(mpmath.bessely(0, float(x)))
        assert abs(y - ref) < 1e-7, f"x={x}: {y} vs {ref}"


def test_y0_frozen_values():
    for x, ref in Y0_REFERENCE.items():
        assert bessel_Y0(x) == pytest.approx(ref, abs=1e-9)


def test_y0_small_x_logarithm():
    # Y0 -> (2/pi)(ln(x/2) + gamma) as x -> 0
    gamma_e = 0.5772156649015329
    for x in (1e-4, 1e-3, 1e-2):
        lead = (2.0 / math.pi) * (math.log(0.5 * x) + gamma_e)
        assert bessel_Y0(x) == pytest.approx(lead, rel=1e-4)


def test_y0_large_x_asymptote():
    # leading oscillation (sin x - cos x)/sqrt(pi x); sample away from zeros
    for x in (15.0, 25.0, 31.0, 50.0, 100.0, 300.0, 1000.0):
        asym = (math.sin(x) - math.cos(x)) / math.sqrt(math.pi * x)
        assert bessel_Y0(x) == pytest.approx(asym, rel=1e-2)


def test_y0_bessel_equation_residual():
    # x^2 y'' + x y' + x^2 y = 0, derivatives by central differences.
    # Points sit where each branch is numerically clean: the upper end of
    # the series range carries rounding noise that the stencil amplifies.
    h = 3e-4
    for x in (0.5, 1.0, 3.0, 7.0, 14.0, 20.0, 50.0):
        ym, y0, yp = (float(bessel_Y0(v)) for v in (x - h, x, x + h))
        d1 = (yp - ym) / (2 * h)
        d2 = (yp - 2 * y0 + ym) / (h * h)
        assert abs(x * x * d2 + x * d1 + x * x * y0) < 1e-4


def test_y0_domain():
    with pytest.raises(InvalidParameter):
        bessel_Y0(0.0)
    with pytest.raises(InvalidParameter):
        bessel_Y0(np.array([1.0, -2.0]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_y0_rejects_non_finite_x(x):
    with pytest.raises(InvalidParameter, match="Y0 requires finite x > 0"):
        bessel_Y0(x)
    with pytest.raises(InvalidParameter, match="Y0 requires finite x > 0"):
        bessel_Y0(np.array([1.0, x]))


def test_y0_far_tail_is_quiet():
    # Above x ~ 1.34e154, x * x overflows and 1 / x^2 takes its limit 0,
    # without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e160, 1e300):
            y = bessel_Y0(x)
            assert abs(y) <= math.sqrt(2.0 / (math.pi * x))


def test_b_analytic():
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    t = np.array([50.0, 100.0, 400.0])
    ref = -p.eta0 ** 2 * p.nu_t / (2 * math.sqrt(math.log(2.0))) \
        * bessel_Y0(p.soft_gap * t)
    assert b_analytic(t, p) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(UnstableLinearPhase):
        b_analytic(t, ChainParams.from_delta(1000, -1e-3, 0.25))
    with pytest.raises(InvalidParameter):
        b_analytic(-1.0, p)


# ----------------------------------------------------------------- revivals

T_STAR_REF = 1229.3711036451662     # N = 1000, Delta = 1e-3


def test_revival_time_frozen():
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    rev = revival_time(1000, p.nu_t)
    assert rev.t_star == pytest.approx(T_STAR_REF, rel=1e-6)


def test_revival_estimate_holds_python_floats():
    rev = revival_time(8000, ChainParams.from_delta(8000, 1e-3, 0.25).nu_t)
    assert type(rev.k_star) is float and type(rev.v_max) is float
    assert type(rev.t_star) is float


def test_revival_time_linear_in_n():
    nu_t = 2.2
    t1 = revival_time(500, nu_t).t_star
    t2 = revival_time(1000, nu_t).t_star
    # v_max converges with N; doubling N doubles t* to finite-size accuracy
    assert t2 == pytest.approx(2.0 * t1, rel=1e-4)


def test_revival_time_memory_is_linear_in_n():
    # The argmax grid takes two FFTs of fixed length; only the O(N) lattice
    # sums of the refinement grow with N.
    N = 100_000
    nu_t = ChainParams.from_delta(N, 1e-3, 0.25).nu_t
    tracemalloc.start()
    try:
        revival_time(N, nu_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * N


def test_burst_detector_synthetic():
    t = np.arange(0.0, 2000.0, 0.5)
    V = 0.8 + 0.002 * np.sin(2.0 * t)
    burst_env = np.exp(-0.5 * ((t - 1250.0) / 40.0) ** 2)
    V = V + 0.06 * np.sin(5.0 * t) * burst_env
    hit = find_revival_burst(t, V)
    assert hit is not None and 1100.0 <= hit <= 1300.0
    # pure steady oscillation never triggers
    assert find_revival_burst(t, 0.8 + 0.002 * np.sin(2.0 * t)) is None


def test_burst_detector_validation():
    t = np.concatenate([np.linspace(0, 10, 50), np.linspace(20, 30, 50)])
    with pytest.raises(InvalidParameter):
        find_revival_burst(t, np.ones_like(t))
    with pytest.raises(InvalidParameter):
        find_revival_burst(np.arange(4.0), np.arange(3.0))
    # Steps drawn from [1e-14, 5e-14] vary fivefold, yet every one lies
    # within a fixed atol of 1e-12 of the first.
    t = np.cumsum(np.random.default_rng(0).uniform(1e-14, 5e-14, 2000))
    V = np.where(np.arange(2000) > 1000, 0.8, 0.9) + 0.01 * np.cos(1e13 * t)
    with pytest.raises(InvalidParameter, match="uniform time grid"):
        find_revival_burst(t, V, window=1e-13, baseline_gap=1e-13,
                           baseline_span=4e-13)


def test_burst_detector_names_a_short_trace():
    with pytest.raises(InvalidParameter,
                       match="trace has 5 samples; .* needs >= 8"):
        find_revival_burst(np.arange(5.0), np.ones(5))
    with pytest.raises(InvalidParameter, match="matching 1-d"):
        find_revival_burst(np.arange(5.0), np.ones(4))


@pytest.mark.parametrize("V_value, kwargs, match", [
    (math.nan, {}, r"V must be finite; V\[7\] = nan"),
    (math.inf, {}, r"V must be finite; V\[7\] = inf"),
    (0.8, {"window": 0.0}, "window must be positive"),
    (0.8, {"baseline_gap": -1.0}, "baseline_gap must be >= 0"),
    (0.8, {"baseline_span": 0.2}, "baseline_span = 0.2 rounds to 0 samples"),
], ids=["nan_V", "inf_V", "window", "baseline_gap", "baseline_span"])
def test_burst_detector_rejects_bad_inputs(V_value, kwargs, match):
    t = 0.5 * np.arange(2000)
    V = 0.8 + 0.002 * np.sin(2.0 * t)
    V[7] = V_value
    with pytest.raises(InvalidParameter, match=match):
        find_revival_burst(t, V, **kwargs)


@pytest.mark.parametrize("dt", [0.1, 0.013])
def test_burst_detector_accepts_a_grid_built_by_accumulation(dt):
    # Every step is dt to rounding, though the samples drift from
    # t_0 + i dt: the window sizes in samples are those of the exact grid.
    t = np.cumsum(np.full(10**5, dt))
    V = 0.8 + 0.002 * np.sin(2.0 * t)
    burst = np.arange(t.size) >= 60_000
    V[burst] = 0.8 + 0.02 * np.sin(2.0 * t[burst])
    exact = t[0] + dt * np.arange(t.size)
    assert find_revival_burst(t, V) == pytest.approx(
        find_revival_burst(exact, V), abs=dt)


@pytest.mark.parametrize("name", ["window", "baseline_gap",
                                  "baseline_span"])
def test_burst_detector_rejects_a_window_of_infinitely_many_samples(name):
    # A subnormal time step makes value / dt overflow to inf, which has no
    # sample count (int(round(inf)) raises OverflowError).
    dt = 1.25e-316
    t = dt * np.arange(1, 9)
    V = np.linspace(0.9, 0.8, 8)
    kw = dict(window=dt, baseline_gap=0.0, baseline_span=dt)
    kw[name] = 1.0
    with pytest.raises(InvalidParameter,
                       match=f"{name} / dt = .* is not a finite number"):
        find_revival_burst(t, V, **kw)


def _np_median_burst(t, V, window=50.0, baseline_gap=50.0,
                     baseline_span=200.0):
    """The detector as a per-sample np.median loop: the reference."""
    ndimage = pytest.importorskip("scipy.ndimage")
    dt = float(t[1] - t[0])
    size = 2 * max(1, int(round(0.5 * window / dt))) + 1
    amp = ndimage.maximum_filter1d(V, size=size, mode="nearest") \
        - ndimage.minimum_filter1d(V, size=size, mode="nearest")
    gap_n = int(round(baseline_gap / dt))
    span_n = int(round(baseline_span / dt))
    for i in range(gap_n + span_n, len(t)):
        base = float(np.median(amp[i - gap_n - span_n:i - gap_n]))
        if base > 0 and amp[i] > 2.0 * base:
            return float(t[i])
    return None


def test_running_extrema_equal_scipy_filters():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(1483)
    for trial in range(160):
        n = int(rng.integers(8, 5001))
        if trial % 4 == 0:                      # window longer than the trace
            half = int(rng.integers(n // 2, 2 * n))
        else:
            half = int(rng.integers(1, 100))
        x = rng.normal(size=n)
        if trial % 2:
            x = np.round(x, 1)                  # ties
        else:
            x = np.cumsum(x)                    # long monotone runs
        hi, lo = _running_extrema(x, half)
        size = 2 * half + 1
        assert np.array_equal(
            hi, ndimage.maximum_filter1d(x, size=size, mode="nearest"))
        assert np.array_equal(
            lo, ndimage.minimum_filter1d(x, size=size, mode="nearest"))


@pytest.mark.parametrize("n", [8, 9, 50, 1001])
def test_running_extrema_of_windows_wider_than_the_trace(n):
    # Every window with half >= n - 1 covers the whole edge-padded trace.
    x = np.random.default_rng(n).normal(size=n)
    for half in (n - 1, n, 3 * n + 1, 10 * n):
        hi, lo = _running_extrema(x, half)
        assert np.array_equal(hi, np.full(n, x.max()))
        assert np.array_equal(lo, np.full(n, x.min()))


def test_burst_detector_memory_is_bounded_by_the_trace():
    # window / dt sets a half-width near 10^5 samples on an 8-sample trace;
    # the padded blocks must follow the trace, not the window.
    t = 1e-3 * np.arange(1, 9)
    V = np.linspace(0.9, 0.8, 8)
    tracemalloc.start()
    try:
        hit = find_revival_burst(t, V, window=200.0, baseline_gap=0.0,
                                 baseline_span=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is None
    assert peak < 1_000_000


def test_sliding_medians_equal_np_median():
    rng = np.random.default_rng(2026)
    mismatches = 0
    for trial in range(200):
        span = 1 + trial % 40                   # odd and even spans
        vals = np.round(rng.uniform(0.0, 1.0, span + int(rng.integers(60))),
                        1)                      # rounded, so ties occur
        want = [np.median(vals[j:j + span])
                for j in range(len(vals) - span + 1)]
        got = list(_sliding_medians(vals, span,
                                    range(len(vals) - span + 1)))
        assert len(got) == len(want)
        mismatches += sum(g != w for g, w in zip(got, want))
    assert mismatches == 0


def test_burst_detector_matches_np_median_loop():
    rng = np.random.default_rng(61)
    dt = 0.5
    t = dt * np.arange(300)
    fired = 0
    for span in range(1, 41):
        gap = int(rng.integers(0, 21))
        V = np.round(rng.normal(0.0, 1.0, t.size), 1)
        V[int(rng.integers(100, 300)):] *= 4.0      # a burst somewhere
        kw = dict(window=dt * int(rng.integers(0, 5)) + dt,
                  baseline_gap=gap * dt, baseline_span=span * dt)
        hit = find_revival_burst(t, V, **kw)
        assert hit == _np_median_burst(t, V, **kw)
        fired += hit is not None
    assert fired > 20


def test_burst_time_on_the_criterion_6_trace_is_unchanged():
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    n = 50_000
    t = 1.35 * revival_time(1000, p.nu_t).t_star / n * np.arange(1, n + 1)
    V = evaluate_trace(linear_chain_amplitudes(p), t, with_overlap=False).V
    burst = find_revival_burst(t, V)
    assert burst is not None and burst == _np_median_burst(t, V)


# The reference below needs no scipy: the amplitude comes from
# `_running_extrema`, itself pinned to scipy's filters above.

def _median_loop_burst(t, V, window=50.0, baseline_gap=50.0,
                       baseline_span=200.0):
    """The detector as a per-sample np.median loop over every sample."""
    dt = float(t[1] - t[0])
    hi, lo = _running_extrema(V, max(1, int(round(0.5 * window / dt))))
    amp = hi - lo
    gap_n = int(round(baseline_gap / dt))
    span_n = int(round(baseline_span / dt))
    for i in range(gap_n + span_n, len(t)):
        base = float(np.median(amp[i - gap_n - span_n:i - gap_n]))
        if base > 0 and amp[i] > 2.0 * base:
            return float(t[i])
    return None


def _record_starts(monkeypatch):
    """Wrap the detector's median helper; the list gets the start of each
    window whose median the detector takes."""
    examined = []

    def recorded(x, span, starts):
        for j, m in zip(starts, _sliding_medians(x, span, starts)):
            examined.append(int(j))
            yield m

    monkeypatch.setattr(asymptotics, "_sliding_medians", recorded)
    return examined


@pytest.mark.parametrize("span", [100, 101])
def test_burst_detector_every_sample_a_candidate_none_fires(span,
                                                            monkeypatch):
    # amp grows by e per 100 samples: above twice its window's minimum
    # (e^1 > 2) but not above twice its median (e^0.5 < 2).
    dt = 0.5
    t = dt * np.arange(1500)
    V = 0.5 * np.exp(0.01 * np.arange(t.size)) * (-1.0) ** np.arange(t.size)
    examined = _record_starts(monkeypatch)
    kw = dict(window=dt, baseline_gap=0.0, baseline_span=span * dt)
    assert find_revival_burst(t, V, **kw) is None
    assert _median_loop_burst(t, V, **kw) is None
    assert len(examined) == t.size - span          # every sample examined


@pytest.mark.parametrize("span", [1, 2, 7, 8, 40, 41])
def test_burst_detector_matches_median_loop_without_scipy(span):
    rng = np.random.default_rng(span)
    dt = 0.25
    t = dt * np.arange(1, 601)
    fired = 0
    for trial in range(12):
        V = np.round(rng.normal(0.0, 1.0, t.size), 1)       # ties
        if trial % 3 == 0:                                   # sparse bursts
            V *= 1.0 + 6.0 * (rng.uniform(size=t.size) < 0.02)
        elif trial % 3 == 1:                                 # a late burst
            V[int(rng.integers(200, 600)):] *= 4.0
        gap = 0 if trial % 2 else int(rng.integers(1, 30))
        kw = dict(window=dt * int(rng.integers(1, 8)),
                  baseline_gap=gap * dt, baseline_span=span * dt)
        hit = find_revival_burst(t, V, **kw)
        assert hit == _median_loop_burst(t, V, **kw)
        fired += hit is not None
    assert fired >= 4


def test_burst_detector_with_a_span_longer_than_the_trace():
    t = 0.5 * np.arange(1, 101)
    V = np.sin(3.0 * t) * (1.0 + 9.0 * (t > 30.0))
    for gap, span in ((0.0, 60.0), (20.0, 40.0), (49.5, 0.5), (60.0, 1.0)):
        kw = dict(window=1.0, baseline_gap=gap, baseline_span=span)
        assert find_revival_burst(t, V, **kw) is None
        assert _median_loop_burst(t, V, **kw) is None


def test_sliding_medians_at_scattered_starts_equal_np_median():
    # Starts closer than a span slide the sorted window; starts a span or
    # more apart sort it afresh. Both occur for every span below.
    rng = np.random.default_rng(19)
    for span in range(1, 31):
        x = np.round(rng.uniform(0.0, 1.0, 400), 1)
        steps = np.where(rng.uniform(size=60) < 0.5,
                         rng.integers(1, span + 1, 60),
                         rng.integers(span, 3 * span + 1, 60))
        starts = np.cumsum(steps)
        starts = starts[starts <= x.size - span]
        gaps = np.diff(starts)
        assert np.any(gaps < span) or span == 1
        assert np.any(gaps >= span)
        got = list(_sliding_medians(x, span, starts))
        assert got == [np.median(x[j:j + span]) for j in starts]


def test_window_extrema_equal_sliding_window_view():
    rng = np.random.default_rng(5)
    n = 97
    for x in (np.round(rng.normal(size=n), 0),          # ties
              np.cumsum(rng.normal(size=n)),             # long monotone runs
              np.arange(n, dtype=float)[::-1]):
        for size in range(1, n + 1):
            view = np.lib.stride_tricks.sliding_window_view(x, size)
            hi, lo = _window_extrema(x, size)
            assert np.array_equal(hi, view.max(axis=1))
            assert np.array_equal(lo, view.min(axis=1))


def test_burst_detector_memory_at_1e6_samples():
    # An 8 MB trace; the padded and blocked copies, both accumulates and
    # both extrema once peaked at 55 MiB.
    t = np.linspace(0.0, 4000.0, 1_000_000)
    V = 0.5 + 0.01 * np.sin(3.0 * t) + 0.2 * np.sin(5.0 * t) * (t > 3000.0)
    tracemalloc.start()
    try:
        burst = find_revival_burst(t, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert burst is not None and 2950.0 < burst < 3000.0   # window 50 wide
    assert peak <= 32 * 2 ** 20


@pytest.fixture(scope="module")
def criterion_6_trace():
    p = ChainParams.from_delta(1000, 1e-3, 0.25)
    n = 50_000
    t = 1.35 * revival_time(1000, p.nu_t).t_star / n * np.arange(1, n + 1)
    return t, evaluate_trace(linear_chain_amplitudes(p), t,
                             with_overlap=False).V


def test_burst_detector_takes_few_medians_on_the_criterion_6_trace(
        criterion_6_trace, monkeypatch):
    t, V = criterion_6_trace
    examined = _record_starts(monkeypatch)
    burst = find_revival_burst(t, V)
    assert burst is not None and burst == _median_loop_burst(t, V)
    # The amplitude rises through twice its window minimum a few hundred
    # samples before it passes twice the median: one run of consecutive
    # starts, so one window sorted from the trace and then slid.
    dt = float(t[1] - t[0])
    span_n = int(round(200.0 / dt))
    positions = len(t) - int(round(50.0 / dt)) - span_n
    sorted_afresh = 1 + int(np.sum(np.diff(examined) >= span_n))
    assert 1 <= sorted_afresh <= 10
    assert len(examined) <= positions // 50
