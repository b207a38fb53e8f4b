"""Recoil amplitudes and the Ramsey signal, checked against a from-scratch
N = 4 oracle and random parameter sweeps."""

import cmath
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from coulombchain import (ChainParams, DisplacementAmplitudes,
                          VisibilityTrace, axial_mode_set, chain_amplitudes,
                          critical_frequency_finite, dispersion_transverse,
                          evaluate_trace, exponent_A, exponent_A_thermal,
                          linear_chain_amplitudes, linear_modes, overlap,
                          ramsey, revival_time, thermal_weights,
                          transverse_mode_set, visibility, weighted_trig_sum,
                          zigzag, zigzag_equilibrium, zigzag_spectrum)
from coulombchain.errors import (InvalidParameter, ResourceLimit,
                                 SoftModeSingularity)
from coulombchain.linear_modes import (_CHUNK_ELEMENTS, RADICAND_CLAMP,
                                       TRACE_BUDGET, _direct_trig_sum)
from coulombchain.ramsey import _ION_BYTES, _uniform_step, _zigzag_amplitudes

T_GRID = [0.0, 0.37, 1.0, 2.5, 7.3, 31.4]


def brute_force_n4(nu_t, eta_c, t):
    """Everything from first principles for N = 4, probe on ion 1.

    Mode order (0,+), (1,+), (1,-), (2,-). Duplicates no package code: the
    dispersion sums, mode matrix and critical frequency are written out by
    hand, zeta(3) comes from mpmath.
    """
    s = {0.0: 0.0,
         math.pi / 2: math.sin(math.pi / 4) ** 2 + math.sin(math.pi / 2) ** 2 / 8,
         math.pi: math.sin(math.pi / 2) ** 2 + math.sin(math.pi) ** 2 / 8}
    ks = [0.0, math.pi / 2, math.pi / 2, math.pi]
    omegas = [math.sqrt(nu_t ** 2 - 4 * s[k]) for k in ks]
    row = [0.5, math.sqrt(0.5) * math.cos(math.pi / 2),
           math.sqrt(0.5) * math.sin(math.pi / 2), -0.5]
    nu_c = float(mpmath.sqrt(3.5 * mpmath.zeta(3)))
    eta0 = eta_c * math.sqrt(nu_c / nu_t)
    alphas = [1j * eta0 * math.sqrt(nu_t / w) * r
              for w, r in zip(omegas, row)]
    weights = [abs(a) ** 2 for a in alphas]
    A = sum(2 * w * math.sin(0.5 * om * t) ** 2
            for w, om in zip(weights, omegas))
    phi = sum(w * math.sin(om * t) for w, om in zip(weights, omegas))
    S = cmath.exp(-A + 1j * phi)
    return omegas, alphas, weights, A, S


@pytest.mark.parametrize("nu_t,eta_c", [(2.5, 0.25), (2.3, 0.1), (3.0, 0.05)])
def test_n4_oracle(nu_t, eta_c):
    p = ChainParams(N=4, nu_t=nu_t, eta_c=eta_c)
    amps = linear_chain_amplitudes(p)
    om_ref, _, w_ref, _, _ = brute_force_n4(nu_t, eta_c, 0.0)
    assert amps.omega == pytest.approx(om_ref, abs=1e-12)
    assert amps.weight == pytest.approx(w_ref, abs=1e-12)
    for t in T_GRID:
        _, _, _, A_ref, S_ref = brute_force_n4(nu_t, eta_c, t)
        assert float(exponent_A(t, amps)) == pytest.approx(A_ref, abs=1e-12)
        assert complex(overlap(t, amps)) == pytest.approx(S_ref, abs=1e-12)
        assert float(visibility(t, amps)) == pytest.approx(
            abs(S_ref), abs=1e-12)


def test_amplitude_sum_rule():
    # sum |alpha|^2 omega = eta0^2 nu_t for any stable chain
    rng = np.random.default_rng(20260816)
    for _ in range(25):
        N = int(rng.choice([4, 6, 16, 64, 100]))
        nu_t = 2.06 + float(rng.uniform(0.0, 2.0))
        eta_c = float(rng.uniform(0.01, 0.5))
        p = ChainParams(N=N, nu_t=nu_t, eta_c=eta_c)
        amps = linear_chain_amplitudes(p)
        lhs = float(np.sum(amps.weight * amps.omega))
        assert lhs == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)


def test_overlap_modulus_is_visibility():
    p = ChainParams.from_delta(16, 0.05, 0.3)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(0.0, 40.0, 500)
    S = overlap(t, amps)
    V = visibility(t, amps)
    A = exponent_A(t, amps)
    assert np.max(np.abs(np.abs(S) - V)) < 1e-12
    assert np.max(np.abs(V - np.exp(-A))) < 1e-12


def test_evenness_and_initial_value():
    p = ChainParams.from_delta(16, 0.1, 0.2)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(0.5, 20.0, 40)
    assert visibility(t, amps) == pytest.approx(visibility(-t, amps))
    assert float(visibility(0.0, amps)) == 1.0
    assert float(exponent_A(0.0, amps)) == 0.0


def test_thermal_weights_and_reduction():
    p = ChainParams.from_delta(16, 0.1, 0.2)
    amps = linear_chain_amplitudes(p)
    # theta = 0 reduction is exact, same array object semantics aside
    assert np.array_equal(thermal_weights(amps, 0.0), amps.weight)
    theta = 0.8
    wt = thermal_weights(amps, theta)
    ref = amps.weight / np.tanh(amps.omega / (2.0 * theta))
    assert wt == pytest.approx(ref, rel=1e-14)
    assert np.all(wt > amps.weight)    # thermal occupation only adds noise
    t = np.linspace(0.0, 10.0, 50)
    A0 = exponent_A(t, amps)
    AT = exponent_A_thermal(t, amps, theta)
    assert np.all(AT >= A0 - 1e-15)
    assert exponent_A_thermal(t, amps, 0.0) == pytest.approx(A0, rel=1e-15)


def test_thermal_visibility_drops():
    p = ChainParams.from_delta(16, 0.1, 0.2)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(0.1, 10.0, 30)
    assert np.all(visibility(t, amps, theta=1.0) <= visibility(t, amps) + 1e-15)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -1.0])
def test_non_finite_temperature_rejected(theta):
    amps = linear_chain_amplitudes(ChainParams.from_delta(16, 0.1, 0.2))
    t = np.linspace(0.0, 10.0, 30)
    with pytest.raises(InvalidParameter, match="theta must be >= 0"):
        visibility(t, amps, theta=theta)
    for with_overlap in (False, True):
        with pytest.raises(InvalidParameter, match="theta must be >= 0"):
            evaluate_trace(amps, t, theta=theta, with_overlap=with_overlap)


@pytest.mark.parametrize("theta", [1e308, 1.7e308])
def test_temperature_with_non_finite_weights_rejected(theta):
    # 2 theta overflows, so omega / (2 theta) is 0 and coth divides by 0.
    amps = linear_chain_amplitudes(ChainParams.from_delta(16, 0.1, 0.2))
    with pytest.raises(InvalidParameter, match="non-finite thermal weights"):
        thermal_weights(amps, theta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [0.01, -0.01], ids=["linear", "zigzag"])
@pytest.mark.parametrize("eta_c, match", [
    (1e154, r"2 sum\(weight\), the bound on A\(t\), must be finite"),
    (1e160, r"weight must be finite; weight\[\d+\] = inf")],
    ids=["sum overflows", "square overflows"])
def test_kick_weights_must_bound_a(delta, eta_c, match):
    # A(t) <= 2 sum(weight): weights that are each finite but sum to inf
    # could make A(t) inf. A square that overflows must not warn either.
    with pytest.raises(InvalidParameter, match=match):
        chain_amplitudes(ChainParams.from_delta(64, delta, eta_c))


@pytest.mark.filterwarnings("error")
def test_hand_built_and_thermal_weights_must_bound_a():
    omega = np.array([1.0, 2.0])
    amps = DisplacementAmplitudes(omega=omega, weight=np.full(2, 4e307),
                                  eta0=1.0, nu_t=2.0)   # 2 sum = 1.6e308
    with pytest.raises(InvalidParameter, match=r"bound on A\(t\)"):
        DisplacementAmplitudes(omega=omega, weight=np.full(2, 5e307),
                               eta0=1.0, nu_t=2.0)
    # coth(omega / 2) = 2.16 and 1.31: each thermal weight and their sum
    # stay finite, twice the sum does not.
    with pytest.raises(InvalidParameter, match="non-finite 2 sum"):
        thermal_weights(amps, 1.0)
    # Weights that underflow to 0 over a coth that divides by 0 are 0/0.
    tiny = linear_chain_amplitudes(ChainParams.from_delta(16, 0.1, 1e-170))
    assert tiny.weight.min() == 0.0
    with pytest.raises(InvalidParameter, match="non-finite thermal weights"):
        thermal_weights(tiny, 1e308)


def test_phase_is_temperature_independent():
    p = ChainParams.from_delta(16, 0.1, 0.2)
    amps = linear_chain_amplitudes(p)
    t = np.linspace(0.1, 10.0, 30)
    ph_cold = np.angle(overlap(t, amps))
    ph_hot = np.angle(overlap(t, amps, theta=2.0))
    assert ph_hot == pytest.approx(ph_cold, abs=1e-12)


def test_probe_site_equivalence():
    # the ring is translation invariant: every probe site gives the same A
    p = ChainParams.from_delta(16, 0.1, 0.2)
    t = np.linspace(0.0, 10.0, 64)
    base = exponent_A(t, linear_chain_amplitudes(p, probe_site=1))
    for site in (2, 7, 16):
        other = exponent_A(t, linear_chain_amplitudes(p, probe_site=site))
        assert other == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("above", [1e-13, 2e-13])
def test_snapped_soft_mode_names_the_clamp(above):
    # One ulp above nu_c(N), omega_y^2 ~ 2 nu_c (nu_t - nu_c) ~ 1.8e-15 lies
    # inside RADICAND_CLAMP nu_t^2 ~ 3.7e-15, the rounding of nu_t^2, so the
    # zone-edge mode snaps to 0 although nu_t is above nu_c(N).  A step of
    # `above` (radicand ~ 4e-13) is far outside the clamp and resolves.
    N = 100
    p = ChainParams(N=N, nu_t=float(np.nextafter(critical_frequency_finite(N),
                                                 np.inf)), eta_c=0.1)
    delta = p.nu_t - critical_frequency_finite(N)
    assert delta > 0.0
    with pytest.raises(SoftModeSingularity,
                       match=re.escape(f"critical_frequency_finite(N) = "
                                       f"{delta:.3e}")) as err:
        linear_chain_amplitudes(p)
    assert "RADICAND_CLAMP nu_t^2 = 3.74e-15" in str(err.value)
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N) + above, eta_c=0.1)
    assert np.all(linear_chain_amplitudes(p).omega > 0.0)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_chain_amplitudes_pick_the_phase_at_nu_c_of_n(N, monkeypatch):
    # The zigzag's weights below nu_c(N), the linear chain's at and above
    # it; a gap of 1e-12 resolves the soft mode on either side.
    nuc = critical_frequency_finite(N)
    below = ChainParams(N=N, nu_t=nuc - 1e-12, eta_c=0.1)
    above = ChainParams(N=N, nu_t=nuc + 1e-12, eta_c=0.1)
    for p, kind, producer in ((below, "zigzag", _zigzag_amplitudes),
                              (above, "linear", linear_chain_amplitudes)):
        amps, ref = chain_amplitudes(p), producer(p)
        assert amps.kind == kind
        assert np.array_equal(amps.omega, ref.omega)
        assert np.array_equal(amps.weight, ref.weight)
    # At nu_c(N) itself the soft mode sits at omega = 0.
    at = ChainParams(N=N, nu_t=nuc, eta_c=0.1)
    with pytest.raises(SoftModeSingularity):
        chain_amplitudes(at)
    monkeypatch.setattr(ramsey, "linear_chain_amplitudes", lambda p: "linear")
    assert chain_amplitudes(at) == "linear"


def test_zero_detuning_keeps_its_soft_mode_at_large_n():
    # At Delta = 0 the finite chain sits above nu_c(inf) by a radicand of
    # about 4/N^2, 7e-13 at N = 2.4e6: below the old absolute clamp of
    # 1e-12, which snapped it to 0, and far above the rounding of nu_t^2.
    amps = linear_chain_amplitudes(ChainParams.from_delta(2_400_000, 0.0, 0.05))
    assert np.all(amps.omega > 0.0)
    assert amps.omega.min() ** 2 > 100 * RADICAND_CLAMP * amps.nu_t ** 2


def test_zero_frequency_mode_rejected():
    with pytest.raises(SoftModeSingularity):
        DisplacementAmplitudes(omega=np.array([0.0, 1.0]),
                               weight=np.array([0.01, 0.01]),
                               eta0=0.1, nu_t=2.5)


MALFORMED_AMPLITUDES = {
    "short weight": ([1.0, 2.0], [0.01]),
    "2-d arrays": ([[1.0, 2.0]], [[0.01, 0.01]]),
    "empty arrays": ([], []),
    "nan omega": ([math.nan, 2.0], [0.01, 0.01]),
    "inf omega": ([1.0, math.inf], [0.01, 0.01]),
    "nan weight": ([1.0, 2.0], [math.nan, 0.01]),
    "inf weight": ([1.0, 2.0], [0.01, math.inf]),
    "negative weight": ([1.0, 2.0], [0.01, -0.01]),
    "text omega": (["1.0", "x"], [0.01, 0.01]),
    "complex omega": ([1.0 + 2.0j, 2.0], [0.01, 0.01]),
}


@pytest.mark.parametrize("case", list(MALFORMED_AMPLITUDES))
def test_malformed_amplitudes_rejected(case):
    omega, weight = (np.array(a) for a in MALFORMED_AMPLITUDES[case])
    with pytest.raises(InvalidParameter):
        DisplacementAmplitudes(omega=omega, weight=weight, eta0=0.1, nu_t=2.5)


@pytest.mark.parametrize("kind", ["Linear", "zig-zag", "", None])
def test_amplitude_kind_is_linear_or_zigzag(kind):
    # Any other kind would make a_infinity's mean_inverse silently None.
    with pytest.raises(InvalidParameter, match="kind must be"):
        DisplacementAmplitudes(omega=np.array([1.0]), weight=np.array([0.01]),
                               eta0=0.1, nu_t=2.5, kind=kind)


def test_amplitudes_take_lists_and_keep_float64_arrays():
    amps = DisplacementAmplitudes(omega=[1.0, 2.0], weight=[0.01, 0.0],
                                  eta0=0.1, nu_t=2.5)
    assert amps.kind == "linear"
    for a in (amps.omega, amps.weight):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64
    assert weighted_trig_sum(1.0, amps.omega, amps.weight, "cos") == \
        pytest.approx(0.01 * math.cos(1.0), rel=1e-15)
    # A float64 array is kept, not copied.
    omega, weight = np.array([1.0, 2.0]), np.array([0.01, 0.02])
    same = DisplacementAmplitudes(omega=omega, weight=weight, eta0=0.1,
                                  nu_t=2.5, kind="zigzag")
    assert same.omega is omega and same.weight is weight
    with pytest.raises(InvalidParameter):
        DisplacementAmplitudes(omega=[[1.0, 2.0], [3.0]], weight=[0.01, 0.01],
                               eta0=0.1, nu_t=2.5)


def test_trace_overlap_must_match_the_grid():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(InvalidParameter, match="equal length"):
        VisibilityTrace(t=t, A=t, V=t, S=np.zeros(2), theta=0.0, nu_t=2.5)
    VisibilityTrace(t=t, A=t, V=t, S=np.zeros(3), theta=0.0, nu_t=2.5)


@pytest.mark.parametrize("t", [np.linspace(0.0, 10.0, 100), 2.0])
def test_trig_sum_rejects_weights_of_another_shape(t):
    for omega, weight in (([1.0, 2.0], [0.01]),
                          ([[1.0, 2.0], [3.0, 4.0]], [[0.01, 0.01]] * 2),
                          (1.0, 0.01)):
        with pytest.raises(InvalidParameter,
                           match="1-d arrays of the same shape"):
            weighted_trig_sum(t, np.array(omega), np.array(weight), "cos")


@pytest.mark.parametrize("omega, weight, match", [
    ([1.0, math.nan], [0.01, 0.01], r"omega must be finite; omega\[1\] = nan"),
    ([math.inf, 2.0], [0.01, 0.01], r"omega must be finite; omega\[0\] = inf"),
    ([1.0, 2.0], [0.01, math.inf], r"weight must be finite; weight\[1\] = inf"),
    ([1.0, 2.0], [math.nan, 0.01], r"weight must be finite; weight\[0\] = nan"),
], ids=["nan omega", "inf omega", "inf weight", "nan weight"])
@pytest.mark.parametrize("t", [np.linspace(0.0, 10.0, 200), 2.0],
                         ids=["grid", "scalar"])
def test_trig_sum_rejects_non_finite_frequencies_and_weights(
        t, omega, weight, match):
    # Not NaN samples, nor a RuntimeWarning from the cast or the product.
    for kind in ("sin2half", "sin", "cos"):
        with pytest.raises(InvalidParameter, match=match):
            weighted_trig_sum(t, np.array(omega), np.array(weight), kind)


BAD_GRIDS = {
    "scalar": (2.0, "1-d grid"),
    "2-d": (np.linspace(0.0, 10.0, 100)[None, :], "1-d grid"),
    "2-d-64-rows": (np.linspace(0.0, 10.0, 6400).reshape(64, 100),
                    "1-d grid"),
    "nan": (np.full(100, math.nan), "must be finite"),
    "inf-last": (np.append(np.linspace(0.0, 10.0, 99), math.inf),
                 "must be finite"),
    "minus-inf-first": (np.append(-math.inf, np.linspace(0.0, 10.0, 99)),
                        "must be finite"),
}


@pytest.mark.parametrize("case", list(BAD_GRIDS))
def test_trace_needs_a_1d_grid(case):
    # A non-finite time is rejected, not returned as NaN, by the trace and
    # by the trig sum behind every A/B/phase/overlap route, grid or scalar.
    t, match = BAD_GRIDS[case]
    amps = linear_chain_amplitudes(ChainParams.from_delta(16, 0.1, 0.2))
    for with_overlap in (False, True):
        with pytest.raises(InvalidParameter, match=match):
            evaluate_trace(amps, t, with_overlap=with_overlap)
    if match == "must be finite":
        for t_bad in (t, float(t[~np.isfinite(t)][0])):
            with pytest.raises(InvalidParameter, match=match):
                weighted_trig_sum(t_bad, amps.omega, amps.weight, "cos")
    if np.ndim(t) == 2:
        # The trig sums take a scalar or a 1-d t. An N-d one is refused:
        # the direct kernel's budget counted only its rows, and from 64
        # rows on the uniform-grid test broke on it.
        shape = re.escape(f"got shape {np.shape(t)}")
        for call in (
                lambda: weighted_trig_sum(t, amps.omega, amps.weight, "cos"),
                lambda: exponent_A(t, amps),
                lambda: exponent_A_thermal(t, amps, 0.5),
                lambda: visibility(t, amps),
                lambda: overlap(t, amps)):
            with pytest.raises(InvalidParameter,
                               match="t must be a scalar or a 1-d array, "
                                     + shape):
                call()


def test_random_sweep_invariants():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 25.0, 100)
    for _ in range(20):
        N = int(rng.choice([4, 8, 16, 32]))
        p = ChainParams(N=N, nu_t=2.06 + float(rng.uniform(0, 1.5)),
                        eta_c=float(rng.uniform(0.01, 0.4)),
                        theta=float(rng.choice([0.0, 0.5, 2.0])))
        amps = linear_chain_amplitudes(p)
        assert np.all(amps.weight >= 0)
        tr = evaluate_trace(amps, t, theta=p.theta)
        assert np.all((tr.V > 0) & (tr.V <= 1.0 + 1e-12))
        assert np.all(tr.A >= -1e-15)
        assert np.max(np.abs(np.abs(tr.S) - np.exp(-tr.A))) < 1e-12
        assert tr.S == pytest.approx(overlap(t, amps, p.theta), abs=1e-15)


def _shared_pass_grid(kind, rng):
    if kind == "uniform":
        return np.linspace(0.0, 300.0, 4001)
    if kind == "straddles zero":
        return np.linspace(-120.0, 180.0, 3001)
    return np.sort(rng.uniform(0.0, 300.0, 3000))


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("grid", ["uniform", "straddles zero", "non-uniform"])
def test_shared_pass_equals_separate_sums(grid, theta):
    rng = np.random.default_rng(20261020)
    N = 200
    p = ChainParams.from_delta(N, float(10.0 ** rng.uniform(-4.0, -1.0)),
                               0.25)
    amps = linear_chain_amplitudes(p, probe_site=int(rng.integers(1, N + 1)))
    t = _shared_pass_grid(grid, rng)
    A = exponent_A_thermal(t, amps, theta)
    S = np.exp(-A + 1j * weighted_trig_sum(t, amps.omega, amps.weight, "sin"))
    for with_overlap in (False, True):
        tr = evaluate_trace(amps, t, theta=theta, with_overlap=with_overlap)
        assert np.array_equal(tr.A, A)
        assert np.array_equal(tr.V, np.exp(-A))
        if with_overlap:
            assert np.array_equal(tr.S, S)
        else:
            assert tr.S is None
    assert np.array_equal(overlap(t, amps, theta), S)


def _cis(phase):
    """exp(i phase) without a complex temporary."""
    z = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    return z


def _one_weight_exponent_A(t, amps, theta):
    """exponent_A_thermal written out as one pass of the blocked matrix
    product that the NUFFT replaced, without the shared-pass helpers: the
    allocation reference."""
    w = thermal_weights(amps, theta)
    dt = _uniform_step(t)
    near = np.max(amps.omega) * np.abs(t) <= 1.0
    n, m = len(t), len(amps.omega)
    rows = max(1, _CHUNK_ELEMENTS // (2 * m))
    B = max(1, min(math.isqrt(n), rows))
    E = _cis(np.multiply.outer(amps.omega, dt * np.arange(B)))
    base = t[::B]
    z = np.empty(len(base) * B, dtype=np.complex128)
    for i in range(0, len(base), rows):
        L = _cis(np.multiply.outer(base[i:i + rows], amps.omega))
        L *= w
        z[i * B:(i + len(L)) * B] = (L @ E).ravel()
    out = 0.5 * (np.sum(w) - z[:n].real)
    if np.any(near):
        out[near] = _direct_trig_sum(t[near], amps.omega, w, "sin2half")
    return 2.0 * out


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_one_weight_trace_allocates_no_more_than_one_weight_pass(theta):
    amps = linear_chain_amplitudes(ChainParams.from_delta(8000, 1e-3, 0.25),
                                   probe_site=3)
    t = np.linspace(0.0, 200.0, 4001)
    ref = _traced_peak(lambda: np.exp(-_one_weight_exponent_A(t, amps, theta)))
    got = _traced_peak(
        lambda: evaluate_trace(amps, t, theta=theta, with_overlap=False))
    both = _traced_peak(
        lambda: evaluate_trace(amps, t, theta=theta, with_overlap=True))
    assert ref > 16 * 2 ** 20           # one 8000-mode block of L and E
    # The arrays are the same; 4 KiB covers small Python objects.
    assert got <= ref + 4096
    # A and the phase add no block-sized array next to L and E.
    assert both <= ref + 4096


def test_trace_memory_at_n_1e5_stays_linear_in_modes_and_samples():
    # 10^5 modes on 2 10^4 samples; the blocked product peaked at 214 MiB,
    # the NUFFT over all 10^5 modes at 34 MiB, over the 50 001 distinct
    # frequencies at 23 MiB.
    amps = linear_chain_amplitudes(ChainParams.from_delta(100_000, 1e-3, 0.25))
    t = np.linspace(0.0, 3e4, 20_000)
    peak = _traced_peak(
        lambda: evaluate_trace(amps, t, with_overlap=False))
    assert peak <= 32 * 2 ** 20


def test_nufft_trace_at_n_8000_allocates_under_2_mib():
    # 20000 samples over 4001 distinct frequencies: the grids, the FFT and
    # the trace itself set the peak; a spread chunk's buffers are 64 KiB.
    amps = linear_chain_amplitudes(ChainParams.from_delta(8000, 1e-3, 0.25))
    t = np.linspace(0.05, 3e3, 20_000)
    weighted_trig_sum(t, amps.omega, amps.weight, "sin2half")
    peak = _traced_peak(
        lambda: weighted_trig_sum(t, amps.omega, amps.weight, "sin2half"))
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("kind", ["sin2half", "sin", "cos"])
def test_direct_sum_keeps_one_block_alive(kind, monkeypatch):
    # Ten blocks of 200 x 4000; the trig call is taken in place and each
    # block freed before the next, so one block sets the peak.
    monkeypatch.setattr(linear_modes, "_CHUNK_ELEMENTS", 800_000)
    rng = np.random.default_rng(11)
    t, omega = rng.uniform(0, 50, 2000), rng.uniform(0.1, 2.5, 4000)
    weight = rng.uniform(0, 1e-3, 4000)
    block = 8 * 200 * 4000
    peak = _traced_peak(lambda: _direct_trig_sum(t, omega, weight, kind))
    assert peak <= 1.2 * block


@pytest.mark.parametrize("producer", [
    linear_chain_amplitudes, _zigzag_amplitudes, chain_amplitudes,
    transverse_mode_set, zigzag_spectrum, zigzag_equilibrium,
    pytest.param(lambda p: axial_mode_set(p.N), id="axial_mode_set"),
    pytest.param(lambda p: critical_frequency_finite(p.N),
                 id="critical_frequency_finite"),
    pytest.param(lambda p: revival_time(p.N, p.nu_t), id="revival_time"),
    pytest.param(lambda p: dispersion_transverse(1.0, p.nu_t, p.N),
                 id="dispersion_transverse"),
])
def test_producers_refuse_past_the_amplitude_budget(producer):
    # The kick weights, and every O(N) build behind the mode tables, the
    # zigzag and the revival time, check bytes per ion x N first.
    N = 10 ** 9
    p = ChainParams(N=N, nu_t=2.0, eta_c=0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="N = 1000000000 ions"):
            producer(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_amplitude_budget_bounds_the_traced_cost(monkeypatch):
    N = 2 ** 18
    linear = ChainParams(N=N, nu_t=2.3, eta_c=0.1)
    buckled = ChainParams(N=N, nu_t=critical_frequency_finite(N) - 0.01,
                          eta_c=0.1)
    lm = linear_modes
    rng = np.random.default_rng(5)
    omega = rng.uniform(0.1, 3.0, N)                # N distinct frequencies
    weights = [("sin2half", rng.uniform(0.0, 1e-6, N)),
               ("sin", rng.uniform(0.0, 1e-6, N))]
    t = np.linspace(0.05, 3e3, 1024)                # NUFFT route, two vectors
    builds = [
        (_ION_BYTES["linear"], "ion", lambda: linear_chain_amplitudes(linear)),
        (_ION_BYTES["zigzag"], "ion", lambda: _zigzag_amplitudes(buckled)),
        (lm._MODE_SET_ION_BYTES, "ion", lambda: transverse_mode_set(linear)),
        (lm._MODE_SET_ION_BYTES, "ion", lambda: axial_mode_set(N)),
        (lm._NU_C_ION_BYTES, "ion", lambda: critical_frequency_finite(N)),
        (lm._LATTICE_ION_BYTES, "ion",
         lambda: dispersion_transverse(1.0, 2.3, N)),
        (lm._VMAX_ION_BYTES, "ion", lambda: revival_time(N, 2.3)),
        (zigzag._EQUILIBRIUM_ION_BYTES, "ion",
         lambda: zigzag_equilibrium(buckled)),
        (zigzag._SPECTRUM_ION_BYTES, "ion", lambda: zigzag_spectrum(buckled)),
        # N input frequencies of one trig sum
        (ramsey._TERM_BYTES, "term",
         lambda: ramsey._trig_sums(t, omega, weights)),
    ]
    for unit_bytes, unit, build in builds:
        # The lattice terms are cached; the first build at N makes them.
        lm._lattice_terms.cache_clear()
        # The check compares bytes per unit x N with the budget, inclusive.
        monkeypatch.setattr(lm, "_BUILD_BUDGET", unit_bytes * N)
        assert _traced_peak(build) <= unit_bytes * N
        monkeypatch.setattr(lm, "_BUILD_BUDGET", unit_bytes * N - 1)
        with pytest.raises(ResourceLimit,
                           match=rf"\({unit_bytes} per {unit}\)"):
            build()


def test_trig_sum_over_budget_raises_before_allocating():
    # 3e7 frequencies at 96 B each pass the 2e9-byte budget; the check
    # comes before the merge, whose sort alone would take 0.5 GB. The
    # inputs are zero-stride views, so nothing is allocated for them.
    M = 3 * 10 ** 7
    omega, weight = np.broadcast_to(1.0, (M,)), np.broadcast_to(1e-6, (M,))
    t = np.linspace(0.05, 3e3, 1024)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=f"trig sums of {M} terms "
                           r"need about .* \(96 per term\)"):
            ramsey._trig_sums(t, omega, [("cos", weight)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_direct_sum_over_budget_raises_before_allocating():
    t, omega = np.zeros(50_000), np.ones(50_000)        # 400 kB each
    assert len(t) * len(omega) > TRACE_BUDGET
    # 10^4 k at N/2 = 500 001 terms is 5e9 mode-samples too; the lattice
    # sum checks before its (uncached) terms, 8 MB at this N, are built.
    k, N = np.linspace(0.1, 3.0, 10_000), 1_000_002
    assert len(k) * (N // 2) > TRACE_BUDGET
    for call, match in (
            (lambda: _direct_trig_sum(t, omega, omega, "cos"),
             "50000 x 50000 exceeds"),
            (lambda: dispersion_transverse(k, 2.5, N),
             "10000 x 500001 exceeds")):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match=match):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
