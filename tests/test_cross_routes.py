"""Seeded cross-route checks: each fast path against the route it replaced.

- the NUFFT trig sum against the direct kernel on uniform grids, and its
  chunked spread against one np.bincount of all entries, bit for bit;
- trig sums over a linear chain's merged degenerate frequencies, and the
  overlap's A_T and phase from one spread at theta = 0 and theta > 0,
  against the direct kernel over every mode;
- the closed-form probe row against the dense mode matrix;
- the FFT mode-grid dispersion against the direct sum;
- the FFT argmax grid of the group velocity against the direct sums, and
  max_group_velocity against the argmax of the direct grid;
- the zigzag 2 x 2 Bloch blocks against the dense Hessian and eigh;
- the banded zigzag label residuals of the oracles against the dense
  projection loop, on true labels and on labels with one mode moved;
- the folded zigzag kick weights against the dense eigenvectors' per-mode
  weights at a random site, summed per frequency, in both phases;
- zigzag against linear-chain amplitudes at b = 0;
- the zigzag side of the Gamma scan against the linear chain between
  nu_c(N) and nu_c, where Delta < 0 but the finite ring is still linear;
- thermal weights and A_T against their theta -> infinity limit.
"""

import dataclasses
import math

import numpy as np
import pytest

from coulombchain import (ChainParams, DisplacementAmplitudes, axial_mode_set,
                          critical_frequency_finite,
                          critical_frequency_infinite,
                          dispersion_transverse, exponent_A_thermal,
                          gamma_coefficient, gamma_transition_scan,
                          group_velocity, linear_chain_amplitudes,
                          max_group_velocity, mode_matrix, thermal_weights,
                          transverse_mode_set, weighted_trig_sum,
                          zigzag_spectrum)
from coulombchain import linear_modes, ramsey
from coulombchain.ramsey import _zigzag_amplitudes
from coulombchain.errors import SoftModeSingularity
from coulombchain.linear_modes import (_GOLDEN, _VGRID_POINTS, _VMAX_TOL,
                                       _direct_trig_sum, _dispersion_sum,
                                       _grid_group_velocity, _mode_grid_sum)
from coulombchain.ramsey import (_MIN_UNIFORM_SAMPLES, _thermal_A_and_phase,
                                 _uniform_step)
from oracles import (dense_hessian, dense_mode_matrix, dense_vectors,
                     label_residuals, nufft_spread_bincount)

KINDS = ("sin2half", "sin", "cos")
EPS = np.finfo(np.float64).eps


def _random_grid(rng, n, straddle):
    dt = float(rng.uniform(1e-3, 2.0))
    t0 = -0.5 * n * dt * float(rng.uniform(0.2, 0.8)) if straddle \
        else float(rng.uniform(-400.0, 400.0))
    if rng.random() < 0.5:
        return np.linspace(t0, t0 + dt * (n - 1), n)
    return t0 + dt * np.arange(n)


def _bound(t, omega, weight):
    """Observed deviations stay below 0.25 of this."""
    return 4 * EPS * np.sum(np.abs(weight)) * (
        1.0 + np.max(omega) * np.max(np.abs(t)))


def test_uniform_grid_trig_sum_matches_direct_kernel():
    rng = np.random.default_rng(20261017)
    for case in range(24):
        M = int(rng.integers(1, 600))
        n = int(rng.integers(64, 5000))
        if math.isqrt(n) ** 2 == n:
            n += 1                      # non-square n, as always seeded
        t = _random_grid(rng, n, straddle=case % 2 == 0)
        omega = rng.uniform(0.05, 3.0, M)
        weight = rng.uniform(0.0, 0.1, M)
        assert _uniform_step(t) is not None
        assert np.any(np.max(omega) * np.abs(t) > 1.0)
        for kind in KINDS:
            fast = weighted_trig_sum(t, omega, weight, kind)
            slow = _direct_trig_sum(t, omega, weight, kind)
            assert np.max(np.abs(fast - slow)) < _bound(t, omega, weight)


def _chain_case(rng):
    # 10^5 modes of a real chain over the longtime scale probe's grid length.
    amps = linear_chain_amplitudes(
        ChainParams.from_delta(100_000, float(rng.uniform(5e-4, 2e-3)), 0.25),
        probe_site=int(rng.integers(1, 100_001)))
    return np.linspace(0.0, 3e4, 20_000), amps.omega, amps.weight


def _descending_case(rng):
    t0 = float(rng.uniform(200.0, 400.0))
    return np.linspace(t0, t0 - 600.0, 3001), \
        rng.uniform(0.05, 3.0, 300), rng.uniform(0.0, 0.1, 300)


def _folded_case(rng):
    # omega dt up to 30 rad: the points x = omega dt wrap round 2 pi.
    dt = float(rng.uniform(5.0, 10.0))
    return dt * np.arange(-500, 1500), \
        rng.uniform(0.05, 3.0, 200), rng.uniform(0.0, 0.1, 200)


def _shortest_case(rng):
    return np.linspace(-3.0, 60.0, _MIN_UNIFORM_SAMPLES), \
        rng.uniform(0.05, 3.0, 50), rng.uniform(0.0, 0.1, 50)


def _one_mode_case(rng):
    # The tightest case: a small omega shrinks _bound to a few 1e-14 w,
    # near the NUFFT's own error; seeds have reached 0.48 of it.
    return np.linspace(0.0, 500.0, 5000), \
        rng.uniform(0.05, 3.0, 1), rng.uniform(0.0, 0.1, 1)


def _figures_shape_case(rng):
    # 100 modes on 10^5 samples, where the FFTs are the whole cost.
    return np.linspace(0.0, 2e4, 100_000), \
        rng.uniform(0.05, 3.0, 100), rng.uniform(0.0, 0.1, 100)


NUFFT_CASES = {"N=1e5 chain, T=2e4": _chain_case,
               "descending": _descending_case,
               "omega dt > 2 pi": _folded_case,
               "shortest uniform grid": _shortest_case,
               "one mode": _one_mode_case,
               "M=100, T=1e5": _figures_shape_case}


@pytest.mark.parametrize("case", list(NUFFT_CASES))
def test_nufft_trig_sum_matches_direct_kernel_on_a_subset(case):
    rng = np.random.default_rng(20261018 + list(NUFFT_CASES).index(case))
    t, omega, weight = NUFFT_CASES[case](rng)
    assert _uniform_step(t) is not None
    if case == "descending":
        assert t[1] < t[0]
    if case == "omega dt > 2 pi":
        assert np.max(omega) * (t[1] - t[0]) > 2 * np.pi
    sub = np.sort(rng.choice(len(t), min(400, len(t)), replace=False))
    assert np.any(np.max(omega) * np.abs(t[sub]) > 1.0)
    for kind in KINDS:
        fast = weighted_trig_sum(t, omega, weight, kind)[sub]
        slow = _direct_trig_sum(t[sub], omega, weight, kind)
        assert np.max(np.abs(fast - slow)) < _bound(t, omega, weight)


@pytest.mark.parametrize("N", [8000, 130_000])
def test_spread_equals_one_bincount_bit_for_bit(N):
    # At N = 8000, 4001 frequencies share the grid near the band edges, so
    # kernel windows overlap there and the order of the additions shows.
    # At N = 130000, 65001 frequencies make over 10^6 entries, so a chunked
    # sum of per-chunk bincounts would round differently.
    amps = linear_chain_amplitudes(ChainParams.from_delta(N, 1e-3, 0.25))
    omega, inv = np.unique(amps.omega, return_inverse=True)
    w = np.bincount(inv.reshape(-1), amps.weight, minlength=len(omega))
    weights = [w, w / np.tanh(omega)]
    t0, dt, n_out = -1500.0, 0.15, 20_000
    got, p = ramsey._nufft_spread(t0, dt, n_out, omega, weights)
    want, q = nufft_spread_bincount(t0, dt, n_out, omega, weights)
    assert np.array_equal(p, q)
    for (re, im), (re_ref, im_ref) in zip(got, want, strict=True):
        assert np.array_equal(re, re_ref) and np.array_equal(im, im_ref)


def test_small_t_samples_keep_relative_accuracy():
    # The exponential sum would lose sin^2(w t / 2) to 1 - cos near t = 0.
    rng = np.random.default_rng(11)
    omega = rng.uniform(0.5, 2.5, 200)
    weight = rng.uniform(0.0, 0.1, 200)
    t = np.linspace(-2.0, 8.0, 10001)
    near = np.max(omega) * np.abs(t) <= 1.0
    for kind in KINDS:
        fast = weighted_trig_sum(t, omega, weight, kind)
        slow = _direct_trig_sum(t, omega, weight, kind)
        assert np.all(np.abs(fast - slow)[near] <= 1e-13 * np.abs(slow[near]))


def test_perturbed_grid_takes_the_direct_route():
    rng = np.random.default_rng(5)
    omega = rng.uniform(0.5, 2.5, 50)
    weight = rng.uniform(0.0, 0.1, 50)
    t = np.linspace(-10.0, 200.0, 400)
    assert _uniform_step(t) is not None
    t[123] += 1e-9
    assert _uniform_step(t) is None
    assert _uniform_step(np.linspace(0.0, 1.0, 63)) is None
    for kind in KINDS:
        assert np.array_equal(weighted_trig_sum(t, omega, weight, kind),
                              _direct_trig_sum(t, omega, weight, kind))


def _degenerate_chain(rng, N=64):
    """Linear amplitudes: N modes on N/2 + 1 distinct frequencies."""
    amps = linear_chain_amplitudes(
        ChainParams.from_delta(N, float(10.0 ** rng.uniform(-3.0, -1.0)),
                               0.25),
        probe_site=int(rng.integers(1, N + 1)))
    assert len(np.unique(amps.omega)) == N // 2 + 1
    return amps


def _merge_grid(grid, rng):
    if grid == "uniform":
        t = np.linspace(-20.0, 400.0, 3001)
        assert _uniform_step(t) is not None
    else:
        t = np.sort(rng.uniform(-20.0, 400.0, 3000))
        assert _uniform_step(t) is None
    return t


@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
def test_merged_degenerate_modes_match_direct_kernel_over_every_mode(grid):
    rng = np.random.default_rng(20261019)
    amps = _degenerate_chain(rng)
    t = _merge_grid(grid, rng)
    bound = _bound(t, amps.omega, amps.weight)
    slow = {kind: _direct_trig_sum(t, amps.omega, amps.weight, kind)
            for kind in KINDS}
    for kind in KINDS:
        fast = weighted_trig_sum(t, amps.omega, amps.weight, kind)
        assert np.max(np.abs(fast - slow[kind])) < bound
    # The overlap's pass, cold and warm: A_T and the phase from one spread.
    for theta in (0.0, 0.5):
        w = thermal_weights(amps, theta)
        A, phase = _thermal_A_and_phase(t, amps, theta)
        slow_A = 2.0 * _direct_trig_sum(t, amps.omega, w, "sin2half")
        assert np.max(np.abs(A - slow_A)) < 2.0 * _bound(t, amps.omega, w)
        assert np.max(np.abs(phase - slow["sin"])) < bound


def _spy_on_routes(monkeypatch):
    """Wrap _trig_sums and both kernels where _trig_sums looks them up, in
    ramsey (the direct one is linear_modes'). Each _trig_sums call appends a
    list, which gets (omega, [weight]) of every direct call and
    (omega, weights) of every spread."""
    calls = []
    trig_sums = ramsey._trig_sums
    direct, spread = ramsey._direct_trig_sum, ramsey._nufft_spread

    def spy_trig_sums(t, omega, requests):
        calls.append([])
        return trig_sums(t, omega, requests)

    def spy_direct(t, omega, weight, kind):
        calls[-1].append((omega, [weight]))
        return direct(t, omega, weight, kind)

    def spy_spread(t0, dt, n_out, omega, weights):
        calls[-1].append((omega, weights))
        return spread(t0, dt, n_out, omega, weights)

    monkeypatch.setattr(ramsey, "_trig_sums", spy_trig_sums)
    monkeypatch.setattr(ramsey, "_direct_trig_sum", spy_direct)
    monkeypatch.setattr(ramsey, "_nufft_spread", spy_spread)
    return calls


@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
def test_kernels_receive_distinct_frequencies_only(grid, monkeypatch):
    rng = np.random.default_rng(7)
    amps = _degenerate_chain(rng)
    t = _merge_grid(grid, rng)
    calls = _spy_on_routes(monkeypatch)
    for kind in KINDS:
        weighted_trig_sum(t, amps.omega, amps.weight, kind)
    for theta in (0.0, 0.5):
        _thermal_A_and_phase(t, amps, theta)
    # One direct call per request. The uniform grid, which straddles t = 0,
    # adds one spread per _trig_sums call, of one vector per distinct
    # weight vector: the overlap's thermal weights are |alpha|^2 itself at
    # theta = 0 and a second vector at theta > 0.
    uniform = grid == "uniform"
    per_call = [2, 2, 2, 3, 3] if uniform else [1, 1, 1, 2, 2]
    assert [len(group) for group in calls] == per_call
    if uniform:
        assert [len(group[0][1]) for group in calls] == [1, 1, 1, 1, 2]
    distinct = np.unique(amps.omega)
    sums = (amps.weight.sum(), thermal_weights(amps, 0.5).sum())
    for group in calls:
        for omega, weights in group:
            assert np.array_equal(omega, distinct)
            for weight in weights:
                assert weight.sum() == pytest.approx(sums[0], rel=1e-14) or \
                    weight.sum() == pytest.approx(sums[1], rel=1e-14)
    if uniform:
        assert [w.sum() for w in calls[-1][0][1]] == \
            pytest.approx(sums[::-1], rel=1e-14)

    calls.clear()
    omega = rng.uniform(0.5, 2.5, 50)
    weight = rng.uniform(0.0, 0.1, 50)
    zz = _zigzag_amplitudes(ChainParams(
        N=64, nu_t=critical_frequency_finite(64) - 0.04, eta_c=0.1))
    assert len(np.unique(zz.omega)) == len(zz.omega)
    for om, w in ((omega, weight), (zz.omega, zz.weight)):
        for kind in KINDS:
            weighted_trig_sum(t, om, w, kind)
    flat = [(om, w) for group in calls for om, ws in group for w in ws]
    assert len(flat) == 2 * (6 if uniform else 3)
    assert all(om is omega and w is weight for om, w in flat[:len(flat) // 2])
    assert all(om is zz.omega and w is zz.weight
               for om, w in flat[len(flat) // 2:])


def test_probe_row_matches_dense_matrix():
    rng = np.random.default_rng(3)
    for N in (4, 6, 16, 100, 512):
        R, dense = mode_matrix(N), dense_mode_matrix(N)
        for site in rng.integers(1, N + 1, 5):
            assert np.max(np.abs(R.row(int(site)) - dense[site - 1])) < 1e-15


@pytest.mark.parametrize("N", [4, 6, 8, 100, 1000])
def test_fft_mode_grid_matches_direct_sum(N):
    direct = _dispersion_sum(axial_mode_set(N).k, N)
    assert np.max(np.abs(_mode_grid_sum(N) - direct)) < 10 * EPS
    omega_x = axial_mode_set(N).omega
    assert np.max(np.abs(omega_x ** 2 - 8.0 * direct)) < 1e-14
    assert omega_x[0] == 0.0

    nu_t = 2.3
    omega = transverse_mode_set(ChainParams(N=N, nu_t=nu_t, eta_c=0.1)).omega
    assert np.max(np.abs(omega - np.sqrt(nu_t ** 2 - 4.0 * direct))) < 1e-14

    # At the finite-N critical point the zone-edge mode snaps to exactly 0.
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N), eta_c=0.1)
    omega = transverse_mode_set(p).omega
    assert omega[-1] == 0.0 and np.all(omega[:-1] > 0.0)
    with pytest.raises(SoftModeSingularity):
        linear_chain_amplitudes(p)


def _velocity_grid():
    return np.linspace(0.0, math.pi, _VGRID_POINTS + 2)[1:-1]


@pytest.mark.parametrize("N", [4, 6, 16, 100, 1000, 8000, 20000])
def test_fft_velocity_grid_matches_direct_sum(N):
    # N = 20000 has N/2 > 2 _VGRID_POINTS + 2, so j is folded into the FFT.
    rng = np.random.default_rng(N)
    ks = _velocity_grid()
    idx = np.arange(len(ks)) if N <= 1000 else \
        np.sort(rng.choice(len(ks), 64, replace=False))
    nus = [critical_frequency_finite(N)] + [
        critical_frequency_infinite() + 10.0 ** rng.uniform(-6.0, 0.0)
        for _ in range(3)]
    for nu in nus:
        fft = _grid_group_velocity(nu, N)[idx]
        direct = group_velocity(ks[idx], nu, N)
        # Both routes round nu_t^2 - 4 s to a few EPS nu_t^2, which is large
        # against omega_y^2 next to a soft zone-edge mode.
        omega = dispersion_transverse(ks[idx], nu, N)
        tol = 1e-11 + 8 * EPS * nu ** 2 / omega ** 2
        assert np.all(np.abs(fft - direct) <= tol * direct)


def _direct_max_group_velocity(nu_t, N):
    """max_group_velocity with its argmax on the direct grid: the route the
    FFT grid replaced."""
    ks = _velocity_grid()
    i = int(np.argmax(group_velocity(ks, nu_t, N)))
    lo = ks[i - 1] if i > 0 else ks[i] / 2.0
    hi = ks[i + 1] if i < len(ks) - 1 else 0.5 * (ks[i] + math.pi)

    def f(k):
        return group_velocity(float(k), nu_t, N)

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _VMAX_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    k_star = 0.5 * (a + b)
    return f(k_star), k_star


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:            # the exception type is the outcome
        return type(exc)


@pytest.mark.parametrize("N", [4, 6, 16, 100, 1000, 8000])
def test_max_group_velocity_matches_direct_grid(N):
    rng = np.random.default_rng(20261019 + N)
    nuc = critical_frequency_finite(N)
    nus = [nuc, nuc - 10.0 ** rng.uniform(-6.0, -1.0)] + [
        critical_frequency_infinite() + 10.0 ** rng.uniform(-6.0, 0.0)
        for _ in range(2)]
    for nu in nus:
        assert _outcome(max_group_velocity, nu, N) == \
            _outcome(_direct_max_group_velocity, nu, N)


def test_direct_sums_pick_among_the_fft_argmax_neighbours(monkeypatch):
    # Two grid values within FFT rounding of each other: the FFT argmax may
    # land one point off, and the direct sums must still pick the direct one.
    N = 100
    nu = critical_frequency_infinite() + 1e-3
    v = _grid_group_velocity(nu, N)
    i = int(np.argmax(v))
    expected = _direct_max_group_velocity(nu, N)
    for j in (i - 1, i + 1):
        bumped = v.copy()
        bumped[j] = v[i] * (1.0 + 1e-13)
        monkeypatch.setattr(linear_modes, "_grid_group_velocity",
                            lambda nu_t, N, bumped=bumped: bumped)
        assert max_group_velocity(nu, N) == expected


@pytest.mark.parametrize("N", [8, 16, 64, 256])
def test_zigzag_blocks_match_dense_hessian(N):
    rng = np.random.default_rng(N)
    nuc = critical_frequency_finite(N)
    for nu in (nuc - rng.uniform(0.005, 0.3), nuc + rng.uniform(0.005, 0.5)):
        sp = zigzag_spectrum(ChainParams(N=N, nu_t=float(nu), eta_c=0.1))
        assert (sp.b > 0.0) == (nu < nuc)
        H = dense_hessian(N, sp.nu_t, sp.b)
        lam = np.linalg.eigvalsh(H)
        tol = 1e-12 * lam[-1]
        lam_blocks = sp.omega ** 2
        assert np.max(np.abs(np.sort(lam_blocks) - lam)) < tol
        V = dense_vectors(sp)
        assert np.max(np.abs(H @ V - V * lam_blocks)) < tol
        assert np.max(np.abs(V.T @ V - np.eye(2 * N))) < 1e-12
        assert np.max(np.abs(label_residuals(sp, sp.n, sp.plus))) < 1e-10


def _dense_own_subspace_residuals(N, V, n, plus):
    """1 - |projection|^2 of each column of V onto its (n, sigma) patterns.

    The dense route the banded `label_residuals` replaced: one
    4 x 2N pattern matrix per (n, sigma), with np.cos/np.sin phases.
    """
    j = np.arange(1, N + 1, dtype=np.float64)
    stag = np.where(j % 2 == 0, 1.0, -1.0)
    rows = V.T                          # one row per mode
    res = np.empty(V.shape[1])
    for nn in range(N // 4 + 1):
        k = (2.0 * math.pi / N) * np.array(sorted({nn, N // 2 - nn}))
        phase = np.multiply.outer(k, j)
        cos, sin = np.cos(phase), np.sin(phase)
        for sig, pq, pw in ((True, cos, stag * sin), (False, sin, stag * cos)):
            P = np.zeros((2 * len(k), 2 * N))
            P[:len(k), 0::2] = pq
            P[len(k):, 1::2] = pw
            norm = np.linalg.norm(P, axis=1)
            P = P[norm > 1e-9] / norm[norm > 1e-9, None]
            cols = np.flatnonzero((n == nn) & (plus == sig))
            res[cols] = 1.0 - np.sum((rows[cols] @ P.T) ** 2, axis=1)
    return res


def _zigzag_at(N, offset):
    return zigzag_spectrum(ChainParams(
        N=N, nu_t=critical_frequency_finite(N) + offset, eta_c=0.0))


@pytest.mark.parametrize("offset", [-0.04, 0.3], ids=["buckled", "linear"])
@pytest.mark.parametrize("N", [16, 64, 256])
def test_banded_residuals_match_dense_projection(N, offset):
    sp = _zigzag_at(N, offset)
    assert (sp.b > 0.0) == (offset < 0.0)
    dense = _dense_own_subspace_residuals(N, dense_vectors(sp), sp.n,
                                          sp.plus)
    banded = label_residuals(sp, sp.n, sp.plus)
    assert np.max(np.abs(banded - dense)) < 1e-13


@pytest.mark.parametrize("offset", [-0.04, 0.3], ids=["buckled", "linear"])
@pytest.mark.parametrize("N", [16, 64])
def test_residuals_flag_a_mode_with_wrong_labels(N, offset):
    sp = _zigzag_at(N, offset)
    interior = np.flatnonzero((sp.block > 0) & (sp.block < N // 2 - 1))
    i = int(interior[len(interior) // 2])
    plus = sp.plus.copy()
    plus[i] = not plus[i]
    block = sp.block.copy()
    block[i] += 1                       # n moves by one either way
    for bad in (dataclasses.replace(sp, plus=plus),
                dataclasses.replace(sp, block=block)):
        assert bad.n[i] != sp.n[i] or bad.plus[i] != sp.plus[i]
        # The vectors of one spectrum against the labels of the other.
        for vec, lab in ((sp, bad), (bad, sp)):
            res = label_residuals(vec, lab.n, lab.plus)
            assert res[i] > 0.99
            assert np.max(np.abs(np.delete(res, i))) < 1e-10
            dense = _dense_own_subspace_residuals(N, dense_vectors(vec),
                                                  lab.n, lab.plus)
            assert np.max(np.abs(res - dense)) < 1e-13


def _sums_per_frequency(a, b):
    """Weights of a and b summed over each distinct frequency of either."""
    omega = np.concatenate([a.omega, b.omega])
    weight = np.concatenate([a.weight, b.weight])
    from_b = np.arange(len(omega)) >= len(a.omega)
    order = np.argsort(omega, kind="stable")
    gap = np.diff(omega[order], prepend=-np.inf) > 1e-9 * np.max(omega)
    group = np.cumsum(gap) - 1
    return (np.bincount(group, (weight * ~from_b)[order]),
            np.bincount(group, (weight * from_b)[order]))


def test_zigzag_amplitudes_fold_onto_linear_at_b_zero():
    rng = np.random.default_rng(20261017)
    for N in (16, 64, 256):
        nu = critical_frequency_finite(N) + float(rng.uniform(0.005, 0.5))
        p = ChainParams(N=N, nu_t=nu, eta_c=0.1)
        sp = zigzag_spectrum(p)
        assert sp.b == 0.0
        zz = _zigzag_amplitudes(p)
        for site in rng.integers(1, N + 1, 3):
            lin = linear_chain_amplitudes(p, probe_site=int(site))
            w_lin, w_zz = _sums_per_frequency(lin, zz)
            assert np.max(np.abs(w_zz - w_lin)) < 1e-12 * np.max(w_lin)
            assert gamma_coefficient(zz).direct == pytest.approx(
                gamma_coefficient(lin).direct, rel=1e-12)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_folded_zigzag_weights_match_dense_mode_sums(N):
    # The unfolded weights eta0^2 nu_t w_j^2 / omega of every real mode at a
    # random site j, from the dense eigenvectors, summed per frequency.
    rng = np.random.default_rng(20261019 + N)
    nuc = critical_frequency_finite(N)
    for nu in (nuc - rng.uniform(0.005, 0.3), nuc + rng.uniform(0.005, 0.5)):
        p = ChainParams(N=N, nu_t=float(nu),
                        eta_c=float(rng.uniform(0.05, 0.3)))
        sp = zigzag_spectrum(p)
        assert (sp.b > 0.0) == (nu < nuc)
        zz = _zigzag_amplitudes(p)
        assert len(zz) <= N + 2
        assert np.sum(zz.weight * zz.omega) == pytest.approx(
            p.eta0 ** 2 * p.nu_t, rel=1e-10)
        V, live = dense_vectors(sp), sp.omega > 0.0
        for site in rng.integers(1, N + 1, 3):
            row = V[2 * site - 1, live]
            dense = DisplacementAmplitudes(
                omega=sp.omega[live], eta0=p.eta0, nu_t=p.nu_t,
                weight=p.eta0 ** 2 * p.nu_t * row ** 2 / sp.omega[live])
            w_dense, w_zz = _sums_per_frequency(dense, zz)
            assert np.all(np.abs(w_zz - w_dense) <= 1e-12 * np.abs(w_dense))


def test_gamma_is_continuous_across_delta_zero():
    # On (nu_c(N) - nu_c, 0) the ring is flat, so the scan serves it with the
    # linear chain at the same nu_t.
    rng = np.random.default_rng(20261018)
    for N in (16, 64, 256):
        shift = critical_frequency_finite(N) - critical_frequency_infinite()
        delta = float(rng.uniform(0.05, 0.95)) * shift
        eta_c = float(rng.uniform(0.01, 0.3))
        scan = gamma_transition_scan([delta, 0.0, -delta], N=N, eta_c=eta_c)
        assert scan.kinds == ("linear", "linear", "linear")
        lin = linear_chain_amplitudes(ChainParams.from_delta(N, delta, eta_c))
        assert scan.gamma[0] == pytest.approx(gamma_coefficient(lin).direct,
                                              rel=1e-12)


@pytest.mark.parametrize("theta", [1e3, 1e5])
def test_thermal_weights_approach_the_classical_limit(theta):
    # coth(x) = 1/x + x/3 - ..., so |alpha|^2 coth(w / (2 theta)) exceeds
    # |alpha|^2 2 theta / w by a relative x^2/3 at most, x = w_max / (2 theta).
    rng = np.random.default_rng(int(theta))
    t = np.linspace(0.0, 300.0, 3001)
    for _ in range(5):
        N = int(rng.choice([4, 6, 16, 64, 100]))
        nu = critical_frequency_finite(N) + float(rng.uniform(0.01, 2.0))
        amps = linear_chain_amplitudes(
            ChainParams(N=N, nu_t=nu, eta_c=float(rng.uniform(0.01, 0.5))))
        limit = amps.weight * 2.0 * theta / amps.omega
        rel = (np.max(amps.omega) / (2.0 * theta)) ** 2 / 3.0 + 8 * EPS
        tw = thermal_weights(amps, theta)
        assert np.all(np.abs(tw - limit) <= rel * limit)
        A_T = exponent_A_thermal(t, amps, theta)
        A_lim = 2.0 * weighted_trig_sum(t, amps.omega, limit, "sin2half")
        assert np.all(np.abs(A_T - A_lim)
                      <= rel * A_lim + _bound(t, amps.omega, limit))
