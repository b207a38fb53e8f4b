"""Linear-chain dispersion, mode matrix, and group velocity."""

import math
import tracemalloc

import numpy as np
import pytest

from coulombchain import (ChainParams, axial_mode_set,
                          critical_frequency_finite,
                          critical_frequency_infinite, dispersion_axial,
                          dispersion_transverse, group_velocity,
                          linear_chain_amplitudes, max_group_velocity,
                          mode_matrix, revival_time, transverse_mode_set)
from coulombchain import linear_modes
from coulombchain.errors import (InvalidParameter, ResourceLimit,
                                 SoftModeSingularity, UnstableLinearPhase)
from oracles import dense_mode_matrix, lattice_sum_einsum

# Frozen finite-N critical frequencies (independent odd-j sums).
NU_C_FINITE = {
    4: 2.0,
    6: 2.0367003088692623,
    100: 2.0510483467996337,
    256: 2.051130939171629,
    1000: 2.051144841563993,
}


def _assert_parity_rules(ms, N):
    """n = 0 is cosine-like only, the zone edge n = N/2 sine-like only, and
    every interior n carries one '+' and one '-' mode."""
    assert len(ms.n) == len(ms.sigma) == len(ms.k) == N
    per_n = N // 2 + 1
    plus = np.bincount(ms.n[ms.sigma == "+"], minlength=per_n)
    minus = np.bincount(ms.n[ms.sigma == "-"], minlength=per_n)
    assert len(plus) == len(minus) == per_n          # no n beyond N/2
    assert plus[0] == 1 and minus[0] == 0
    assert plus[-1] == 0 and minus[-1] == 1
    assert np.all(plus[1:-1] == 1) and np.all(minus[1:-1] == 1)


def test_mode_enumeration_n4():
    ms = axial_mode_set(4)
    assert list(zip(ms.n, ms.sigma)) == \
        [(0, "+"), (1, "+"), (1, "-"), (2, "-")]
    assert list(ms.k) == pytest.approx(
        [0.0, math.pi / 2, math.pi / 2, math.pi])


def test_mode_count_and_parity_rules():
    for N in (4, 6, 16, 100):
        ms = axial_mode_set(N)
        assert len(ms) == N
        _assert_parity_rules(ms, N)
    with pytest.raises(InvalidParameter):
        axial_mode_set(7)


def test_dispersion_hand_values():
    # N = 4 axial zone edge: omega_x^2 = 8 (1 + 1/8 sin^2 pi) = 8
    assert dispersion_axial(math.pi, 4) == pytest.approx(math.sqrt(8.0))
    # N = 4, k = pi/2, nu_t = 2.5:
    # sum = sin^2(pi/4) + (1/8) sin^2(pi/2) = 0.625, omega_y = sqrt(6.25-2.5)
    assert dispersion_transverse(math.pi / 2, 2.5, 4) == \
        pytest.approx(1.9364916731037085, rel=1e-14)
    assert dispersion_transverse(0.0, 2.5, 4) == pytest.approx(2.5)


def test_finite_critical_frequencies():
    for N, ref in NU_C_FINITE.items():
        assert critical_frequency_finite(N) == pytest.approx(ref, abs=1e-12)


def test_transverse_softening_and_instability():
    # at the finite-N critical point the zone-edge mode is exactly soft
    nu_cn = critical_frequency_finite(100)
    assert dispersion_transverse(math.pi, nu_cn, 100) == 0.0
    with pytest.raises(UnstableLinearPhase):
        dispersion_transverse(math.pi, nu_cn - 1e-3, 100)
    with pytest.raises(InvalidParameter):
        dispersion_transverse(math.pi, -1.0, 100)


@pytest.mark.parametrize("nu_t", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("call", [
    lambda nu_t: dispersion_transverse(1.0, nu_t, 100),
    lambda nu_t: dispersion_transverse(np.linspace(0.1, 3.0, 5), nu_t, 100),
    lambda nu_t: group_velocity(1.0, nu_t, 100),
    lambda nu_t: max_group_velocity(nu_t, 100),
    lambda nu_t: revival_time(100, nu_t),
], ids=["dispersion_transverse", "dispersion_transverse[array]",
        "group_velocity", "max_group_velocity", "revival_time"])
def test_non_finite_nu_t_is_rejected(call, nu_t):
    # 1e200 is finite, but the spectra square it: nu_t^2 overflows.
    with pytest.raises(InvalidParameter, match="nu_t must be positive and "
                       "finite, and so must nu_t\\^2"):
        call(nu_t)


@pytest.mark.parametrize("k, match", [
    (math.nan, r"k must be finite; k\[0\] = nan"),
    (math.inf, r"k must be finite; k\[0\] = inf"),
    (np.array([1.0, -math.inf, math.nan]), r"k must be finite; k\[1\] = -inf"),
    (np.ones((2, 3)), r"k must be a scalar or a 1-d array, got shape \(2, 3\)"),
], ids=["nan", "inf", "array", "2-d"])
@pytest.mark.parametrize("call", [
    lambda k: dispersion_axial(k, 16),
    lambda k: dispersion_transverse(k, 2.5, 16),
    lambda k: group_velocity(k, 2.5, 16),
], ids=["dispersion_axial", "dispersion_transverse", "group_velocity"])
def test_non_finite_k_is_rejected(call, k, match):
    # Not a NaN result, nor a RuntimeWarning from sin; nor, for an N-d k,
    # numpy's ValueError: k is a scalar or a 1-d array.
    with pytest.raises(InvalidParameter, match=match):
        call(k)


def test_mode_sets():
    p = ChainParams(N=16, nu_t=2.3, eta_c=0.1)
    ms = transverse_mode_set(p)
    assert len(ms) == 16
    # degenerate parity partners
    for n, sigma, w in zip(ms.n, ms.sigma, ms.omega):
        if 0 < n < 8:
            partner = [w2 for n2, s2, w2 in zip(ms.n, ms.sigma, ms.omega)
                       if n2 == n and s2 != sigma]
            assert partner[0] == pytest.approx(w, rel=1e-15)
    mx = axial_mode_set(16)
    assert mx.omega[0] == 0.0          # uniform rotation costs nothing


def test_mode_matrix_orthogonality():
    for N in (4, 6, 16, 100):
        R = dense_mode_matrix(N)
        assert np.max(np.abs(R.T @ R - np.eye(N))) < 1e-10


def test_mode_matrix_n4_entries():
    R = dense_mode_matrix(4)
    s = math.sqrt(0.5)
    expect = np.array([
        [0.5,  0.0,  s, -0.5],
        [0.5, -s,  0.0,  0.5],
        [0.5,  0.0, -s, -0.5],
        [0.5,  s,  0.0,  0.5],
    ])
    assert np.allclose(R, expect, atol=1e-15)
    for site in (1, np.int64(1), np.int32(1)):
        assert mode_matrix(4).row(site) == pytest.approx([0.5, 0.0, s, -0.5])
    with pytest.raises(InvalidParameter):
        mode_matrix(4).row(0)


@pytest.mark.parametrize("site", [1.5, 2.0, np.float64(3.0), True, "1"],
                         ids=["1.5", "2.0", "float64", "True", "str"])
def test_probe_site_must_be_an_integer(site):
    # A non-integer site would build the cos/sin row of no ion.
    with pytest.raises(InvalidParameter, match="site must be an integer"):
        mode_matrix(16).row(site)
    with pytest.raises(InvalidParameter, match="site must be an integer"):
        linear_chain_amplitudes(ChainParams.from_delta(16, 0.1, 0.2),
                                probe_site=site)


def test_dense_mode_matrix_budget():
    # The probe row is O(N); the dense oracle refuses before allocating N^2.
    N = 200_000
    R = mode_matrix(N)
    row = R.row(1)
    assert row[0] == pytest.approx(math.sqrt(1.0 / N))
    assert float(np.sum(row ** 2)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ResourceLimit):
        dense_mode_matrix(N)


def test_array_labels_scale_to_a_million_modes():
    # Labels are arrays, so amplitudes cost a few arrays of N floats, not
    # one Python object per mode.
    N = 1_000_000
    p = ChainParams(N=N, nu_t=2.3, eta_c=0.1)
    tracemalloc.start()
    try:
        amps = linear_chain_amplitudes(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * N
    lhs = float(np.sum(amps.weight * amps.omega))
    assert lhs == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)
    _assert_parity_rules(transverse_mode_set(p), N)
    with pytest.raises(ResourceLimit):
        dense_mode_matrix(N)


def test_group_velocity_against_finite_difference():
    N, nu_t = 100, 2.2
    h = 1e-6
    for k in (0.3, 1.0, 2.0, 2.8, 3.0):
        v = group_velocity(k, nu_t, N)
        fd = abs(dispersion_transverse(k + h, nu_t, N)
                 - dispersion_transverse(k - h, nu_t, N)) / (2 * h)
        assert v == pytest.approx(fd, rel=1e-6)


def test_group_velocity_soft_singularity():
    nu_cn = critical_frequency_finite(64)
    with pytest.raises(SoftModeSingularity):
        group_velocity(math.pi, nu_cn, 64)


# Frozen from a golden-section refinement at tol 1e-9 (N = 1000, Delta 1e-3).
V_MAX_REF = 0.8134240320395805
K_STAR_REF = 2.6425273254762778


def test_max_group_velocity():
    nu_t = critical_frequency_infinite() + 1e-3
    v_max, k_star = max_group_velocity(nu_t, 1000)
    assert v_max == pytest.approx(V_MAX_REF, rel=1e-8)
    assert k_star == pytest.approx(K_STAR_REF, abs=1e-5)


def test_lattice_terms_are_cached_read_only():
    j, w = linear_modes._lattice_terms(64, 3)
    again = linear_modes._lattice_terms(64, 3)
    assert again[0] is j and again[1] is w
    assert not j.flags.writeable and not w.flags.writeable
    ref = np.arange(32, 0, -1, dtype=np.float64)
    assert np.array_equal(j, ref) and np.array_equal(w, ref ** -3)


@pytest.mark.parametrize("N", [16, 1000, 100_000])
def test_lattice_sums_match_the_einsum_oracle(N):
    # The direct kernel's matrix-vector product against the einsum it
    # replaced, within 4 eps sum_j j^-p; the derivative is -2 times its sum,
    # which halves exactly.
    eps = np.finfo(float).eps
    j = np.arange(1, N // 2 + 1, dtype=np.float64)
    rng = np.random.default_rng(N)
    for k in (2.3, rng.uniform(0.0, math.pi, 37)):
        got = linear_modes._dispersion_sum(k, N)
        ref = lattice_sum_einsum(k, N, 3, "sin2half")
        assert np.ndim(got) == np.ndim(k)
        assert np.max(np.abs(got - ref)) <= 4 * eps * np.sum(j ** -3)
        got = -0.5 * linear_modes._dispersion_sq_derivative(k, N)
        ref = lattice_sum_einsum(k, N, 2, "sin")
        assert np.max(np.abs(got - ref)) <= 4 * eps * np.sum(j ** -2)


def test_dispersion_vectorized_matches_scalar():
    ks = np.linspace(0.1, 3.0, 7)
    vec = dispersion_transverse(ks, 2.3, 64)
    for k, w in zip(ks, vec):
        assert dispersion_transverse(float(k), 2.3, 64) == pytest.approx(w)
