"""Linear-chain dispersion, mode matrix, and group velocity."""

import math

import numpy as np
import pytest

from coulombchain import (ChainParams, ModeIndex, axial_mode_set,
                          critical_frequency_finite,
                          critical_frequency_infinite, dispersion_axial,
                          dispersion_transverse, enumerate_modes,
                          group_velocity, max_group_velocity, mode_matrix,
                          transverse_mode_set)
from coulombchain.errors import (InvalidParameter, ResourceLimit,
                                 SoftModeSingularity, UnstableLinearPhase)

# Frozen finite-N critical frequencies (independent odd-j sums).
NU_C_FINITE = {
    4: 2.0,
    6: 2.0367003088692623,
    100: 2.0510483467996337,
    256: 2.051130939171629,
    1000: 2.051144841563993,
}


def test_mode_enumeration_n4():
    modes = enumerate_modes(4)
    assert [(m.n, m.sigma) for m in modes] == \
        [(0, "+"), (1, "+"), (1, "-"), (2, "-")]
    assert [m.k for m in modes] == pytest.approx(
        [0.0, math.pi / 2, math.pi / 2, math.pi])


def test_mode_count_and_parity_rules():
    for N in (4, 6, 16, 100):
        assert len(enumerate_modes(N)) == N
    with pytest.raises(InvalidParameter):
        ModeIndex(0, 8, "-")          # n = 0 is cosine-like only
    with pytest.raises(InvalidParameter):
        ModeIndex(4, 8, "+")          # zone edge is sine-like only
    with pytest.raises(InvalidParameter):
        ModeIndex(5, 8, "+")
    with pytest.raises(InvalidParameter):
        enumerate_modes(7)


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


def test_mode_sets():
    p = ChainParams(N=16, nu_t=2.3, eta_c=0.1)
    ms = transverse_mode_set(p)
    assert ms.branch == "y" and len(ms) == 16
    # degenerate parity partners
    for m, w in zip(ms.modes, ms.omega):
        if 0 < m.n < 8:
            partner = [w2 for m2, w2 in zip(ms.modes, ms.omega)
                       if m2.n == m.n and m2.sigma != m.sigma]
            assert partner[0] == pytest.approx(w, rel=1e-15)
    mx = axial_mode_set(16)
    assert mx.branch == "x"
    assert mx.omega[0] == 0.0          # uniform rotation costs nothing


def test_mode_matrix_orthogonality():
    for N in (4, 6, 16, 100):
        R = mode_matrix(N)
        assert R.orthogonality_error() < 1e-10


def test_mode_matrix_n4_entries():
    R = mode_matrix(4).R
    s = math.sqrt(0.5)
    expect = np.array([
        [0.5,  0.0,  s, -0.5],
        [0.5, -s,  0.0,  0.5],
        [0.5,  0.0, -s, -0.5],
        [0.5,  s,  0.0,  0.5],
    ])
    assert np.allclose(R, expect, atol=1e-15)
    assert mode_matrix(4).row(1) == pytest.approx([0.5, 0.0, s, -0.5])
    with pytest.raises(InvalidParameter):
        mode_matrix(4).row(0)


def test_dense_mode_matrix_budget():
    # The probe row is O(N); the dense oracle refuses before allocating N^2.
    N = 200_000
    R = mode_matrix(N)
    row = R.row(1)
    assert row[0] == pytest.approx(math.sqrt(1.0 / N))
    assert float(np.sum(row ** 2)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ResourceLimit):
        R.R


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
    with pytest.raises(InvalidParameter):
        max_group_velocity(nu_t, 1000, grid_points=100)


def test_dispersion_vectorized_matches_scalar():
    ks = np.linspace(0.1, 3.0, 7)
    vec = dispersion_transverse(ks, 2.3, 64)
    for k, w in zip(ks, vec):
        assert dispersion_transverse(float(k), 2.3, 64) == pytest.approx(w)
