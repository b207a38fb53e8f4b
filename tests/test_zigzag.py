"""Zigzag equilibrium, dynamical matrix, and mode classification."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from coulombchain import (ChainParams, axial_mode_set, classify_zigzag_modes,
                          critical_frequency_finite, dispersion_axial,
                          dispersion_transverse,
                          zigzag_displacement_amplitudes, zigzag_equilibrium,
                          zigzag_spectrum)
from coulombchain import zigzag
from coulombchain.cli import run
from coulombchain.errors import (InvalidParameter, NumericalFailure,
                                 ResourceLimit, SoftModeSingularity)
from oracles import dense_hessian, dense_vectors

# frozen equilibrium splitting at N = 16, nu_t = nu_c(16) - 0.05
B_REF_16 = 0.18714377312465968


def test_flat_branch_at_and_above_critical():
    nuc = critical_frequency_finite(16)
    for nu in (nuc, nuc + 1e-6, nuc + 0.5):
        eq = zigzag_equilibrium(ChainParams(N=16, nu_t=nu, eta_c=0.0))
        assert eq.b == 0.0


def test_buckled_branch_below_critical():
    nuc = critical_frequency_finite(16)
    eq = zigzag_equilibrium(ChainParams(N=16, nu_t=nuc - 0.05, eta_c=0.0))
    assert eq.b == pytest.approx(B_REF_16, rel=1e-12)
    assert abs(eq.grad) < 1e-10
    flat = zigzag_equilibrium(ChainParams(N=16, nu_t=nuc + 0.05, eta_c=0.0))
    assert eq.energy_per_ion < flat.energy_per_ion + 0.05 ** 2  # same order
    # buckling lowers the energy relative to the flat line at the same nu_t
    from coulombchain.zigzag import _energy_per_ion
    assert eq.energy_per_ion < _energy_per_ion(0.0, nuc - 0.05, 16)


def test_bifurcation_exponent():
    N = 64
    nuc = critical_frequency_finite(N)
    eps = np.logspace(-5, -2, 7)
    b = np.array([zigzag_equilibrium(ChainParams(N=N, nu_t=nuc - e,
                                                 eta_c=0.0)).b for e in eps])
    slope = np.polyfit(np.log(eps), np.log(b), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_brent_root_is_scipys_on_both_sides_of_critical(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    pairs = []
    port = zigzag._brentq

    def both(f, xa, xb):
        root = port(f, xa, xb)
        pairs.append((root, optimize.brentq(f, xa, xb, xtol=1e-15,
                                            rtol=8.9e-16, maxiter=200)))
        return root

    monkeypatch.setattr(zigzag, "_brentq", both)
    rng = np.random.default_rng(4096)
    below = 0
    for N in (8, 12, 16, 64, 256, 1024, 4096):
        nuc = critical_frequency_finite(N)
        for side in (-1.0, 1.0):
            for d in 10.0 ** rng.uniform(-14, math.log10(0.3), 12):
                eq = zigzag_equilibrium(ChainParams(N=N, nu_t=nuc + side * d,
                                                    eta_c=0.0))
                below += side < 0
                assert eq.b >= 0.0 if side < 0 else eq.b == 0.0
    assert len(pairs) == below == 84
    assert all(ours == theirs for ours, theirs in pairs)


def test_brent_port_converges_and_fails_where_scipy_does():
    optimize = pytest.importorskip("scipy.optimize")
    rtol = 4 * np.finfo(float).eps

    def f(x):
        return math.tanh(3.0 * (x - 0.3)) + 0.1 * x ** 3

    outcomes = set()
    for maxiter in range(1, 30):
        try:
            want = optimize.brentq(f, -2.0, 3.0, xtol=2e-12, rtol=rtol,
                                   maxiter=maxiter)
        except RuntimeError:
            with pytest.raises(NumericalFailure, match="did not converge"):
                zigzag._brentq(f, -2.0, 3.0, 2e-12, rtol, maxiter)
            outcomes.add("fail")
            continue
        assert zigzag._brentq(f, -2.0, 3.0, 2e-12, rtol, maxiter) == want
        outcomes.add("root")
    assert outcomes == {"fail", "root"}
    with pytest.raises(NumericalFailure, match="no sign change"):
        zigzag._brentq(f, 1.0, 3.0)


def test_size_validation():
    for bad in (10, 4, 6, 12 + 1):
        with pytest.raises(InvalidParameter):
            zigzag_equilibrium(ChainParams(N=bad, nu_t=3.0, eta_c=0.0))


@pytest.mark.parametrize("N", [16, 64])
def test_fold_match_at_criticality(N):
    # at the transition the zigzag spectrum equals the folded linear one
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N), eta_c=0.0)
    sp = zigzag_spectrum(p)
    assert sp.b == 0.0
    # both planar linear branches at the mode k's, folded into one list
    k = axial_mode_set(N).k
    fold = np.sort(np.concatenate([dispersion_axial(k, N),
                                   dispersion_transverse(k, p.nu_t, N)]))
    assert fold.shape == sp.omega.shape == (2 * N,)
    assert np.max(np.abs(sp.omega - fold)) < 1e-8


def test_buckled_spectrum_is_stable_where_flat_line_is_not():
    nuc = critical_frequency_finite(16)
    p = ChainParams(N=16, nu_t=nuc - 0.1, eta_c=0.0)
    sp = zigzag_spectrum(p)          # buckled minimum: all omega real
    assert sp.b > 0 and np.all(sp.omega >= 0.0)
    lam = np.linalg.eigvalsh(dense_hessian(16, p.nu_t, 0.0))
    assert lam.min() < -1e-6         # the flat line itself is a saddle there


def _by_label(modes):
    return {(m.n, m.sigma, m.beta): m for m in modes}


@pytest.mark.parametrize("offset", [-0.04, 0.3], ids=["buckled", "linear"])
@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_classification_counts_and_residuals(N, offset):
    sp = zigzag_spectrum(ChainParams(
        N=N, nu_t=critical_frequency_finite(N) + offset, eta_c=0.0))
    assert (sp.b > 0.0) == (offset < 0.0)
    modes = classify_zigzag_modes(sp)
    assert len(modes) == 2 * N
    assert len({(m.n, m.sigma, m.beta) for m in modes}) == 2 * N
    assert max(m.residual for m in modes) < 1e-10
    # The oracle reports the spectrum's own label arrays, row by row.
    assert [(m.n, m.sigma, m.beta, m.omega, m.special) for m in modes] == \
        list(zip(*(a[sp.label_order].tolist() for a in (
            sp.n, sp.sigma, sp.beta, sp.omega, sp.special))))
    assert np.array_equal(sp.k, 2.0 * np.pi * sp.n / N)
    groups = {}
    for m in modes:
        groups.setdefault((m.n, m.sigma), []).append(m)
    for group in groups.values():
        assert [m.beta for m in group] == list(range(1, len(group) + 1))
        assert all(a.omega >= b.omega for a, b in zip(group, group[1:]))
    per_n = np.bincount([m.n for m in modes])
    assert per_n[0] == per_n[N // 4] == 4 and len(per_n) == N // 4 + 1
    assert np.all(per_n[1:N // 4] == 8)
    assert sorted(m.special for m in modes if m.special) == \
        ["bulk_x", "bulk_y", "zigzag_x", "zigzag_y"]


def test_classification_memory_is_banded():
    # The dense 2N x 2N eigenvector matrix alone would be 33.5 MB here.
    N = 1024
    sp = zigzag_spectrum(ChainParams(
        N=N, nu_t=critical_frequency_finite(N) - 0.04, eta_c=0.0))
    tracemalloc.start()
    try:
        modes = classify_zigzag_modes(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) == 2 * N and max(m.residual for m in modes) < 1e-10
    assert peak < 12e6


def test_special_modes_match_dispersion_at_flat_line():
    N = 16
    nu = critical_frequency_finite(N) + 0.3
    p = ChainParams(N=N, nu_t=nu, eta_c=0.0)
    modes = {m.special: m for m in classify_zigzag_modes(zigzag_spectrum(p))
             if m.special}
    assert modes["bulk_x"].omega == pytest.approx(0.0, abs=1e-12)
    assert modes["bulk_y"].omega == pytest.approx(nu, rel=1e-12)
    stretch = float(dispersion_axial(math.pi, N))
    assert modes["zigzag_x"].omega == pytest.approx(stretch, rel=1e-12)
    soft = float(dispersion_transverse(math.pi, nu, N))
    assert modes["zigzag_y"].omega == pytest.approx(soft, rel=1e-12)


def test_labels_continuous_across_transition():
    N = 16
    nuc = critical_frequency_finite(N)
    below = _by_label(classify_zigzag_modes(zigzag_spectrum(
        ChainParams(N=N, nu_t=nuc - 0.02, eta_c=0.0))))
    above = _by_label(classify_zigzag_modes(zigzag_spectrum(
        ChainParams(N=N, nu_t=nuc + 0.02, eta_c=0.0))))
    assert set(below) == set(above)
    # branches move smoothly through the transition
    for key in below:
        assert abs(below[key].omega - above[key].omega) < 0.35


def test_structural_projections_in_buckled_phase():
    # uniform and staggered q/w patterns stay exact eigenvector content
    N = 16
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N) - 0.05, eta_c=0.0)
    modes = classify_zigzag_modes(zigzag_spectrum(p))
    tagged = [m for m in modes if m.n in (0, N // 4)]
    assert len(tagged) == 8
    for m in tagged:
        assert m.residual < 1e-6


def test_amplitude_sum_rule_both_phases():
    for nu_off in (-0.05, +0.3):
        N = 16
        nu = critical_frequency_finite(N) + nu_off
        p = ChainParams(N=N, nu_t=nu, eta_c=0.1)
        amps = zigzag_displacement_amplitudes(p)
        assert amps.kind == "zigzag"
        total = float(np.sum(amps.weight * amps.omega))
        assert total == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)
        assert np.all(amps.omega > 0)


def test_amplitudes_singular_exactly_at_transition():
    N = 16
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N), eta_c=0.1)
    with pytest.raises(SoftModeSingularity):
        zigzag_displacement_amplitudes(p)


def test_block_route_scales_past_the_dense_budget(tmp_path):
    N = 10_000
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N) - 0.01, eta_c=0.1)
    sp = zigzag_spectrum(p)
    assert sp.b > 0.0 and sp.omega.shape == (2 * N,)
    amps = zigzag_displacement_amplitudes(p)
    assert len(amps) == N + 1           # all eigenpairs but the rotation
    total = float(np.sum(amps.weight * amps.omega))
    assert total == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)
    # The zigzag subcommand labels a buckled N = 10^4 ring from its arrays.
    rc = run(["zigzag", "--N", str(N), "--delta", "-0.01", "--eta-c", "0.1",
              "--points", "3", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "zigzag_spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len({(r[4], r[2], r[1]) for r in rows}) == 2 * N
    # The dense routes refuse before allocating their (2N)^2 arrays.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            dense_vectors(sp)
        with pytest.raises(ResourceLimit):
            classify_zigzag_modes(sp)
        with pytest.raises(ResourceLimit):
            dense_hessian(N, p.nu_t, sp.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
