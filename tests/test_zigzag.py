"""Zigzag equilibrium, dynamical matrix, and mode classification."""

import ast
import csv
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coulombchain import (ChainParams, axial_mode_set, classify_zigzag_modes,
                          critical_frequency_finite, dispersion_axial,
                          dispersion_transverse, gamma_coefficient,
                          linear_chain_amplitudes, zigzag_equilibrium,
                          zigzag_spectrum)
from coulombchain import zigzag
from coulombchain.ramsey import _zigzag_amplitudes
from coulombchain.cli import run
from coulombchain.errors import (InvalidParameter, NumericalFailure,
                                 ResourceLimit, SoftModeSingularity)
from oracles import dense_hessian, dense_vectors, label_residuals

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


def test_near_critical_roots_are_buckled_and_stable():
    # Within 1e-7 below nu_c(N) the energy gain of buckling, about e b^2, is
    # far below the rounding of the energy itself; b must still come out.
    for N in (8, 16, 64, 256, 1024):
        nuc = critical_frequency_finite(N)
        b_prev = math.inf
        for e in np.logspace(-7, -12, 60):      # nu_t ascending
            p = ChainParams(N=N, nu_t=nuc - e, eta_c=0.0)
            eq = zigzag_equilibrium(p)
            assert 0.0 < eq.b <= b_prev and abs(eq.grad) <= zigzag.GRAD_TOL
            b_prev = eq.b
            assert zigzag_spectrum(p).b == eq.b


def test_root_matches_mpmath_oracle():
    # The root of h(x) = sum_{d odd} (d^2 + x)^(-3/2) = c, c = nu_t^2 / 4,
    # at 40 digits. Near the transition the root's own conditioning is
    # eps c / f(0), f(0) = h(0) - c; away from it, the rounding of b.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for N in (8, 16, 64, 256):
            nuc = critical_frequency_finite(N)
            d2 = [mpmath.mpf(d) ** 2 for d in range(1, N // 2 + 1, 2)]
            for e in np.logspace(-12, math.log10(1.5), 12):
                eq = zigzag_equilibrium(ChainParams(N=N, nu_t=nuc - e,
                                                    eta_c=0.0))
                c = mpmath.mpf(eq.nu_t) ** 2 / 4

                def f(x):
                    return mpmath.fsum((d + x) ** -1.5 for d in d2) - c

                hi = mpmath.mpf(1)
                while f(hi) > 0:
                    hi *= 2
                b = mpmath.sqrt(mpmath.findroot(f, (0, hi),
                                                solver="anderson"))
                rel = float(abs(eq.b - b) / b)
                cond = float(c / f(0))
                assert rel <= 4 * eps * max(1.0, cond)
                if e >= 1e-4:
                    assert rel <= 1e-12


def test_far_roots_converge_and_a_vanishing_nu_t_fails():
    for N, nu_t, b in ((8, 1e-6, 2e4), (1024, 1e-3, 967.29)):
        eq = zigzag_equilibrium(ChainParams(N=N, nu_t=nu_t, eta_c=0.0))
        assert eq.b == pytest.approx(b, rel=1e-5)
        assert abs(eq.grad) <= zigzag.GRAD_TOL
    with pytest.raises(NumericalFailure, match="did not converge"):
        zigzag_equilibrium(ChainParams(N=8, nu_t=1e-100, eta_c=0.0))


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
    assert np.max(np.abs(np.sort(sp.omega) - fold)) < 1e-8


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
    assert max(label_residuals(sp, sp.n, sp.plus)) < 1e-10
    # The modes are stored in table row order: n ascending, '+' first, then
    # omega descending. The classifier reports those arrays row by row.
    assert np.array_equal(np.lexsort((-sp.omega, ~sp.plus, sp.n)),
                          np.arange(2 * N))
    assert [(m.n, m.sigma, m.beta, m.omega, m.special) for m in modes] == \
        list(zip(*(a.tolist() for a in (
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
        res = label_residuals(sp, sp.n, sp.plus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res) == 2 * N and max(res) < 1e-10
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
    sp = zigzag_spectrum(p)
    tagged = np.isin(sp.n, (0, N // 4))
    assert np.count_nonzero(tagged) == 8
    assert np.all(label_residuals(sp, sp.n, sp.plus)[tagged] < 1e-6)


def test_amplitude_sum_rule_both_phases():
    for nu_off in (-0.05, +0.3):
        N = 16
        nu = critical_frequency_finite(N) + nu_off
        p = ChainParams(N=N, nu_t=nu, eta_c=0.1)
        amps = _zigzag_amplitudes(p)
        assert amps.kind == "zigzag"
        total = float(np.sum(amps.weight * amps.omega))
        assert total == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)
        assert np.all(amps.omega > 0)


def test_amplitudes_singular_exactly_at_transition():
    N = 16
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N), eta_c=0.1)
    with pytest.raises(SoftModeSingularity):
        _zigzag_amplitudes(p)


@pytest.mark.parametrize("gap", [1e-12, 1e-13])
@pytest.mark.parametrize("N", [64, 256])
def test_gamma_joins_across_the_finite_n_transition(N, gap):
    # Both routes snap omega^2 within RADICAND_CLAMP nu_t^2 of zero, so a
    # buckled ring just below nu_c(N) resolves its soft mode as the flat
    # ring just above does, and Gamma joins across the transition.
    nuc = critical_frequency_finite(N)
    p = ChainParams(N=N, nu_t=nuc - gap, eta_c=0.05)
    assert zigzag_equilibrium(p).b > 0.0
    zz = _zigzag_amplitudes(p)
    assert np.all(np.isfinite(zz.weight)) and np.all(zz.omega > 0.0)
    assert np.sum(zz.weight * zz.omega) == pytest.approx(
        p.eta0 ** 2 * p.nu_t, rel=1e-10)
    lin = linear_chain_amplitudes(ChainParams(N=N, nu_t=nuc + gap,
                                              eta_c=0.05))
    assert gamma_coefficient(zz).direct == pytest.approx(
        gamma_coefficient(lin).direct, rel=1e-7)


@pytest.mark.parametrize("N", [1024, 2 ** 16])
def test_only_structural_zero_rows_at_the_critical_point(N):
    # Exactly at nu_c(N) the rotation and the soft mode, both in block 0,
    # are the only zeros; genuine soft-branch modes keep their frequency.
    sp = zigzag_spectrum(ChainParams(N=N, nu_t=critical_frequency_finite(N),
                                     eta_c=0.0))
    zero = sp.omega == 0.0
    assert sorted(zip(sp.block[zero].tolist(), sp.plus[zero].tolist())) == \
        [(0, False), (0, True)]


@pytest.mark.parametrize("N", [64, 1024])
def test_no_spurious_instability_near_the_transition(N):
    # The equilibrium grid of the benchmark's transition workload. Below
    # nu_c(N) every eigenpair but the rotation and the m = N/2 axial one is
    # felt; on the flat ring only the N/2 + 1 transverse ones are.
    nuc = critical_frequency_finite(N)
    grid = np.linspace(nuc - 0.15, nuc + 0.05, 41)
    assert grid[30] == nuc
    for nu in grid:
        p = ChainParams(N=N, nu_t=float(nu), eta_c=0.05)
        zigzag_spectrum(p)
        if nu == nuc:
            for producer in (_zigzag_amplitudes,
                             linear_chain_amplitudes):
                with pytest.raises(SoftModeSingularity):
                    producer(p)
        else:
            expect = N if nu < nuc else N // 2 + 1
            assert len(_zigzag_amplitudes(p)) == expect


def test_the_crystal_module_does_not_import_the_ramsey_layer():
    tree = ast.parse(Path(zigzag.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n.split(".")[-1] == "ramsey" for n in names), \
            ast.unparse(node)


def test_block_route_scales_past_the_dense_budget(tmp_path):
    N = 10_000
    p = ChainParams(N=N, nu_t=critical_frequency_finite(N) - 0.01, eta_c=0.1)
    sp = zigzag_spectrum(p)
    assert sp.b > 0.0 and sp.omega.shape == (2 * N,)
    amps = _zigzag_amplitudes(p)
    # All eigenpairs but the rotation and the unfelt m = N/2 axial one.
    assert len(amps) == N
    total = float(np.sum(amps.weight * amps.omega))
    assert total == pytest.approx(p.eta0 ** 2 * p.nu_t, rel=1e-10)
    # The zigzag subcommand labels a buckled N = 10^4 ring from its arrays.
    rc = run(["zigzag", "--N", str(N), "--delta", "-0.01", "--points", "3",
              "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "zigzag_spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len({(r[4], r[2], r[1]) for r in rows}) == 2 * N
    # So does the classifier, with no work budget.
    modes = classify_zigzag_modes(sp)
    assert len(modes) == len({(m.n, m.sigma, m.beta) for m in modes}) == 2 * N
    # The O(N^2) oracles refuse before allocating.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            label_residuals(sp, sp.n, sp.plus)
        with pytest.raises(ResourceLimit):
            dense_vectors(sp)
        with pytest.raises(ResourceLimit):
            dense_hessian(N, p.nu_t, sp.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
