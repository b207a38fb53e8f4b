"""Units, parameter containers, and the critical frequency."""

import math

import mpmath
import numpy as np
import pytest

import coulombchain as cc
from coulombchain import (H_STIFFNESS, ChainParams, PhysicalInput,
                          critical_frequency_infinite, derive_parameters,
                          zeta3)
from coulombchain.errors import (CoulombChainError, InvalidParameter,
                                 NumericalFailure, ResourceLimit,
                                 SoftModeSingularity, UnstableConfiguration,
                                 UnstableLinearPhase)
from oracles import zeta3_sum

# Independent oracle values, frozen from mpmath (50 digits, rounded here).
ZETA3_ORACLE = 1.2020569031595942854
NU_C_ORACLE = 2.0511458166250836


def test_zeta3_against_oracle():
    # live oracle plus the frozen digits, 10+ significant digits
    live = float(mpmath.zeta(3))
    assert abs(zeta3() - live) / live < 1e-12
    assert abs(zeta3() - ZETA3_ORACLE) < 1e-13
    # the literal is the 10^6-term Euler-Maclaurin sum, bit for bit
    assert zeta3() == zeta3_sum()


def test_critical_frequency_value():
    live = float(mpmath.sqrt(3.5 * mpmath.zeta(3)))
    assert abs(critical_frequency_infinite() - live) < 1e-12
    assert abs(critical_frequency_infinite() - NU_C_ORACLE) < 1e-12


def test_finite_n_approaches_infinite():
    # N = 10^4 sits within 1e-4 of the infinite-chain value
    nu_c4 = cc.critical_frequency_finite(10_000)
    assert abs(nu_c4 - critical_frequency_infinite()) < 1e-4
    # convergence is monotone from below
    seq = [cc.critical_frequency_finite(N) for N in (4, 8, 16, 64, 256)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < critical_frequency_infinite()


MG_AMU = 24 * 1.66053906660e-27
E_CHARGE = 1.602176634e-19


def test_physical_example_magnesium():
    # 24 amu, singly charged, 33 um spacing: omega0 close to 2 pi x 64 kHz
    phys = PhysicalInput(mass_kg=MG_AMU, charge_c=E_CHARGE, spacing_m=33e-6,
                         transverse_frequency_rad_s=2 * math.pi * 200e3,
                         laser_wavenumber_per_m=2 * math.pi / 280e-9)
    f0_khz = phys.omega0() / (2 * math.pi) / 1e3
    assert 63.0 < f0_khz < 65.0


def test_derive_parameters_roundtrip():
    phys = PhysicalInput(mass_kg=MG_AMU, charge_c=E_CHARGE, spacing_m=33e-6,
                         transverse_frequency_rad_s=2 * math.pi * 140e3,
                         laser_wavenumber_per_m=2 * math.pi / 280e-9,
                         temperature_k=1e-6)
    der = derive_parameters(phys)
    assert der.nu_t == pytest.approx(
        phys.transverse_frequency_rad_s / der.omega0_rad_s)
    # eta0 and eta_c are tied through the frequency ratio
    assert der.eta0 == pytest.approx(
        der.eta_c * math.sqrt(critical_frequency_infinite() / der.nu_t))
    assert der.theta > 0


def test_physical_input_validation():
    with pytest.raises(InvalidParameter):
        PhysicalInput(mass_kg=-1, charge_c=E_CHARGE, spacing_m=1e-6,
                      transverse_frequency_rad_s=1.0,
                      laser_wavenumber_per_m=1.0)
    with pytest.raises(InvalidParameter):
        PhysicalInput(mass_kg=MG_AMU, charge_c=E_CHARGE, spacing_m=1e-6,
                      transverse_frequency_rad_s=1.0,
                      laser_wavenumber_per_m=1.0, temperature_k=-0.1)


_SI_FIELDS = dict(mass_kg=MG_AMU, charge_c=E_CHARGE, spacing_m=33e-6,
                  transverse_frequency_rad_s=1e6, laser_wavenumber_per_m=2e7,
                  temperature_k=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_SI_FIELDS))
def test_physical_input_rejects_non_finite_fields(name, bad):
    # NaN passes both `<= 0` and `< 0`; the error must name the field given.
    rule = ">= 0" if name == "temperature_k" else "positive"
    with pytest.raises(InvalidParameter,
                       match=f"^{name} must be {rule} and finite, got {bad}$"):
        PhysicalInput(**{**_SI_FIELDS, name: bad})


def test_chain_params_validation():
    for bad in (3, 2, 0, -4, 4.0, True):
        with pytest.raises(InvalidParameter):
            ChainParams(N=bad, nu_t=2.5, eta_c=0.1)
    for nu_t in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="nu_t must be positive"):
            ChainParams(N=8, nu_t=nu_t, eta_c=0.1)
    for eta_c in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="eta_c must be >= 0"):
            ChainParams(N=8, nu_t=2.5, eta_c=eta_c)
    for theta in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="theta must be >= 0"):
            ChainParams(N=8, nu_t=2.5, eta_c=0.1, theta=theta)


@pytest.mark.parametrize("field, bad", [
    ("N", 7), ("N", 2.0), ("N", True),
    ("nu_t", math.nan), ("nu_t", 1e200),
    ("theta", -1), ("theta", math.nan),
])
def test_raw_arguments_follow_the_chain_params_rules(field, bad):
    # One rule per parameter: ChainParams and a function that takes the
    # parameter as a plain argument raise the same message.
    good = dict(N=16, nu_t=2.5, eta_c=0.1, theta=0.0)
    with pytest.raises(InvalidParameter) as from_params:
        ChainParams(**{**good, field: bad})
    amps = cc.linear_chain_amplitudes(ChainParams(**good))
    raw = {"N": lambda: cc.critical_frequency_finite(bad),
           "nu_t": lambda: cc.dispersion_transverse(1.0, bad, 16),
           "theta": lambda: cc.thermal_weights(amps, bad)}[field]
    with pytest.raises(InvalidParameter) as from_raw:
        raw()
    message = str(from_raw.value)
    assert message == str(from_params.value)
    assert message.startswith(f"{field} must be ")
    assert message.endswith(f"got {bad!r}")


def test_from_delta_and_eta0_identity():
    p = ChainParams.from_delta(100, 0.1, 0.25)
    assert p.nu_t == pytest.approx(critical_frequency_infinite() + 0.1)
    assert p.delta_trans == pytest.approx(0.1)
    # eta0^2 nu_t = eta_c^2 nu_c independent of confinement
    for delta in (1e-4, 1e-2, 0.5):
        q = ChainParams.from_delta(100, delta, 0.25)
        assert q.eta0 ** 2 * q.nu_t == pytest.approx(
            0.25 ** 2 * critical_frequency_infinite(), rel=1e-14)


DELTA_REF = 1e-3
SOFT_GAP_REF = 0.06405694055487014   # sqrt(Delta (2 nu_c + Delta)) at 1e-3


def test_gap_parameters():
    p = ChainParams.from_delta(100, DELTA_REF, 0.1)
    assert p.delta_trans == pytest.approx(DELTA_REF, rel=1e-12)
    assert p.soft_gap == pytest.approx(SOFT_GAP_REF, rel=1e-12)
    assert H_STIFFNESS == pytest.approx(math.sqrt(math.log(2.0)))
    neg = ChainParams.from_delta(100, -1e-3, 0.1)
    assert neg.delta_trans < 0    # the zigzag side is a valid chain
    with pytest.raises(UnstableLinearPhase):
        neg.soft_gap


def test_error_taxonomy():
    for exc in (InvalidParameter, UnstableLinearPhase, SoftModeSingularity,
                NumericalFailure, UnstableConfiguration, ResourceLimit):
        assert issubclass(exc, CoulombChainError)
    # invalid parameters are also ValueErrors for stdlib interoperability
    assert issubclass(InvalidParameter, ValueError)
    with pytest.raises(ValueError):
        ChainParams(N=3, nu_t=2.5, eta_c=0.1)
