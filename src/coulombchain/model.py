"""Parameters, units and critical-point bookkeeping for the ring chain.

Model: N identical ions of mass m and charge Q sit on a ring with uniform
axial spacing a. A harmonic potential of frequency nu_t confines the ions
transversally; along the ring the ions are free. The natural frequency unit
is

    omega_0 = sqrt(Q^2 / (m a^3))        (Gaussian units)

and everything downstream of this module is dimensionless:

    frequencies in omega_0, times in 1/omega_0, lengths in a,
    wave numbers in 1/a, temperature theta = k_B T / (hbar omega_0).

SI inputs are converted once at the boundary (`derive_parameters`) with the
explicit Coulomb factor 1/(4 pi eps_0); no other function in the package
sees dimensional quantities.

The input rules for N, nu_t, theta, finite scalars, finite arrays and the
scalar-or-1-d sample arrays (times t, wave numbers k) are stated here once,
and every module applies them.

The linear chain is stable for nu_t above the critical frequency

    nu_c = omega_0 * sqrt(7 zeta(3) / 2) = 2.05114582... omega_0,

below which the chain buckles into a planar zigzag. The distance to the
transition is Delta = nu_t - nu_c; for Delta >= 0 the soft transverse mode
at the zone edge has gap delta = sqrt(Delta (2 nu_c + Delta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, UnstableLinearPhase

# SI constants used only at the input boundary.
HBAR = 1.054571817e-34        # J s
K_B = 1.380649e-23            # J / K
COULOMB_K = 8.9875517923e9    # 1/(4 pi eps_0), N m^2 / C^2

# Near-zone-edge stiffness of the transverse dispersion, omega_0 * a units:
# omega_y(q)^2 ~ delta^2 + h^2 q^2 with q measured from the zone edge.
H_STIFFNESS = math.sqrt(math.log(2.0))


def zeta3() -> float:
    """Riemann zeta(3) to double precision.

    This value fixes the critical frequency. The literal is the sum of 10^6
    terms in ascending order closed by the Euler-Maclaurin tail through
    M^-6; the tests recompute that sum bit for bit and check both against an
    independent oracle.
    """
    return 1.2020569031595938


@lru_cache(maxsize=1)
def critical_frequency_infinite() -> float:
    """Critical transverse frequency of the infinite chain, in omega_0 units."""
    return math.sqrt(3.5 * zeta3())


def _check_positive(name: str, value, zero_ok: bool = False) -> None:
    """value finite and > 0, or >= 0 when zero_ok."""
    if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
        rule = ">= 0" if zero_ok else "positive"
        raise InvalidParameter(f"{name} must be {rule} and finite, "
                               f"got {value}")


def _check_even_n(N) -> None:
    """N is an even integer >= 4 (a bool is not a count)."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) \
            or N < 4 or N % 2 != 0:
        raise InvalidParameter(f"N must be an even integer >= 4, got {N!r}")


def _check_nu_t(nu_t) -> None:
    """nu_t > 0, and nu_t^2 finite, since the spectra square it."""
    value = float(nu_t)
    if not (math.isfinite(value * value) and value > 0):
        raise InvalidParameter(f"nu_t must be positive and finite, and so "
                               f"must nu_t^2; got {nu_t}")


def _check_theta(theta) -> None:
    """theta >= 0 and finite."""
    _check_positive("theta", theta, zero_ok=True)


def _check_finite(name: str, x) -> None:
    """Raise InvalidParameter naming the first non-finite entry of x."""
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite.ravel()))
        raise InvalidParameter(
            f"{name} must be finite; {name}[{i}] = {np.ravel(x)[i]}")


def _check_scalar_or_1d(name: str, x) -> np.ndarray:
    """x as a 1-d float64 array (a scalar as one entry, a float64 array not
    copied); InvalidParameter naming the shape when x has more dimensions,
    and naming the first non-finite entry."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 1:
        raise InvalidParameter(
            f"{name} must be a scalar or a 1-d array, got shape {arr.shape}")
    _check_finite(name, arr)
    return np.atleast_1d(arr)


@dataclass(frozen=True)
class PhysicalInput:
    """Dimensional description of an experiment, SI throughout.

    Attributes
    ----------
    mass_kg : ion mass.
    charge_c : ion charge in coulomb; the Gaussian-unit charge squared is
        obtained internally as COULOMB_K * charge_c**2.
    spacing_m : axial inter-ion spacing a.
    transverse_frequency_rad_s : trap frequency nu_t (angular).
    laser_wavenumber_per_m : probe wave number k_L (angular, 2 pi / lambda).
    temperature_k : initial motional temperature.
    """

    mass_kg: float
    charge_c: float
    spacing_m: float
    transverse_frequency_rad_s: float
    laser_wavenumber_per_m: float
    temperature_k: float = 0.0

    def __post_init__(self):
        for name in ("mass_kg", "charge_c", "spacing_m",
                     "transverse_frequency_rad_s", "laser_wavenumber_per_m"):
            _check_positive(name, getattr(self, name))
        _check_positive("temperature_k", self.temperature_k, zero_ok=True)

    def omega0(self) -> float:
        """Natural frequency sqrt(Q^2/(m a^3)) in rad/s."""
        return math.sqrt(COULOMB_K * self.charge_c ** 2
                         / (self.mass_kg * self.spacing_m ** 3))


@dataclass(frozen=True)
class ChainParams:
    """Dimensionless chain parameters.

    N      -- even ion count >= 4
    nu_t   -- transverse confinement in omega_0 units
    eta_c  -- Lamb-Dicke parameter referred to the critical frequency,
              eta_c = k_L sqrt(hbar / (2 m nu_c))
    theta  -- temperature k_B T / (hbar omega_0); 0 means ground state
    """

    N: int
    nu_t: float
    eta_c: float
    theta: float = 0.0

    def __post_init__(self):
        _check_even_n(self.N)
        _check_nu_t(self.nu_t)
        _check_positive("eta_c", self.eta_c, zero_ok=True)
        _check_theta(self.theta)

    @property
    def delta_trans(self) -> float:
        """Distance to the infinite-chain transition, Delta = nu_t - nu_c."""
        return self.nu_t - critical_frequency_infinite()

    @property
    def soft_gap(self) -> float:
        """Soft-mode gap delta = sqrt(Delta (2 nu_c + Delta)); linear side only."""
        Delta = self.delta_trans
        if Delta < 0:
            raise UnstableLinearPhase(
                "soft-mode gap is defined only for Delta >= 0")
        nu_c = critical_frequency_infinite()
        return math.sqrt(Delta * (2.0 * nu_c + Delta))

    @property
    def eta0(self) -> float:
        """Lamb-Dicke parameter at the actual confinement, k_L sqrt(hbar/(2 m nu_t)).

        Related to eta_c by eta0 = eta_c sqrt(nu_c / nu_t); the combination
        eta0^2 nu_t = eta_c^2 nu_c is therefore independent of nu_t.
        """
        return self.eta_c * math.sqrt(critical_frequency_infinite() / self.nu_t)

    @classmethod
    def from_delta(cls, N: int, delta: float, eta_c: float) -> "ChainParams":
        """Build params from the detuning Delta = nu_t - nu_c."""
        return cls(N=N, nu_t=critical_frequency_infinite() + delta,
                   eta_c=eta_c)


@dataclass(frozen=True)
class DerivedScales:
    """Result of converting a PhysicalInput to dimensionless form."""

    omega0_rad_s: float
    nu_t: float          # in omega_0 units
    eta0: float
    eta_c: float
    theta: float


def derive_parameters(phys: PhysicalInput) -> DerivedScales:
    """Convert SI inputs to the dimensionless parameter set.

    Returns omega_0 in rad/s together with nu_t/omega_0, the Lamb-Dicke
    parameters eta0 (at nu_t) and eta_c (at the critical frequency), and the
    dimensionless temperature theta.
    """
    omega0 = phys.omega0()
    nu_t = phys.transverse_frequency_rad_s / omega0
    eta0 = phys.laser_wavenumber_per_m * math.sqrt(
        HBAR / (2.0 * phys.mass_kg * phys.transverse_frequency_rad_s))
    nu_c = critical_frequency_infinite()
    eta_c = eta0 * math.sqrt(nu_t / nu_c)
    theta = K_B * phys.temperature_k / (HBAR * omega0)
    return DerivedScales(omega0_rad_s=omega0, nu_t=nu_t, eta0=eta0,
                         eta_c=eta_c, theta=theta)
