"""Zigzag phase: equilibrium amplitude, phonon spectrum, mode labels.

Below the finite-N critical frequency the ring buckles into the planar
zigzag y_j = (-1)^j b / 2 at fixed axial spacing, where b > 0 is the one
root of dE/db, reached by a monotone Newton iteration in b^2. Interactions
run over the ring separations d = 1..N/2 in both directions, which
double-counts the diametral pair; this is exactly the pair convention under
which the linear dispersion sums of `linear_modes` are recovered term by
term, so the b -> 0 spectrum matches the folded linear branches to machine
precision.

The staggered equilibrium is invariant under a two-site translation, so the
2N x 2N dynamical matrix in (q_1, w_1, ..., q_N, w_N) is block diagonal in
plane waves: the axial wave q_j = u e^{ikj} couples only to the transverse
wave w_j = i v (-1)^j e^{ikj} at k + pi. On the grid k_m = 2 pi m / N,
m = 0..N/2, each pair is the real symmetric 2 x 2 block

    [[Dxx(k), 2 S(k)], [2 S(k), Dyy(k + pi)]]

whose entries are sums of the analytic second derivatives of 1/r over d,
all three from one real FFT. The blocks are diagonalised in closed form; the
real and imaginary parts of each eigenvector are the sigma = '+' and '-'
real modes with folded label n = min(m, N/2 - m) = 0..N/4. Mode labels
therefore come from the block index, as arrays on `ZigzagSpectrum`, stored
in the row order of the label table. The
structural modes (rotation, bulk transverse, the two staggered zigzag modes)
are tagged by name. At b = 0, Dyy(k + pi) is the linear radicand, and
eigenvalues snap to zero by the linear route's rule.

`classify_zigzag_modes` turns the label arrays into table rows, in O(N).
The dense eigenvectors and the check of each mode against its label live
with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NumericalFailure, UnstableConfiguration
from .linear_modes import (RADICAND_CLAMP, _check_build_budget,
                           critical_frequency_finite)
from .model import ChainParams

GRAD_TOL = 1e-10          # |dE/db| at the returned equilibrium
NEWTON_CAP = 100          # Newton steps for b^2; far out each gains x 5/3
# Traced bytes per ion from N = 2^16 to 2^20, rounded up, checked against
# the build budget: 20.0 for the equilibrium, 179.0-179.1 for the spectrum,
# its equilibrium included.
_EQUILIBRIUM_ION_BYTES = 21
_SPECTRUM_ION_BYTES = 180


@dataclass(frozen=True)
class ZigzagEquilibrium:
    """Equilibrium transverse splitting b (in units of a) at given nu_t."""

    N: int
    nu_t: float
    b: float
    energy_per_ion: float
    grad: float


def _energy_per_ion(b: float, nu_t: float, N: int) -> float:
    d = np.arange(1, N // 2 + 1, dtype=np.float64)
    off = np.where(d % 2 == 1, b * b, 0.0)
    return 0.125 * nu_t ** 2 * b * b + float(np.sum(1.0 / np.sqrt(d * d + off)))


def zigzag_equilibrium(params: ChainParams) -> ZigzagEquilibrium:
    """Minimize the ring energy over the staggered amplitude b >= 0.

    At and above the finite-N critical frequency the flat line b = 0 is the
    minimum. Below it, dE/db = b (nu_t^2 / 4 - h(b^2)) per ion with
    h(x) = sum_{d odd <= N/2} (d^2 + x)^(-3/2), convex and decreasing, and
    h(0) = nu_c(N)^2 / 4 > nu_t^2 / 4. So dE/db < 0 up to the one root of
    h(x) = nu_t^2 / 4, which is the minimum, and Newton's iteration in
    x = b^2 from x = 0 climbs to it monotonically: no bracket, no overshoot,
    and no energy comparison, whose gain ~ (nu_c(N) - nu_t) b^2 drowns in
    the rounding of E near the transition. ResourceLimit above the build
    budget.
    """
    N, nu_t = params.N, params.nu_t
    if N < 8 or N % 4 != 0:
        raise InvalidParameter(
            "zigzag routines need N divisible by 4 (commensurate pattern)")
    _check_build_budget(N, "zigzag equilibrium of N =",
                        _EQUILIBRIUM_ION_BYTES)
    if nu_t >= critical_frequency_finite(N):
        return ZigzagEquilibrium(N=N, nu_t=nu_t, b=0.0,
                                 energy_per_ion=_energy_per_ion(0.0, nu_t, N),
                                 grad=0.0)

    d2 = np.arange(1, N // 2 + 1, 2, dtype=np.float64) ** 2
    c, x = 0.25 * nu_t ** 2, 0.0
    for _ in range(NEWTON_CAP):
        r3 = (d2 + x) ** -1.5
        g = c - float(np.sum(r3))              # (dE/db) / b, increasing in x
        if g >= 0.0:
            break
        step = -g / (1.5 * float(np.sum(r3 / (d2 + x))))
        if x + step == x:
            break
        x += step
    else:
        raise NumericalFailure(
            f"zigzag amplitude: Newton did not converge in {NEWTON_CAP} steps")
    b = math.sqrt(x)
    grad = b * g
    if abs(grad) > GRAD_TOL:
        raise NumericalFailure(
            f"zigzag equilibrium gradient {grad:.2e} exceeds {GRAD_TOL}")
    return ZigzagEquilibrium(N=N, nu_t=nu_t, b=b,
                             energy_per_ion=_energy_per_ion(b, nu_t, N),
                             grad=grad)


def _block_entries(N: int, nu_t: float, b: float):
    """Dxx(k_m), Dyy(k_m + pi) and S(k_m) for m = 0..N/2, from one real FFT.

    Bond d has dy = b for odd d and 0 for even d (the alternating sign of
    dy moves into the (-1)^j of the w pattern), r^2 = d^2 + dy^2 and the
    second derivatives of 1/r
        kxx = (3 d^2 - r^2) / r^5, kyy = (3 dy^2 - r^2) / r^5,
        kxy = 3 d dy / r^5,
    which enter as
        Dxx(k) = 2 sum_d kxx(d) (1 - cos kd)
        Dyy(k) = nu_t^2 + 2 sum_d kyy(d) (1 - cos kd)
        S(k)   = sum_d kxy(d) sin kd          (kxy = 0 for even d)
    Re F at m + N/2 is Re F at N/2 - m, which gives Dyy on the shifted grid.
    """
    d = np.arange(1, N // 2 + 1, dtype=np.float64)
    odd = d % 2 == 1
    dy2 = np.where(odd, b * b, 0.0)
    r2 = d * d + dy2
    r5 = r2 ** 2.5
    c = np.zeros((3, N))
    c[0, 1:N // 2 + 1] = (3.0 * d * d - r2) / r5
    c[1, 1:N // 2 + 1] = (3.0 * dy2 - r2) / r5
    c[2, 1:N // 2 + 1] = np.where(odd, 3.0 * d * b / r5, 0.0)
    F = np.fft.rfft(c, axis=1)
    dxx = 2.0 * (F[0, 0].real - F[0].real)
    dyy = nu_t ** 2 + 2.0 * (F[1, 0].real - F[1].real[::-1])
    s = -F[2].imag
    s[0] = s[-1] = 0.0                  # sin kd vanishes at k = 0 and k = pi
    return dxx, dyy, s


def _eig2(a: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Closed-form eigenpairs of the symmetric blocks [[a, c], [c, d]].

    Returns lam, u, v of shape (blocks, 2): column 0 is the upper eigenvalue,
    column 1 the lower, with unit eigenvectors (u, v). A diagonal block gives
    exact unit vectors and its diagonal entries as eigenvalues.
    """
    h = 0.5 * (a - d)
    r = np.hypot(h, c)
    # Upper eigenvector from whichever row of (A - lam I) x = 0 does not cancel.
    x = np.where(h >= 0.0, h + r, c)
    y = np.where(h >= 0.0, c, r - h)
    norm = np.hypot(x, y)
    flat = norm == 0.0                  # a == d and c == 0: any basis will do
    norm[flat] = 1.0
    x = np.where(flat, 1.0, x / norm)
    y = y / norm
    u = np.stack([x, -y], axis=1)
    v = np.stack([y, x], axis=1)
    lam = a[:, None] * u * u + 2.0 * c[:, None] * u * v + d[:, None] * v * v
    return lam, u, v


@dataclass(frozen=True)
class ZigzagSpectrum:
    """Phonon spectrum of the zigzag in real Bloch modes.

    Mode i comes from 2 x 2 block `block[i]` = m (k = 2 pi m / N) as the
    real part (plus[i], sigma = '+') or the imaginary part (sigma = '-') of
    q_j = u e^{ikj}, w_j = i v (-1)^j e^{ikj}; qcoef and wcoef hold the
    normalised u and the signed, normalised v:

        sigma = '+':  q_j = qcoef cos(kj),  w_j = wcoef (-1)^j sin(kj)
        sigma = '-':  q_j = qcoef sin(kj),  w_j = wcoef (-1)^j cos(kj)

    The labels n, sigma, k, beta and special are arrays indexed like omega.
    Modes are stored in table row order: n ascending, '+' before '-', then
    omega descending.
    """

    N: int
    nu_t: float
    b: float
    omega: np.ndarray
    block: np.ndarray = field(repr=False)
    plus: np.ndarray = field(repr=False)
    qcoef: np.ndarray = field(repr=False)
    wcoef: np.ndarray = field(repr=False)

    @property
    def n(self) -> np.ndarray:
        """Folded wave number min(m, N/2 - m) = 0..N/4."""
        return np.minimum(self.block, self.N // 2 - self.block)

    @property
    def sigma(self) -> np.ndarray:
        return np.where(self.plus, "+", "-")

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * self.n / self.N

    @property
    def beta(self) -> np.ndarray:
        """1-based rank by descending omega within each (n, sigma)."""
        key = 2 * self.n + ~self.plus           # ascending in row order
        return np.arange(len(key)) - np.searchsorted(key, key) + 1

    @property
    def special(self) -> np.ndarray:
        """'bulk_x' (rotation), 'zigzag_y', 'zigzag_x', 'bulk_y' or ''."""
        m, plus, half = self.block, self.plus, self.N // 2
        return np.select(
            [(m == 0) & plus, (m == 0) & ~plus,
             (m == half) & plus, (m == half) & ~plus],
            ["bulk_x", "zigzag_y", "zigzag_x", "bulk_y"], "")


def _block_eigenpairs(params: ChainParams):
    """b, the block eigenpairs lam, u, v (flat: pair p is block p // 2) and
    the mask `edge` of the diagonal blocks m = 0 and m = N/2. The linear
    route's snap rule holds: lam within RADICAND_CLAMP nu_t^2 of zero
    (rotation; the soft mode exactly at the transition) is rounding noise and
    snaps to 0, and one below it raises UnstableConfiguration.
    """
    N, b = params.N, zigzag_equilibrium(params).b
    dxx, dyy, s = _block_entries(N, params.nu_t, b)
    lam, u, v = (x.ravel() for x in _eig2(dxx, 2.0 * s, dyy))
    clamp = RADICAND_CLAMP * params.nu_t ** 2
    if lam.min() < -clamp:
        raise UnstableConfiguration(
            f"negative Hessian eigenvalue {lam.min():.3e}: the staggered "
            "ansatz is not a stable configuration here")
    block = np.arange(N + 2) // 2
    return (b, np.where(np.abs(lam) < clamp, 0.0, lam), u, v,
            (block == 0) | (block == N // 2))


def zigzag_spectrum(params: ChainParams) -> ZigzagSpectrum:
    """Phonon spectrum at the zigzag (or, above the transition, linear) minimum.

    For 0 < m < N/2 each block eigenvector gives two real modes (sigma =
    +/-, norm sqrt(2/N)); at m = 0 and m = N/2 the blocks are diagonal and
    only the nonvanishing part is a mode (norm sqrt(1/N)). ResourceLimit
    above the build budget.
    """
    _check_build_budget(params.N, "zigzag modes of N =",
                        _SPECTRUM_ION_BYTES)
    b, lam, u, v, edge = _block_eigenpairs(params)
    N, pair = params.N, np.arange(params.N + 2)
    # An interior pair gives a '+' and a '-' mode. An edge block is diagonal,
    # and its axial eigenvector (u != 0) lives in the real part only.
    src = np.concatenate([pair[~edge], pair[~edge], pair[edge]])
    plus = np.concatenate([np.ones(N - 2, dtype=bool),
                           np.zeros(N - 2, dtype=bool), u[edge] != 0.0])
    m = src // 2
    order = np.lexsort((-lam[src], ~plus, np.minimum(m, N // 2 - m)))
    src, plus = src[order], plus[order]
    norm = np.where(edge[src], math.sqrt(1.0 / N), math.sqrt(2.0 / N))
    # w_j = Re/Im of i v (-1)^j e^{ikj}: -v (-1)^j sin(kj) and v (-1)^j cos(kj)
    return ZigzagSpectrum(N=N, nu_t=params.nu_t, b=b,
                          omega=np.sqrt(lam[src]), block=src // 2,
                          plus=plus, qcoef=norm * u[src],
                          wcoef=np.where(plus, -norm, norm) * v[src])


@dataclass(frozen=True)
class ZigzagMode:
    """One row of the zigzag label table, read from `ZigzagSpectrum`.

    Labels come from the Bloch block index, so no eigenspace is rotated and
    no mode is `degenerate`; the constant stays for callers that count
    degenerate rows.
    """

    n: int
    sigma: str
    beta: int
    omega: float
    special: str
    degenerate = False


def classify_zigzag_modes(spectrum: ZigzagSpectrum) -> list[ZigzagMode]:
    """The spectrum's label arrays as `ZigzagMode` rows, in row order."""
    sp = spectrum
    columns = (sp.n, sp.sigma, sp.beta, sp.omega, sp.special)
    return [ZigzagMode(*row) for row in zip(*(c.tolist() for c in columns))]
