"""Zigzag phase: equilibrium amplitude, phonon spectrum, mode labels.

Below the finite-N critical frequency the ring buckles into the planar
zigzag y_j = (-1)^j b / 2 at fixed axial spacing. Interactions run over the
ring separations d = 1..N/2 in both directions, which double-counts the
diametral pair; this is exactly the pair convention under which the linear
dispersion sums of `linear_modes` are recovered term by term, so the b -> 0
spectrum matches the folded linear branches to machine precision.

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
therefore come from the block index, as arrays on `ZigzagSpectrum`. The
structural modes (rotation, bulk transverse, the two staggered zigzag modes)
are tagged by name. The real modes of one block eigenpair share its
frequency and, summed, a kick weight that is the same on every site, so the
Ramsey amplitudes fold to one entry per eigenpair, with no mode vector.

`classify_zigzag_modes` turns the label arrays into table rows, in O(N).
The dense eigenvectors and the check of each mode against its label live
with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidParameter, NumericalFailure, SoftModeSingularity,
                     UnstableConfiguration)
from .linear_modes import critical_frequency_finite
from .model import ChainParams
from .ramsey import DisplacementAmplitudes

GRAD_TOL = 1e-10          # |dE/db| at the returned equilibrium
EIG_CLAMP = 1e-10         # |eigenvalue| below this snaps to zero


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


def _grad_over_b(nu_t: float, N: int):
    """b -> (dE/db) / (N b), monotone increasing in b; its root is b > 0."""
    d_odd = np.arange(1, N // 2 + 1, dtype=np.float64)[::2]
    return lambda b: (0.25 * nu_t ** 2
                      - float(np.sum((d_odd * d_odd + b * b) ** -1.5)))


def _brentq(f, xa: float, xb: float, xtol: float = 1e-15,
            rtol: float = 8.9e-16, maxiter: int = 200) -> float:
    """Root of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    A line-for-line port of scipy's brentq.c (Brent 1973: inverse quadratic
    interpolation or secant steps, bisection when they stall), so the roots
    are bit-identical to scipy.optimize.brentq with the same tolerances.
    Raises NumericalFailure without a sign change or after maxiter steps.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalFailure(f"no sign change of f on [{xa}, {xb}]")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericalFailure(f"Brent root did not converge in {maxiter} steps "
                           f"on [{xa}, {xb}]")


def zigzag_equilibrium(params: ChainParams) -> ZigzagEquilibrium:
    """Minimize the ring energy over the staggered amplitude b >= 0.

    Returns the b = 0 branch whenever that is the energy minimum (nu_t at or
    above the finite-N critical frequency).
    """
    N, nu_t = params.N, params.nu_t
    if N < 8 or N % 4 != 0:
        raise InvalidParameter(
            "zigzag routines need N divisible by 4 (commensurate pattern)")
    nu_cn = critical_frequency_finite(N)
    if nu_t >= nu_cn:
        return ZigzagEquilibrium(N=N, nu_t=nu_t, b=0.0,
                                 energy_per_ion=_energy_per_ion(0.0, nu_t, N),
                                 grad=0.0)

    g = _grad_over_b(nu_t, N)
    hi = 0.1
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e3:
            raise NumericalFailure("no bracket for the zigzag amplitude")
    b = _brentq(g, 0.0, hi)
    grad = b * g(b)
    if abs(grad) > GRAD_TOL:
        raise NumericalFailure(
            f"zigzag equilibrium gradient {grad:.2e} exceeds {GRAD_TOL}")
    e_zz = _energy_per_ion(b, nu_t, N)
    if e_zz > _energy_per_ion(0.0, nu_t, N):
        b, e_zz = 0.0, _energy_per_ion(0.0, nu_t, N)
    return ZigzagEquilibrium(N=N, nu_t=nu_t, b=b, energy_per_ion=e_zz,
                             grad=grad if b else 0.0)


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

    omega is ascending. Mode i comes from 2 x 2 block `block[i]` = m
    (k = 2 pi m / N) as the real part (plus[i], sigma = '+') or the
    imaginary part (sigma = '-') of q_j = u e^{ikj}, w_j = i v (-1)^j e^{ikj};
    qcoef and wcoef hold the normalised u and the signed, normalised v:

        sigma = '+':  q_j = qcoef cos(kj),  w_j = wcoef (-1)^j sin(kj)
        sigma = '-':  q_j = qcoef sin(kj),  w_j = wcoef (-1)^j cos(kj)

    The labels n, sigma, k, beta and special are arrays indexed like omega,
    and `label_order` sorts them into table rows.
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

    @cached_property
    def label_order(self) -> np.ndarray:
        """Modes by n ascending, '+' before '-', then omega descending."""
        return np.lexsort((-self.omega, ~self.plus, self.n))

    @property
    def beta(self) -> np.ndarray:
        """1-based rank by descending omega within each (n, sigma)."""
        order = self.label_order
        key = 2 * self.n[order] + ~self.plus[order]     # ascending in order
        beta = np.empty_like(order)
        beta[order] = np.arange(len(order)) - np.searchsorted(key, key) + 1
        return beta

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
    the mask `edge` of the diagonal blocks m = 0 and m = N/2. A negative lam
    raises UnstableConfiguration; zero modes (rotation; the soft mode exactly
    at the transition) come out as +/- rounding noise and snap to 0.
    """
    N, b = params.N, zigzag_equilibrium(params).b
    dxx, dyy, s = _block_entries(N, params.nu_t, b)
    lam, u, v = (x.ravel() for x in _eig2(dxx, 2.0 * s, dyy))
    if lam.min() < -EIG_CLAMP:
        raise UnstableConfiguration(
            f"negative Hessian eigenvalue {lam.min():.3e}: the staggered "
            "ansatz is not a stable configuration here")
    block = np.arange(N + 2) // 2
    return (b, np.where(np.abs(lam) < EIG_CLAMP, 0.0, lam), u, v,
            (block == 0) | (block == N // 2))


def zigzag_spectrum(params: ChainParams) -> ZigzagSpectrum:
    """Phonon spectrum at the zigzag (or, above the transition, linear) minimum.

    For 0 < m < N/2 each block eigenvector gives two real modes (sigma =
    +/-, norm sqrt(2/N)); at m = 0 and m = N/2 the blocks are diagonal and
    only the nonvanishing part is a mode (norm sqrt(1/N)).
    """
    b, lam, u, v, edge = _block_eigenpairs(params)
    N, pair = params.N, np.arange(params.N + 2)
    # An interior pair gives a '+' and a '-' mode. An edge block is diagonal,
    # and its axial eigenvector (u != 0) lives in the real part only.
    src = np.concatenate([pair[~edge], pair[~edge], pair[edge]])
    plus = np.concatenate([np.ones(N - 2, dtype=bool),
                           np.zeros(N - 2, dtype=bool), u[edge] != 0.0])
    order = np.argsort(lam[src], kind="stable")
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
    """The spectrum's label arrays as `ZigzagMode` rows, in label order."""
    sp = spectrum
    columns = (sp.n, sp.sigma, sp.beta, sp.omega, sp.special)
    return [ZigzagMode(*row)
            for row in zip(*(c[sp.label_order].tolist() for c in columns))]


def zigzag_displacement_amplitudes(params: ChainParams
                                   ) -> DisplacementAmplitudes:
    """Kick weights eta0^2 nu_t s v^2 / omega, one per block eigenpair.

    The kick couples to the fluctuation w of the probed ion (the static
    offset (-1)^j b/2 is a global phase). At any site the w^2 of the real
    modes of an eigenpair sum to s v^2, s = 2/N (sigma = +/-) or 1/N (m = 0,
    N/2), so no probe site enters. Zero modes are dropped; one with
    transverse weight (at the transition) is an error.
    """
    _, lam, _, v, edge = _block_eigenpairs(params)
    share = np.where(edge, 1.0, 2.0) / params.N * v * v
    zero = lam == 0.0
    if np.any(zero & (share > 1e-12)):
        raise SoftModeSingularity(
            "zero-frequency mode couples to the probe: at the transition "
            "the displacement picture breaks down")
    omega = np.sqrt(lam[~zero])
    weight = params.eta0 ** 2 * params.nu_t * share[~zero] / omega
    return DisplacementAmplitudes(omega=omega, weight=weight,
                                  eta0=params.eta0, nu_t=params.nu_t,
                                  kind="zigzag")
