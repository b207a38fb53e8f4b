"""Benchmark workloads: seeded inputs, timed bodies and output checks.

Each workload has three parts:

- ``make_inputs(name, seed)`` draws the inputs from the seed with the
  standard library only, so the load-generating process never imports the
  package;
- a body, run in a fresh interpreter, that calls the package through its
  module namespaces (so a span recorder installed on those namespaces sees
  every call) and returns the outputs the checks need;
- a check function that turns those outputs into ``(name, passed, detail)``
  verdicts, which feed ``attempted`` and ``failed``.

Problem sizes are fixed per workload; the seed only moves parameters
(detuning, probe site, grid shift), so the amount of work does not depend
on it.

Why these workloads:

- ``figures`` is the paper-reproduction run users make, and the only one
  where CSV emission matters (about 0.95 M cells). Its trig sums are many
  medium calls (N=100 x 1e5 samples) and its zigzag is small (N=256).
- ``long_trace`` is one large linear ring (N=8000): the O(N^2) dispersion
  sums, the dense N x N mode matrix and about 2e8 mode-samples of
  uniform-grid trig sums dominate. It has no zigzag and no CSV.
- ``transition`` crosses the linear-zigzag transition: zigzag Hessian,
  eigensolve and labelling dominate, amplitudes run as about 100 small
  calls, and trig sums and CSV are nearly absent.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "figures_csv.json")

WORKLOADS = ("figures", "long_trace", "transition")

# Relative tolerance of CSV column statistics against the reference,
# scaled by the column's largest magnitude. Last-bit changes from a new
# algorithm pass; a changed result does not.
CSV_RTOL = 1e-9


# ------------------------------------------------------------------ inputs


def make_inputs(name: str, seed: int) -> dict:
    """JSON-serialisable inputs of workload `name`, drawn from `seed`."""
    rng = random.Random(seed)
    if name == "figures":
        return {"which": "all"}
    if name == "long_trace":
        N = 8000
        return {"N": N, "eta_c": 0.25,
                "delta": rng.uniform(5e-4, 2e-3),
                "site": rng.randint(1, N),
                "samples": 20_000, "t_max_over_t_star": 1.35,
                "window_t": 200.0, "window_points": 4001, "theta": 0.5}
    if name == "transition":
        return {"eta_c": 0.05,
                "roots_N": 1024, "roots": 41,
                "zigzag_N": [64, 256, 1024],
                "zigzag_delta": [rng.uniform(-1e-2, -1e-3) for _ in range(3)],
                "scan_N": 1000, "scan_zigzag_N": 256, "scan_points": 21,
                "fit_N": 1000, "fit_points": 12,
                "fit_shift": rng.uniform(0.5, 2.0)}
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ bodies


def _figures(inputs: dict, workdir: str) -> dict:
    import coulombchain.cli
    out = os.path.join(workdir, "figures")
    rc = coulombchain.cli.run(["figures", "--which", inputs["which"],
                               "--out", out])
    return {"rc": rc, "out": out}


def _long_trace(inputs: dict, workdir: str) -> dict:
    import numpy as np
    import coulombchain as cc

    p = cc.ChainParams.from_delta(inputs["N"], inputs["delta"], inputs["eta_c"])
    amps = cc.linear_chain_amplitudes(p, probe_site=inputs["site"])
    rev = cc.revival_time(p.N, p.nu_t)
    n = inputs["samples"]
    dt = inputs["t_max_over_t_star"] * rev.t_star / n
    t = dt * np.arange(1, n + 1)
    tr = cc.evaluate_trace(amps, t, with_overlap=False)
    t_star = rev.t_star
    burst = cc.find_revival_burst(t, tr.V, window=0.04 * t_star,
                                  baseline_gap=0.04 * t_star,
                                  baseline_span=0.16 * t_star)
    spec = cc.fourier_spectrum(tr)
    peaks = cc.find_peaks(spec, prominence=1e-4)
    tw = np.linspace(0.0, inputs["window_t"], inputs["window_points"])
    cold = cc.evaluate_trace(amps, tw, theta=0.0, with_overlap=True)
    warm = cc.evaluate_trace(amps, tw, theta=inputs["theta"],
                             with_overlap=False)
    return {"params": p, "amps": amps, "t_star": t_star, "burst": burst,
            "peaks": peaks, "spec": spec, "cold": cold, "warm": warm}


def _transition(inputs: dict, workdir: str) -> dict:
    import numpy as np
    import coulombchain as cc

    eta_c = inputs["eta_c"]
    N = inputs["roots_N"]
    nu_cn = cc.critical_frequency_finite(N)
    roots = [cc.zigzag_equilibrium(cc.ChainParams(N=N, nu_t=float(nu),
                                                  eta_c=eta_c))
             for nu in np.linspace(nu_cn - 0.15, nu_cn + 0.05,
                                   inputs["roots"])]

    labelled = []
    for zN, d in zip(inputs["zigzag_N"], inputs["zigzag_delta"]):
        spec = cc.zigzag_spectrum(cc.ChainParams.from_delta(zN, d, eta_c))
        labelled.append((zN, spec, cc.classify_zigzag_modes(spec)))

    scan = cc.gamma_transition_scan(
        np.linspace(-1e-2, 1e-2, inputs["scan_points"]),
        N=inputs["scan_N"], eta_c=eta_c, zigzag_N=inputs["scan_zigzag_N"])
    cusp = cc.cusp_secant_slopes(scan)

    grid = inputs["fit_shift"] * np.logspace(-4, -2, inputs["fit_points"])
    der = cc.gamma_derivative_scan(grid, N=inputs["fit_N"], eta_c=eta_c)
    a_inf = []
    for d in grid:
        amps = cc.linear_chain_amplitudes(
            cc.ChainParams.from_delta(inputs["fit_N"], float(d), eta_c))
        a_inf.append((float(d), amps, cc.a_infinity(amps)))
    return {"nu_cn": nu_cn, "roots": roots, "labelled": labelled,
            "scan": scan, "cusp": cusp, "der": der, "a_inf": a_inf}


BODIES = {"figures": _figures, "long_trace": _long_trace,
          "transition": _transition}


# ------------------------------------------------------------------ checks


def sum_rule_residual(amps) -> float:
    """|sum |alpha|^2 omega - eta0^2 nu_t| / (eta0^2 nu_t); zero for any
    orthogonal mode basis of the linear chain."""
    import numpy as np
    target = amps.eta0 ** 2 * amps.nu_t
    return abs(float(np.sum(amps.weight * amps.omega)) - target) / target


def check_cold_trace(trace) -> tuple[bool, str]:
    """|S| must equal V to 1e-12 on a trace evaluated with the overlap."""
    import numpy as np
    err = float(np.max(np.abs(np.abs(trace.S) - trace.V)))
    return err <= 1e-12, f"max ||S| - V| = {err:.2e} (limit 1e-12)"


def _check_long_trace(inputs: dict, out: dict) -> list:
    import numpy as np
    amps, cold, warm = out["amps"], out["cold"], out["warm"]
    checks = []
    res = sum_rule_residual(amps)
    checks.append(("sum rule", res <= 1e-10,
                   f"relative residual {res:.2e} (limit 1e-10)"))
    checks.append(("|S| = V", *check_cold_trace(cold)))
    burst, t_star = out["burst"], out["t_star"]
    ok = burst is not None and abs(burst - t_star) < 0.1 * t_star
    checks.append(("revival burst", ok,
                   f"burst at {burst} vs t* = {t_star:.2f} (within 10%)"))
    # A = A_inf - B(t): the sin^2 and cos kernels describe one mode sum.
    tb = cold.t[:201]
    B = np.array([float(np.sum(amps.weight * np.cos(amps.omega * x)))
                  for x in tb])
    a_inf = float(np.sum(amps.weight))
    err = float(np.max(np.abs(cold.A[:201] - (a_inf - B)))) / a_inf
    checks.append(("A = A_inf - B", err <= 1e-12,
                   f"relative deviation {err:.2e} (limit 1e-12)"))
    # coth >= 1, so a warm chain never shows more coherence than a cold one.
    excess = float(np.max(warm.V - cold.V))
    checks.append(("thermal V <= cold V", excess <= 1e-12,
                   f"largest excess {excess:.2e}"))
    lo = float(np.min(amps.omega)) - out["spec"].bin_width
    hi = float(np.max(amps.omega)) + out["spec"].bin_width
    top = out["peaks"][0][0] if out["peaks"] else math.nan
    checks.append(("top peak in band", lo <= top <= hi,
                   f"top spectral line {top:.5f} in [{lo:.5f}, {hi:.5f}]"))
    return checks


def _check_transition(inputs: dict, out: dict) -> list:
    from coulombchain.zigzag import GRAD_TOL
    checks = []
    bad = [eq.nu_t for eq in out["roots"]
           if abs(eq.grad) > GRAD_TOL or (eq.b > 0) != (eq.nu_t < out["nu_cn"])]
    checks.append(("equilibrium roots", not bad,
                   f"{len(out['roots'])} roots, {len(bad)} off the gradient "
                   "tolerance or on the wrong side of the transition"))
    bs = [eq.b for eq in out["roots"]]
    checks.append(("b decreasing in nu_t",
                   all(x >= y for x, y in zip(bs, bs[1:])), f"b = {bs[0]:.4f} "
                   f"at the lowest nu_t"))
    for zN, spec, modes in out["labelled"]:
        keys = {(m.n, m.sigma, m.beta) for m in modes}
        deg = sum(m.degenerate for m in modes)
        ok = deg == 0 and len(modes) == len(keys) == 2 * zN
        checks.append((f"zigzag labels N={zN}", ok,
                       f"{len(modes)} modes, {len(keys)} distinct labels, "
                       f"{deg} degenerate"))
    sep = out["cusp"].separation
    checks.append(("cusp separation", sep > 5.0,
                   f"{sep:.1f} standard errors (limit 5)"))
    scan = out["scan"]
    i_min = min(range(len(scan.gamma)), key=lambda i: scan.gamma[i])
    checks.append(("Gamma minimum at zero", scan.deltas[i_min] == 0.0,
                   f"minimum at delta = {scan.deltas[i_min]:g}"))
    r2 = out["der"].r_squared
    checks.append(("derivative fit", r2 > 0.99, f"R^2 = {r2:.6f} (limit 0.99)"))
    for d, amps, forms in out["a_inf"]:
        res = sum_rule_residual(amps)
        rel = abs(forms.direct - forms.mean_inverse) / forms.direct
        checks.append((f"A_inf identities delta={d:.3e}",
                       res <= 1e-10 and rel <= 1e-10,
                       f"sum rule {res:.2e}, mean-inverse form {rel:.2e}"))
    return checks


def summarize_csv(path: str) -> dict:
    """Header, row count and per-column statistics of one CSV file.

    Numeric columns give min, max, mean and root mean square; text columns
    give the count of each distinct value.
    """
    import numpy as np
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for name, cells in zip(header, zip(*body) if body else [()] * len(header)):
        try:
            x = np.array(cells, dtype=np.float64)
        except ValueError:
            counts: dict = {}
            for c in cells:
                counts[c] = counts.get(c, 0) + 1
            cols[name] = {"counts": dict(sorted(counts.items()))}
            continue
        cols[name] = {"min": float(np.min(x)), "max": float(np.max(x)),
                      "mean": float(np.mean(x)),
                      "rms": float(np.sqrt(np.mean(x * x)))}
    return {"header": header, "rows": len(body), "columns": cols}


def compare_summary(ref: dict, got: dict, rtol: float = CSV_RTOL) -> list:
    """Differences between two `summarize_csv` results; empty when they agree."""
    diffs = []
    if got["rows"] != ref["rows"]:
        diffs.append(f"rows {got['rows']} != {ref['rows']}")
    if got["header"] != ref["header"]:
        return diffs + [f"header {got['header']} != {ref['header']}"]
    for name, r in ref["columns"].items():
        g = got["columns"][name]
        if "counts" in r:
            if g.get("counts") != r["counts"]:
                diffs.append(f"{name}: value counts differ")
            continue
        if "counts" in g:
            diffs.append(f"{name}: no longer numeric")
            continue
        scale = max(abs(r["min"]), abs(r["max"]), 1e-300)
        for stat, want in r.items():
            if not abs(g[stat] - want) <= rtol * scale:
                diffs.append(f"{name}.{stat} {g[stat]!r} vs {want!r}")
    return diffs


def _check_figures(inputs: dict, out: dict) -> list:
    checks = [("figures exit code", out["rc"] == 0, f"exit code {out['rc']}")]
    with open(os.path.join(out["out"], "figures_manifest.json")) as fh:
        manifest = json.load(fh)
    for proxy in manifest["grids"]["proxies"]:
        checks.append((f"proxy {proxy['name']}", proxy["passed"],
                       proxy["detail"]))
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    written = sorted(f for f in os.listdir(out["out"]) if f.endswith(".csv"))
    checks.append(("CSV file set", written == sorted(reference),
                   f"wrote {len(written)} files, reference has "
                   f"{len(reference)}"))
    for name, ref in sorted(reference.items()):
        path = os.path.join(out["out"], name)
        if not os.path.exists(path):
            checks.append((f"csv {name}", False, "missing"))
            continue
        diffs = compare_summary(ref, summarize_csv(path))
        checks.append((f"csv {name}", not diffs,
                       "; ".join(diffs[:3]) or
                       f"{ref['rows']} rows match the reference "
                       f"(rtol {CSV_RTOL:g})"))
    return checks


CHECKS = {"figures": _check_figures, "long_trace": _check_long_trace,
          "transition": _check_transition}
