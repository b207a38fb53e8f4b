"""Byte-level pins of every CSV the command line writes.

Each subcommand runs once at a small size, and `figures --which all` runs
once for the module. The SHA-256 of every CSV is compared with the digest
recorded before the command-line pipelines were merged, so a refactor of
`cli.py` that changes a single byte of any table fails here. The tables
built from uniform-grid trig sums (fourier, longtime, visibility and
fig2, fig3, fig6) were re-recorded when those sums became a type-1 NUFFT;
each moved by at most 1e-12 of its column scale. gamma_scan.csv and
fig5_gamma.csv were re-recorded when the zigzag kick weights were folded
per Bloch eigenpair; their zigzag rows moved by at most 4.2e-16 of the
column scale. The names of the proxies
that `figures` reports are pinned too, in order.
"""

import hashlib
import json

import pytest

from coulombchain.cli import run

SUBCOMMANDS = {
    "spectrum": ["--N", "16", "--nu-t", "2.5"],
    "zigzag": ["--N", "16", "--nu-t", "2.0", "--eta-c", "0.1",
               "--points", "5"],
    "visibility": ["--N", "16", "--delta", "0.05", "--eta-c", "0.1",
                   "--t-max", "30", "--samples", "400"],
    "fourier": ["--N", "32", "--delta", "0.05", "--eta-c", "0.1",
                "--T-F", "500", "--n-s", "2048"],
    "gamma-scan": ["--N", "64", "--eta-c", "0.05", "--delta-min=-8e-3",
                   "--delta-max", "8e-3", "--points", "9"],
    "asymptotics": ["--N", "100", "--eta-c", "0.05", "--delta-min", "1e-3",
                    "--delta-max", "1e-2", "--points", "4"],
    "longtime": ["--N", "100", "--delta", "1e-3", "--eta-c", "0.25",
                 "--samples", "600"],
}

SUBCOMMAND_DIGESTS = {
    "asymptotics": {
        "a_infinity_table.csv": "de86da6dd08372689cc739b3255a1bcdcc29c1165318b9e495fda1a0eeb4ec28",
        "dgamma_table.csv": "de6b2d20f5ffe78f946a7376797317722c2877cd635710c608ce0eaaa9d7705a",
        "gamma_table.csv": "8749fe2a1938018b1299206432af78e37f66a00a89bfe05a43a1b6e2adc08e2a",
        "revival_table.csv": "72df99355525720f014a7450f69f654b465aae4f4f4c2525b5e9e160bf388fe3",
    },
    "fourier": {
        "fourier.csv": "6a3f4d78014f60668e519207de04e63ff8e8a0b72ba9d0bc67f8a09c13998791",
        "fourier_band.csv": "049a8e3a89a11161eff4a37a49af280c1765d417e718e2a46257fc5d3095f8f9",
        "fourier_peaks.csv": "dc2f26d3a411918eb9ec5fd9dd92c3264e95e0df722ee1207b8a48b5c818ada7",
    },
    "gamma-scan": {
        "gamma_scan.csv": "6e34f319ba108a5a6a95fee9444ae82fa35e6ee352229aeb3deba84e94255d68",
    },
    "longtime": {
        "longtime.csv": "ef52a609f82b2cee631290fd16ac73cfd5149dd92ca8afb825814cc3a17d0e8b",
    },
    "spectrum": {
        "spectrum.csv": "4ecf967e772fadcda3b4b82d6a083202fc55040699e04ae2306898a823d66201",
    },
    "visibility": {
        "visibility.csv": "7014c51eafbd1f4941520aa9c88c606b7c1a6f7bb8475d35adbff813117017b6",
    },
    "zigzag": {
        "zigzag_amplitude.csv": "6b895945e2b828447ea10f970aebff22c58ea3d892a2902377d69b904867fb43",
        "zigzag_spectrum.csv": "ab4580d16e21250aeeb3a51a85ef312b6bc3a7df3be94b61e01024dbf106eae7",
    },
}

FIGURES_DIGESTS = {
    "fig2_spectrum.csv": "64e93057b9d8a8f6e2301e8e55f7f40aaf7f22f5c8ad01e917a36638344c6515",
    "fig2_visibility.csv": "7c66d0ea41095ed2ae1a912adf7186309fc4088efa23a05ffc8832e5cb8bd73f",
    "fig3_spectrum.csv": "8f98e8a833dbcd51215f71162cbf163daa143e1c59776ac11f90c9d395a75d9b",
    "fig3_visibility.csv": "fda4e81765883719a4c52ff84bf3e81e63548306c89d4432a724ff9f6fa72530",
    "fig4_gamma.csv": "f72d6c38d3def5602ce76c1ba919e7f6a34e84309010add0e1ea21087770e280",
    "fig5_dgamma.csv": "079108c0614547b7dfeaf77bf285b1dd6ee342220774177473f6cce1c6776a2c",
    "fig5_gamma.csv": "25bf029292cb7022b5eeaa140efbe9662d2ff445ee363d9d1f7779367b14d75a",
    "fig6_longtime.csv": "cd41f93ef1de2e6fe9842fef5c736318a057dcf361735ba3a6805e929634c541",
    "fig7_a_infinity.csv": "9a47ed578ca34b9875d01a0ceb1aa70b4056655473728c65024d37c0137a7968",
}

# The checks `figures --which all` reports, in order.
FIGURES_PROXIES = [
    "fig2 band confinement", "fig2 peaks on mode grid",
    "fig3 soft-mode peak", "fig3 deeper decay",
    "fig4 quadratic fit",
    "fig5 minimum at zero", "fig5 cusp slopes", "fig5 log fit",
    "fig6 v_max", "fig6 k_star", "fig6 t_star", "fig6 revival detector",
    "fig6 envelope deviation",
    "fig7 saturation slope",
]


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("*.csv"))}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_csv_bytes(command, tmp_path):
    assert run([command, *SUBCOMMANDS[command], "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == SUBCOMMAND_DIGESTS[command]


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    assert run(["figures", "--which", "all", "--out", str(out)]) == 0
    return out


def test_figures_csv_bytes(figures_dir):
    assert _digests(figures_dir) == FIGURES_DIGESTS


def test_figures_proxy_names(figures_dir):
    manifest = json.loads((figures_dir / "figures_manifest.json").read_text())
    assert [c["name"] for c in manifest["grids"]["proxies"]] == FIGURES_PROXIES
