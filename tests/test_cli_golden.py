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
column scale. The tables built from linear-chain traces (fourier,
longtime, visibility and fig2, fig3, fig4, fig6) were re-recorded when the
trig sums began to merge bit-equal frequencies; traces and spectra moved
by at most 5.5e-16 of their column scale, fig4's rel_dev and fit_rms,
differences of nearly equal numbers, by 8.5e-13. zigzag_amplitude.csv,
zigzag_spectrum.csv, gamma_scan.csv and fig5_gamma.csv were re-recorded
when the zigzag equilibrium became a Newton root in b^2; b moved by at most
8.3e-16, omega by 4.0e-16 and gamma by 1.4e-15 of the column scale.
dgamma_table.csv and fig5_dgamma.csv were re-recorded when dGamma/dDelta
became nu_t A_inf / 2 (the probe-row sum rule) instead of Richardson
differences of Gamma; it moved by at most 1.0e-11 and 1.2e-10 of the column
scale, the truncation error of those differences. gamma_scan.csv and
fig5_gamma.csv were re-recorded when both producers began to weigh their
entries by one formula, (eta0 sqrt(nu_t / omega) c)^2; their zigzag rows
moved by at most 2.8e-16 of the column scale. revival_table.csv was
re-recorded when the direct lattice sums at arbitrary k began to reduce
by the trace kernel's matrix-vector product instead of an einsum; v_max
moved by at most 6.8e-16 and t_star by 8.8e-16 of the column scale, k_star
not at all. The names of the proxies that `figures` reports are pinned
too, in order.
"""

import hashlib
import json

import pytest

from coulombchain.cli import run

SUBCOMMANDS = {
    "spectrum": ["--N", "16", "--nu-t", "2.5"],
    "zigzag": ["--N", "16", "--nu-t", "2.0", "--points", "5"],
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
        "dgamma_table.csv": "eeea387f604d5d57fe74b1560a6e121fb2acc660596900a88e0d1ae17f7eb309",
        "gamma_table.csv": "8749fe2a1938018b1299206432af78e37f66a00a89bfe05a43a1b6e2adc08e2a",
        "revival_table.csv": "38e9ea1b527f525a2e5e6132f5efe51d6f99862c84cc7c70eb6ec224b929f2a3",
    },
    "fourier": {
        "fourier.csv": "e9d3161a43bf9fd66190410f647d9aa2b8de9736c0dc842d425995f46c81ba75",
        "fourier_band.csv": "376f37bd0346aaeeea2fc198c701b9bdb8cfddde4592e08618e0c87d3dbde9b7",
        "fourier_peaks.csv": "106b15573a1ddf8838362b6a32f2e5fa17ed1d7fbaa2864c5b8cc8b5677de3de",
    },
    "gamma-scan": {
        "gamma_scan.csv": "ac665d955a74ed7d760a0cde5fd71ccb3ac14afa351a4456b67140b5a22d6ca6",
    },
    "longtime": {
        "longtime.csv": "9b949f09178515d0ca3b2d426450d8eb09c40e78e3c110ebd4478371a4741fb6",
    },
    "spectrum": {
        "spectrum.csv": "4ecf967e772fadcda3b4b82d6a083202fc55040699e04ae2306898a823d66201",
    },
    "visibility": {
        "visibility.csv": "40cde995c05ddd6fff0561b16d5d495c266d402a90c80530d3e50233d42c2ff5",
    },
    "zigzag": {
        "zigzag_amplitude.csv": "3a355e648f174c09c0f07123e0ec2831ce7affb1c8f414cfbf695f3ab9ac5f49",
        "zigzag_spectrum.csv": "ba833a8ae4a7cccd4071299651fef59446dcd671c5316d0474f388834585f094",
    },
}

FIGURES_DIGESTS = {
    "fig2_spectrum.csv": "b65ae9ce19cd9b4418f41902822f3c101b6f93cebd6ce6f8b477d49115481f43",
    "fig2_visibility.csv": "ddd54a18bfaee5fda95f1b3127878ff969caf35d05da8ce2dce8496f6fa8e9ca",
    "fig3_spectrum.csv": "6131c5f92151ca64cb8f521e695176760498eb609b7b3f6f9bcfefed0ca7b32e",
    "fig3_visibility.csv": "964844b8a8b0bfdc4443a2d6c2e785c8fb43222d0c09097354b7274b767084ff",
    "fig4_gamma.csv": "75d41b0165b3c3532c3fe1bce2caef7014e5601f9470e193d372b9d74d3fb401",
    "fig5_dgamma.csv": "9002c35cb9a4c44423bbe5f127d8aec228f1fac6163169e36bafc970b972795e",
    "fig5_gamma.csv": "8709b8c9878f626a89f1bed141918443cdb2f784b83a486bd5c67a363a99914b",
    "fig6_longtime.csv": "86922b76acd81d62b18c968f1b4840223e86b7a3dc808b999d28c38a4b0b5683",
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


def _proxies(directory, which):
    manifest = json.loads((directory / "figures_manifest.json").read_text())
    return [c for c in manifest["grids"]["proxies"]
            if c["name"].startswith(f"fig{which} ")]


@pytest.mark.parametrize("which", ["3", "7"])
def test_figures_alone_write_the_bytes_of_all(which, tmp_path, figures_dir):
    # Scenarios 3 and 7 share work with 2 and 5 in a full run; alone, they
    # do it themselves and write the same tables and proxy details.
    assert run(["figures", "--which", which, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == {
        name: digest for name, digest in FIGURES_DIGESTS.items()
        if name.startswith(f"fig{which}_")}
    assert _proxies(tmp_path, which) == _proxies(figures_dir, which) != []


def test_figures_proxy_names(figures_dir):
    manifest = json.loads((figures_dir / "figures_manifest.json").read_text())
    assert [c["name"] for c in manifest["grids"]["proxies"]] == FIGURES_PROXIES
