"""Byte-level pins of every CSV the command line writes.

Each subcommand runs once at a small size, and `figures --which all` runs
once for the module. The SHA-256 of every CSV is compared with the digest
recorded before the command-line pipelines were merged, so a refactor of
`cli.py` that changes a single byte of any table fails here.
"""

import hashlib

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
        "fourier.csv": "b1d7b714a1bf7227b179188945c26f1dd5dac89ef992a4632fe2fbe0611debe1",
        "fourier_band.csv": "85986bd9120538abea94a2c17cea6bdd24324d1bb1be67293720e45264224dd0",
        "fourier_peaks.csv": "bbf1a78ddc9a169baae8d71637e32a12b5017d18cec01fa1f6be1828bfaecaa1",
    },
    "gamma-scan": {
        "gamma_scan.csv": "437b02c5fea1c379f2d7951271eceff0700226cae828ac4d1737bbcbd42a43fc",
    },
    "longtime": {
        "longtime.csv": "df4aaa98b9ee47915e21f70709d7507f2620d4574b4bacec92e0084fd927a092",
    },
    "spectrum": {
        "spectrum.csv": "4ecf967e772fadcda3b4b82d6a083202fc55040699e04ae2306898a823d66201",
    },
    "visibility": {
        "visibility.csv": "88e2eb86f36ee2858434a0ffa19d66314444d089a4ea6513ed9c35e5243e489c",
    },
    "zigzag": {
        "zigzag_amplitude.csv": "6b895945e2b828447ea10f970aebff22c58ea3d892a2902377d69b904867fb43",
        "zigzag_spectrum.csv": "ab4580d16e21250aeeb3a51a85ef312b6bc3a7df3be94b61e01024dbf106eae7",
    },
}

FIGURES_DIGESTS = {
    "fig2_spectrum.csv": "dba9a34d240f8220332b223842ce373cd856ef991ff7a2d872e83337b4ae676e",
    "fig2_visibility.csv": "fe3ca6e9a33d89a5347e10893e467dc12eba24367262da2a4f336ab35f0f30d2",
    "fig3_spectrum.csv": "5b3b6b477afe9a656c3f8d0bfc5aa6acc4e8bdff838ed065d388e1c9d0e4a914",
    "fig3_visibility.csv": "4ce1aae5ff28e4abd74792eea5d3c2e44c300fdcaafd84f2acb937d843246e0c",
    "fig4_gamma.csv": "f72d6c38d3def5602ce76c1ba919e7f6a34e84309010add0e1ea21087770e280",
    "fig5_dgamma.csv": "079108c0614547b7dfeaf77bf285b1dd6ee342220774177473f6cce1c6776a2c",
    "fig5_gamma.csv": "abac25dad33b750baad4cf5f85fa09e84a1a27c104ed3f348c35e92601fc58d8",
    "fig6_longtime.csv": "802367ac7c21132805f5c88ceaec22243cae994c48fe367430ebc0f3743efeda",
    "fig7_a_infinity.csv": "9a47ed578ca34b9875d01a0ceb1aa70b4056655473728c65024d37c0137a7968",
}


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
