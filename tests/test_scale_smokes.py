"""Scale smokes: the largest runs the work budgets allow, under memory bounds.

Each script runs in a fresh interpreter and reports its own peak resident
set (RUSAGE_SELF of that interpreter). RUSAGE_CHILDREN would not do: it is
a running maximum over every child this process has waited for. Nor may the
script be exec'd from this process: on Linux ru_maxrss keeps the resident
set of the image that exec replaced, here the whole test session. So a
small launcher interpreter starts it, and the count starts from the
launcher's few MB.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("resource", reason="ru_maxrss needs the resource module")

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

REPORT = """
import json
import resource
import sys


def report(**facts):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in kB on Linux and in bytes on macOS.
    facts["rss_mb"] = rss / (2 ** 20 if sys.platform == "darwin" else 1024)
    print(json.dumps(facts))
"""

LAUNCH = ("import subprocess, sys; "
          "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]])"
          ".returncode)")


def _run(script: str) -> dict:
    """Run REPORT + script in a fresh interpreter under LAUNCH, with the
    package and the test oracles importable; the facts it reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(TESTS), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", LAUNCH, REPORT + script],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_longtime_at_n_1e5_under_160_mb():
    # 30000 x 10^5 mode-samples is over the direct kernel's budget; a
    # uniform grid takes the NUFFT route and must not be held to it.
    facts = _run("""
import tempfile

from coulombchain.cli import run

codes = []
for samples in ("20000", "30000"):
    with tempfile.TemporaryDirectory() as out:
        codes.append(run(["longtime", "--N", "100000", "--delta", "1e-3",
                          "--eta-c", "0.25", "--samples", samples,
                          "--out", out]))
report(codes=codes)
""")
    assert facts["codes"] == [0, 0]
    assert facts["rss_mb"] < 160


def test_longtime_with_1e6_samples_under_160_mb():
    # The revival detector takes medians only where the amplitude clears
    # twice its baseline window's minimum, and turns only those windows
    # into Python lists; the burst must still land near t*.
    facts = _run("""
import os
import tempfile

from coulombchain.cli import run

with tempfile.TemporaryDirectory() as out:
    code = run(["longtime", "--N", "1000", "--delta", "1e-3", "--eta-c",
                "0.25", "--samples", "1000000", "--out", out])
    grids = {}
    if code == 0:
        with open(os.path.join(out, "longtime_manifest.json")) as fh:
            grids = json.load(fh)["grids"]
report(code=code, burst=grids.get("burst_time"), t_star=grids.get("t_star"))
""")
    assert facts["code"] == 0
    assert facts["burst"] is not None
    assert abs(facts["burst"] - facts["t_star"]) < 0.1 * facts["t_star"]
    assert facts["rss_mb"] < 160


def test_visibility_csv_of_1e6_rows_under_250_mb():
    # CSV blocks stream into the file; holding every line (about 470 MB
    # here) would fail the bound.
    facts = _run("""
import os
import tempfile

from coulombchain.cli import run

with tempfile.TemporaryDirectory() as out:
    code = run(["visibility", "--N", "16", "--delta", "0.1", "--eta-c",
                "0.25", "--t-max", "1000", "--samples", "1000000",
                "--out", out])
    with open(os.path.join(out, "visibility.csv"), "rb") as fh:
        lines = sum(1 for _ in fh)
report(code=code, lines=lines)
""")
    assert facts["code"] == 0
    assert facts["lines"] == 1000001
    assert facts["rss_mb"] < 250


def test_zigzag_classification_at_n_2000_under_80_mb():
    # The largest N under the dense work budget: the banded label oracle
    # must not hold the 128 MB (2N)^2 eigenvector matrix.
    facts = _run("""
from coulombchain import (ChainParams, classify_zigzag_modes,
                          critical_frequency_finite, zigzag_spectrum)
from oracles import label_residuals

N = 2000
sp = zigzag_spectrum(ChainParams(
    N=N, nu_t=critical_frequency_finite(N) - 0.04, eta_c=0.0))
modes = classify_zigzag_modes(sp)
report(N=N, b=sp.b, modes=len(modes),
       worst=float(max(label_residuals(sp, sp.n, sp.plus))))
""")
    assert facts["b"] > 0
    assert facts["modes"] == 2 * facts["N"]
    assert facts["worst"] < 1e-10
    assert facts["rss_mb"] < 80


def test_gamma_scan_at_n_1e5_under_80_mb():
    # Guards the O(N) zigzag producer: the buckled side of the scan folds
    # its kick weights per Bloch block and builds no mode vector.
    facts = _run("""
import tempfile

from coulombchain.cli import run

with tempfile.TemporaryDirectory() as out:
    code = run(["gamma-scan", "--N", "100000", "--eta-c", "0.05",
                "--out", out])
report(code=code)
""")
    assert facts["code"] == 0
    assert facts["rss_mb"] < 80
