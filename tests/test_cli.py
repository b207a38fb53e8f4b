"""Command-line entry points: exit codes, CSV output, manifests, config."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coulombchain
from coulombchain import (PhysicalInput, asymptotics, cli,
                          critical_frequency_finite, derive_parameters,
                          emit_csv, linear_modes, output, ramsey, spectral)
from coulombchain.cli import run
from coulombchain.errors import InvalidParameter


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_spectrum_run(tmp_path):
    rc = run(["spectrum", "--N", "16", "--nu-t", "2.5",
              "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    assert header == ["n", "k_a", "parity", "omega_x", "omega_y"]
    assert len(rows) == 16                  # one per mode
    man = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert man["subcommand"] == "spectrum"
    assert man["params"]["N"] == 16
    assert man["params"]["nu_t"] == 2.5
    for out in man["outputs"]:
        assert (tmp_path / Path(out).name).exists()


def test_zigzag_run(tmp_path):
    N = 16
    nu = critical_frequency_finite(N) - 0.05
    rc = run(["zigzag", "--N", str(N), "--nu-t", repr(nu), "--points", "5",
              "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "zigzag_amplitude.csv")
    assert header == ["nu_t", "b", "energy_per_ion"] and len(rows) == 5
    header, rows = _read_csv(tmp_path / "zigzag_spectrum.csv")
    assert header == ["k_a", "beta", "parity", "omega", "n", "special"]
    assert len(rows) == 2 * N
    assert len({(r[4], r[2], r[1]) for r in rows}) == 2 * N
    special = sorted(r[5] for r in rows if r[5])
    assert special == ["bulk_x", "bulk_y", "zigzag_x", "zigzag_y"]
    man = json.loads((tmp_path / "zigzag_manifest.json").read_text())
    assert man["subcommand"] == "zigzag"


def test_odd_n_is_a_usage_error(tmp_path, capsys):
    rc = run(["visibility", "--N", "3", "--nu-t", "2.5", "--eta-c", "0.1",
              "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [InvalidParameter]" in err and "even" in err


def test_unknown_flag_and_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_n_reports_usage_error(tmp_path, capsys):
    rc = run(["spectrum", "--nu-t", "2.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "N" in capsys.readouterr().err


def test_nu_t_delta_conflict(tmp_path, capsys):
    rc = run(["spectrum", "--N", "8", "--nu-t", "2.5", "--delta", "0.1",
              "--out", str(tmp_path)])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_emit_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, "a+b", math.pi, True], [2, "x", 1e-300, False]]
    emit_csv(["i", "name", "x", "flag"], rows, str(path))
    header, back = _read_csv(path)
    assert header == ["i", "name", "x", "flag"]
    assert float(back[0][2]) == math.pi     # %.17g survives the trip
    assert float(back[1][2]) == 1e-300
    assert back[0][3] == "1" and back[1][3] == "0"

    emit_csv(["only", "header"], [], str(path))
    header, back = _read_csv(path)
    assert header == ["only", "header"] and back == []

    with pytest.raises(InvalidParameter):
        emit_csv(["a", "b"], [[1, 2, 3]], str(path))


def _cell(x) -> str:
    """Per-cell formatter of the earlier emit_csv: the byte reference."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def test_emit_csv_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(4)
    specials = (-0.0, math.inf, -math.inf, math.nan, 1e-300)
    rows = []
    for i in range(300):
        mixed = (f"s{i}", True, np.bool_(i % 3), i - 150, np.int64(-i),
                 np.float32(rng.normal()), rng.normal())[i % 7]
        rows.append((f"r{rng.integers(1000)}", bool(rng.integers(2)),
                     np.bool_(rng.integers(2)),
                     int(rng.integers(-10**15, 10**15)),
                     np.int64(rng.integers(-2**62, 2**62)),
                     np.float32(rng.normal()),
                     np.float64(rng.normal() * 10.0 ** rng.integers(-300, 300)),
                     specials[i % 5], float(rng.normal()), mixed))
    header = [f"c{j}" for j in range(10)]
    want = "\n".join([",".join(header)]
                     + [",".join(map(_cell, r)) for r in rows]) + "\n"
    path = tmp_path / "t.csv"
    emit_csv(header, rows, str(path))
    assert path.read_bytes() == want.encode()
    path.unlink()
    emit_csv(header, zip(*zip(*rows)), str(path))
    assert path.read_bytes() == want.encode()

    with pytest.raises(InvalidParameter, match="width 9 in a 10-column"):
        emit_csv(header, [*rows[:5], rows[5][:9]], str(path))
    assert path.read_bytes() == want.encode()   # nothing half-written
    emit_csv(header, [], str(path))
    assert path.read_text() == ",".join(header) + "\n"


def _block_table(block: int):
    """Two full blocks of `block` rows and a partial third, with a column
    that turns from int to float after the first block and one that mixes
    every cell type; its rows, header and per-cell text."""
    n = 2 * block + block // 2
    rows = [(i,
             i if i < block else i / 3.0,                   # int, then float
             (f"s{i}", i, np.float32(i / 7), np.bool_(i % 2), -0.0)[i % 5],
             np.float64(i) * 1e-3)
            for i in range(n)]
    header = ["i", "switch", "mixed", "x"]
    want = "\n".join([",".join(header)]
                     + [",".join(map(_cell, r)) for r in rows]) + "\n"
    return rows, header, want.encode()


def test_emit_csv_blocks_match_per_cell_formatting(tmp_path):
    rows, header, want = _block_table(output._VECTOR_ROWS)
    path = tmp_path / "t.csv"
    emit_csv(header, (iter(r) for r in rows), str(path))
    assert path.read_bytes() == want

    n = len(rows)
    bad = [*rows[:2 * output._VECTOR_ROWS + 10], rows[0][:3],
           *rows[2 * n // 3:]]
    with pytest.raises(InvalidParameter, match="width 3 in a 4-column"):
        emit_csv(header, iter(bad), str(path))
    assert path.read_bytes() == want            # nothing half-written
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_column_blocks_match_per_cell_formatting(tmp_path):
    rows, header, want = _block_table(output._COLUMN_BLOCK_ROWS)
    n = len(rows)
    path = tmp_path / "t.csv"
    # Array columns, and the same columns as sequences of cells.
    emit_csv(header, output.Columns(np.arange(n), [r[1] for r in rows],
                                    [r[2] for r in rows],
                                    np.arange(n) * 1e-3), str(path))
    assert path.read_bytes() == want
    path.unlink()
    emit_csv(header, output.Columns(*zip(*rows)), str(path))
    assert path.read_bytes() == want

    cells = [0.5] * (2 * output._COLUMN_BLOCK_ROWS) + [None]
    with pytest.raises(InvalidParameter, match="column 'b' holds a NoneType"):
        emit_csv(["a", "b"], output.Columns(np.zeros(len(cells)), cells),
                 str(path))
    assert path.read_bytes() == want            # nothing half-written
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_columns_of_unequal_lengths_or_count_keep_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(["a"], [(1,)], str(path))
    with pytest.raises(InvalidParameter, match="unequal lengths 2, 3"):
        emit_csv(["a", "b"], output.Columns(np.zeros(3), [1, 2]), str(path))
    with pytest.raises(InvalidParameter, match="width 1 in a 2-column"):
        emit_csv(["a", "b"], output.Columns(np.zeros(3)), str(path))
    with pytest.raises(InvalidParameter, match="1-D"):
        emit_csv(["a"], output.Columns(np.zeros((2, 2))), str(path))
    assert path.read_text() == "a\n1\n"
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_empty_columns_write_only_the_header(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(["t", "V", "phase"],
             output.Columns(np.empty(0), np.empty(0, np.float32), []),
             str(path))
    assert path.read_text() == "t,V,phase\n"


def test_columns_iterate_as_rows():
    table = output.Columns(np.array([1.0, 2.0]), ("a", "b"))
    assert len(table) == 2
    assert list(table) == [(1.0, "a"), (2.0, "b")]


@pytest.mark.parametrize("cell", [None, 1 + 2j, b"x"])
def test_emit_csv_rejects_cells_it_cannot_print(cell, tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(["a", "b"], [(1, 2.0)], str(path))
    rows = [(i, 0.5) for i in range(2000)] + [(7, cell)]   # past a block
    with pytest.raises(InvalidParameter,
                       match=f"column 'b' holds a {type(cell).__name__}"):
        emit_csv(["a", "b"], rows, str(path))
    assert path.read_text() == "a,b\n1,2\n"
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_runs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert run(["visibility", "--N", "16", "--delta", "0.05",
                    "--eta-c", "0.1", "--t-max", "30", "--samples", "400",
                    "--out", str(d)]) == 0
    b1 = (d1 / "visibility.csv").read_bytes()
    assert b1 == (d2 / "visibility.csv").read_bytes()
    assert len(b1) > 0


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        "# comment line\n"
        "N = 16\n"
        "nu_t = 2.6\n")
    out = tmp_path / "o"
    rc = run(["spectrum", "--config", str(cfg), "--nu-t", "2.5",
              "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "spectrum_manifest.json").read_text())
    assert man["params"]["nu_t"] == 2.5     # CLI beats config
    assert man["params"]["N"] == 16         # config fills the rest
    capsys.readouterr()


def test_dimensionless_beats_physical_with_warning(tmp_path, capsys):
    cfg = tmp_path / "phys.cfg"
    cfg.write_text(
        "N = 8\n"
        "nu_t = 2.5\n"
        "mass_kg = 3.9e-26\n"
        "charge_c = 1.6e-19\n"
        "spacing_m = 1e-5\n"
        "transverse_frequency_rad_s = 1.0e6\n"
        "laser_wavenumber_per_m = 2.2e7\n")
    rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "p")])
    assert rc == 0
    assert "take precedence" in capsys.readouterr().err


_SI_FLAGS = {"--mass-kg": "3.9e-26", "--charge-c": "1.6e-19",
             "--spacing-m": "1e-5", "--transverse-frequency-rad-s": "1e6",
             "--laser-wavenumber-per-m": "2.2e7"}
_SI_ARGS = [arg for pair in _SI_FLAGS.items() for arg in pair]


@pytest.mark.parametrize("flag, key", [
    ("--temperature-k", "temperature_k"), ("--mass-kg", "mass_kg")])
def test_non_finite_physical_inputs_name_the_field(flag, key, tmp_path,
                                                   capsys):
    si = [arg for pair in {**_SI_FLAGS, flag: "nan"}.items() for arg in pair]
    argv = ["visibility", "--N", "8", *si, "--out", str(tmp_path)]
    assert run(argv) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_temperature_in_kelvin_needs_the_si_inputs(tmp_path, capsys):
    # Without the SI inputs a kelvin temperature cannot be converted to
    # theta; it must not be dropped silently.
    argv = ["visibility", "--N", "8", "--delta", "0.1", "--eta-c", "0.25",
            "--temperature-k", "300", "--out", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in cli._PHYSICAL_KEYS) and "--theta" in err
    assert not list(tmp_path.iterdir())


def test_si_temperature_sets_theta_unless_theta_is_given(tmp_path, capsys):
    flags = {**_SI_FLAGS, "--transverse-frequency-rad-s": "1e7"}
    phys = PhysicalInput(**{f[2:].replace("-", "_"): float(v)
                            for f, v in flags.items()}, temperature_k=1e-5)
    si = [arg for pair in flags.items() for arg in pair]
    warm = derive_parameters(phys).theta
    assert warm > 0.0
    cases = [([], 0.0, False), (["--temperature-k", "1e-5"], warm, False),
             (["--temperature-k", "1e-5", "--theta", "0.25"], 0.25, True)]
    for i, (extra, theta, warned) in enumerate(cases):
        out = tmp_path / str(i)
        assert run(["visibility", "--N", "8", *si, *extra, "--samples", "50",
                    "--out", str(out)]) == 0
        params = json.loads((out / "visibility_manifest.json").read_text())[
            "params"]
        assert params["theta"] == theta
        assert ("take precedence" in capsys.readouterr().err) == warned


def test_bad_config_line_cites_location(tmp_path, capsys):
    # A line that is not UTF-8 (here a 0xFF byte) is located the same way,
    # whatever the locale, not a UnicodeDecodeError traceback.
    cfg = tmp_path / "broken.cfg"
    out = tmp_path / "out"
    for text in (b"N = 16\nthis has no equals sign\n",
                 b"N = 16\nnu_t = 2.5 # \xff\n"):
        cfg.write_bytes(text)
        rc = run(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "broken.cfg:2" in capsys.readouterr().err
        assert not out.exists()


def test_config_value_out_of_range_is_a_usage_error(tmp_path, capsys):
    # The parser types the value; the range check comes later, from the
    # pipeline, and names the option but not the config line.
    cfg = tmp_path / "a.cfg"
    cfg.write_text("N = 16\neta_c = 0.05\npoints = 2\n")
    out = tmp_path / "o"
    assert run(["asymptotics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "points must be >= 3" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_scan_needs_odd_points(tmp_path, capsys):
    rc = run(["gamma-scan", "--N", "16", "--eta-c", "0.05",
              "--delta-min=-4e-3", "--delta-max", "4e-3",
              "--points", "8", "--out", str(tmp_path)])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_gamma_scan_run(tmp_path):
    rc = run(["gamma-scan", "--N", "64", "--eta-c", "0.05",
              "--delta-min=-8e-3", "--delta-max", "8e-3",
              "--points", "9", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "gamma_scan.csv")
    assert header == ["delta", "gamma", "phase"]
    assert len(rows) == 9
    phases = [r[2] for r in rows]
    assert phases[:4] == ["zigzag"] * 4 and phases[4:] == ["linear"] * 5
    man = json.loads((tmp_path / "gamma-scan_manifest.json").read_text())
    assert man["grids"]["cusp"]["separation_se"] > 5.0


def test_longtime_manifest(tmp_path):
    rc = run(["longtime", "--N", "100", "--delta", "1e-3",
              "--eta-c", "0.25", "--samples", "6000",
              "--out", str(tmp_path)])
    assert rc == 0
    man = json.loads((tmp_path / "longtime_manifest.json").read_text())
    t_star = man["grids"]["t_star"]
    burst = man["grids"]["burst_time"]
    assert t_star == pytest.approx(123.0, rel=0.01)
    assert burst is not None and abs(burst - t_star) / t_star < 0.10
    header, rows = _read_csv(tmp_path / "longtime.csv")
    assert header == ["t", "V_exact", "V_analytic"]
    assert len(rows) == 6000


def test_longtime_envelope_is_the_cold_one_at_any_theta(tmp_path):
    # At theta > 0, V_exact is thermal but V_analytic stays the theta = 0
    # envelope: its column does not move with --theta.
    columns = []
    for extra in ([], ["--theta", "0.5"]):
        out = tmp_path / f"theta{len(extra)}"
        assert run(["longtime", "--N", "100", "--delta", "1e-3",
                    "--eta-c", "0.25", "--samples", "600", *extra,
                    "--out", str(out)]) == 0
        _, rows = _read_csv(out / "longtime.csv")
        columns.append(list(zip(*rows)))
    (t0, exact0, ana0), (t1, exact1, ana1) = columns
    assert t0 == t1 and ana0 == ana1
    assert np.mean(np.float64(exact1)) < np.mean(np.float64(exact0))


def test_asymptotics_holds_one_amplitude_set_at_a_time(tmp_path):
    # 40 sets of 20000 modes would be ~13 MB; one set and its tables ~1 MB.
    tracemalloc.start()
    try:
        rc = run(["asymptotics", "--N", "20000", "--eta-c", "0.05",
                  "--points", "40", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4 << 20


def test_asymptotics_builds_each_amplitude_set_once(tmp_path, monkeypatch):
    # One set per Delta in the scan; the analytic form reads the scan's last.
    calls = []
    build = asymptotics.linear_chain_amplitudes

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (cli, asymptotics):
        monkeypatch.setattr(module, "linear_chain_amplitudes", counted)
    points = 7
    assert run(["asymptotics", "--N", "64", "--eta-c", "0.05", "--points",
                str(points), "--out", str(tmp_path)]) == 0
    assert len(calls) == points


def test_figures_share_the_derivative_scan(tmp_path, monkeypatch):
    # Scenarios 5 and 7 read one dGamma/dDelta scan.
    calls = {"scan": 0, "amplitudes": 0}
    scan = cli.gamma_derivative_scan
    build = asymptotics.linear_chain_amplitudes

    def counted_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    def counted_build(*args, **kwargs):
        calls["amplitudes"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "gamma_derivative_scan", counted_scan)
    for module in (cli, asymptotics, ramsey):
        monkeypatch.setattr(module, "linear_chain_amplitudes", counted_build)
    assert run(["figures", "--which", "all", "--out", str(tmp_path)]) == 0
    assert calls["scan"] == 1
    # 27 distinct chains; two of them feed two pipelines each. Scenario 3
    # reads scenario 2's mean V instead of rebuilding that chain.
    assert calls["amplitudes"] == 29


def test_figures_scenario_four(tmp_path, capsys):
    rc = run(["figures", "--which", "4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert (tmp_path / "fig4_gamma.csv").exists()
    man = json.loads((tmp_path / "figures_manifest.json").read_text())
    assert all(p["passed"] for p in man["grids"]["proxies"])


def test_failed_proxy_exits_1_after_the_manifest(tmp_path, capsys,
                                                 monkeypatch):
    def scenario(path, memo):
        emit_csv(("x",), [(1.0,)], path("fig4_gamma.csv"))
        return {"N": 4}, [("fig4 quadratic fit", False, "worst 1")]

    monkeypatch.setitem(cli._FIGURES, "4", scenario)
    assert run(["figures", "--which", "4", "--out", str(tmp_path)]) == 1
    assert "error: proxy failed: fig4 quadratic fit (worst 1)" in \
        capsys.readouterr().err
    man = json.loads((tmp_path / "figures_manifest.json").read_text())
    assert man["grids"]["proxies"] == [
        {"name": "fig4 quadratic fit", "passed": False, "detail": "worst 1"}]
    assert man["outputs"] == [str(tmp_path / "fig4_gamma.csv")]


@pytest.mark.parametrize("flags, word", [
    (["--samples", "0"], "samples"), (["--samples", "-5"], "samples"),
    (["--samples", "7"], "samples"), (["--t-max", "0"], "t_max"),
    (["--t-max=-3"], "t_max"),
    # dt = 1.25e-316 is subnormal: the revival detector's window / dt
    # overflows, and the detector runs before the table is written.
    (["--t-max", "1e-315", "--samples", "8"], "is not a finite number")])
def test_longtime_rejects_bad_grids(flags, word, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["longtime", "--N", "16", "--delta", "0.05", "--eta-c", "0.1",
              *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [InvalidParameter]" in err and word in err
    assert not out.exists()


def test_longtime_rejects_a_grid_before_the_analytic_envelope(tmp_path):
    # dt = 1.25e299 leaves the baseline span no sample; the analytic Y0 tail
    # at t ~ 1e300 is never evaluated, so nothing warns before the error.
    out = tmp_path / "out"
    res = _python("-m", "coulombchain.cli", "longtime", "--N", "16",
                  "--delta", "0.1", "--eta-c", "0.1", "--samples", "8",
                  "--t-max", "1e300", "--out", str(out))
    assert res.returncode == 2
    assert "baseline_span" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("chain", [["--delta", "0"], ["--delta=-0.01"],
                                   ["--nu-t", "1.5"]])
def test_longtime_rejects_the_zigzag_side_before_any_work(chain, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("longtime did work before checking delta")

    for name in ("revival_time", "linear_chain_amplitudes", "evaluate_trace"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "out"
    rc = run(["longtime", "--N", "100", *chain, "--eta-c", "0.25",
              "--samples", "600", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [InvalidParameter]" in err and "delta = nu_t - nu_c" in err
    assert "delta_ref" not in err
    assert not out.exists()


@pytest.mark.parametrize("chain, bands", [
    (["--N", "32", "--delta=-0.0005", "--T-F", "500"], []),
    (["--N", "16", "--delta=-1e-3", "--T-F", "400"], []),
    (["--N", "8", "--nu-t", "3.6", "--T-F", "200"], ["transverse"]),
], ids=["flat ring below nu_c", "zigzag", "empty overlay band"])
def test_fourier_writes_the_bands_the_chain_has(chain, bands, tmp_path):
    # Below the infinite-chain nu_c (delta < 0: a zigzag, or a flat ring
    # just above nu_c(N)) neither band exists. Above Delta = nu_c / sqrt(2)
    # the overlay band's lower edge sqrt(2 Delta nu_t + Delta^2) passes
    # nu_t, so only the transverse band is tabulated.
    args = ["fourier", *chain, "--eta-c", "0.1", "--n-s", "2048"]
    with pytest.raises(SystemExit) as exc:
        run([*args, "--no-band", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    assert run([*args, "--out", str(tmp_path)]) == 0
    names = ["fourier.csv", "fourier_manifest.json", "fourier_peaks.csv"]
    if bands:
        names.insert(1, "fourier_band.csv")
        _, rows = _read_csv(tmp_path / "fourier_band.csv")
        assert [r[0] for r in rows] == bands
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    man = json.loads((tmp_path / "fourier_manifest.json").read_text())
    assert list(man["grids"]["band"]) == bands


def test_visibility_and_fourier_run_on_the_zigzag_side(tmp_path, capsys):
    # Below nu_c(N) both take the zigzag's kick weights; the visibility
    # manifest names the phase that served the run.
    chain = ["--N", "64", "--eta-c", "0.1"]
    for delta, kind in (("-1e-3", "zigzag"), ("1e-3", "linear")):
        out = tmp_path / f"v{delta}"
        assert run(["visibility", *chain, f"--delta={delta}",
                    "--out", str(out)]) == 0
        man = json.loads((out / "visibility_manifest.json").read_text())
        assert man["grids"]["kind"] == kind
        _, rows = _read_csv(out / "visibility.csv")
        V = np.array([float(r[2]) for r in rows])
        assert np.all((V > 0.0) & (V <= 1.0))
    out = tmp_path / "f"
    assert run(["fourier", *chain, "--delta=-1e-3", "--T-F", "400", "--n-s",
                "2048", "--out", str(out)]) == 0
    assert (out / "fourier_peaks.csv").exists()
    # The zigzag needs N divisible by 4: a usage error, before any file.
    out = tmp_path / "n66"
    assert run(["visibility", "--N", "66", "--delta=-1e-2", "--eta-c", "0.1",
                "--out", str(out)]) == 2
    assert "divisible by 4" in capsys.readouterr().err
    assert not out.exists()


def test_zigzag_takes_the_spectrum_before_writing(tmp_path, capsys):
    # Far below nu_c(N) the staggered ansatz is unstable; the run must fail
    # before its first table, not after it.
    out = tmp_path / "out"
    rc = run(["zigzag", "--N", "16", "--nu-t", "0.5", "--points", "3",
              "--out", str(out)])
    assert rc == 1
    assert "error [UnstableConfiguration]" in capsys.readouterr().err
    assert not out.exists()


_CHAIN = ["--N", "16", "--delta", "0.05", "--eta-c", "0.1"]


@pytest.mark.parametrize("argv, word", [
    (["zigzag", "--N", "16", "--nu-t", "2.0", "--points=-1"], "points"),
    (["asymptotics", "--N", "16", "--eta-c", "0.05", "--delta-max=-1"],
     "delta_max"),
    *[([cmd, "--N", "16", "--eta-c", "0.05", f"--delta-{end}", "inf"],
       f"delta_{end} must be finite, got inf")
      for cmd in ("gamma-scan", "asymptotics") for end in ("min", "max")],
    *[(["zigzag", "--N", "16", "--nu-t", "2.0", f"--nu-{end}", "inf"],
       f"nu_{end} must be finite, got inf") for end in ("min", "max")],
    (["visibility", *_CHAIN, "--t-max", "inf"], "t_max must be finite"),
    (["visibility", *_CHAIN, "--t-min=-inf"], "t_min must be finite"),
    (["longtime", *_CHAIN, "--t-max", "inf"], "t_max must be finite"),
    *[(["fourier", *_CHAIN, "--n-s", "1024", "--T-F", value],
       f"T_F must be positive and finite, got {value}")
      for value in ("nan", "inf")],
    *[([cmd, "--N", "16", "--eta-c", "0.05", f"--delta-{end}", "nan"],
       f"delta_{end} must be finite, got nan")
      for cmd in ("gamma-scan", "asymptotics") for end in ("min", "max")],
    *[(["zigzag", "--N", "16", "--nu-t", "2.0", f"--nu-{end}", "nan"],
       f"nu_{end} must be finite, got nan") for end in ("min", "max")],
    *[(["visibility", *_CHAIN, f"--t-{end}", "nan"],
       f"t_{end} must be finite, got nan") for end in ("min", "max")],
    (["longtime", *_CHAIN, "--t-max", "nan"], "t_max must be finite, got nan"),
    *[(["asymptotics", "--N", "16", "--eta-c", "0.05", "--points", n],
       "points must be >= 3") for n in ("0", "1", "2")],
    (["longtime", *_CHAIN, "--samples", "7"], "samples must be >= 8"),
    (["fourier", *_CHAIN, "--n-s", "100"], "n_s must be >= 1024"),
    (["asymptotics", "--N", "16", "--eta-c", "0.05", "--delta-min", "1e-3",
      "--delta-max", "1e-3", "--points", "3"], "3 distinct Delta, got 1"),
    (["gamma-scan", "--N", "16", "--eta-c", "0.05", "--delta-min", "1e-3",
      "--delta-max", "1e-3"], "delta_min and delta_max must differ"),
    # Finite, but the top frequencies 2 pi k / T_F overflow.
    *[(["fourier", *_CHAIN, "--T-F", value], f"T_F = {value} is too short")
      for value in ("1e-305", "1e-310")]])
def test_scan_grids_are_validated(argv, word, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error [InvalidParameter]" in err and word in err
    assert not list(tmp_path.iterdir())     # not even the --out directory


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, low, high", [
    (["zigzag", "--N", "16", "--nu-t", "2.0", "--nu-min=-1e308",
      "--nu-max", "1e308"], "nu_min", "nu_max"),
    (["gamma-scan", "--N", "16", "--eta-c", "0.05", "--delta-min=-1e308",
      "--delta-max", "1e308"], "delta_min", "delta_max"),
    (["visibility", *_CHAIN, "--t-min=-1e308", "--t-max", "1e308"],
     "t_min", "t_max")])
def test_grid_spans_that_overflow_are_usage_errors(argv, low, high, tmp_path,
                                                   capsys):
    # Each bound is finite, but high - low is not: the grid's step would
    # overflow to a NaN the user never gave.
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error [InvalidParameter]: {high} - {low} must be finite" in err
    assert "nan" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta_c, word", [
    ("1e154", "2 sum(weight), the bound on A(t), must be finite, got inf"),
    ("1e160", "weight must be finite; weight[0] = inf")],
    ids=["sum overflows", "square overflows"])
def test_kick_weights_that_overflow_are_usage_errors(eta_c, word, tmp_path,
                                                     capsys):
    # At 1e154 each weight is finite but their sum is not, so A(t) could
    # reach inf; at 1e160 the square of the largest kick overflows. Both
    # stop before any trace, with no RuntimeWarning and no --out.
    assert run(["visibility", "--N", "64", "--delta", "0.01", "--eta-c", eta_c,
                "--samples", "100", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error [InvalidParameter]: {word}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gamma-scan", "--N", "16", "--eta-c", "0.05"],
    ["asymptotics", "--N", "16", "--eta-c", "0.05", "--points", "3"],
    ["figures", "--which", "5"],
    ["figures", "--which", "7"],
    ["zigzag", "--N", "16", "--nu-t", "2.0", "--points", "5"]],
    ids=lambda argv: " ".join(argv[:3]))
def test_runs_call_no_numpy_linalg(argv, tmp_path, monkeypatch):
    # Line fits are closed-form sums: a LAPACK routine's first call adds
    # about 1.1 MB of resident memory to the run.
    def refuse(*args, **kwargs):
        raise AssertionError("a run called numpy.linalg or np.polyfit")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert run([*argv, "--out", str(tmp_path)]) == 0


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's private subclass of MemoryError."""


@pytest.mark.parametrize("argv, target", [
    (["spectrum", "--N", "16", "--nu-t", "2.5"], "transverse_mode_set"),
    (["gamma-scan", "--N", "16", "--eta-c", "0.05"], "gamma_transition_scan")])
def test_memory_errors_are_reported_not_raised(argv, target, tmp_path, capsys,
                                               monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, target, out_of_memory)
    assert run([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error [MemoryError]: Unable to allocate 7.45 GiB for an array\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("visibility", "--samples"), ("longtime", "--samples"),
    ("fourier", "--n-s")], ids=["visibility", "longtime", "fourier"])
def test_trace_budget_guard_before_allocation(command, flag, tmp_path,
                                              capsys):
    tracemalloc.start()
    try:
        rc = run([command, "--N", "16", "--delta", "0.05", "--eta-c", "0.1",
                  flag, str(10**12), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error [ResourceLimit]: trace arrays of 1000000000000 samples")
    assert peak < 1 << 20


@pytest.mark.parametrize("command, flags", [
    ("visibility", ["--samples"]),
    ("visibility", ["--theta", "0.5", "--samples"]),
    ("longtime", ["--samples"]), ("fourier", ["--n-s"])],
    ids=["visibility", "visibility_thermal", "longtime", "fourier"])
def test_trace_sample_bytes_bound_the_traced_cost(command, flags, tmp_path,
                                                  capsys, monkeypatch):
    # With the budget at bytes per sample x samples a trace command fits
    # its traced peak in it; one byte less and it stops before the grid.
    n = 400_000
    argv = [command, *_CHAIN, *flags, str(n), "--out", str(tmp_path)]
    monkeypatch.setattr(linear_modes, "_BUILD_BUDGET",
                        spectral._SAMPLE_BYTES * n)
    tracemalloc.start()
    try:
        rc = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak <= spectral._SAMPLE_BYTES * n
    monkeypatch.setattr(linear_modes, "_BUILD_BUDGET",
                        spectral._SAMPLE_BYTES * n - 1)
    assert run(argv) == 1
    assert "(150 per sample)" in capsys.readouterr().err


def test_amplitude_budget_guard_before_allocation(tmp_path, capsys):
    # Each command meets the build budget in its first O(N) build: the kick
    # weights, the mode tables, nu_c(N), the group velocities.
    cases = [("visibility", ["--delta", "0.01", "--eta-c", "0.1"],
              "kick weights"),
             ("spectrum", ["--nu-t", "2.5"], "transverse modes"),
             ("zigzag", ["--nu-t", "2.0"], "nu_c(N) terms"),
             ("longtime", ["--delta", "0.01", "--eta-c", "0.1"],
              "group velocities")]
    for command, flags, what in cases:
        tracemalloc.start()
        try:
            rc = run([command, "--N", str(10 ** 9), *flags,
                      "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [ResourceLimit]: {what} of N = "
                              "1000000000 ions") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())
        assert peak < 1 << 20


def test_fourier_rejects_a_nan_prominence(tmp_path, capsys):
    for value, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")):
        rc = run(["fourier", *_CHAIN, "--T-F", "200", "--n-s", "1024",
                  f"--prominence={value}", "--out", str(tmp_path)])
        assert rc == 2
        assert f"prominence must be positive and finite, got {shown}" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["zigzag", "--N", "16", "--nu-t", "nan"],
    ["visibility", "--N", "16", "--nu-t", "inf", "--eta-c", "0.1"],
    ["longtime", "--N", "16", "--nu-t", "nan", "--eta-c", "0.1"],
    ["spectrum", "--N", "16", "--nu-t", "inf"]])
def test_non_finite_chain_parameters_are_usage_errors(argv, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert "nu_t must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nu_t_whose_square_overflows_is_a_usage_error(tmp_path, capsys):
    # The spectra square nu_t; 1e308 ** 2 overflowed deep in the pipeline.
    assert run(["visibility", "--N", "16", "--nu-t", "1e308", "--eta-c", "0.1",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[InvalidParameter]" in err and "nu_t^2" in err
    assert not list(tmp_path.iterdir())


def test_non_finite_thermal_weights_are_usage_errors(tmp_path, capsys):
    # omega / (2 theta) underflows to 0, so coth would divide by tanh(0).
    assert run(["visibility", "--N", "16", "--delta", "0.1", "--eta-c", "0.1",
                "--theta", "1e308", "--samples", "5",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[InvalidParameter]" in err and "theta = 1e+308" in err
    assert not list(tmp_path.iterdir())


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package and tests/ on its path."""
    src = os.path.dirname(os.path.dirname(coulombchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, os.path.dirname(__file__)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def _scipy_modules_after(module: str) -> str:
    """The scipy modules loaded by a fresh interpreter importing `module`."""
    out = _python("-c", f"import sys, {module}; print(sorted(m for m in "
                  "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_module_run_executes_one_copy_of_cli(tmp_path):
    # runpy warns when the package has imported coulombchain.cli already.
    out = _python("-W", "error::RuntimeWarning", "-m", "coulombchain.cli",
                  "spectrum", "--N", "8", "--nu-t", "2.5",
                  "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "spectrum.csv").exists()


def test_package_import_loads_no_command_line():
    out = _python("-c", "import sys, coulombchain; print([m for m in "
                  "('coulombchain.cli', 'argparse') if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle only.
    assert _scipy_modules_after("coulombchain.cli") == "[]"


def test_dense_oracles_load_no_scipy():
    # The numpy-only CI job runs the tests that import tests/oracles.py.
    assert _scipy_modules_after("oracles") == "[]"


# Each subcommand's valid run, to which one option it does not take is added.
_VALID_RUNS = {"gamma-scan": ["--N", "16", "--eta-c", "0.05"],
               "asymptotics": ["--N", "16", "--eta-c", "0.05"],
               "spectrum": ["--N", "16", "--nu-t", "2.5"],
               "zigzag": ["--N", "16", "--nu-t", "2.0", "--points", "3"]}


@pytest.mark.parametrize("command, flag", [
    ("gamma-scan", ["--theta", "1"]), ("gamma-scan", ["--nu-t", "2.5"]),
    ("asymptotics", ["--theta", "1"]), ("asymptotics", ["--nu-t", "2.5"]),
    # The mode tables describe the crystal alone: no kick, no temperature.
    *[(command, flag) for command in ("spectrum", "zigzag")
      for flag in (["--eta-c", "0.1"], ["--theta", "1"],
                   ["--temperature-k", "1e-5", *_SI_ARGS])]])
def test_scans_take_no_single_chain_options(command, flag, tmp_path):
    argv = [command, *_VALID_RUNS[command], "--out", str(tmp_path)]
    assert run(argv) == 0
    with pytest.raises(SystemExit) as exc:
        run([*argv, *flag])
    assert exc.value.code == 2


def test_mode_table_config_takes_no_eta_c(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("N = 16\nnu_t = 2.5\neta_c = 0.1\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"error: {cfg}:3: unrecognized option --eta-c=0.1" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_keys_go_through_the_parser(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("N = 16\nnu_tt = 2.5\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nu-tt" in err
    assert f"error: {cfg}:2: unrecognized option --nu-tt=2.5" in err

    cfg.write_text("N = 16\n\n# comment\nnu_t = fast\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'fast'" in err
    assert f"error: {cfg}:4: argument --nu-t: invalid float value" in err

    cfg.write_text("N = 16\nnu = 2.5\n")      # no prefix matching
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--nu=2.5" in capsys.readouterr().err

    other = tmp_path / "other.cfg"              # files do not nest
    other.write_text("N = 16\nnu_t = 2.5\n")
    cfg.write_text(f"N = 16\nnu_t = 2.5\nconfig = {other}\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"error: {cfg}:3: a config file cannot name another " \
        f"(--config={other})" in capsys.readouterr().err

    # A flag given before --config still beats the file.
    cfg.write_text(f"N = 16\nnu_t = 2.6\nout = {tmp_path / 'o'}\n")
    assert run(["spectrum", "--nu-t", "2.5", "--config", str(cfg)]) == 0
    man = json.loads((tmp_path / "o" / "spectrum_manifest.json").read_text())
    assert man["params"]["nu_t"] == 2.5 and man["params"]["N"] == 16


# Every option string of each subcommand, in --help order: the command-line
# counterpart of tests/test_api_surface.py.
_COMMON_FLAGS = ["--config", "--out", "--N"]
_SCAN_FLAGS = [*_COMMON_FLAGS, "--eta-c"]
_CRYSTAL_FLAGS = [*_COMMON_FLAGS, "--nu-t", "--delta", "--mass-kg",
                  "--charge-c", "--spacing-m", "--transverse-frequency-rad-s",
                  "--laser-wavenumber-per-m"]
_PROBE_FLAGS = [*_CRYSTAL_FLAGS, "--eta-c", "--theta", "--temperature-k"]
PINNED_FLAGS = {
    "spectrum": _CRYSTAL_FLAGS,
    "zigzag": [*_CRYSTAL_FLAGS, "--nu-min", "--nu-max", "--points"],
    "visibility": [*_PROBE_FLAGS, "--t-min", "--t-max", "--samples"],
    "fourier": [*_PROBE_FLAGS, "--T-F", "--n-s", "--prominence"],
    "gamma-scan": [*_SCAN_FLAGS, "--delta-min", "--delta-max", "--points"],
    "asymptotics": [*_SCAN_FLAGS, "--delta-min", "--delta-max", "--points"],
    "longtime": [*_PROBE_FLAGS, "--t-max", "--samples"],
    "figures": ["--out", "--which"],
}


def test_subcommand_flags_are_pinned():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: [s for a in sp._actions for s in a.option_strings
                    if s not in ("-h", "--help")]
             for name, sp in sub.choices.items()}
    assert found == PINNED_FLAGS


# Two values of every valued option: a small base run holds the first, and
# the option alone takes the second. --nu-t and --delta exclude each other,
# and the dimensionless chain values beat the SI inputs, so each option is
# varied on a base run that reads it.
_VALUES = {
    "--N": ("8", "12"), "--nu-t": ("2.5", "2.6"), "--delta": ("0.05", "0.1"),
    "--mass-kg": ("3.9e-26", "4.3e-26"), "--charge-c": ("1.6e-19", "1.7e-19"),
    "--spacing-m": ("1e-5", "1.1e-5"),
    "--transverse-frequency-rad-s": ("6e6", "6.5e6"),
    "--laser-wavenumber-per-m": ("2.2e7", "2.4e7"),
    "--eta-c": ("0.1", "0.2"), "--theta": ("0.5", "1"),
    "--temperature-k": ("1e-5", "2e-5"),
    "--nu-min": ("1.9", "1.95"), "--nu-max": ("2.1", "2.2"),
    "--points": ("7", "9"), "--t-min": ("0", "1"), "--t-max": ("30", "40"),
    "--samples": ("200", "300"), "--T-F": ("200", "300"),
    "--n-s": ("1024", "2048"), "--prominence": ("1e-4", "0.5"),
    "--delta-min": ("1e-3", "2e-3"), "--delta-max": ("1e-2", "2e-2"),
    "--which": ("4", "7")}
_SI_OPTIONS = [*_SI_FLAGS, "--temperature-k"]
_DIMENSIONLESS_OPTIONS = ["--nu-t", "--delta", "--eta-c", "--theta"]
# --config and --out write nothing of their own. PhysicalInput converts the
# five SI inputs as one set, so the mode tables take the laser wavenumber,
# which sets only eta_c, a value that no mode-table column reads.
_READ_BY_NO_TABLE = {
    "spectrum": {"--laser-wavenumber-per-m"},
    "zigzag": {"--laser-wavenumber-per-m"}}


def _csv_bytes(argv, out):
    assert run([*argv, "--out", str(out)]) == 0, argv
    return {p.name: p.read_bytes() for p in out.glob("*.csv")}


@pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
def test_no_option_does_nothing(command, tmp_path):
    flags = PINNED_FLAGS[command]
    written = {}
    for option in flags:
        if option in ("--config", "--out", *_READ_BY_NO_TABLE.get(command, ())):
            continue
        if option in _SI_OPTIONS:
            drop = _DIMENSIONLESS_OPTIONS
        elif option == "--delta":
            drop = ["--nu-t", *_SI_OPTIONS]
        else:
            drop = ["--delta", *_SI_OPTIONS]
        base = {f: _VALUES[f][0] for f in flags
                if f in _VALUES and f not in drop}
        base_argv = [command, *(a for pair in base.items() for a in pair)]
        if tuple(base_argv) not in written:
            written[tuple(base_argv)] = _csv_bytes(
                base_argv, tmp_path / str(len(written)))
        changed = [*base_argv, option, _VALUES[option][1]]
        assert _csv_bytes(changed, tmp_path / option) != \
            written[tuple(base_argv)], f"{command} {option} changes nothing"


# Each subcommand with its own valued options, some given and some left at
# their defaults; those whose default is None (resolved by the pipeline)
# are given, so the parsed value is what the manifest must hold.
_OWN_OPTIONS = [
    (["zigzag", "--N", "16", "--nu-t", "2.0", "--nu-min", "1.9",
      "--nu-max", "2.1", "--points", "3"], ["nu_min", "nu_max", "points"]),
    (["visibility", *_CHAIN, "--t-max", "30", "--samples", "400"],
     ["t_min", "t_max", "samples"]),
    (["fourier", *_CHAIN, "--T-F", "200", "--n-s", "1024"],
     ["T_F", "n_s", "prominence"]),
    (["gamma-scan", "--N", "16", "--eta-c", "0.05", "--points", "7"],
     ["delta_min", "delta_max", "points"]),
    (["asymptotics", "--N", "16", "--eta-c", "0.05", "--delta-min", "1e-3",
      "--points", "3"], ["delta_min", "delta_max", "points"]),
    (["longtime", *_CHAIN, "--t-max", "200", "--samples", "600"],
     ["t_max", "samples"]),
    (["figures", "--which", "4"], ["which"])]


@pytest.mark.parametrize("argv, own", _OWN_OPTIONS,
                         ids=[argv[0] for argv, _ in _OWN_OPTIONS])
def test_manifest_records_own_options(argv, own, tmp_path, capsys):
    ns = cli.build_parser().parse_args(argv)
    assert run([*argv, "--out", str(tmp_path)]) == 0
    grids = json.loads(
        (tmp_path / f"{argv[0]}_manifest.json").read_text())["grids"]
    for key in own:
        value = getattr(ns, key)
        assert grids[key] == value and type(grids[key]) is type(value), key
