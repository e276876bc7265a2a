"""Command-line interface: CSV schemas, reference rows, exit codes."""

from __future__ import annotations

import csv
import io
import math
import os
import pathlib
import subprocess
import sys

import pytest

import reltoa
from reltoa.cli import main
from reltoa.classical import kappa_c

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestTable1:
    def test_reference_rows(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        first = rows[0]
        assert float(first["rc_integral (dimensionless)"]) == pytest.approx(1.32442, abs=1e-4)
        assert float(first["rc_series (dimensionless)"]) == pytest.approx(1.32442, abs=1e-4)
        assert float(first["rc_momentum (dimensionless)"]) == pytest.approx(1.32442, abs=1e-4)

    def test_blank_integral_cells(self, capsys):
        _, out = run_cli(capsys, "table1")
        rows = parse_csv(out)
        blanked = [r for r in rows if r["rc_integral (dimensionless)"] == "---"]
        assert {(r["k0 (1/length)"], r["v0 (energy)"]) for r in blanked} == {
            ("2.00", "0.5"),
            ("2.00", "0.6"),
        }
        for r in blanked:
            assert float(r["rc_series (dimensionless)"]) > 1.4

    def test_low_momentum_row(self, capsys):
        _, out = run_cli(capsys, "table1")
        rows = parse_csv(out)
        row = next(r for r in rows if r["k0 (1/length)"] == "0.25")
        assert float(row["rc_momentum (dimensionless)"]) == pytest.approx(0.31446, abs=1e-4)

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "table1")
        _, out2 = run_cli(capsys, "table1")
        assert out1 == out2


class TestTable2:
    def test_numerically_zero_rows(self, capsys):
        code, out = run_cli(capsys, "table2")
        assert code == 0
        rows = parse_csv(out)
        assert [r["k0 (1/length)"] for r in rows] == ["0.19", "0.25", "0.28"]
        for r in rows:
            assert abs(float(r["rc_momentum (dimensionless)"])) < 1e-20
            assert abs(float(r["rc_integral (dimensionless)"])) < 1e-10


class TestScan:
    def test_superluminal_region(self, capsys):
        code, out = run_cli(
            capsys,
            "scan", "--vo", "0.99", "--sigma", "6", "--ko-min", "0.1",
            "--ko-max", "6.0", "--steps", "60",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 60
        assert float(rows[0]["k0 (1/length)"]) == pytest.approx(0.1)
        boundary = kappa_c(0.99) - 1.0 / 12.0
        for r in rows:
            k0 = float(r["k0 (1/length)"])
            rc = float(r["rc_momentum (dimensionless)"])
            if k0 <= boundary:
                assert rc < 1.0
                assert r["classification"] == "superluminal"
        # rise toward an interior peak, then a slowly varying stretch
        vals = [float(r["rc_momentum (dimensionless)"]) for r in rows]
        peak = max(vals)
        ipeak = vals.index(peak)
        assert 0 < ipeak < len(vals) - 1
        assert all(b >= a - 1e-12 for a, b in zip(vals[:ipeak], vals[1 : ipeak + 1]))
        tail = vals[-10:]
        assert max(tail) - min(tail) < 0.15 * peak

    def test_step_validation(self, capsys):
        code, _ = run_cli(capsys, "scan", "--vo", "0.3", "--sigma", "6", "--steps", "1")
        assert code == 1


class TestDensity:
    def test_peak_and_symmetry(self, capsys):
        code, out = run_cli(
            capsys, "density", "--vo", "0.99", "--sigma", "4", "--ko", "1.3",
            "--grid", "401", "--k-min", "-0.7", "--k-max", "3.3",
        )
        assert code == 0
        rows = parse_csv(out)
        ks = [float(r["k (1/length)"]) for r in rows]
        dens = [float(r["density_plus (length)"]) for r in rows]
        ipeak = dens.index(max(dens))
        assert ks[ipeak] == pytest.approx(1.3, abs=0.02)
        for off in (10, 50, 150):
            assert dens[ipeak - off] == pytest.approx(dens[ipeak + off], rel=1e-6)

    def test_instantaneous_setup_mass_above_threshold(self, capsys):
        # sigma=4, k0=1.3, v0=0.99: essentially no weight above kappa_c
        kc = kappa_c(0.99)
        sigma, k0 = 4.0, 1.3
        mass_above = 0.5 * math.erfc(math.sqrt(2.0) * sigma * (kc - k0))
        assert mass_above < 1e-3
        code, out = run_cli(
            capsys, "density", "--vo", "0.99", "--sigma", "4", "--ko", "1.3",
        )
        rows = parse_csv(out)
        assert float(rows[0]["kappa_c (1/length)"]) == pytest.approx(kc, rel=1e-10)


class TestKernelDump:
    def test_zero_height_columns_match(self, capsys):
        code, out = run_cli(
            capsys, "kernel", "--vo", "1e-14", "--zeta-min", "0.5",
            "--zeta-max", "2.0", "--grid", "4",
        )
        assert code == 0
        for r in parse_csv(out):
            tf = float(r["t_free (dimensionless)"])
            assert float(r["t_barrier_minus (dimensionless)"]) == pytest.approx(tf, rel=1e-9)
            assert float(r["t_barrier_plus (dimensionless)"]) == pytest.approx(tf, rel=1e-9)

    def test_non_finite_arguments_exit_1(self, capsys):
        # rejected as bad input before any coefficient build or CSV row
        for argv, named in [
            (("kernel", "--vo", "nan"), "requires a finite v0, got nan"),
            (
                ("kernel", "--vo", "0.1", "--zeta-min", "nan", "--grid", "2"),
                "--zeta-min must be finite, got nan",
            ),
            (
                ("kernel", "--vo", "0.1", "--zeta-max", "inf", "--grid", "2"),
                "--zeta-max must be finite, got inf",
            ),
            (
                ("scan", "--vo", "0.3", "--sigma", "6", "--ko-max", "inf"),
                "--ko-max must be finite, got inf",
            ),
        ]:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 1, argv
            assert named in captured.err, (argv, captured.err)
            assert captured.out == "", argv


class TestPoint:
    def test_reference_configuration(self, capsys):
        code, out = run_cli(
            capsys, "point", "--vo", "0.2", "--sigma", "0.5", "--ko", "2.0",
            "--barrier-a", "-21.0", "--barrier-b", "-20.0",
        )
        assert code == 0
        rows = parse_csv(out)
        by_key = {(r["quantity"], r["method"]): r for r in rows}
        t_c = float(by_key[("t_c", "exact")]["value"])
        tau = float(by_key[("tau_trav", "momentum")]["value"])
        assert tau == pytest.approx(1.32442 * t_c, abs=2e-4 * t_c)
        assert by_key[("classification", "momentum")]["value"] == "subluminal"
        for method in ("momentum", "direct", "series"):
            assert float(by_key[("rc", method)]["value"]) == pytest.approx(
                1.32442, abs=1e-4
            )

    def test_supercritical_rejected(self, capsys):
        code, _ = run_cli(
            capsys, "point", "--vo", "1.5", "--sigma", "0.5", "--ko", "2.0",
        )
        assert code == 1


class TestLimits:
    def test_all_pass(self, capsys):
        code, out = run_cli(capsys, "limits")
        assert code == 0
        assert "FAIL" not in out
        assert "residue identity" in out
        assert "all checks passed" in out


class TestConfig:
    def test_config_file_and_tol(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# natural units\nmu = 1.0\nc = 1.0\nhbar = 1.0\nrel_tol = 1e-8\n")
        code, out = run_cli(capsys, "--config", str(cfg), "--tol", "1e-9", "table2")
        assert code == 0
        assert len(parse_csv(out)) == 3

    def test_bad_config_file(self, capsys, tmp_path):
        # (file text, extra argv, message naming the key); unknown keys and
        # non-finite numbers must not be accepted silently
        cases = [
            ("rel_tol: oops\n", (), "want key=value"),
            ("rel-tol = 1e-6\n", (), "unknown config key(s): rel-tol"),
            ("max_series_term = 50\n", (), "unknown config key(s): max_series_term"),
            ("rel_tol = inf\n", (), "rel_tol must be finite"),
            ("abs_tol = inf\n", (), "abs_tol must be finite"),
            ("mu = inf\n", (), "mu must be finite"),
            ("c = nan\n", (), "c must be finite"),
            ("# no keys\n", ("--tol", "inf"), "rel_tol must be finite"),
            ("max_subdivisions = 1e3\n", (), "max_subdivisions must be an integer, got '1e3'"),
            ("mu = abc\n", (), "mu must be a number, got 'abc'"),
        ]
        cfg = tmp_path / "bad.cfg"
        for text, argv, named in cases:
            cfg.write_text(text)
            code = main(["--config", str(cfg), *argv, "table2"])
            err = capsys.readouterr().err
            assert code == 1, text
            assert named in err, (text, err)

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t2.csv"
        code, _ = run_cli(capsys, "--out", str(out_path), "table2")
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 3


# Reference outputs in natural units: a refactor must reproduce them byte
# for byte.  A fresh interpreter per command gives the CLI's own
# coefficient-cache history, on which the residue-series digits depend.
GOLDEN = [
    (
        "scan_v0.99_sigma6_steps120.csv",
        ["scan", "--vo", "0.99", "--sigma", "6", "--ko-min", "0.1", "--ko-max", "6.0",
         "--steps", "120"],
    ),
    (
        "density_v0.99_sigma4_k1.3_grid400.csv",
        ["density", "--vo", "0.99", "--sigma", "4", "--ko", "1.3", "--grid", "400"],
    ),
    (
        "kernel_v0.1_zeta0.5-10_grid20.csv",
        ["kernel", "--vo", "0.1", "--zeta-min", "0.5", "--zeta-max", "10", "--grid", "20"],
    ),
    (
        "point_readme.csv",
        ["point", "--vo", "0.2", "--sigma", "0.5", "--ko", "2", "--barrier-a", "-21",
         "--barrier-b", "-20"],
    ),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_csv_bytes_match_reference(name, argv):
    src = str(pathlib.Path(reltoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "reltoa.cli", *argv],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out == (DATA / name).read_bytes()
