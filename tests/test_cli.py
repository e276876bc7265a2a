"""Command-line interface: CSV schemas, reference rows, exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reltoa
from reltoa.cli import _grid, _safe_ior, fmt, main
from reltoa.classical import kappa_c
from reltoa.numerics import Estimate, QuadratureError

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
        # the direct integral is zero within its err on every row, so its
        # value prints as --- beside an err below 1e-10
        code, out = run_cli(capsys, "table2")
        assert code == 0
        rows = parse_csv(out)
        assert [r["k0 (1/length)"] for r in rows] == ["0.19", "0.25", "0.28"]
        for r in rows:
            assert abs(float(r["rc_momentum (dimensionless)"])) < 1e-20
            assert r["rc_integral (dimensionless)"] == "---"
            assert 0.0 < float(r["rc_integral_err (dimensionless)"]) < 1e-10


class TestSafeIor:
    @pytest.mark.parametrize("value, err, printed", [
        (1.0915e-15, 3.6e-15, "---"),
        (-2.3e-16, 6.0e-15, "---"),
        (5e-15, 5e-15, "---"),
        (0.0, 0.0, "---"),
        (1.32442070109, 2.4e-11, "1.32442070109e+00"),
        (-6e-15, 5e-15, "-6.00000000000e-15"),
    ])
    def test_value_within_its_err_of_zero_prints_unavailable(self, value, err, printed):
        # a cell whose |value| <= err prints --- as its value and keeps its err
        assert _safe_ior(lambda: Estimate(value, err)) == [printed, fmt(err)]

    def test_failed_cell_prints_unavailable_twice(self):
        def fail():
            raise QuadratureError("no")

        assert _safe_ior(fail) == ["---", "---"]


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

    @pytest.mark.parametrize("argv", [
        ["scan", "--vo", "0.3", "--sigma", "1e-300", "--steps", "2"],
        ["scan", "--vo", "0.3", "--sigma", "1e300", "--steps", "2"],
        ["scan", "--vo", "0.3", "--sigma", "1e-100", "--steps", "2"],
        ["point", "--vo", "0.3", "--sigma", "1e-300", "--ko", "1", "--qo=-1e302"],
    ])
    def test_extreme_sigma_exits_1_without_traceback(self, argv):
        # sigma^2 underflows or 8 sigma^2 overflows in natural units, or
        # sigma lies below the momentum route's 1e-76: a configuration
        # error that names sigma
        out = fresh_run(argv, check=False)
        err = out.stderr.decode()
        assert out.returncode == 1, err
        assert "Traceback" not in err and "sigma" in err, err

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

    def test_small_zeta_tabulates(self, capsys):
        # the kernel's 2/(pi zeta) regime: both factors near 2/(pi zeta)
        code, out = run_cli(
            capsys, "kernel", "--vo", "0.3", "--zeta-min", "1e-12",
            "--zeta-max", "1e-10", "--grid", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        for r in rows:
            zeta = float(r["zeta (length)"])
            for column in ("t_free", "t_barrier_minus", "t_barrier_plus"):
                value = float(r[f"{column} (dimensionless)"])
                assert value == pytest.approx(2.0 / (math.pi * zeta), rel=1e-9), column

    def test_non_finite_arguments_exit_1(self, capsys):
        # rejected as bad input before any kernel evaluation or CSV row
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


class TestGrid:
    def test_overflowing_span_exit_1(self, capsys):
        # finite bounds whose difference overflows are named, not turned
        # into NaN points
        for argv in [
            ("scan", "--vo", "0.3", "--sigma", "6", "--ko-min=-1e308", "--ko-max=1e308",
             "--steps", "3"),
            ("kernel", "--vo", "0.1", "--zeta-min=-1.7e308", "--zeta-max=1.7e308",
             "--grid", "2"),
        ]:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 1, argv
            lo_flag, hi_flag = (arg.split("=")[0] for arg in argv if "e308" in arg)
            assert f"{lo_flag} " in captured.err and f"{hi_flag} " in captured.err, captured.err
            assert "span more than the largest float" in captured.err, captured.err
            assert captured.out == "", argv

    # spans that overflow a float are left out: numpy warns on them
    bounds = st.floats(-1e300, 1e300)

    @given(lo=bounds, hi=bounds, count=st.integers(2, 500), same=st.booleans())
    @example(lo=1.0, hi=1.0, count=2, same=False)
    @example(lo=3.0, hi=-2.5, count=7, same=False)
    @example(lo=0.0, hi=1e-321, count=499, same=False)
    def test_points_match_linspace_bits(self, lo, hi, count, same):
        if same:
            hi = lo
        points = _grid("scan", "steps", count, "--ko-min", lo, "--ko-max", hi)
        assert [x.hex() for x in points] == [
            float(x).hex() for x in np.linspace(lo, hi, count)
        ]


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

    def test_failed_transform_cells_print_unavailable(self, capsys, monkeypatch):
        # at k0 and kappa_c both far below 1/sigma the direct rows answer,
        # rc,direct within the summed errs of rc,momentum.  Where the sine
        # transform raises, the direct rows print --- and the other rows
        # still print
        argv = ("point", "--vo", "1e-12", "--sigma", "0.5", "--ko", "1e-6",
                "--barrier-a", "-21", "--barrier-b", "-20")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        by_key = {(r["quantity"], r["method"]): r for r in parse_csv(out)}
        direct, momentum = by_key[("rc", "direct")], by_key[("rc", "momentum")]
        gap = abs(float(direct["value"]) - float(momentum["value"]))
        assert gap <= float(direct["err"]) + float(momentum["err"])

        def fail(*args):
            raise reltoa.QuadratureError("sine transform failed")

        monkeypatch.setattr(reltoa.ior, "sine_transform_decaying", fail)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        by_key = {(r["quantity"], r["method"]): r for r in parse_csv(out)}
        for key in (("rc", "direct"), ("toa_difference", "direct")):
            assert (by_key[key]["value"], by_key[key]["err"]) == ("---", "---")
        assert by_key[("rc", "momentum")]["value"] == "1.35453080663e-06"

    def test_time_and_label_rows_print_the_library_outputs(self, capsys):
        # the tau rows are traversal_time's Estimates and the classification
        # row superluminal_classify's label and margin, each through fmt
        code, out = run_cli(
            capsys, "point", "--vo", "0.2", "--sigma", "0.5", "--ko", "2.0",
            "--barrier-a", "-21.0", "--barrier-b", "-20.0",
        )
        assert code == 0
        by_key = {(r["quantity"], r["method"]): r for r in parse_csv(out)}
        packet = reltoa.GaussianPacket(q0=-31.0, sigma=0.5, k0=2.0)
        taus = reltoa.traversal_time(packet, reltoa.BarrierSpec(v0=0.2, a=-21.0, b=-20.0))
        for name, tau in zip(("tau_trav", "tau_plus", "tau_minus"), taus):
            row = by_key[(name, "momentum")]
            assert (row["value"], row["err"]) == (fmt(tau.value), fmt(tau.err)), name
        label, margin = reltoa.superluminal_classify(packet, 0.2)
        row = by_key[("classification", "momentum")]
        assert (row["value"], row["err"]) == (label.value, fmt(margin))

    def test_leakage_warning_prints_once(self):
        # traversal_time and toa_difference both check the packet's support,
        # from one source line, so the default filter shows it once
        argv = ["point", "--vo", "0.2", "--sigma", "0.5", "--ko", "2", "--qo", "-22",
                "--barrier-a", "-21", "--barrier-b", "-20"]
        err = fresh_run(argv).stderr.decode()
        assert err.count("UserWarning: packet tail closer than 5 sigma") == 1, err

    @pytest.mark.parametrize("ko", ["1e-100", "1e-300"])
    def test_tiny_k0_answers_every_row(self, capsys, ko):
        # the momentum route's strip width and the series route's switch
        # points stay finite down to k0 = 1e-300
        code, out = run_cli(capsys, "point", "--vo", "0.3", "--sigma", "0.5", "--ko", ko)
        assert code == 0
        assert len(parse_csv(out)) == 13


class TestLimits:
    def test_all_pass(self, capsys):
        code, out = run_cli(capsys, "limits")
        assert code == 0
        assert "FAIL" not in out
        assert "residue identity" in out
        assert "all checks passed" in out

    @pytest.mark.parametrize("mu, c, hbar", [
        (2.0, 3.0, 0.5),
        (0.5, 1.2, 1.0),
        (3.7, 0.21, 17.0),
        (1e-3, 300.0, 1e-2),
        (9.1093837015e-31, 299792458.0, 1.054571817e-34),  # the electron, in SI
    ])
    def test_passes_in_every_unit_system(self, capsys, tmp_path, mu, c, hbar):
        # each row is stated in natural units and scaled to the configured
        # ones, so every row holds whatever mu, c and hbar are.  `point` at
        # the README's cell, scaled to the same units, answers too: the
        # routes run in natural units inside
        cfg = tmp_path / "units.cfg"
        cfg.write_text(f"mu = {mu!r}\nc = {c!r}\nhbar = {hbar!r}\n")
        code, out = run_cli(capsys, "--config", str(cfg), "limits")
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out
        length = hbar / (mu * c)
        code, out = run_cli(
            capsys, "--config", str(cfg), "point", "--vo", repr(0.2 * mu * c * c),
            "--sigma", repr(0.5 * length), "--ko", repr(2.0 / length),
            f"--barrier-a={-21.0 * length!r}", f"--barrier-b={-20.0 * length!r}",
        )
        assert code == 0
        assert len(parse_csv(out)) == 13


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
            ("max_series_terms = 600\n", (), "unknown config key(s): max_series_terms"),
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

    def test_abs_tol_from_4000_on_is_a_configuration_error(self, capsys, tmp_path):
        # the direct route's window needs 1e-3 abs_tol below 4 Phi <= 4
        cfg = tmp_path / "loose.cfg"
        for abs_tol, code in (("3999", 0), ("4000", 1), ("1e6", 1)):
            cfg.write_text(f"abs_tol = {abs_tol}\n")
            assert main(["--config", str(cfg), "table1"]) == code, abs_tol
            err = capsys.readouterr().err
            assert ("abs_tol must be below 4000" in err) == bool(code), (abs_tol, err)

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t2.csv"
        code, _ = run_cli(capsys, "--out", str(out_path), "table2")
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 3


def fresh_run(argv: list[str], check: bool = True) -> subprocess.CompletedProcess:
    """`python -m reltoa.cli argv` in a new interpreter, run from the
    repository root, against which the commands' paths resolve."""
    src = str(pathlib.Path(reltoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "reltoa.cli", *argv],
        capture_output=True, check=check, env={**os.environ, "PYTHONPATH": path},
        cwd=DATA.parent.parent,
    )


def fresh_stdout(argv: list[str]) -> bytes:
    """The stdout of fresh_run(argv)."""
    return fresh_run(argv).stdout


# Reference outputs, which a refactor must reproduce byte for byte: each
# command maps to its golden CSV in tests/data or to the sha256 of its
# stdout.  All run in natural units but one `point`, which runs under
# tests/data/si_electron.cfg.  scripts/cli_digests.py checks the same list.
# Each command runs in a fresh interpreter, as the CLI does.
REFERENCES = json.loads((DATA / "cli_digests.json").read_text())
GOLDEN = {pin: command for command, pin in REFERENCES.items() if pin.endswith(".csv")}
DIGESTS = {command: pin for command, pin in REFERENCES.items() if not pin.endswith(".csv")}


@pytest.mark.parametrize("name", GOLDEN)
def test_csv_bytes_match_reference(name):
    assert fresh_stdout(GOLDEN[name].split()) == (DATA / name).read_bytes()


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest_matches_pin(command):
    out = fresh_stdout(command.split())
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command]


def test_every_command_runs_without_numpy_or_mpmath():
    # both are test-only dependencies: with their imports blocked, each
    # subcommand still runs and exits 0
    commands = [
        "table1",
        "table2",
        "scan --vo 0.3 --sigma 6 --steps 3",
        "density --vo 0.3 --sigma 4 --ko 1.3 --grid 3",
        "kernel --vo 0.3 --grid 3",
        "limits",
        "point --vo 0.2 --sigma 0.5 --ko 2",
    ]
    probe = (
        "import json, sys\n"
        "sys.modules['numpy'] = sys.modules['mpmath'] = None\n"
        "from reltoa.cli import main\n"
        f"codes = {{c: main(c.split()) for c in {commands!r}}}\n"
        "print(json.dumps(codes))\n"
    )
    src = str(pathlib.Path(reltoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, check=True, text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {c: 0 for c in commands}


def test_import_leaves_numpy_unloaded():
    # no module of the package imports numpy; it is a test-only dependency
    src = str(pathlib.Path(reltoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, reltoa, reltoa.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, check=True, text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "False"


def test_import_leaves_mpmath_unloaded():
    # no module of the package imports mpmath; it is a test-only dependency
    src = str(pathlib.Path(reltoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, reltoa, reltoa.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, check=True, text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "False"
