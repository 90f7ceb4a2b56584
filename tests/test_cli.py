import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmgfisher import cli
from lmgfisher.solver import ConvergenceError

HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(lines):
    return [l for l in lines[1:] if l and not l.startswith("#")]


def summary_lines(lines):
    return [l for l in lines if l.startswith("#")]


def row_fields(row):
    return dict(zip(HEADER.split(","), row.split(",")))


def test_header_and_field_sweep_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "40", "--gamma", "0.5",
        "--h-start", "0", "--h-stop", "2", "--h-step", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == HEADER
    rows = data_rows(lines)
    assert len(rows) == 5
    fields = row_fields(rows[0])
    assert fields["mode"] == "field-sweep"
    assert fields["N"] == "40"
    assert fields["h"] == "0"
    assert fields["phase"] == "broken"
    assert fields["status"] == "ok"
    critical = row_fields(rows[2])
    assert critical["phase"] == "critical"
    assert critical["tl_chi2"] == ""  # diverges at h = 1
    assert row_fields(rows[4])["phase"] == "symmetric"


def test_field_sweep_isotropic_relations(tmp_path):
    out = tmp_path / "iso_sweep.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "100", "--gamma", "1",
        "--h-start", "0.05", "--h-stop", "2.0", "--h-step", "0.15",
        "--out", str(out),
    ])
    assert code == 0
    for row in data_rows(read_lines(out)):
        fields = row_fields(row)
        chi2 = float(fields["chi2"])
        xi1 = float(fields["xi1_2"])
        if fields["phase"] == "broken":
            assert xi1 * chi2 == pytest.approx(1.0, rel=1e-10)
        elif fields["phase"] == "symmetric":
            assert chi2 == pytest.approx(1.0, abs=1e-10)
            assert xi1 == pytest.approx(1.0, abs=1e-10)


def test_field_sweep_matches_thermodynamic_limit(tmp_path):
    out = tmp_path / "tl.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "500", "--gamma", "0.5",
        "--h", "2.0", "--out", str(out),
    ])
    assert code == 0
    fields = row_fields(data_rows(read_lines(out))[0])
    assert float(fields["chi2"]) == pytest.approx(0.816497, rel=0.01)
    assert float(fields["tl_chi2"]) == pytest.approx(0.816497, rel=1e-6)


def test_determinism_byte_identical(tmp_path):
    args = ["--mode", "field-sweep", "--n", "30", "--n", "20", "--gamma", "0.25",
            "--h-start", "0", "--h-stop", "1.5", "--h-step", "0.25"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parallel_schedule_independence(tmp_path):
    args = ["--mode", "field-sweep", "--n", "24", "--n", "12", "--gamma", "0.5",
            "--h-start", "0", "--h-stop", "2", "--h-step", "0.4"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(parallel), "--jobs", "3"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_rows_ordered_by_n_then_h(tmp_path):
    out = tmp_path / "order.csv"
    assert cli.main([
        "--mode", "field-sweep", "--n", "30", "--n", "10", "--gamma", "0.0",
        "--h", "1.5", "--h", "0.5", "--out", str(out),
    ]) == 0
    keys = [(int(f["N"]), float(f["h"]))
            for f in map(row_fields, data_rows(read_lines(out)))]
    assert keys == sorted(keys)


def test_empty_h_is_usage_error(tmp_path):
    out = tmp_path / "never.csv"
    code = cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_bad_mode_and_missing_out_are_usage_errors(tmp_path):
    assert cli.main(["--mode", "bogus", "--n", "4", "--gamma", "0.5",
                     "--h", "1.0", "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["--mode", "field-sweep", "--n", "4", "--gamma", "0.5",
                     "--h", "1.0"]) == 1


@pytest.mark.parametrize("argv", [
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "nan"],
    ["--mode", "analytic-only", "--gamma", "0.5", "--h", "inf"],
    ["--mode", "field-sweep", "--gamma", "nan", "--h", "0.5"],
    ["--mode", "field-sweep", "--gamma", "inf", "--h", "0.5"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "inf", "--h-step", "0.1"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "1", "--h-step", "nan"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "1e308"],
    # h N is checked against the largest N: finite at N = 10, not at 1000
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "1e306", "--n", "1000"],
])
def test_non_finite_inputs_are_usage_errors(tmp_path, argv):
    out = tmp_path / "never.csv"
    assert cli.main([*argv, "--n", "10", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_is_usage_error_before_solving(tmp_path, monkeypatch, target):
    def never(params):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli.solver, "lmg_ground_state", never)
    out = tmp_path / target
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_csv_replaced_atomically(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    renames = []
    replace = os.replace

    def recording(src, dst):
        assert Path(src).read_text().startswith(HEADER)  # complete before the rename
        assert out.read_text() == "old\n"
        renames.append((Path(src), Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording)
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 0
    [(src, dst)] = renames
    assert src.parent == tmp_path and dst == out
    assert read_lines(out)[0] == HEADER
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_cli_import_leaves_scipy_unloaded():
    # The solver needs numpy only.  Importing scipy.linalg with
    # lmgfisher.cli took 0.46-0.56 s against 0.20-0.24 s without it, and
    # raised peak RSS from 30 MB to 56 MB (2-vCPU Xeon, Python 3.11.7,
    # numpy 2.4.6); every CLI process would pay that.  The process pool
    # is imported only for --jobs > 1: concurrent.futures and
    # multiprocessing cost 17-23 ms of the import on the same host.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, lmgfisher.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_size_scaling_summary(tmp_path):
    out = tmp_path / "scaling.csv"
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "0.5",
        "--n", "100", "--n", "200", "--n", "300", "--n", "400",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    rows = data_rows(lines)
    assert len(rows) == 4
    summary = summary_lines(lines)
    power = [l for l in summary if l.startswith("# power_law_fit")]
    linear = [l for l in summary if l.startswith("# linear_fit")]
    assert len(power) == 1 and len(linear) == 1
    exponent = float(dict(kv.split("=") for kv in power[0][2:].split(",")[1:])["exponent"])
    assert -1.05 <= exponent <= -0.95
    slope = float(dict(kv.split("=") for kv in linear[0][2:].split(",")[1:])["slope"])
    assert slope == pytest.approx(0.75, rel=0.02)  # 1/chi2 ~ (1-h^2)(N+2)


def test_size_scaling_requires_single_h(tmp_path):
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "0.5", "--h", "0.6",
        "--n", "50", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_size_scaling_symmetric_phase_flat(tmp_path):
    out = tmp_path / "flat.csv"
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "1.5",
        "--n", "100", "--n", "200", "--n", "300", "--n", "400",
        "--out", str(out),
    ])
    assert code == 0
    values = [float(row_fields(r)["chi2"]) for r in data_rows(read_lines(out))]
    assert (max(values) - min(values)) / min(values) < 0.01


def test_isotropic_mode(tmp_path):
    out = tmp_path / "iso.csv"
    code = cli.main([
        "--mode", "isotropic", "--n", "100",
        "--h-start", "0.02", "--h-stop", "1.3", "--h-step", "0.08",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    crossings = [l for l in summary_lines(lines) if l.startswith("# crossing")]
    assert crossings[0] == "# crossing,N=100,j=0,h=0.98999999999999999"
    assert len(crossings) == 50
    for row in data_rows(lines):
        fields = row_fields(row)
        assert fields["gamma"] == "1"
        # closed form in the tl columns agrees with the solved value
        assert float(fields["chi2"]) == pytest.approx(float(fields["tl_chi2"]), abs=1e-10)
        if float(fields["h"]) >= 1.0:
            assert float(fields["chi2"]) == pytest.approx(1.0, abs=1e-10)
    closed = [l for l in summary_lines(lines) if l.startswith("# closed_form")]
    assert len(closed) == len(data_rows(lines))
    first = dict(kv.split("=") for kv in closed[0][2:].split(",")[1:])
    assert first["N"] == "100"
    assert float(first["M0"]) == 1.0  # h = 0.02: round(49) flipped spins
    assert first["E"]  # energy field populated


def test_isotropic_mode_rejects_other_gamma(tmp_path):
    code = cli.main([
        "--mode", "isotropic", "--n", "20", "--gamma", "0.5",
        "--h", "0.5", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_analytic_only_mode(tmp_path):
    out = tmp_path / "analytic.csv"
    code = cli.main([
        "--mode", "analytic-only", "--n", "1000", "--gamma", "0.25",
        "--h", "0.5", "--h", "2.0", "--out", str(out),
    ])
    assert code == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert all(r["parity"] == "" and r["energy"] == "" and r["chi2"] == "" for r in rows)
    assert float(rows[0]["tl_xi1_2"]) == pytest.approx(1.0, rel=1e-12)  # h = sqrt(gamma)
    assert float(rows[1]["tl_chi2"]) == pytest.approx(math.sqrt(1.0 / 1.75), rel=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "mode=field-sweep\n"
        "n=10,20\n"
        "gamma=0.5\n"
        "h=0.5 1.5\n"
        "jobs=1\n"
    )
    out = tmp_path / "from_config.csv"
    code = cli.main(["--config", str(cfg), "--out", str(out), "--gamma", "0.25"])
    assert code == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert len(rows) == 4
    assert all(r["gamma"] == "0.25" for r in rows)  # flag overrides file
    # a flag's list replaces the file's list
    assert cli.main(["--config", str(cfg), "--out", str(out), "--n", "30"]) == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert [r["N"] for r in rows] == ["30", "30"]


@pytest.mark.parametrize("text", [
    "mode field-sweep\n",
    "mode=field-sweep\nn=10.6\ngamma=0.5\nh=0.5\n",  # N is parsed as by --n
    "mode=field-sweep\nn=10\ngamma=0.5\nh=0.5\njbos=2\n",  # unknown keys are not dropped
], ids=["no-equals", "non-integer-n", "unknown-key"])
def test_config_file_bad_line(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_convergence_failure_sets_status_and_exit_code(tmp_path, monkeypatch):
    def explode(params):
        raise ConvergenceError("forced failure", residual=1.0)

    monkeypatch.setattr(cli.solver, "lmg_ground_state", explode)
    out = tmp_path / "failed.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
        "--h", "0.5", "--out", str(out), "--jobs", "1",
    ])
    assert code == 2
    fields = row_fields(data_rows(read_lines(out))[0])
    assert fields["status"] == "convergence_error"
    assert fields["chi2"] == ""
    assert fields["tl_chi2"] != ""  # analytics still present


def test_float_formatting_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert cli.main([
        "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
        "--h-start", "0.1", "--h-stop", "0.3", "--h-step", "0.1",
        "--out", str(out),
    ]) == 0
    rows = data_rows(read_lines(out))
    hs = [row_fields(r)["h"] for r in rows]
    assert hs[0] == format(0.1, ".17g")
    assert hs[1] == format(0.1 + 0.1, ".17g")
    energies = [row_fields(r)["energy"] for r in rows]
    assert all(float(e) < 0 for e in energies)


def test_infinity_prints_as_inf(tmp_path):
    # gamma=1, h well below 1: ground state is a Dicke state with M0 = 0
    out = tmp_path / "inf.csv"
    assert cli.main([
        "--mode", "isotropic", "--n", "100", "--h", "0.0",
        "--out", str(out),
    ]) == 0
    fields = row_fields(data_rows(read_lines(out))[0])
    assert fields["xi2_2"] == "inf"
