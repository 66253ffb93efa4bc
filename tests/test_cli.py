import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dampedstring as ds
from dampedstring import cli
from dampedstring.cli import main
from dampedstring.reporting import ConfigError, RunConfig, parse_bc


def run_cli(*argv):
    return main(list(argv))


def test_parse_bc_variants():
    assert parse_bc("min").tag == "min"
    assert parse_bc("zero0").tag == "zero0"
    assert parse_bc("omega:0.5,-0.25").omega == 0.5 - 0.25j
    with pytest.raises(ConfigError):
        parse_bc("dirichlet")
    with pytest.raises(ConfigError):
        parse_bc("omega:a,b")


@pytest.mark.parametrize("bc", ["omega:nan,0", "omega:inf,0", "omega:0,-inf"])
def test_non_finite_omega_exits_two(tmp_path, capsys, bc):
    """A non-finite omega is a configuration error, not a failed
    eigensolve."""
    assert run_cli("spectrum", "--n", "32", "--bc", bc,
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "omega" in err
    assert not (tmp_path / "report.json").exists()


def test_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_grid": 48, "bc": "zero1", "rho": "poly 1 0.5",
        "alpha": "const 0.3", "seeds": [7], "fit_window": [0.1, 0.2],
    }))
    cfg = RunConfig.from_json(cfg_path)
    assert cfg.n_grid == 48
    assert cfg.bc.tag == "zero1"
    assert cfg.seeds == (7,)
    assert cfg.rho.sample(1.0) == pytest.approx(1.5)


def test_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n_grid": 32, "colour": "blue"}))
    with pytest.raises(ConfigError):
        RunConfig.from_json(cfg_path)


@pytest.mark.parametrize("text", ['{"seeds": []}', '{"fit_window": [0.1]}',
                                  '{"n_grid": "abc"}', '{"bc": 5}', '[1, 2]',
                                  '{"n_grid": 40.9}', '{"seeds": [1.7]}',
                                  '{"zeta": true}', '{"zeta": NaN}',
                                  '{"zeta": Infinity}', '{"seeds": [-1]}',
                                  '{"speed": "const 2"}',
                                  '{"bc": "omega:0,nan"}',
                                  '{"rho": "wavelet 1 2"}',
                                  '{"alpha": "poly"}'])
def test_malformed_config_exits_two(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    assert run_cli("verify-all", "--config", str(cfg_path),
                   "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("key, value", [
    ("n_grid", 40.9), ("n_max", True), ("seeds", [1.7]), ("seeds", [False]),
    ("zeta", True), ("fit_window", [0.1, True]), ("zeta", float("nan")),
    ("zeta", float("-inf")), ("seeds", [3, -1])])
def test_config_numbers_are_not_coerced(tmp_path, key, value):
    """A fractional integer or a boolean number is an error naming its key,
    not truncated to an int or read as 0 or 1."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=repr(key)):
        RunConfig.from_json(cfg_path)


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    """--seed goes through the same check as the config key: a negative
    seed is a configuration error naming 'seeds', not a failed check."""
    assert run_cli("verify-all", "--seed", "-1", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'seeds'" in err
    assert not (tmp_path / "report.json").exists()


def test_config_accepts_integral_floats(tmp_path):
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text(json.dumps({"n_grid": 40.0, "seeds": [3.0],
                                    "zeta": 1}))
    cfg = RunConfig.from_json(cfg_path)
    assert (cfg.n_grid, cfg.seeds, cfg.zeta) == (40, (3,), 1.0)


def test_usage_error_exit_code():
    assert run_cli("spectrum", "--bc", "nonsense") == 2


def test_spectrum_command_writes_csv(tmp_path):
    code = run_cli("spectrum", "--n", "32", "--bc", "min",
                   "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    # rows = all eigenvalues of D+B: nodes + cells = (n-1) + n
    assert len(lines) - 1 == 63
    flags = [line.split(",")[4] for line in lines[1:]]
    assert flags.count("1") == 1
    assert (tmp_path / "eigenvalue_scatter.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_spectrum_csvs_share_branch_labels(tmp_path):
    assert run_cli("spectrum", "--n", "32", "--bc", "omega:0,1",
                   "--out", str(tmp_path)) == 0
    full = (tmp_path / "spectrum.csv").read_text().strip().split("\n")[1:]
    scatter = (tmp_path / "eigenvalue_scatter.csv").read_text().strip().split("\n")[1:]
    assert len(full) == len(scatter)
    assert ([line.split(",")[5] for line in full]
            == [line.split(",")[2] for line in scatter])


def test_spectrum_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("spectrum", "--n", "24", "--bc", "zero0", "--out", str(out1),
            "--seed", "5")
    run_cli("spectrum", "--n", "24", "--bc", "zero0", "--out", str(out2),
            "--seed", "5")
    assert ((out1 / "spectrum.csv").read_bytes()
            == (out2 / "spectrum.csv").read_bytes())


def test_trace_command_ledger(tmp_path):
    code = run_cli("trace", "--n", "64", "--bc", "min", "--out", str(tmp_path))
    assert code == 0
    ledger = json.loads((tmp_path / "trace_ledger.json").read_text())
    assert ledger["bc"] == "min"
    # defaults are rho = alpha = 1, for which t0 approaches 1/6
    assert float(ledger["t"][0]) == pytest.approx(1.0 / 6.0, abs=1e-3)
    assert float(ledger["continuum"]["t0_analytic"]) == pytest.approx(1 / 6)


@pytest.mark.parametrize("bc", ["max", "omega:1,0"])
def test_trace_command_on_kernel_families(tmp_path, bc):
    """ker T leaves the Neumann path without K: the ledger is written and
    the second path is reported unavailable."""
    assert run_cli("trace", "--n", "32", "--bc", bc,
                   "--out", str(tmp_path)) == 0
    ledger = json.loads((tmp_path / "trace_ledger.json").read_text())
    assert ledger["continuum"]["t0_analytic"] is None
    report = json.loads((tmp_path / "report.json").read_text())
    records = {r["name"]: r for r in report["records"]}
    assert records["trace.neumann_available"]["status"] == "report-only"
    assert "trace.t2_two_paths" not in records


def test_spectrum_on_an_odd_constant_ring(tmp_path):
    """rho = alpha = 1 on omega = i at an odd size, where the bare cut
    chain shares simple eigenvalues with the ring: exit 0, every record
    passing."""
    assert run_cli("spectrum", "--n", "33", "--bc", "omega:0,1",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] and report["records"]
    assert all(r["status"] == "pass" for r in report["records"])


def test_resolvent_check_command(tmp_path):
    assert run_cli("resolvent-check", "--n", "32", "--bc", "zero0",
                   "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("argv", [
    ("resolvent-check", "--n", "32"),
    ("resolvent-check", "--n", "32", "--bc", "omega:0,1"),
    ("verify-all",),
    ("spectrum", "--n", "32"),
    ("greens", "--n", "32"),
    ("trace", "--n", "32"),
    ("susy-check", "--n", "32"),
    ("asymptotics",),
    ("riesz", "--n", "32")])
def test_checks_form_no_dense_dirac_operator(tmp_path, monkeypatch, argv):
    """Every command runs on the bands and the sparse frame operators: it
    passes with the dense T, Tstar, D, B and G forbidden, and with the dense
    Dirac frame forbidden but in riesz, whose eig takes it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator formed")

    if argv[0] != "riesz":
        monkeypatch.setattr(ds.DiscreteOperatorSet, "dirac_frame", forbidden)
    for name in ("T", "Tstar", "D", "B", "G"):
        monkeypatch.setattr(ds.DiscreteOperatorSet, name, property(forbidden))
    assert run_cli(*argv, "--out", str(tmp_path)) == 0


def test_susy_check_command(tmp_path):
    assert run_cli("susy-check", "--n", "16", "--bc", "min",
                   "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("command", ["greens", "trace", "riesz"])
def test_commands_run_on_tolerated_partition_gap(tmp_path, command):
    """Coefficients whose pieces leave a gap within the partition tolerance
    are integrated with the pieces they are sampled from, so the commands
    that integrate rho (riesz) or alpha (greens, trace) run on them."""
    gapped = "piece 0 0.5: const 1; piece 0.5000000000001 1: const 2"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho": gapped, "alpha": gapped}))
    assert run_cli(command, "--n", "32", "--config", str(cfg_path),
                   "--out", str(tmp_path)) == 0


def test_greens_command(tmp_path):
    assert run_cli("greens", "--n", "64", "--bc", "zero1",
                   "--out", str(tmp_path)) == 0
    assert (tmp_path / "greens_kernel.csv").exists()


def test_greens_command_without_kernel(tmp_path):
    """max has no Green's kernel at z = 0: the command says so with
    kernel_available = 0 and writes no kernel."""
    assert run_cli("greens", "--n", "32", "--bc", "max",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    (record,) = report["records"]
    assert record["name"] == "greens.kernel_available"
    assert (record["measured"], record["status"]) == ("0.0", "report-only")
    assert not (tmp_path / "greens_kernel.csv").exists()


def test_riesz_command(tmp_path):
    assert run_cli("riesz", "--n", "24", "--bc", "min",
                   "--out", str(tmp_path)) == 0
    csv = (tmp_path / "riesz_clusters.csv").read_text()
    assert csv.startswith("cluster_id,branch,member_count")


@pytest.mark.parametrize("bc, samples", [("omega:0.5,0.3", False),
                                         ("min", True)])
def test_riesz_quadrature_record_needs_a_sample(tmp_path, bc, samples):
    """Every cluster of omega:0.5,0.3 at n = 32 is a rectangle, so the
    Riesz oracle samples none and its record is report-only; a family with
    a sampled cluster keeps the gate."""
    assert run_cli("riesz", "--n", "32", "--bc", bc,
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    (record,) = [r for r in report["records"]
                 if r["name"] == "riesz.quadrature_deviation"]
    if samples:
        assert (record["status"], record["tolerance"]) == ("pass", "1e-08")
    else:
        assert (record["status"], record["tolerance"]) == ("report-only", None)


def test_verify_all_passes(tmp_path):
    code = run_cli("verify-all", "--out", str(tmp_path), "--seed", "11")
    assert code == 0
    report = json.loads((tmp_path / "verify_all.json").read_text())
    assert report["passed"]
    assert len(report["records"]) >= 20
    for record in report["records"]:
        assert record["status"] in ("pass", "report-only")
        assert record["paper_anchor"]
        assert np.isfinite(float(record["measured"]))
    assert ((tmp_path / "verify_all.json").read_bytes()
            == (tmp_path / "report.json").read_bytes())


def test_verify_all_rejects_bc_flag(tmp_path, capsys):
    """verify-all runs fixed families, so an explicit --bc is a usage
    error naming them, not an option silently ignored."""
    assert run_cli("verify-all", "--bc", "max", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "--bc" in err
    for bc in cli.VERIFY_ALL_BCS:
        assert bc in err
    assert not (tmp_path / "report.json").exists()


def test_verify_all_rejects_n_flag(tmp_path, capsys):
    """verify-all runs fixed grid sizes, so an explicit --n is a usage error
    naming them, not an option silently ignored."""
    assert run_cli("verify-all", "--n", "64", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "--n" in err
    for n in (cli.VERIFY_ALL_N, cli.VERIFY_ALL_ANCHOR_N):
        assert f"n = {n}" in err
    assert not (tmp_path / "report.json").exists()


def test_verify_all_accepts_config_bc(tmp_path):
    """A config file's bc and n_grid serve the other commands; verify-all
    accepts them and runs its fixed families."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bc": "max", "n_grid": 48,
                                    "seeds": [11]}))
    assert run_cli("verify-all", "--config", str(cfg_path),
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "verify_all.json").read_text())
    names = [r["name"] for r in report["records"]]
    assert any(name.endswith(".quasi") for name in names)
    assert not any(name.endswith(".max") for name in names)


def _number(cell):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def test_every_csv_cell_is_a_number_or_label(tmp_path):
    commands = ["spectrum", "greens", "trace", "resolvent-check",
                "susy-check", "asymptotics", "riesz", "verify-all"]
    written = set()
    for cmd in commands:
        out = tmp_path / cmd
        # the slope fit needs the 40 branch modes of the default grid, and
        # verify-all runs its own fixed grids
        size = [] if cmd in ("asymptotics", "verify-all") else ["--n", "32"]
        assert run_cli(cmd, *size, "--out", str(out)) == 0
        for path in out.glob("*.csv"):
            written.add(path.name)
            header, *rows = path.read_text().splitlines()
            names = header.split(",")
            for row in rows:
                for name, cell in zip(names, row.split(","), strict=True):
                    if name != "branch":
                        _number(cell)
    assert written == {"spectrum.csv", "eigenvalue_scatter.csv",
                       "greens_kernel.csv", "slope_fit.csv",
                       "riesz_clusters.csv"}


def test_programming_error_propagates(monkeypatch):
    def broken(cfg, report):
        raise TypeError("not a numerical failure")
    monkeypatch.setitem(cli._DISPATCH, "spectrum", broken)
    with pytest.raises(TypeError):
        run_cli("spectrum", "--n", "16")


def test_coefficient_error_inside_a_command_propagates(monkeypatch,
                                                      tmp_path):
    """CoefficientError subclasses ValueError, but one raised after the
    config parsed is a programming error, not a failed check (exit 1); a
    malformed spec in the config stays a config error (exit 2)."""
    def broken(cfg, report):
        raise ds.CoefficientError("not a numerical failure")
    monkeypatch.setitem(cli._DISPATCH, "spectrum", broken)
    with pytest.raises(ds.CoefficientError):
        run_cli("spectrum", "--n", "16", "--out", str(tmp_path))
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"rho": "wavelet 1 2"}))
    assert run_cli("spectrum", "--n", "16", "--config", str(config),
                   "--out", str(tmp_path)) == 2


def test_numerical_failure_exits_one(tmp_path):
    # 32 cells give fewer than the 40 branch modes the slope fit needs
    assert run_cli("asymptotics", "--n", "32", "--out", str(tmp_path)) == 1


def test_commands_never_import_scipy_optimize(tmp_path):
    """Importing the package, and the commands that compare spectra, leave
    scipy.optimize (about 0.2 s and 17 MB per process) unimported."""
    code = textwrap.dedent(f"""
        import sys
        from dampedstring import cli

        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[:2] == ["scipy", "optimize"])

        assert not loaded(), ("import dampedstring", loaded())
        for argv in (["verify-all"], ["susy-check", "--n", "32"],
                     ["spectrum", "--n", "32"]):
            out = {str(tmp_path)!r} + "/" + argv[0]
            assert cli.main([*argv, "--out", out]) == 0, argv
            assert not loaded(), (argv, loaded())
    """)
    src = str(Path(ds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
