import json

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
    rho, alpha = cfg.coefficients()
    assert rho.sample(1.0) == pytest.approx(1.5)


def test_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n_grid": 32, "colour": "blue"}))
    with pytest.raises(ConfigError):
        RunConfig.from_json(cfg_path)


@pytest.mark.parametrize("text", ['{"seeds": []}', '{"fit_window": [0.1]}',
                                  '{"n_grid": "abc"}', '{"bc": 5}', '[1, 2]'])
def test_malformed_config_exits_two(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    assert run_cli("verify-all", "--config", str(cfg_path),
                   "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error")


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


def test_resolvent_check_command(tmp_path):
    assert run_cli("resolvent-check", "--n", "32", "--bc", "zero0",
                   "--out", str(tmp_path)) == 0


def test_susy_check_command(tmp_path):
    assert run_cli("susy-check", "--n", "16", "--bc", "min",
                   "--out", str(tmp_path)) == 0


def test_greens_command(tmp_path):
    assert run_cli("greens", "--n", "64", "--bc", "zero1",
                   "--out", str(tmp_path)) == 0
    assert (tmp_path / "greens_kernel.csv").exists()


def test_riesz_command(tmp_path):
    assert run_cli("riesz", "--n", "24", "--bc", "min",
                   "--out", str(tmp_path)) == 0
    csv = (tmp_path / "riesz_clusters.csv").read_text()
    assert csv.startswith("cluster_id,branch,member_count")


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
        # the slope fit needs the 40 branch modes of the default grid
        size = [] if cmd == "asymptotics" else ["--n", "32"]
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


def test_numerical_failure_exits_one(tmp_path):
    # 32 cells give fewer than the 40 branch modes the slope fit needs
    assert run_cli("asymptotics", "--n", "32", "--out", str(tmp_path)) == 1
