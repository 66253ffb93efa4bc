import json
import platform
from importlib import metadata

import numpy as np
import pytest
import scipy

from dampedstring import greens, reporting
from dampedstring.cli import main
from dampedstring.reporting import (RunConfig, VerificationReport, fmt_float,
                                    parse_bc, run_environment, to_csv)


def _rowwise_csv(header, rows):
    """The row-by-row CSV formatting that `to_csv` replaced: a float cell by
    `fmt_float`, any other cell by str."""
    def cell(x):
        return fmt_float(x) if isinstance(x, (float, np.floating)) else str(x)
    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def test_columns_match_rowwise_formatting_byte_for_byte():
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                       2.2250738585072014e-308 / 3, 0.1, -1.5e300, 1.0 / 3])
    n = len(floats)
    columns = (
        np.arange(n),                                     # numpy ints
        list(range(-3, n - 3)),                           # Python ints
        np.array(["plus", "minus", "zero", "overdamped", "plus"] * 2),
        floats,
        floats[::-1].tolist(),                            # Python floats
        np.array([0.1, -0.0, 1e-45, np.nan, -np.inf, 3.4e38, 1.0 / 3, 7.0,
                  -2.5e-40, 1e-8], dtype=np.float32),
        (floats > 0).astype(int),
    )
    header = ("i", "k", "branch", "x", "y", "x32", "flag")
    text = to_csv(header, columns)
    assert text == _rowwise_csv(header, zip(*columns))
    assert text.encode() == _rowwise_csv(header, zip(*columns)).encode()
    assert "-0.0" in text and "nan" in text and "5e-324" in text
    assert "np." not in text


def test_repeated_values_match_rowwise_formatting_byte_for_byte():
    """Each distinct bit pattern is formatted once and repeated: the two
    zeros and the NaNs of three payloads, which compare equal or unordered
    as values, keep their own texts wherever they recur."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                     0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    pool = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 5e-324,
                            2.2250738585072014e-308 / 3, 0.1], nans])
    rng = np.random.default_rng(7)
    col = pool[rng.integers(0, len(pool), 500)]
    assert len(np.unique(col.view(np.uint64))) == len(pool)
    columns = (np.arange(len(col)), col, col[::-1].astype(np.float32))
    header = ("i", "x", "x32")
    text = to_csv(header, columns)
    assert text.encode() == _rowwise_csv(header, zip(*columns)).encode()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [r[1] for r in rows] == [repr(v) for v in col.tolist()]


@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "omega:0.5,0.3"])
def test_greens_kernel_csv_matches_rowwise_formatting(tmp_path, bc):
    """The Green's kernel CSV of the greens command, whose x and xp columns
    repeat each of 201 values 201 times, written row by row."""
    assert main(["greens", "--bc", bc, "--out", str(tmp_path)]) == 0
    xs = np.linspace(0.0, 1.0, 201)
    K = greens.greens_kernel(parse_bc(bc), xs[:, None], xs[None, :])
    columns = (np.repeat(xs, len(xs)), np.tile(xs, len(xs)), K.real.ravel(),
               K.imag.ravel())
    expected = _rowwise_csv(("x", "xp", "re_k", "im_k"), zip(*columns))
    assert (tmp_path / "greens_kernel.csv").read_bytes() == expected.encode()


def test_header_only_without_rows():
    assert to_csv(("a", "b"), (np.array([]), [])) == "a,b\n"


def test_columns_of_different_length_rejected():
    with pytest.raises(ValueError, match="length"):
        to_csv(("a", "b"), ([1.0, 2.0], [1.0]))


def test_report_status_rule():
    """A record passes when measured <= tolerance and fails otherwise, NaN
    included; no tolerance makes it report-only.  The report passes unless
    a record fails."""
    report = VerificationReport(RunConfig(n_grid=16))
    assert report.passed
    cases = [(1.0, 1.0, "pass"), (0.5, 1.0, "pass"), (1.5, 1.0, "fail"),
             (np.nan, 1.0, "fail"), (np.inf, 1.0, "fail"),
             (np.nan, None, "report-only"), (7.0, None, "report-only")]
    for k, (measured, tol, status) in enumerate(cases):
        assert report.add(f"c{k}", "anchor", measured, tol).status == status
    assert not report.passed
    only = VerificationReport(RunConfig(n_grid=16))
    only.add("a", "anchor", 0.5, 1.0)
    only.add("b", "anchor", 9.0, None)
    assert only.passed
    only.add("c", "anchor", 2.0, 1.0)
    assert not only.passed
    assert json.loads(only.to_json())["passed"] is False
    assert [line.split("]")[0] for line in only.summary_lines()] == [
        "[       PASS", "[REPORT-ONLY", "[       FAIL"]


def test_report_environment_names_the_software():
    report = VerificationReport(RunConfig(n_grid=16))
    report.add("check", "anchor", 0.5, 1.0)
    doc = json.loads(report.to_json())
    env = doc["environment"]
    assert list(env) == ["n_grid", "bc", "config_hash", "package_version",
                         "python", "numpy", "scipy", "blas", "threads"]
    assert (env["n_grid"], env["bc"]) == (16, "min")
    assert env["python"] == platform.python_version()
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    assert set(env["blas"]) == {"name", "version"}
    assert all(k.endswith("_NUM_THREADS") for k in env["threads"])
    assert doc["records"] == [{"name": "check", "paper_anchor": "anchor",
                               "status": "pass", "measured": "0.5",
                               "tolerance": "1.0"}]
    assert run_environment() is run_environment()   # computed once


def test_report_environment_without_installed_package(monkeypatch):
    def missing(name):
        raise metadata.PackageNotFoundError(name)
    monkeypatch.setattr(metadata, "version", missing)
    assert reporting.run_environment.__wrapped__()["package_version"] is None
