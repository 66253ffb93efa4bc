"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every named metric is emitted for every workload, in both
the untraced and the traced mode, and that a failing check injected here
(never in the library) shows up in ``fail_frac`` and the exit code.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

wl_mod = run.load_workloads()

# small enough for seconds per workload, large enough that every check
# passes (the banded fit needs 40 branch modes and 1e-3 closed-form accuracy)
TINY_SIZES = {
    "dense_variable": (12,),
    "banded_const": (256,),
    "riesz_small": (12, 16),
    "cli_commands": (16,),
}

END_TO_END = {"setup_s", "run_ref", "cfg_p50_ref", "cfg_max_ref", "run_s",
              "cfg_p50_s", "cfg_max_s", "peak_rss_mb", "fail_frac"}
PER_LAYER = {
    "discretization.build_s", "discretization.tol_zero_s",
    "discretization.dense_mb",
    "spectral.eigen_dirac_s", "spectral.eigen_generator_s",
    "spectral.multiset_s", "spectral.constant_damping_s",
    "traces.ledger_s", "traces.resolvent_trace_s",
    "susy.block_resolvent_s", "susy.isospectral_s",
    "riesz.cluster_s", "riesz.resolution_s", "riesz.clusters",
    "riesz.max_cluster_size",
    "cli.spectrum_s", "cli.greens_s", "cli.trace_s", "cli.resolvent-check_s",
    "cli.susy-check_s", "cli.asymptotics_s", "cli.riesz_s",
    "cli.verify-all_s", "reporting.artifact_bytes", "bench.check_s",
    "bench.trace_overhead_s",
}
LAYERS = {"discretization", "spectral", "traces", "susy", "riesz", "cli",
          "bench"}
ENV_KEYS = {"nproc", "python", "numpy", "scipy", "blas", "threads",
            "git_commit", "seed"}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    for name, sizes in TINY_SIZES.items():
        monkeypatch.setitem(wl_mod.WORKLOADS, name,
                            replace(wl_mod.WORKLOADS[name], sizes=sizes))
    return tmp_path


def bench(capsys, results, workload, trace, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    path = results / f"{workload}_seed{seed}_trace{trace}.json"
    return code, json.loads(last), json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_SIZES))
def test_every_named_metric_is_emitted(tiny, capsys, workload, trace):
    code, line, result = bench(capsys, tiny, workload, trace)
    assert code == 0, result["failures"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    spec = run.benchmark_spec()
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == listed
    named = PER_LAYER if trace else END_TO_END
    assert named <= set(result["metrics"])
    assert ENV_KEYS <= set(result["environment"])
    assert result["verified"], "no per-config verified quantities recorded"
    if trace:
        assert set(result["layers"]["self_s"]) <= LAYERS
        assert result["spans"]
        assert {"name", "start", "end", "parent", "config"} <= set(
            result["spans"][0])
    else:
        assert result["metrics"]["fail_frac"] == 0.0


def test_injected_failing_check_raises_fail_frac(tiny, capsys, monkeypatch):
    monkeypatch.setattr(wl_mod, "SLOPE_TOL", -1.0)
    code, line, result = bench(capsys, tiny, "banded_const", 0)
    assert code == 1 and not line["correct"]
    assert line["failed"] > 0
    assert 0.0 < result["metrics"]["fail_frac"] < 1.0


def test_injected_exception_fails_every_check_of_its_config(tiny, capsys,
                                                           monkeypatch):
    wl = wl_mod.WORKLOADS["riesz_small"]

    def raising(cfg, tracer, out, workdir):
        if cfg.cid != "warmup":
            raise FloatingPointError("injected")
        wl.run(cfg, tracer, out, workdir)

    monkeypatch.setitem(wl_mod.WORKLOADS, "riesz_small",
                        replace(wl, run=raising))
    code, line, result = bench(capsys, tiny, "riesz_small", 0)
    assert code == 1
    assert line["failed"] == line["attempted"]
    assert result["metrics"]["fail_frac"] == 1.0
    assert "injected" in result["failures"][0]["error"]
