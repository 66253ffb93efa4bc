"""Seeded inputs and verified pipelines for the benchmark workloads.

Every input is drawn here from ``numpy.random.default_rng(seed)``: the
library's own ``random_coefficients`` is never used, so a library change
cannot silently change what a workload runs.  Each config runs one closed
loop through the library's public functions and then checks the results
with the tolerances the CLI and the acceptance criteria use.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import dampedstring as ds
from dampedstring import cli, riesz, spectral, susy, traces

ZETA = 0.1                  # CLI default resolvent point
SLOPE_TOL = 0.02            # criterion 09
CLOSED_FORM_TOL = 1e-3      # criterion 05 (relative error, ten lowest modes)
CLOSED_FORM_MODES = 10
# ker D for rho = 1 and constant damping, as in criterion 12's census
ZERO_MODES = {"min": 1, "omega:0,1": 0}


@dataclass(frozen=True)
class Config:
    """One unit of closed-loop work: inputs plus the pipeline to run."""

    cid: str
    n: int
    bc: str
    n_checks: int                       # checks the pipeline makes
    rho: ds.CoefficientSpec | None = None
    alpha: ds.CoefficientSpec | None = None
    command: str | None = None          # cli_commands only
    config_text: str | None = None      # cli_commands only: the JSON config
    cli_n: int | None = None            # cli_commands only: --n override


@dataclass
class Outcome:
    """What one config produced: checks, verified quantities and counts."""

    checks: list = field(default_factory=list)
    quantities: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def check(self, name: str, measured, tol: float) -> None:
        """Record a hard check that passes when ``measured <= tol``."""
        measured = float(measured)
        self.checks.append({"name": name, "measured": measured,
                            "tol": float(tol), "passed": bool(measured <= tol)})
        self.quantities[name] = measured


# --- input generation -------------------------------------------------------

def piecewise(rng: np.random.Generator, lo: float, hi: float, kind: str,
              sign_changing: bool = False,
              fixed_layout: bool = False) -> ds.CoefficientSpec:
    """2-4 linear pieces whose magnitude stays inside [lo, hi].

    Each piece is c0 + c1 (x - a) with |c1| (b - a) <= 0.1 (hi - lo) / 2, so
    a density drawn with hi/lo = 3.5 has contrast at most 4.  With
    ``sign_changing`` the pieces alternate in sign, so the damping is
    negative somewhere and positive somewhere.  With ``fixed_layout`` there
    are always three equal pieces and only their values are drawn.
    """
    if fixed_layout:
        cuts = [0.0, 1 / 3, 2 / 3, 1.0]
    else:
        k = int(rng.integers(2, 5))
        inner = np.sort(rng.uniform(0.1, 0.9, k - 1))
        cuts = [0.0, *inner.tolist(), 1.0]
    margin = 0.05 * (hi - lo)
    sign = float(rng.choice([-1.0, 1.0])) if sign_changing else 1.0
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        c0 = sign * float(rng.uniform(lo + margin, hi - margin))
        c1 = float(rng.uniform(-1.0, 1.0)) * margin / (b - a)
        pieces.append(ds.Piece(a, b, (c0 - c1 * a, c1)))
        if sign_changing:
            sign = -sign
    return ds.CoefficientSpec(tuple(pieces), kind)


def spec_text(spec: ds.CoefficientSpec) -> str:
    """The CLI's piecewise grammar for a spec, with round-trip floats."""
    return "; ".join(
        f"piece {p.a!r} {p.b!r}: poly {' '.join(repr(c) for c in p.num)}"
        for p in spec.pieces)


def variable_density(rng):
    return piecewise(rng, 0.6, 2.1, "density")


def sign_changing_damping(rng, fixed_layout=False):
    return piecewise(rng, 0.2, 1.2, "damping", sign_changing=True,
                     fixed_layout=fixed_layout)


def mild_density(rng, fixed_layout=False):
    """Density within 5% of 1.  The CLI's asymptotics check fits the slope of
    modes 4..8 at n = 64, where a density jump of more than a few percent
    alone moves the slope by over its 2% tolerance."""
    return piecewise(rng, 0.95, 1.05, "density", fixed_layout=fixed_layout)


def constant_damping(rng):
    return ds.constant(float(rng.uniform(0.2, 2.0)), "damping")


UNIT_DENSITY = ds.constant(1.0, "density")


# --- pipelines ----------------------------------------------------------------

def _build(cfg: Config, tracer):
    with tracer.span("discretization.build"):
        ops = ds.build_operator_set(cfg.n, cfg.rho, cfg.alpha,
                                    ds.parse_bc(cfg.bc))
    # tol_zero is cached on first use; read it here so it gets its own span
    with tracer.span("discretization.tol_zero"):
        ops.tol_zero
    return ops


def dense_mb(ops) -> float:
    """Computed (not measured) size of the operator set's dense arrays,
    including the cached H1/H2 products when they have been formed."""
    arrays = [ops.T, ops.Tstar, ops.D, ops.B, ops.G, ops.wu, ops.wv]
    arrays += [ops.__dict__[k] for k in ("H1", "H2", "C") if k in ops.__dict__]
    return sum(a.nbytes for a in arrays) / 2**20


def run_dense_variable(cfg: Config, tracer, out: Outcome, workdir: Path):
    ops = _build(cfg, tracer)
    with tracer.span("spectral.eigen_dirac"):
        spec = ds.eigen_dirac(ops)
    with tracer.span("spectral.eigen_generator"):
        gen = ds.eigen_generator(ops)
    with tracer.span("spectral.multiset"):
        dist = spectral.multiset_distance(spec.nonzero(), gen.nonzero())
    with tracer.span("traces.ledger"):
        ledger = traces.build_ledger(ops, spec, n_max=1)
        t2_neumann = traces.trace_coefficient(1, ops, "neumann")
    with tracer.span("traces.resolvent_trace"):
        lhs, rhs, parity = traces.resolvent_trace_expansion(ZETA, ops)
    with tracer.span("susy.block_resolvent"):
        blocks = susy.resolvent_perturbed(ZETA, ops).assemble()
    with tracer.span("susy.isospectral"):
        iso = susy.check_isospectral(ops)
    with tracer.span("spectral.strip"):
        strip = spectral.check_strip(spec, ops)
    with tracer.span("bench.check"):
        # tolerances of the CLI's spectrum, trace, resolvent-check,
        # susy-check and verify-all commands
        norm = np.linalg.norm(ops.dirac_frame(), 2)
        dim = ops.n_nodes + ops.n_cells
        direct = np.linalg.solve(ops.D + ops.B - ZETA * np.eye(dim),
                                 np.eye(dim))
        out.check("spectral.max_residual", spec.residuals.max(), 1e-8 * norm)
        out.check("spectral.multiset_distance", dist, 1e-8 * norm)
        t_scale = max(abs(v) for v in ledger.t) or 1.0
        for k, name in enumerate(("trace.even_n0", "trace.odd_n0",
                                  "trace.even_n1", "trace.odd_n1")):
            out.check(name, ledger.discrepancies[k], 1e-6 * t_scale)
        out.check("trace.t2_two_paths", abs(ledger.t[1] - t2_neumann),
                  1e-10 * t_scale)
        r_scale = max(abs(rhs), 1.0)
        out.check("resolvent.trace_identity", abs(lhs - rhs), 1e-10 * r_scale)
        out.check("resolvent.parity_defect", parity, 1e-10 * r_scale)
        out.check("resolvent.block_formula",
                  np.linalg.norm(blocks - direct)
                  / max(np.linalg.norm(direct), 1.0), 1e-9)
        out.check("susy.isospectrality", iso["relative_distance"], 1e-10)
        out.check("spectral.strip_excess",
                  max(0.0, strip["max_abs_im"] - strip["norm_bound"]), 1e-10)
    out.counts["discretization.dense_mb"] = dense_mb(ops)


def run_banded_const(cfg: Config, tracer, out: Outcome, workdir: Path):
    ops = _build(cfg, tracer)
    with tracer.span("spectral.constant_damping"):
        spec = ds.constant_damping_dirac(ops)
    with tracer.span("spectral.fit"):
        fit = ds.fit_asymptotics(spec, cfg.rho)
    with tracer.span("bench.check"):
        a = float(cfg.alpha.pieces[0].num[0])
        # ||D + B|| <= ||D|| + a, with ||D|| = 1e10 tol_zero
        norm = 1e10 * ops.tol_zero + a
        out.check("spectral.max_residual", spec.residuals.max(), 1e-8 * norm)
        out.check("spectral.zero_mode_excess",
                  abs(spec.zero_modes - ZERO_MODES[cfg.bc]), 0)
        out.check("asymptotics.slope_deviation", fit["relative_deviation"],
                  SLOPE_TOL)
        if cfg.bc == "min":
            exact = ds.closed_form_constant_damping(a, CLOSED_FORM_MODES)
            lam = spec.nonzero()
            err = max(float(np.min(np.abs(lam - ex)) / abs(ex))
                      for ex in exact)
            out.check("spectral.closed_form_rel_err", err, CLOSED_FORM_TOL)
    out.counts["discretization.dense_mb"] = dense_mb(ops)


def run_riesz_small(cfg: Config, tracer, out: Outcome, workdir: Path):
    ops = _build(cfg, tracer)
    with tracer.span("spectral.eigen_dirac"):
        spec = ds.eigen_dirac(ops)
    with tracer.span("riesz.cluster"):
        clusters = riesz.cluster_eigenvalues(spec, ops)
    with tracer.span("riesz.resolution"):
        res = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    with tracer.span("bench.check"):
        # tolerances of the CLI riesz command and criterion 11
        out.check("riesz.idempotency", res["max_idempotency_defect"], 1e-8)
        out.check("riesz.sum_defect", res["sum_defect"], 1e-6)
        out.check("riesz.cross_products", res["max_cross_product"], 1e-7)
        out.check("riesz.rank_deficit",
                  abs(res["total_rank"] - (ops.n_nodes + ops.n_cells)), 0)
    out.counts["riesz.clusters"] = len(clusters)
    out.counts["riesz.max_cluster_size"] = max(len(c.members)
                                               for c in clusters)
    out.counts["discretization.dense_mb"] = dense_mb(ops)


# artifacts each CLI command writes next to report.json
CLI_ARTIFACTS = {
    "spectrum": ("spectrum.csv", "eigenvalue_scatter.csv"),
    "greens": ("greens_kernel.csv",),
    "trace": ("trace_ledger.json",),
    "resolvent-check": (),
    "susy-check": (),
    "asymptotics": ("slope_fit.csv",),
    "riesz": ("riesz_clusters.csv",),
    "verify-all": ("verify_all.json",),
}


def run_cli_command(cfg: Config, tracer, out: Outcome, workdir: Path):
    run_dir = workdir / cfg.cid
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(cfg.config_text)
        out_dir = run_dir / "out"
        argv = [cfg.command, "--config", str(cfg_path), "--out", str(out_dir)]
        if cfg.cli_n is not None:
            argv += ["--n", str(cfg.cli_n)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{cfg.command}"):
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        with tracer.span("bench.check"):
            report_path = out_dir / "report.json"
            if not report_path.is_file():
                raise RuntimeError(f"{cfg.command} exited {code} without "
                                   f"report.json: {stderr.getvalue().strip()}")
            report = json.loads(report_path.read_text())
            failing = [r["name"] for r in report["records"]
                       if r["status"] == "fail"]
            missing = [a for a in CLI_ARTIFACTS[cfg.command]
                       if not (out_dir / a).is_file()]
            out.check("cli.exit_code", code, 0)
            out.check("cli.failed_records", len(failing), 0)
            out.check("cli.missing_artifacts", len(missing), 0)
            for r in report["records"]:
                out.quantities[r["name"]] = float(r["measured"])
            out.counts["reporting.artifact_bytes"] = sum(
                p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def describe(cfg: Config) -> dict:
    """A config as JSON-ready text, for the result file."""
    d = {"cid": cfg.cid, "n": cfg.n, "bc": cfg.bc, "n_checks": cfg.n_checks}
    if cfg.command is not None:
        d.update(command=cfg.command, cli_n=cfg.cli_n, config=cfg.config_text)
    else:
        d.update(rho=spec_text(cfg.rho), alpha=spec_text(cfg.alpha))
    return d


# --- workloads ------------------------------------------------------------------

ALL_BCS = ("min", "zero0", "zero1", "omega:0,1")


def configs_dense_variable(rng, sizes):
    return [Config(f"dv-n{n}-{bc}", n, bc, 12, variable_density(rng),
                   sign_changing_damping(rng))
            for n in sizes for bc in ALL_BCS]


def configs_banded_const(rng, sizes):
    # the closed-form comparison adds one check on the min family
    return [Config(f"bc-n{n}-{bc}", n, bc, 3 + (bc == "min"), UNIT_DENSITY,
                   constant_damping(rng))
            for n in sizes for bc in ("min", "omega:0,1")]


def configs_riesz_small(rng, sizes):
    # a Latin square: each size, each bc and each coefficient family appears,
    # without running all eight combinations in every pass
    lo, hi = sizes
    cells = [(lo, "min", "piecewise"), (lo, "omega:0,1", "constant"),
             (hi, "min", "constant"), (hi, "omega:0,1", "piecewise")]
    configs = []
    for n, bc, family in cells:
        if family == "piecewise":
            # the clusters, and with them the quadrature cost, follow the
            # coefficients: a density contrast alone changes the cost by a
            # third from seed to seed, and a drawn piece layout adds more
            rho = mild_density(rng, fixed_layout=True)
            alpha = sign_changing_damping(rng, fixed_layout=True)
        else:
            rho, alpha = UNIT_DENSITY, constant_damping(rng)
        configs.append(Config(f"rs-n{n}-{bc}-{family}", n, bc, 4, rho, alpha))
    return configs


def configs_cli_commands(rng, sizes):
    # sizes = (riesz --n,); every other command runs at the CLI default n
    (riesz_n,) = sizes
    configs = []
    for i, command in enumerate(CLI_ARTIFACTS):
        bc = ALL_BCS[i % len(ALL_BCS)]
        # riesz draws like riesz_small's piecewise family: with a density
        # of contrast up to 3.5 its quadrature work at n = 32 spreads by 25%
        # (interquartile range over median, 20 seeds), this way by 2%, and
        # it is one of the two slowest commands, so it sets cfg_max_ref
        fixed = command == "riesz"
        if command == "asymptotics" or fixed:
            rho = mild_density(rng, fixed_layout=fixed)
        else:
            rho = variable_density(rng)
        text = json.dumps({
            "rho": spec_text(rho),
            "alpha": spec_text(sign_changing_damping(rng, fixed_layout=fixed)),
            "bc": bc,
            "seeds": [int(rng.integers(0, 2**31))],
        })
        n = riesz_n if command == "riesz" else None
        configs.append(Config(f"cli-{command}", n or ds.RunConfig().n_grid,
                              bc, 3, command=command, config_text=text,
                              cli_n=n))
    return configs


@dataclass(frozen=True)
class Workload:
    """A workload's config generator and pipeline; why each workload was
    chosen is recorded in BENCHMARK.json."""

    name: str
    sizes: tuple
    make_configs: Callable
    run: Callable
    warmup_n: int = 16
    # parts of the reference kernel that config times are divided by (see
    # run.reference_kernel): the kinds of dense work the workload does
    reference: tuple = ("triangular", "general", "symmetric")

    def configs(self, rng) -> list:
        return self.make_configs(rng, self.sizes)

    def warmup(self, configs: list) -> Config:
        """The first config shrunk to the warm-up size."""
        first = configs[0]
        if first.command is not None:
            return replace(first, cid="warmup", cli_n=self.warmup_n)
        return replace(first, cid="warmup", n=self.warmup_n)


WORKLOADS = {w.name: w for w in (
    Workload("dense_variable", (96, 128), configs_dense_variable,
             run_dense_variable),
    # the asymptotic fit needs 40 branch modes, even in the warm-up.  Large
    # symmetric eigensolves, SVDs and products do the work: a slow stretch
    # of the host slows them 1.2-1.4x, as it does a 256 x 256 symmetric
    # eigensolve (1.45x), but small calls from Python 1.7x
    Workload("banded_const", (384, 768), configs_banded_const,
             run_banded_const, warmup_n=64, reference=("symmetric",)),
    Workload("riesz_small", (24, 32), configs_riesz_small, run_riesz_small),
    Workload("cli_commands", (32,), configs_cli_commands, run_cli_command),
)}
