"""Command-line entry point.

Subcommands: spectrum, greens, trace, resolvent-check, susy-check,
asymptotics, riesz, verify-all.  Exit codes: 0 all hard checks passed,
1 a check failed or raised a numerical ValueError/RuntimeError, 2 usage or
configuration error; any other exception propagates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import greens, riesz, spectral, susy, traces
from .coefficients import CoefficientError, constant
from .discretization import (BoundaryCondition, build_operator_set,
                             kernel_dimensions, solve_regular)
from .reporting import (ConfigError, RunConfig, VerificationReport, parse_bc,
                        random_coefficients, to_csv)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedstring",
        description="Spectral verification suite for the damped string "
                    "operators (Dirac form, wave generator, trace ledger).")
    parser.add_argument("command", choices=[
        "spectrum", "greens", "trace", "resolvent-check", "susy-check",
        "asymptotics", "riesz", "verify-all"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument("--n", type=int, help="grid size override")
    parser.add_argument("--bc", help="min|zero0|zero1|max|omega:RE,IM")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig() if args.config is None else RunConfig.from_json(args.config)
    return cfg.override(
        n_grid=args.n,
        bc=None if args.bc is None else parse_bc(args.bc),
        out_dir=args.out,
        seeds=None if args.seed is None else (args.seed,),
    )


def _ops_from(cfg: RunConfig, n: int | None = None):
    rho, alpha = cfg.coefficients()
    return build_operator_set(n or cfg.n_grid, rho, alpha, cfg.bc)


def _out_dir(cfg: RunConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _block_gap(res: susy.BlockResolvent, M: np.ndarray) -> float:
    """Relative Frobenius gap between a block resolvent and the direct dense
    inverse of M - zeta."""
    dim = M.shape[0]
    direct = solve_regular(M - res.zeta * np.eye(dim))
    return (np.linalg.norm(res.assemble() - direct)
            / max(np.linalg.norm(direct), 1.0))


def cmd_spectrum(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    spec = spectral.eigen_dirac(ops)
    out = _out_dir(cfg)
    (out / "spectrum.csv").write_text(spectral.spectrum_to_csv(spec))
    (out / "eigenvalue_scatter.csv").write_text(to_csv(
        ("re", "im", "branch"),
        zip(spec.eigenvalues.real, spec.eigenvalues.imag, spec.branches())))
    report.add("spectrum.max_residual", "spectral.eigensolver",
               float(spec.residuals.max()), 1e-8 * ops.dirac_norm)
    strip = spectral.check_strip(spec, ops)
    report.add("spectrum.strip_excess", "spectral.strip",
               max(0.0, strip["max_abs_im"] - strip["norm_bound"]), 1e-10)


def cmd_greens(cfg: RunConfig, report: VerificationReport) -> None:
    rho, alpha = cfg.coefficients()
    out = _out_dir(cfg)
    xs = np.linspace(0.0, 1.0, 201)
    try:
        K = greens.greens_kernel(cfg.bc, xs[:, None], xs[None, :])
    except greens.KernelUnavailableError:
        # zero-mode families have no kernel at z=0; report and move on
        report.add("greens.kernel_available", "greens.kernel", 1.0, None,
                   hard=False)
        return
    rows = zip(np.repeat(xs, len(xs)), np.tile(xs, len(xs)), K.real.ravel(),
               K.imag.ravel())
    (out / "greens_kernel.csv").write_text(
        to_csv(("x", "xp", "re_k", "im_k"), rows))
    t0 = greens.t0_analytic(cfg.bc, alpha)
    ops = _ops_from(cfg)
    t0_disc = traces.trace_coefficient(0, ops)
    report.add("greens.t0_discretization_gap", "greens.t0",
               abs(t0_disc - t0), None, hard=False)
    # the kernel must reproduce the discrete solve up to discretization error
    f = lambda x: np.sin(3 * np.pi * x) + np.cos(2.0 * x)
    u = greens.apply_inverse_via_kernel(cfg.bc, f, ops.grid)
    u_mat = solve_regular(ops.H1, f(ops.grid.nodes))
    resid = (ops.weighted_norm(u - u_mat, "node")
             / ops.weighted_norm(u_mat, "node"))
    report.add("greens.inverse_residual", "greens.kernel", resid,
               max(10.0 / cfg.n_grid, 0.05))


def cmd_trace(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    spec = spectral.eigen_dirac(ops)
    ledger = traces.build_ledger(ops, spec, n_max=cfg.n_max)
    (_out_dir(cfg) / "trace_ledger.json").write_text(ledger.to_json() + "\n")
    scale = max(abs(v) for v in ledger.t) or 1.0
    for n in range(cfg.n_max + 1):
        report.add(f"trace.even_identity_n{n}", "trace.even",
                   ledger.discrepancies[2 * n], 1e-6 * scale)
        report.add(f"trace.odd_sum_n{n}", "trace.odd",
                   ledger.discrepancies[2 * n + 1], 1e-6 * scale)
    if cfg.n_max >= 1:
        gap = abs(traces.trace_coefficient(1, ops, "closed")
                  - traces.trace_coefficient(1, ops, "neumann"))
        report.add("trace.t2_two_paths", "trace.neumann", gap, 1e-10 * scale)


def cmd_resolvent_check(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    lhs, rhs, parity = traces.resolvent_trace_expansion(cfg.zeta, ops)
    report.add("resolvent.trace_identity", "resolvent.trace",
               abs(lhs - rhs), 1e-10 * max(abs(rhs), 1.0))
    report.add("resolvent.parity_defect", "resolvent.parity", parity,
               1e-10 * max(abs(rhs), 1.0))
    report.add("resolvent.block_formula", "resolvent.blocks",
               _block_gap(susy.resolvent_perturbed(cfg.zeta, ops), ops.D + ops.B),
               1e-9)
    lv = traces.livsic_check(ops, zeta=cfg.zeta)
    report.add("resolvent.livsic_gap", "resolvent.livsic", lv["gap"], 1e-9)


def cmd_susy_check(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    iso = susy.check_isospectral(ops)
    report.add("susy.isospectrality", "susy.isospectral",
               iso["relative_distance"], 1e-10)
    bd = susy.block_diagonalize(ops)
    report.add("susy.off_block_norm", "susy.block_diag",
               bd["off_block_norm"], 1e-9)
    report.add("susy.unitarity_defect", "susy.block_diag",
               bd["unitarity_defect"], 1e-10)
    inter = susy.check_intertwining(ops)
    report.add("susy.intertwining", "susy.intertwine",
               max(inter.values()), 1e-10)
    z = complex(cfg.zeta, 0.05)
    report.add("susy.dirac_resolvent", "susy.resolvent",
               _block_gap(susy.resolvent_dirac(z, ops), ops.D), 1e-9)
    report.add("susy.first_resolvent_identity", "susy.first_resolvent",
               susy.first_resolvent_identity(-0.5, ops), 1e-10)
    # decay exponent is an asymptotic property; measure it on a grid fine
    # enough for the j^-2 regime regardless of the configured size
    decay = susy.trace_ideal_decay(_ops_from(cfg, n=max(cfg.n_grid, 128)))
    report.add("susy.trace_ideal_exponent", "susy.trace_ideal",
               decay["exponent"], -1.8)


def cmd_asymptotics(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    spec = spectral.eigen_generator(ops)
    fit = spectral.fit_asymptotics(spec, ops.rho, window=cfg.fit_window)
    report.add("asymptotics.slope_deviation", "asymptotics.slope",
               fit["relative_deviation"], 0.02)
    lo, hi = fit["window"]
    branch = np.sort(spec.branch("plus").real)
    jj = np.arange(lo, hi + 1)
    (_out_dir(cfg) / "slope_fit.csv").write_text(to_csv(
        ("j", "re_lambda", "fit_value"),
        zip(jj, branch[lo - 1:hi], fit["slope"] * jj + fit["intercept"])))


def cmd_riesz(cfg: RunConfig, report: VerificationReport) -> None:
    ops = _ops_from(cfg)
    spec = spectral.eigen_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    res = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    (_out_dir(cfg) / "riesz_clusters.csv").write_text(
        riesz.clusters_to_csv(clusters))
    report.add("riesz.idempotency", "riesz.projection",
               res["max_idempotency_defect"], 1e-8)
    report.add("riesz.resolution_of_identity", "riesz.completeness",
               res["sum_defect"], 1e-6)
    report.add("riesz.cross_products", "riesz.orthogonality",
               res["max_cross_product"], 1e-7)
    report.add("riesz.commutator", "riesz.projection",
               res["max_commutator"], 1e-8)
    report.add("riesz.quadrature_deviation", "riesz.projection",
               res["max_quadrature_deviation"], 1e-8)


def cmd_verify_all(cfg: RunConfig, report: VerificationReport) -> None:
    """The suite run on small grids: every identity family, each bc."""
    families = [BoundaryCondition.minimal(), BoundaryCondition.zero0(),
                BoundaryCondition.zero1(), BoundaryCondition.quasi(1j)]
    expected_kernels = {
        "min": (0, 1, 1), "zero0": (0, 0, 0), "zero1": (0, 0, 0),
    }
    rho, alpha = random_coefficients(cfg.seeds[0])
    for bc in families:
        ops = build_operator_set(32, rho, alpha, bc)
        spec = spectral.eigen_dirac(ops)
        scale = float(np.abs(spec.nonzero()).min()) ** -2 * len(spec)
        d_even, d_odd = traces.verify_trace_identity(0, ops, spec)
        report.add(f"trace.m0.{bc.tag}", "trace.even", d_even, 1e-8 * scale)
        report.add(f"trace.m1.{bc.tag}", "trace.odd", d_odd, 1e-8 * scale)
        gen = spectral.eigen_generator(ops)
        dist = spectral.multiset_distance(spec.nonzero(), gen.nonzero())
        report.add(f"equivalence.{bc.tag}", "equivalence.multiset", dist,
                   1e-8 * ops.dirac_norm)
        if bc.tag in expected_kernels:
            dims = kernel_dimensions(ops)
            report.add(f"kernels.{bc.tag}", "kernels.census",
                       float(dims != expected_kernels[bc.tag]), 0.5)
        iso = susy.check_isospectral(ops)
        report.add(f"susy.isospectral.{bc.tag}", "susy.isospectral",
                   iso["relative_distance"], 1e-10)
    # deterministic continuum anchors on the Dirichlet-type family
    ops = build_operator_set(256, constant(1.0, "density"),
                             constant(1.0, "damping"),
                             BoundaryCondition.minimal())
    t0 = traces.trace_coefficient(0, ops)
    report.add("continuum.t0_min", "trace.t0_continuum",
               abs(t0 - 1.0 / 6.0), 5e-5)
    lhs, rhs, parity = traces.resolvent_trace_expansion(0.1, ops)
    report.add("resolvent.identity", "resolvent.trace", abs(lhs - rhs), 1e-10)
    report.add("resolvent.parity", "resolvent.parity", parity, 1e-10)
    report.add("resolvent.blocks", "resolvent.blocks",
               _block_gap(susy.resolvent_perturbed(0.2 + 0.05j, ops),
                          ops.D + ops.B), 1e-9)
    fz = spectral.verify_factorization_identity(0.37 - 0.2j, ops)
    report.add("factorization.identity", "equivalence.factorization",
               fz["factorization_residual"], 1e-12)
    report.add("factorization.inverses", "equivalence.factorization",
               max(fz["E_inverse_defect"], fz["F_inverse_defect"]), 1e-12)
    lv = traces.livsic_check(ops)
    report.add("livsic.equality", "resolvent.livsic", lv["gap"], 1e-9)
    (_out_dir(cfg) / "verify_all.json").write_text(report.to_json() + "\n")


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "greens": cmd_greens,
    "trace": cmd_trace,
    "resolvent-check": cmd_resolvent_check,
    "susy-check": cmd_susy_check,
    "asymptotics": cmd_asymptotics,
    "riesz": cmd_riesz,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
    except (ConfigError, CoefficientError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = VerificationReport(cfg)
    try:
        _DISPATCH[args.command](cfg, report)
    except (ConfigError, CoefficientError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        # numerical failures (LinAlgError, ContourError, the kernel errors,
        # the eigensolver gate); a programming error propagates
        print(f"check failed with error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    for line in report.summary_lines():
        print(line)
    report_path = Path(cfg.out_dir) / "report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_json() + "\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
