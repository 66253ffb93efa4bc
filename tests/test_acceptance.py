"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test prints exactly one summary line of the form

    [criterion NN] <name>: PASS|FAIL (measured ... vs tol ...)

before asserting, so the -s output doubles as the acceptance report.
"""

import time

import numpy as np
import pytest

import dampedstring as ds
from dampedstring import riesz, spectral, susy, traces

MIN = ds.BoundaryCondition.minimal()
ZERO0 = ds.BoundaryCondition.zero0()
ZERO1 = ds.BoundaryCondition.zero1()
QUASI_I = ds.BoundaryCondition.quasi(1j)

TRACE_FAMILIES = (MIN, ZERO0, ZERO1, QUASI_I)
SEEDS = (101, 102, 103, 104, 105)

CONST1_RHO = ds.constant(1.0, "density")
CONST1_ALPHA = ds.constant(1.0, "damping")


def _emit(number: int, name: str, ok: bool, measured: float, tol: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {verdict} "
          f"(measured {measured:.3e} vs tol {tol:.3e})")
    assert ok, f"criterion {number} ({name}): {measured:.3e} > {tol:.3e}"


@pytest.fixture(scope="module")
def trace_sweep():
    """Operator sets and Dirac spectra for the shared trace-identity settings:
    four boundary families x five seeded coefficient draws at n_grid=64."""
    out = []
    for bc in TRACE_FAMILIES:
        for seed in SEEDS:
            rho, alpha = ds.random_coefficients(seed)
            ops = ds.build_operator_set(64, rho, alpha, bc)
            out.append((ops, ds.eigen_dirac(ops)))
    return out


def test_criterion_01_matrix_trace_identity_m0(trace_sweep):
    t_start = time.time()
    worst = 0.0
    for ops, spec in trace_sweep:
        t0 = traces.trace_coefficient(0, ops)
        disc = abs(traces.eigen_sum(0, spec) + t0)
        worst = max(worst, disc / abs(t0))
    elapsed = time.time() - t_start
    ok = worst <= 1e-8 and elapsed < 10.0
    _emit(1, "matrix trace identity m=0", ok, worst, 1e-8)


def test_criterion_02_odd_trace_formula(trace_sweep):
    worst = 0.0
    for _, spec in trace_sweep:
        scale = float(np.sum(np.abs(spec.nonzero()) ** -2))
        worst = max(worst, abs(traces.eigen_sum(1, spec)) / scale)
    _emit(2, "odd trace formula m=1", worst <= 1e-8, worst, 1e-8)


def test_criterion_03_second_coefficient(trace_sweep):
    worst = 0.0
    worst_paths = 0.0
    for ops, spec in trace_sweep:
        t2_ledger = traces.build_ledger(ops, spec, n_max=1).t[1]
        t2_neumann = traces.trace_coefficient(1, ops, method="neumann")
        scale = float(np.sum(np.abs(spec.nonzero()) ** -3))
        disc = abs(traces.eigen_sum(2, spec) + t2_ledger) / scale
        worst = max(worst, disc)
        worst_paths = max(worst_paths, abs(t2_ledger - t2_neumann))
    ok = worst <= 1e-6 and worst_paths <= 1e-10
    _emit(3, "second trace coefficient t2", ok, max(worst, worst_paths), 1e-6)


def test_criterion_04_continuum_t0():
    t_start = time.time()
    cases = [
        (MIN, 1.0 / 6.0),
        (ZERO0, 0.5),
        (ZERO1, 0.5),
        (ds.BoundaryCondition.quasi(-1.0), 0.25),
    ]
    worst_ratio = np.inf
    for bc, target in cases:
        errs = []
        for n in (64, 128, 256, 512):
            ops = ds.build_operator_set(n, CONST1_RHO, CONST1_ALPHA, bc)
            errs.append(abs(traces.trace_coefficient(0, ops) - target))
            assert abs(ds.t0_analytic(bc, CONST1_ALPHA) - target) < 1e-14
        floor = 1e-11 * abs(target)
        if max(errs) < floor:
            continue  # exact at machine precision: already converged
        ratios = [errs[i] / max(errs[i + 1], floor) for i in range(3)]
        worst_ratio = min(worst_ratio, min(ratios))
    elapsed = time.time() - t_start
    ok = worst_ratio >= 3.0 and elapsed < 60.0
    print(f"[criterion 04] continuum t0 convergence: "
          f"{'PASS' if ok else 'FAIL'} (worst doubling ratio "
          f"{worst_ratio:.2f} vs >= 3.00, {elapsed:.1f}s)")
    assert ok


def _constant_damping_errors(n: int) -> float:
    ops = ds.build_operator_set(n, CONST1_RHO, ds.constant(0.5, "damping"), MIN)
    spec = ds.constant_damping_dirac(ops)
    exact = ds.closed_form_constant_damping(0.5, 10)
    lam = spec.nonzero()
    return max(float(np.min(np.abs(lam - ex)) / abs(ex)) for ex in exact)


def test_criterion_05_constant_damping_eigenvalues():
    err_256 = _constant_damping_errors(256)
    err_512 = _constant_damping_errors(512)
    order = np.log2(err_256 / err_512)
    ok = err_512 <= 1e-3 and order >= 1.5
    print(f"[criterion 05] constant-damping eigenvalues: "
          f"{'PASS' if ok else 'FAIL'} (rel err {err_512:.3e} vs 1e-03, "
          f"order {order:.2f} vs >= 1.50)")
    assert ok


def test_criterion_06_zeta_series_value():
    target = 1.0 / 945.0 - 1.0 / 30.0   # continuum -t2 for alpha=1, rho=1
    vals = {}
    for n in (256, 512):
        ops = ds.build_operator_set(n, CONST1_RHO, CONST1_ALPHA, MIN)
        vals[n] = -traces.trace_coefficient(1, ops)
    # second-order Richardson extrapolation across the doubling
    extrap = (4 * vals[512] - vals[256]) / 3.0
    # oracle confirmation of the series arithmetic by partial sums
    j = np.arange(1, 200001, dtype=float)
    series = 3.0 * np.sum(1.0 / (j * np.pi) ** 4) - np.sum(1.0 / (j * np.pi) ** 6)
    assert abs(series - (1.0 / 30.0 - 1.0 / 945.0)) < 1e-10
    gap = abs(extrap - target)
    _emit(6, "derived zeta-series value for -t2", gap <= 1e-3, gap, 1e-3)


def test_criterion_07_susy_suite():
    rho, alpha = ds.random_coefficients(301)
    worst_iso = worst_block = worst_res = 0.0
    for bc in (MIN, ZERO0, QUASI_I):
        ops = ds.build_operator_set(16, rho, alpha, bc)
        worst_iso = max(worst_iso,
                        susy.check_isospectral(ops)["relative_distance"])
        bd = susy.block_diagonalize(ops)
        worst_block = max(worst_block, bd["off_block_norm"],
                          bd["diagonal_defect"])
        dim = ops.n_nodes + ops.n_cells
        z = 0.3 + 0.1j
        direct = np.linalg.solve(ops.D - z * np.eye(dim), np.eye(dim))
        err = (np.linalg.norm(susy.resolvent_dirac(z, ops).assemble() - direct)
               / np.linalg.norm(direct))
        directp = np.linalg.solve(ops.D + ops.B - z * np.eye(dim), np.eye(dim))
        errp = (np.linalg.norm(susy.resolvent_perturbed(z, ops).assemble()
                               - directp) / np.linalg.norm(directp))
        worst_res = max(worst_res, err, errp)
    ok = worst_iso <= 1e-10 and worst_block <= 1e-9 and worst_res <= 1e-11
    _emit(7, "supersymmetry suite", ok,
          max(worst_iso, worst_block, worst_res), 1e-9)


def test_criterion_08_generator_dirac_equivalence():
    worst_multiset = worst_map = worst_fact = 0.0
    for seed, bc in ((401, MIN), (402, ZERO0), (403, QUASI_I)):
        rho, alpha = ds.random_coefficients(seed)
        ops = ds.build_operator_set(64, rho, alpha, bc)
        dirac = ds.eigen_dirac(ops, keep_vectors=True)
        gen = ds.eigen_generator(ops, keep_vectors=True)
        scale = np.linalg.norm(ops.dirac_frame(), 2)
        worst_multiset = max(worst_multiset, spectral.multiset_distance(
            dirac.nonzero(), gen.nonzero()) / scale)
        # eigenvector maps in both directions on a spread of indices
        m = ops.n_nodes
        su = np.sqrt(ops.wu)
        sd = np.sqrt(ops.weights())
        for k in range(4, len(gen), max(len(gen) // 7, 1)):
            lam = gen.eigenvalues[k]
            if abs(lam) < gen.tol_zero:
                continue
            v = gen.vectors[:, k] / np.concatenate([su, su])
            pair = spectral.EigenPair(lam, v, 0.0)
            worst_map = max(worst_map,
                            spectral.map_generator_to_dirac(pair, ops).residual)
        for k in range(4, len(dirac), max(len(dirac) // 7, 1)):
            lam = dirac.eigenvalues[k]
            if abs(lam) < dirac.tol_zero:
                continue
            v = dirac.vectors[:, k] / sd
            pair = spectral.EigenPair(lam, v, 0.0)
            worst_map = max(worst_map,
                            spectral.map_dirac_to_generator(pair, ops).residual)
        fz = spectral.verify_factorization_identity(0.7 - 0.3j, ops)
        worst_fact = max(worst_fact, fz["factorization_residual"],
                         fz["E_inverse_defect"], fz["F_inverse_defect"])
    ok = worst_multiset <= 1e-8 and worst_map <= 1e-7 and worst_fact <= 1e-12
    _emit(8, "generator-Dirac equivalence", ok,
          max(worst_multiset, worst_map, worst_fact), 1e-7)


def test_criterion_09_asymptotic_slope():
    t_start = time.time()
    alpha0 = ds.constant(0.0, "damping")
    cases = [CONST1_RHO, ds.constant(2.0, "density"),
             ds.polynomial((1.0, 1.0), "density")]
    worst = 0.0
    for rho in cases:
        ops = ds.build_operator_set(2048, rho, alpha0, MIN)
        spec = ds.constant_damping_dirac(ops)
        fit = ds.fit_asymptotics(spec, rho)
        worst = max(worst, fit["relative_deviation"])
    elapsed = time.time() - t_start
    ok = worst <= 0.02 and elapsed < 120.0
    print(f"[criterion 09] asymptotic slope: {'PASS' if ok else 'FAIL'} "
          f"(worst deviation {worst:.4f} vs 0.0200, {elapsed:.1f}s)")
    assert ok


def test_criterion_10_strip_and_symmetry():
    worst_excess = worst_sym = 0.0
    for seed in SEEDS[:3]:
        rho, alpha = ds.random_coefficients(seed)
        for bc in (MIN, ZERO0, ZERO1):
            ops = ds.build_operator_set(48, rho, alpha, bc)
            spec = ds.eigen_dirac(ops)
            strip = ds.check_strip(spec, ops)
            worst_excess = max(worst_excess,
                               strip["max_abs_im"] - strip["norm_bound"])
            worst_sym = max(worst_sym, ds.check_symmetry(spec)["distance"])
        # quasi(omega) pairs with quasi(conj(omega))
        ops_w = ds.build_operator_set(48, rho, alpha,
                                      ds.BoundaryCondition.quasi(1j))
        ops_wbar = ds.build_operator_set(48, rho, alpha,
                                         ds.BoundaryCondition.quasi(-1j))
        spec_w = ds.eigen_dirac(ops_w)
        spec_wbar = ds.eigen_dirac(ops_wbar)
        worst_sym = max(worst_sym,
                        ds.check_symmetry(spec_w, spec_wbar)["distance"])
        strip_w = ds.check_strip(spec_w, ops_w)
        worst_excess = max(worst_excess,
                           strip_w["max_abs_im"] - strip_w["norm_bound"])
    ok = worst_excess <= 1e-10 and worst_sym <= 1e-8
    _emit(10, "strip containment and symmetry", ok,
          max(worst_excess, worst_sym), 1e-8)


def test_criterion_11_riesz_structure():
    ops = ds.build_operator_set(64, CONST1_RHO, CONST1_ALPHA, MIN)
    spec = ds.eigen_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    res = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    ok = (res["max_idempotency_defect"] <= 1e-8
          and res["sum_defect"] <= 1e-6
          and res["max_cross_product"] <= 1e-7)
    _emit(11, "Riesz projection structure", ok,
          max(res["max_idempotency_defect"], res["sum_defect"],
              res["max_cross_product"]), 1e-6)


def test_criterion_12_kernel_census():
    expected = {
        "min": (0, 1, 1),
        "zero0": (0, 0, 0),
        "zero1": (0, 0, 0),
        "max": (1, 0, 1),
    }
    rho, alpha = ds.random_coefficients(77)
    mismatches = 0
    for n in (8, 32, 128):
        for tag, dims in expected.items():
            bc = ds.parse_bc(tag)
            ops = ds.build_operator_set(n, rho, alpha, bc)
            mismatches += ds.kernel_dimensions(ops) != dims
        for omega, dims in ((1.0, (1, 1, 2)), (0.6 + 0.8j, (0, 0, 0))):
            ops = ds.build_operator_set(n, rho, alpha,
                                        ds.BoundaryCondition.quasi(omega))
            mismatches += ds.kernel_dimensions(ops) != dims
    _emit(12, "kernel census (all five families)", mismatches == 0,
          float(mismatches), 0.0)


def test_criterion_13_resolvent_trace_parity():
    ops = ds.build_operator_set(32, CONST1_RHO, CONST1_ALPHA, MIN)
    worst_gap = worst_parity = 0.0
    for zeta in (0.1, -0.1):
        lhs, rhs, parity = traces.resolvent_trace_expansion(zeta, ops)
        worst_gap = max(worst_gap, abs(lhs - rhs))
        worst_parity = max(worst_parity, parity)
    ok = worst_gap <= 1e-10 and worst_parity <= 1e-10
    _emit(13, "resolvent-trace parity", ok, max(worst_gap, worst_parity), 1e-10)


def test_criterion_14_livsic_relation():
    worst_gap = 0.0
    inequality_ok = True
    for seed in SEEDS:
        rho, alpha = ds.random_coefficients(seed)
        ops = ds.build_operator_set(32, rho, alpha, MIN)
        out = traces.livsic_check(ops, ds.eigen_dirac(ops))
        worst_gap = max(worst_gap, out["gap"])
        inequality_ok = inequality_ok and out["inequality_holds"]
    ok = worst_gap <= 1e-9 and inequality_ok
    _emit(14, "Livsic relation", ok, worst_gap, 1e-9)
