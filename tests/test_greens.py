import numpy as np
import pytest

import dampedstring as ds
from dampedstring.greens import (KernelUnavailableError, greens_kernel,
                                 quasi_linear_coefficients, t0_analytic)

RHO1 = ds.constant(1.0, "density")
ALPHA1 = ds.constant(1.0, "damping")


def test_min_kernel_closed_form():
    bc = ds.BoundaryCondition.minimal()
    x = np.array([0.25, 0.5, 0.75])
    K = greens_kernel(bc, x[:, None], x[None, :])
    expect = np.minimum(x[:, None], x[None, :]) - x[:, None] * x[None, :]
    assert np.allclose(K, expect)
    # vanishes on the boundary
    assert greens_kernel(bc, 0.0, 0.4) == pytest.approx(0.0)
    assert greens_kernel(bc, 1.0, 0.4) == pytest.approx(0.0)


def test_one_sided_kernels():
    z0 = ds.BoundaryCondition.zero0()
    z1 = ds.BoundaryCondition.zero1()
    assert greens_kernel(z0, 0.3, 0.6) == pytest.approx(0.3)
    assert greens_kernel(z1, 0.3, 0.6) == pytest.approx(0.4)
    assert greens_kernel(z1, 0.9, 0.2) == pytest.approx(0.1)


def test_kernel_symmetry_real_omega():
    bc = ds.BoundaryCondition.quasi(-2.0)
    x = np.linspace(0.05, 0.95, 7)
    K = greens_kernel(bc, x[:, None], x[None, :])
    assert np.allclose(K, K.T.conj())


def test_unavailable_families_rejected():
    with pytest.raises(KernelUnavailableError):
        greens_kernel(ds.BoundaryCondition.maximal(), 0.3, 0.5)
    with pytest.raises(KernelUnavailableError):
        greens_kernel(ds.BoundaryCondition.quasi(1.0), 0.3, 0.5)


@pytest.mark.parametrize("omega", [1j, 0.5 + 0.3j, -1.0, 2.0])
def test_kernel_inverts_discrete_operator(omega):
    """The analytic kernel applied by quadrature must match the discrete
    solve up to discretization error (the kernel is rho-independent at z=0)."""
    bc = ds.BoundaryCondition.quasi(omega)
    rho, _ = ds.random_coefficients(5)
    ops = ds.build_operator_set(128, rho, ALPHA1, bc)
    f = lambda x: np.sin(3 * np.pi * x) + np.cos(2.0 * x)
    u = ds.apply_inverse_via_kernel(bc, f, ops.grid)
    u_mat = np.linalg.solve(ops.sparse("H1").toarray().astype(complex),
                            f(ops.grid.nodes).astype(complex))
    resid = (ops.weighted_norm(u - u_mat, "node")
             / ops.weighted_norm(u_mat, "node"))
    assert resid < 0.05


def test_kernel_matches_matrix_inverse_quasi():
    bc = ds.BoundaryCondition.quasi(1j)
    ops = ds.build_operator_set(64, RHO1, ALPHA1, bc)
    Kmat = np.linalg.inv(ops.sparse("H1").toarray())
    x = ops.grid.nodes
    Kan = greens_kernel(bc, x[:, None], x[None, :])
    # columns of the discrete inverse approximate K(x, x_k) rho(x_k)^2 h
    col = Kmat[:, 5] / ops.wu[5]
    assert np.allclose(col, Kan[:, 5], atol=0.05)


def test_quasi_linear_coefficients_conjugate_pair():
    cx, cxp = quasi_linear_coefficients(0.5 + 0.3j)
    assert cx == pytest.approx(np.conj(cxp))


@pytest.mark.parametrize("bc,target", [
    (ds.BoundaryCondition.minimal(), 1 / 6),
    (ds.BoundaryCondition.zero0(), 1 / 2),
    (ds.BoundaryCondition.zero1(), 1 / 2),
    (ds.BoundaryCondition.quasi(-1.0), 1 / 4),
])
def test_t0_analytic_reference_values(bc, target):
    assert t0_analytic(bc, ALPHA1) == pytest.approx(target, abs=1e-14)


def test_t0_analytic_matches_discrete_limit():
    bc = ds.BoundaryCondition.quasi(2.0)
    alpha = ds.polynomial((0.5, 0.25), "damping")
    target = t0_analytic(bc, alpha)
    from dampedstring.traces import trace_coefficient
    vals = []
    for n in (128, 256):
        ops = ds.build_operator_set(n, RHO1, alpha, bc)
        vals.append(trace_coefficient(0, ops))
    # first-order boundary error: Richardson in h must hit the target
    assert abs(vals[0] - target) > abs(vals[1] - target) / 0.6
    assert abs(2.0 * vals[1] - vals[0] - target) < 1e-4
