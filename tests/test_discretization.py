import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedstring as ds
from dampedstring.discretization import (assemble_adjoint, build_grid,
                                         build_operator_set, solve_regular)

RHO1 = ds.constant(1.0, "density")
ALPHA1 = ds.constant(1.0, "damping")


@pytest.fixture(scope="module")
def random_coeffs():
    return ds.random_coefficients(42)


def test_boundary_condition_parsing_and_str():
    assert str(ds.BoundaryCondition.minimal()) == "min"
    assert str(ds.BoundaryCondition.quasi(0.5 + 0.25j)) == "omega:0.5,0.25"
    with pytest.raises(ValueError):
        ds.BoundaryCondition.quasi(0.0)


def test_grid_shapes_per_family():
    n = 16
    expected_nodes = {"min": n - 1, "zero0": n, "zero1": n, "max": n + 1}
    for tag, m in expected_nodes.items():
        grid = build_grid(n, RHO1, ds.parse_bc(tag))
        assert len(grid.nodes) == m
        assert len(grid.mids) == n
    grid = build_grid(n, RHO1, ds.BoundaryCondition.quasi(2.0))
    assert len(grid.nodes) == n


def test_adjoint_is_weighted_adjoint(random_coeffs):
    """<Tu, v>_Wv must equal <u, T*v>_Wu for all u, v (defining property)."""
    rho, alpha = random_coeffs
    for bc in map(ds.parse_bc, ("min", "zero0", "zero1", "max",
                                "omega:0.3,0.7")):
        ops = ds.build_operator_set(12, rho, alpha, bc)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(ops.n_nodes) + 1j * rng.standard_normal(ops.n_nodes)
        v = rng.standard_normal(ops.n_cells) + 1j * rng.standard_normal(ops.n_cells)
        lhs = np.vdot(ops.T @ u, ops.wv * v)
        rhs = np.vdot(u, ops.wu * (ops.Tstar @ v))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_dirac_frame_is_hermitian(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(20, rho, alpha, ds.BoundaryCondition.zero0())
    Df = ops.dirac_frame(ops.D)
    assert np.linalg.norm(Df - Df.conj().T) < 1e-12 * np.linalg.norm(Df)


def test_generator_and_dirac_nonzero_spectra_agree(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(24, rho, alpha, ds.BoundaryCondition.zero1())
    d = ds.eigen_dirac(ops)
    g = ds.eigen_generator(ops)
    scale = np.linalg.norm(ops.dirac_frame(), 2)
    assert ds.multiset_distance(d.nonzero(), g.nonzero()) < 1e-10 * scale


def test_minimal_undamped_eigenvalues_near_continuum():
    ops = ds.build_operator_set(256, RHO1, ds.constant(0.0, "damping"),
                                ds.BoundaryCondition.minimal())
    spec = ds.eigen_dirac(ops)
    lam = np.sort(spec.nonzero()[spec.nonzero().real > 0].real)
    target = np.pi * np.arange(1, 6)
    assert lam[:5] == pytest.approx(target, rel=1e-3)
    assert spec.zero_modes == 1


def test_kernel_census_reference_values(random_coeffs):
    rho, alpha = random_coeffs
    table = {
        "min": (0, 1, 1), "zero0": (0, 0, 0), "zero1": (0, 0, 0),
        "max": (1, 0, 1),
    }
    for tag, dims in table.items():
        ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
        assert ds.kernel_dimensions(ops) == dims
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)
    # constant density: the constant node vector that spans ker T must not
    # zero the threshold
    ops = ds.build_operator_set(16, RHO1, ALPHA1, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)
    # the square roots of the spectrum of T*T would put the zero singular
    # value here near sqrt(eps) ||T||, above tol_zero, and report ker T = 0
    ops = ds.build_operator_set(64, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)


FAMILIES = ["min", "zero0", "zero1", "max", "omega:1,0", "omega:0,1",
            "omega:0.5,0.3"]


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("tag", FAMILIES)
def test_band_singular_values_match_dense_svd(random_coeffs, tag, n):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
    s = np.linalg.svd(ops.Tf, compute_uv=False)
    assert len(ops.sv) == len(s)
    assert np.abs(ops.sv - s).max() <= 1e-13 * s[0]


@pytest.mark.parametrize("tag", FAMILIES)
def test_dense_products_filled_from_bands(random_coeffs, tag):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    for H, ref in ((ops.H1, ops.Tstar @ ops.T), (ops.H2, ops.T @ ops.Tstar)):
        assert np.linalg.norm(H - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("tag", FAMILIES)
def test_K_exists_exactly_when_ker_T_is_trivial(random_coeffs, tag):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    if tag in ("max", "omega:1,0"):
        with pytest.raises(np.linalg.LinAlgError):
            ops.K
    else:
        m = ops.n_nodes
        assert np.linalg.norm(ops.K @ (ops.Tstar @ ops.T) - np.eye(m)) < 1e-10


def test_solve_regular_real_matrix_complex_rhs():
    """The LAPACK prefix follows b as well as A: a real-arithmetic solve
    would drop the imaginary part of b without a warning."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 6.0 * np.eye(12)
    b = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    ref = np.linalg.solve(A, b)
    assert np.abs(solve_regular(A, b) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_solve_regular_refuses_singular_matrix():
    with pytest.raises(np.linalg.LinAlgError, match="too close to the spectrum"):
        solve_regular(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("tag", ["min", "zero0", "zero1", "max", "omega:0,1"])
def test_tol_zero_is_scaled_dirac_norm(random_coeffs, tag):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(64, rho, alpha, ds.parse_bc(tag))
    norm = np.linalg.norm(ops.dirac_frame(ops.D), 2)
    assert ops.tol_zero == pytest.approx(1e-10 * norm, rel=1e-12, abs=0)


def test_half_weights_at_retained_endpoints():
    grid = build_grid(10, RHO1, ds.BoundaryCondition.zero0())
    # node n is retained with half weight; interior nodes carry full weight
    assert grid.node_weights[-1] == pytest.approx(grid.node_weights[0] / 2)


def test_build_rejects_tiny_grids():
    with pytest.raises(ValueError):
        build_operator_set(3, RHO1, ALPHA1, ds.BoundaryCondition.minimal())


@given(n=st.integers(8, 24), seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_adjoint_property_random_draws(n, seed):
    rho, alpha = ds.random_coefficients(seed)
    ops = ds.build_operator_set(n, rho, alpha, ds.BoundaryCondition.zero0())
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(ops.n_nodes)
    v = rng.standard_normal(ops.n_cells)
    lhs = np.vdot(ops.T @ u, ops.wv * v)
    rhs = np.vdot(u, ops.wu * (ops.Tstar @ v))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_adjoint_helper_matches_definition(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(10, rho, alpha, ds.BoundaryCondition.quasi(1j))
    Tstar = assemble_adjoint(ops.T, ops.wu, ops.wv)
    assert np.allclose(Tstar, ops.Tstar)
