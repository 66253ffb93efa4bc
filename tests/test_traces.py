import json

import numpy as np
import pytest

import dampedstring as ds
from dampedstring import traces

MIN = ds.BoundaryCondition.minimal()
RHO1 = ds.constant(1.0, "density")
ALPHA1 = ds.constant(1.0, "damping")


@pytest.fixture(scope="module")
def rand_setup():
    rho, alpha = ds.random_coefficients(21)
    ops = ds.build_operator_set(40, rho, alpha, ds.BoundaryCondition.zero0())
    return ops, ds.eigen_dirac(ops)


def test_t0_two_paths_agree(rand_setup):
    ops, _ = rand_setup
    closed = traces.trace_coefficient(0, ops, "closed")
    neumann = traces.trace_coefficient(0, ops, "neumann")
    assert abs(closed - neumann) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "omega:0,1",
                                "omega:0.5,0.3"])
def test_t2_two_paths_agree(bc):
    rho, alpha = ds.random_coefficients(21)
    ops = ds.build_operator_set(40, rho, alpha, ds.parse_bc(bc))
    closed = traces.trace_coefficient(1, ops, "closed")
    neumann = traces.trace_coefficient(1, ops, "neumann")
    assert abs(closed - neumann) <= 1e-10 * max(abs(closed), 1.0)


def test_higher_order_identities(rand_setup):
    """Orders n=2,3 via the Neumann path against the eigenvalue sums."""
    ops, spec = rand_setup
    for n in (2, 3):
        d_even, d_odd = traces.verify_trace_identity(n, ops, spec)
        scale = float(np.sum(np.abs(spec.nonzero()) ** -(2 * n + 1)))
        assert d_even <= 1e-8 * max(scale, 1e-6)
        assert d_odd <= 1e-8 * max(scale, 1e-6)


def test_undamped_sums_vanish():
    rho, _ = ds.random_coefficients(22)
    ops = ds.build_operator_set(32, rho, ds.constant(0.0, "damping"), MIN)
    spec = ds.eigen_dirac(ops)
    for m in range(4):
        assert abs(traces.eigen_sum(m, spec)) < 1e-10


def test_eigen_sum_continuum_value():
    ops = ds.build_operator_set(512, RHO1, ALPHA1, MIN)
    spec = ds.constant_damping_dirac(ops)
    assert traces.eigen_sum(0, spec) == pytest.approx(-1.0 / 6.0, abs=2e-5)


def test_ledger_serialization(rand_setup):
    ops, spec = rand_setup
    ledger = traces.build_ledger(ops, spec, n_max=1)
    payload = json.loads(ledger.to_json())
    assert payload["bc"] == "zero0"
    assert payload["n_grid"] == 40
    assert len(payload["t"]) == 2
    assert len(payload["lhs"]) == 4
    assert payload["zero_modes"] == spec.zero_modes
    assert "t0_analytic" in payload["continuum"]
    # floats round-trip through repr
    assert float(payload["t"][0]) == ledger.t[0]


def test_ledger_propagates_unexpected_continuum_errors(rand_setup, monkeypatch):
    """Only a family without a bounded inverse leaves t0_analytic empty."""
    ops, spec = rand_setup

    def broken(bc, alpha):
        raise RuntimeError("broken continuum path")

    monkeypatch.setattr(traces, "t0_analytic", broken)
    with pytest.raises(RuntimeError, match="broken continuum path"):
        traces.build_ledger(ops, spec, n_max=1)


def test_trace_coefficient_rejects_singular():
    rho, alpha = ds.random_coefficients(23)
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    with pytest.raises(np.linalg.LinAlgError):
        traces.trace_coefficient(0, ops)


def test_resolvent_trace_identity_and_parity():
    ops = ds.build_operator_set(32, RHO1, ALPHA1, MIN)
    lhs, rhs, parity = traces.resolvent_trace_expansion(0.1, ops)
    assert abs(lhs - rhs) < 1e-10
    assert parity < 1e-10


def test_resolvent_trace_zero_matches_t0():
    ops = ds.build_operator_set(32, RHO1, ALPHA1, MIN)
    lhs, rhs, _ = traces.resolvent_trace_expansion(0.0, ops)
    assert rhs == pytest.approx(traces.trace_coefficient(0, ops), abs=1e-9)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("bc", [ds.BoundaryCondition.maximal(),
                                ds.BoundaryCondition.quasi(1.0)],
                         ids=str)
def test_resolvent_trace_zero_rejects_singular_node_operator(bc):
    """ker T is nontrivial for max and omega:1,0, so T*T - zeta^2 - i zeta C
    is singular at zeta = 0 and the node-space side cannot be formed."""
    ops = ds.build_operator_set(32, RHO1, ALPHA1, bc)
    with pytest.raises(ValueError, match="too close to the spectrum"):
        traces.resolvent_trace_expansion(0.0, ops)


def test_regularized_sum_constant_damping():
    ops = ds.build_operator_set(128, RHO1, ds.constant(0.8, "damping"), MIN)
    spec = ds.constant_damping_dirac(ops)
    out = traces.regularized_sum_check(spec, ops)
    # every paired term vanishes for constant damping, so partial sums stay 0
    assert out["target"] == pytest.approx(0.0)
    assert np.abs(out["partial_sums"]).max() < 1e-8


def test_regularized_sum_linear_damping_trend():
    alpha = ds.polynomial((0.0, 1.0), "damping")
    gaps = []
    for n in (128, 256):
        ops = ds.build_operator_set(n, RHO1, alpha, MIN)
        spec = ds.eigen_dirac(ops)
        out = traces.regularized_sum_check(spec, ops, j_cut=n // 4)
        gaps.append(out["final_gap"])
        assert out["target"] == pytest.approx(0.0)
    assert gaps[1] < gaps[0]


def test_livsic_equality_and_inequality():
    rho, alpha = ds.random_coefficients(25)
    ops = ds.build_operator_set(24, rho, alpha, ds.BoundaryCondition.zero1())
    out = traces.livsic_check(ops)
    assert out["gap"] < 1e-9
    assert out["inequality_holds"]


def test_series_coefficient_sanity():
    ops = ds.build_operator_set(32, RHO1, ALPHA1, MIN)
    spec = ds.eigen_dirac(ops)
    out = traces.series_coefficient_check(spec, orders=3)
    assert out["max_gap"] < 1e-6
