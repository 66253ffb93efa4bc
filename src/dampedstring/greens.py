"""Closed-form Green's kernels of (T*T)^{-1} at spectral parameter 0.

The kernels are rho-independent: T*T = -(1/rho^2) d^2/dx^2 and the rho^2 dx
measure cancel in the integral kernel.  For the quasi-periodic family the two
linear coefficients are obtained by solving the 2x2 endpoint system

    G(1,x') = omega G(0,x'),   d/dx G(1,x') = (1/conj(omega)) d/dx G(0,x'),

which places (1+conj(omega))/(2(1-conj(omega))) on the x term and
(1+omega)/(2(1-omega)) on the x' term.  Swapping the two slots yields a
kernel that fails both the boundary system and the discrete-operator oracle
for non-real omega; tests cross-check the derived placement both ways.
"""

from __future__ import annotations

import numpy as np

from .coefficients import CoefficientSpec, integrate_product
from .discretization import BoundaryCondition, WeightedGrid

__all__ = ["greens_kernel", "t0_analytic", "t0_weight_polynomial",
           "apply_inverse_via_kernel", "KernelUnavailableError"]


class KernelUnavailableError(ValueError):
    """No bounded inverse: T*T has a nontrivial kernel for this family."""


def _check_bc(bc: BoundaryCondition):
    if bc.tag == "max":
        raise KernelUnavailableError("maximal family: T*T has a zero mode")
    if bc.tag == "quasi" and bc.omega == 1:
        raise KernelUnavailableError("omega=1: T*T has a zero mode")


def quasi_linear_coefficients(omega: complex) -> tuple[complex, complex]:
    """Coefficients (on x, on x') of the quasi-periodic kernel's linear part."""
    omega = complex(omega)
    cx = (1 + omega.conjugate()) / (2 * (1 - omega.conjugate()))
    cxp = (1 + omega) / (2 * (1 - omega))
    return -cx, -cxp


def greens_kernel(bc: BoundaryCondition, x, xp):
    """Evaluate G_{T*T}(0, x, x'); broadcasts over array arguments."""
    _check_bc(bc)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if np.any((x < 0) | (x > 1)) or np.any((xp < 0) | (xp > 1)):
        raise ValueError("kernel arguments must lie in [0,1]")
    if bc.tag == "min":
        out = np.minimum(x, xp) - x * xp
    elif bc.tag == "zero0":
        out = np.minimum(x, xp)
    elif bc.tag == "zero1":
        out = 1.0 - np.maximum(x, xp)
    else:
        om = bc.omega
        cx, cxp = quasi_linear_coefficients(om)
        out = (-0.5 * np.abs(x - xp) + cx * x + cxp * xp
               + 1.0 / abs(1 - om) ** 2)
    if out.ndim:
        return out
    return complex(out) if bc.tag == "quasi" else float(out)


def t0_weight_polynomial(bc: BoundaryCondition):
    """Ascending coefficients of the diagonal kernel weight w(x) = G(0,x,x)."""
    _check_bc(bc)
    if bc.tag == "min":
        return (0.0, 1.0, -1.0)            # x(1-x)
    if bc.tag == "zero0":
        return (0.0, 1.0)                  # x
    if bc.tag == "zero1":
        return (1.0, -1.0)                 # 1-x
    om = bc.omega
    a = abs(1 - om) ** 2
    # diag of the kernel: [(|omega|^2 - 1) x + 1] / |1-omega|^2
    return (1.0 / a, (abs(om) ** 2 - 1.0) / a)


def t0_analytic(bc: BoundaryCondition, alpha: CoefficientSpec) -> float:
    """Exact t0 = integral of G(0,x,x) alpha(x) dx for the given family."""
    return integrate_product([t0_weight_polynomial(bc), alpha])


def apply_inverse_via_kernel(bc: BoundaryCondition, f,
                             grid: WeightedGrid) -> np.ndarray:
    """Continuum (T*T)^{-1} f at the retained nodes via cell-midpoint quadrature.

    f may be a callable on [0,1] or values sampled at the cell midpoints.
    The quadrature weights are the grid's rho^2 h cell weights, matching the
    discrete inner product like-for-like.
    """
    _check_bc(bc)
    fv = np.asarray(f(grid.mids) if callable(f) else f, dtype=complex)
    if fv.shape != grid.mids.shape:
        raise ValueError("f must be sampled at the cell midpoints")
    G = greens_kernel(bc, grid.nodes[:, None], grid.mids[None, :])
    u = G @ (grid.cell_weights * fv)
    return u if bc.tag == "quasi" else u.real
