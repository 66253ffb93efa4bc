import numpy as np
import pytest

from dampedstring.coefficients import (CoefficientError, constant,
                                       integrate_product,
                                       parse_coefficient_spec, polynomial)


def test_constant_and_polynomial_helpers():
    c = constant(2.5)
    assert c.sample(np.array([0.0, 0.3, 1.0])) == pytest.approx([2.5] * 3)
    p = polynomial((1.0, -0.5, 0.25))
    x = np.array([0.0, 0.5, 1.0])
    assert p.sample(x) == pytest.approx(1.0 - 0.5 * x + 0.25 * x * x)


def test_parse_const_and_poly():
    assert parse_coefficient_spec("const 1.5").sample(0.7) == pytest.approx(1.5)
    p = parse_coefficient_spec("poly 0 1")
    assert p.sample(0.25) == pytest.approx(0.25)


def test_parse_piecewise_right_limit_convention():
    spec = parse_coefficient_spec(
        "piece 0 0.5: const 1; piece 0.5 1: const 3")
    assert spec.sample(0.5) == pytest.approx(3.0)   # right limit at the cut
    assert spec.sample(0.49) == pytest.approx(1.0)
    assert spec.sample(1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("text", [
    "",
    "const",
    "poly",
    "wavelet 1 2",
    "piece 0 0.4: const 1; piece 0.5 1: const 1",   # partition gap
    "piece 0 0.6: const 1; piece 0.4 1: const 1",   # overlap
    "piece 0 1: const 1; piece 1 2: const 1",       # extends past 1
    "piece 0 nan: const 1; piece nan 1: const 2",   # NaN passes every comparison
    "const nan",
])
def test_parse_rejects_bad_grammar(text):
    with pytest.raises(CoefficientError):
        parse_coefficient_spec(text)


def test_density_positivity_enforced():
    with pytest.raises(CoefficientError):
        parse_coefficient_spec("poly 0.5 -1", kind="density")
    # damping may cross zero freely
    parse_coefficient_spec("poly 0.5 -1", kind="damping")


def test_integrate_product_exact_polynomials():
    # integral of x * (1 - x) over [0, 1] = 1/6
    a = polynomial((0.0, 1.0))
    b = polynomial((1.0, -1.0))
    assert integrate_product([a, b]) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_integrate_product_merges_breakpoints():
    a = parse_coefficient_spec("piece 0 0.5: const 2; piece 0.5 1: const 0")
    b = parse_coefficient_spec("piece 0 0.25: const 1; piece 0.25 1: poly 0 1")
    # exact: int_0^0.25 2 dx + int_0.25^0.5 2x dx = 0.5 + (0.25 - 0.0625)
    assert integrate_product([a, b]) == pytest.approx(0.6875, abs=1e-15)


@pytest.mark.parametrize("cut", ["0.5000000000001", "0.4999999999999"])
def test_integrate_product_reads_pieces_as_sample(cut):
    """A gap or overlap within the partition tolerance is integrated with
    the pieces that `sample` reads there: the first piece up to the second
    one's start, the second after it."""
    rho = parse_coefficient_spec(
        f"piece 0 0.5: const 1; piece {cut} 1: const 2", kind="density")
    start = float(cut)
    assert rho.sample(np.array([start - 1e-14, start])) == pytest.approx([1, 2])
    expected = start + 2.0 * (1.0 - start)
    assert integrate_product([rho]) == pytest.approx(expected, abs=1e-15)
    assert integrate_product([rho, (0.0, 1.0)]) == pytest.approx(
        0.5 * start ** 2 + (1.0 - start ** 2), abs=1e-15)


def test_sample_rejects_out_of_domain():
    with pytest.raises(CoefficientError):
        constant(1.0).sample(np.array([-0.1]))
