"""Piecewise-polynomial coefficient model for the density rho and damping alpha.

Coefficients live on [0,1] and are stored piece by piece as polynomial
segments.  A point is read from the last piece that starts at or before it
(`_piece_at`), by `CoefficientSpec.sample` and `integrate_product` alike.  All
integration is done with closed-form antiderivatives, so downstream trace
integrals carry no quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientError",
    "Piece",
    "CoefficientSpec",
    "parse_coefficient_spec",
    "integrate_product",
]

_PARTITION_TOL = 1e-12
_DENSITY_PROBE = 1000    # points of the density positivity probe


class CoefficientError(ValueError):
    """Invalid coefficient description (grammar, partition, or positivity)."""


@dataclass(frozen=True)
class Piece:
    """One segment [a, b) with value poly(num), coefficients ascending."""

    a: float
    b: float
    num: tuple[float, ...]

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float),
                                                np.asarray(self.num))


def _piece_at(pieces: tuple[Piece, ...], x):
    """Index of the piece that holds each x: the last piece that starts at or
    before x, the first piece before its start and the final piece at x = 1."""
    edges = np.array([p.a for p in pieces] + [1.0])
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0,
                   len(pieces) - 1)


@dataclass(frozen=True)
class CoefficientSpec:
    """A piecewise coefficient on [0,1].

    kind='density' enforces strict positivity on a fine probe grid; both kinds
    require real coefficients.  The value at an interior breakpoint is the
    right-limit; x=1 evaluates the final piece.
    """

    pieces: tuple[Piece, ...]
    kind: str = "damping"

    def __post_init__(self):
        if self.kind not in ("density", "damping"):
            raise CoefficientError(f"unknown kind {self.kind!r}")
        if not self.pieces:
            raise CoefficientError("empty coefficient spec")
        pos = 0.0
        for p in self.pieces:
            values = np.array([p.a, p.b, *p.num])
            if not (np.all(np.isreal(values)) and np.all(np.isfinite(values))):
                raise CoefficientError(f"piece [{p.a}, {p.b}): endpoints and "
                                       "coefficients must be finite reals")
            if p.b <= p.a:
                raise CoefficientError(f"piece [{p.a}, {p.b}) is empty or reversed")
            if abs(p.a - pos) > _PARTITION_TOL:
                raise CoefficientError(
                    f"partition gap/overlap at x={p.a} (expected {pos})")
            pos = p.b
        if abs(pos - 1.0) > _PARTITION_TOL:
            raise CoefficientError(f"partition ends at {pos}, must end at 1")
        if self.kind == "density":
            xs = np.linspace(0.0, 1.0, _DENSITY_PROBE)
            if np.min(self.sample(xs)) <= 0.0:
                raise CoefficientError("density must be strictly positive on [0,1]")

    def sample(self, x):
        """Evaluate at x in [0,1] by `_piece_at`: the right limit at a cut."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise CoefficientError("sample point outside [0,1]")
        idx = _piece_at(self.pieces, x)
        out = np.empty(x.shape, dtype=float)
        for i, p in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                out[m] = p(x[m])
        return out if out.ndim else float(out)

    def __call__(self, x):
        return self.sample(x)


def constant(value: float, kind: str = "damping") -> CoefficientSpec:
    return CoefficientSpec((Piece(0.0, 1.0, (float(value),)),), kind)


def polynomial(coeffs, kind: str = "damping") -> CoefficientSpec:
    return CoefficientSpec((Piece(0.0, 1.0, tuple(float(c) for c in coeffs)),), kind)


def _parse_sub(text: str, offset: int) -> tuple[float, ...]:
    toks = text.split()
    if not toks:
        raise CoefficientError(f"empty sub-spec at position {offset}")
    if toks[0] == "const":
        if len(toks) != 2:
            raise CoefficientError(f"const takes one value (position {offset})")
        return (_num(toks[1], offset),)
    if toks[0] == "poly":
        if len(toks) < 2:
            raise CoefficientError(f"poly needs coefficients (position {offset})")
        return tuple(_num(t, offset) for t in toks[1:])
    raise CoefficientError(f"unknown keyword {toks[0]!r} at position {offset}")


def _num(tok: str, offset: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise CoefficientError(f"bad number {tok!r} near position {offset}") from None


def parse_coefficient_spec(text: str, kind: str = "damping") -> CoefficientSpec:
    """Parse the spec grammar.

    Grammar: ``const <r>`` | ``poly <c0> <c1> ...`` |
    ``piece <a> <b>: <sub>; piece <a> <b>: <sub>; ...`` where the final piece
    must end at 1.
    """
    text = text.strip()
    if not text:
        raise CoefficientError("empty coefficient text")
    if text.startswith("piece"):
        pieces = []
        for chunk in filter(None, (c.strip() for c in text.split(";"))):
            offset = text.find(chunk)
            if not chunk.startswith("piece"):
                raise CoefficientError(f"expected 'piece' at position {offset}")
            head, sep, sub = chunk.partition(":")
            if not sep:
                raise CoefficientError(f"missing ':' in piece at position {offset}")
            toks = head.split()
            if len(toks) != 3:
                raise CoefficientError(f"piece needs two endpoints (position {offset})")
            a, b = _num(toks[1], offset), _num(toks[2], offset)
            pieces.append(Piece(a, b, _parse_sub(sub.strip(), offset)))
        return CoefficientSpec(tuple(pieces), kind)
    return CoefficientSpec((Piece(0.0, 1.0, _parse_sub(text, 0)),), kind)


def _as_pieces(factor) -> tuple[Piece, ...]:
    if isinstance(factor, CoefficientSpec):
        return factor.pieces
    try:
        coeffs = tuple(float(c) for c in factor)
    except TypeError:
        raise CoefficientError(f"cannot interpret factor {factor!r}") from None
    return (Piece(0.0, 1.0, coeffs),)


def integrate_product(factors) -> float:
    """Exact integral of a product of piecewise polynomials over [0,1].

    Each factor is a CoefficientSpec or a plain ascending coefficient list
    (interpreted on all of [0,1]).  Between consecutive endpoints each factor
    contributes the piece that `sample` reads at the midpoint.
    """
    factor_pieces = [_as_pieces(f) for f in factors]
    if not factor_pieces:
        raise CoefficientError("no factors to integrate")
    cuts = {0.0, 1.0}
    for pieces in factor_pieces:
        cuts.update(p.a for p in pieces)
        cuts.update(p.b for p in pieces)
    cuts = sorted(c for c in cuts if 0.0 <= c <= 1.0)
    total = 0.0
    P = np.polynomial.polynomial
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        prod = np.array([1.0])
        for pieces in factor_pieces:
            prod = P.polymul(prod, np.asarray(pieces[_piece_at(pieces, mid)].num))
        anti = P.polyint(prod)
        total += P.polyval(hi, anti) - P.polyval(lo, anti)
    return float(total)

