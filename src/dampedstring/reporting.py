"""Run configuration, verification reports, and the artifact number format.

Every artifact writes a float by `fmt_float` (shortest round-trip ``repr``)
and every CSV is built by `to_csv`, so identical configuration and seed
produce byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .coefficients import (CoefficientError, CoefficientSpec, Piece, constant,
                           parse_coefficient_spec, reduce_variable_speed)
from .discretization import BoundaryCondition

__all__ = [
    "ConfigError", "RunConfig", "CheckRecord", "VerificationReport",
    "parse_bc", "random_coefficients", "fmt_float", "to_csv",
]


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def parse_bc(text: str) -> BoundaryCondition:
    t = text.strip().lower()
    simple = {"min": BoundaryCondition.minimal,
              "zero0": BoundaryCondition.zero0,
              "zero1": BoundaryCondition.zero1,
              "max": BoundaryCondition.maximal}
    if t in simple:
        return simple[t]()
    if t.startswith("omega:"):
        try:
            re_s, im_s = t[len("omega:"):].split(",")
            return BoundaryCondition.quasi(complex(float(re_s), float(im_s)))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad omega in bc {text!r}: {exc}") from exc
    raise ConfigError(
        f"unknown bc {text!r}; expected min|zero0|zero1|max|omega:RE,IM")


@dataclass(frozen=True)
class RunConfig:
    n_grid: int = 64
    bc: BoundaryCondition = field(default_factory=BoundaryCondition.minimal)
    rho_text: str = "const 1"
    alpha_text: str = "const 1"
    speed_text: str | None = None
    zeta: float = 0.1
    n_max: int = 1
    seeds: tuple = (0, 1, 2, 3, 4)
    fit_window: tuple = (1 / 16, 1 / 8)
    out_dir: str = "."

    def __post_init__(self):
        if self.n_grid < 8:
            raise ConfigError("n_grid must be at least 8")
        if self.n_max < 0:
            raise ConfigError("n_max must be nonnegative")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(self.fit_window) != 2 or not (
                0 < self.fit_window[0] < self.fit_window[1] <= 1):
            raise ConfigError("fit window must be two fractions 0 < lo < hi <= 1")

    def coefficients(self) -> tuple[CoefficientSpec, CoefficientSpec]:
        """Parsed (rho, alpha); a speed profile triggers the reduction to c=1."""
        try:
            rho = parse_coefficient_spec(self.rho_text, kind="density")
            alpha = parse_coefficient_spec(self.alpha_text, kind="damping")
        except CoefficientError as exc:
            raise ConfigError(str(exc)) from exc
        if self.speed_text is not None:
            c = parse_coefficient_spec(self.speed_text, kind="density")
            rho, alpha = reduce_variable_speed(rho, alpha, c)
        return rho, alpha

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        kw = {}
        parsers = {"n_grid": int, "zeta": float, "n_max": int,
                   "rho": str, "alpha": str, "speed": str, "out": str,
                   "bc": parse_bc,
                   "seeds": lambda v: tuple(int(s) for s in v),
                   "fit_window": lambda v: tuple(float(x) for x in v)}
        rename = {"rho": "rho_text", "alpha": "alpha_text",
                  "speed": "speed_text", "out": "out_dir"}
        for key, value in raw.items():
            if key not in parsers:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                kw[rename.get(key, key)] = parsers[key](value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
        return cls(**kw)

    def override(self, **kw) -> "RunConfig":
        return replace(self, **{k: v for k, v in kw.items() if v is not None})

    def fingerprint(self) -> str:
        blob = json.dumps({
            "n_grid": self.n_grid, "bc": str(self.bc),
            "rho": self.rho_text, "alpha": self.alpha_text,
            "speed": self.speed_text, "zeta": repr(self.zeta),
            "n_max": self.n_max, "seeds": list(self.seeds),
            "fit_window": [repr(v) for v in self.fit_window],
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str                # pass | fail | report-only
    measured: float
    tolerance: float | None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_anchor": self.anchor,
            "status": self.status,
            "measured": fmt_float(self.measured),
            "tolerance": None if self.tolerance is None else fmt_float(self.tolerance),
        }


@dataclass
class VerificationReport:
    config: RunConfig
    records: list = field(default_factory=list)

    def add(self, name: str, anchor: str, measured: float,
            tolerance: float | None, hard: bool = True) -> CheckRecord:
        if tolerance is None or not hard:
            status = "report-only"
        else:
            status = "pass" if measured <= tolerance else "fail"
        rec = CheckRecord(name, anchor, status, float(measured), tolerance)
        self.records.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({
            "environment": {
                "n_grid": self.config.n_grid,
                "bc": str(self.config.bc),
                "config_hash": self.config.fingerprint(),
            },
            "passed": self.passed,
            "records": [r.as_dict() for r in self.records],
        }, indent=indent)

    def summary_lines(self):
        for r in self.records:
            tol = "-" if r.tolerance is None else f"{r.tolerance:.3e}"
            yield (f"[{r.status.upper():>11}] {r.name}: "
                   f"measured {r.measured:.6e} (tol {tol})")


def random_coefficients(seed: int, max_pieces: int = 3,
                        max_degree: int = 3) -> tuple[CoefficientSpec,
                                                      CoefficientSpec]:
    """Seeded draw of (rho, alpha): piecewise polynomials, rho in [0.5, 2],
    alpha in [-1, 1], degree <= 3."""
    rng = np.random.default_rng(seed)

    def draw(lo: float, hi: float, kind: str) -> CoefficientSpec:
        k = int(rng.integers(1, max_pieces + 1))
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, k - 1)),
                               [1.0]])
        pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            deg = int(rng.integers(0, max_degree + 1))
            # anchor the constant term inside the range, keep the variation
            # small enough that the whole piece stays within [lo, hi]
            c0 = rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
            rest = rng.uniform(-1, 1, deg) * (0.2 * (hi - lo) / max(deg, 1))
            pieces.append(Piece(float(a), float(b),
                                (float(c0), *map(float, rest))))
        return CoefficientSpec(tuple(pieces), kind)

    return draw(0.5, 2.0, "density"), draw(-1.0, 1.0, "damping")


def fmt_float(x) -> str:
    """The artifact text of a float: its shortest round-trip ``repr``,
    without the ``np.float64(...)`` wrapper numpy 2 puts on its scalars."""
    return repr(float(x))


def to_csv(header: tuple[str, ...], rows) -> str:
    """CSV text: the header names, then one line per row; floats are
    written by `fmt_float`, integers and labels as they are."""
    def cell(x):
        return fmt_float(x) if isinstance(x, (float, np.floating)) else str(x)
    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
