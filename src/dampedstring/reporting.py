"""Run configuration, verification reports, and the artifact number format.

Every artifact writes a float by `fmt_float` (shortest round-trip ``repr``)
and every CSV is built column by column by `to_csv`, so identical
configuration and seed produce byte-identical output files.  A report's
``environment`` block also names the software it ran on (`run_environment`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .coefficients import (CoefficientError, CoefficientSpec, Piece,
                           parse_coefficient_spec)
from .discretization import BoundaryCondition

__all__ = [
    "ConfigError", "RunConfig", "CheckRecord", "VerificationReport",
    "parse_bc", "random_coefficients", "fmt_float", "to_csv",
    "run_environment",
]

MAX_PIECES, MAX_DEGREE = 3, 3   # of the seeded coefficient draws


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


def _integer(value) -> int:
    """A config integer: a boolean or a number with a fractional part is an
    error, not truncated."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A config real number: a boolean is an error, not 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got a boolean")
    return float(value)


@dataclass(frozen=True)
class RunConfig:
    n_grid: int = 64
    bc: BoundaryCondition = field(default_factory=BoundaryCondition.minimal)
    rho_text: str = "const 1"
    alpha_text: str = "const 1"
    zeta: float = 0.1
    n_max: int = 1
    seeds: tuple = (0, 1, 2, 3, 4)
    fit_window: tuple = (1 / 16, 1 / 8)
    out_dir: str = "."
    # rho_text and alpha_text parsed, when the config is made
    rho: CoefficientSpec = field(init=False, repr=False, compare=False)
    alpha: CoefficientSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_grid < 8:
            raise ConfigError("n_grid must be at least 8")
        if self.n_max < 0:
            raise ConfigError("n_max must be nonnegative")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"'seeds' must be nonnegative (config key or "
                              f"--seed), got {min(self.seeds)}")
        if not np.isfinite(self.zeta):
            raise ConfigError(f"'zeta' must be finite, got {self.zeta}")
        if len(self.fit_window) != 2 or not (
                0 < self.fit_window[0] < self.fit_window[1] <= 1):
            raise ConfigError("fit window must be two fractions 0 < lo < hi <= 1")
        # parsed here, so a malformed spec is a config error for every
        # command, those that draw their own coefficients included
        for name, kind in (("rho", "density"), ("alpha", "damping")):
            try:
                spec = parse_coefficient_spec(getattr(self, f"{name}_text"),
                                              kind=kind)
            except CoefficientError as exc:
                raise ConfigError(f"bad {kind} spec {name!r}: {exc}") from exc
            object.__setattr__(self, name, spec)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        kw = {}
        parsers = {"n_grid": _integer, "zeta": _real, "n_max": _integer,
                   "rho": str, "alpha": str, "out": str,
                   "bc": parse_bc,
                   "seeds": lambda v: tuple(_integer(s) for s in v),
                   "fit_window": lambda v: tuple(_real(x) for x in v)}
        rename = {"rho": "rho_text", "alpha": "alpha_text", "out": "out_dir"}
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
            # a former key, kept at its old value so config_hash is unchanged
            "speed": None, "zeta": repr(self.zeta),
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
            tolerance: float | None) -> CheckRecord:
        if tolerance is None:
            status = "report-only"
        else:
            status = "pass" if measured <= tolerance else "fail"
        rec = CheckRecord(name, anchor, status, float(measured), tolerance)
        self.records.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_json(self) -> str:
        return json.dumps({
            "environment": {
                "n_grid": self.config.n_grid,
                "bc": str(self.config.bc),
                "config_hash": self.config.fingerprint(),
                **run_environment(),
            },
            "passed": self.passed,
            "records": [r.as_dict() for r in self.records],
        }, indent=2)

    def summary_lines(self):
        for r in self.records:
            tol = "-" if r.tolerance is None else f"{r.tolerance:.3e}"
            yield (f"[{r.status.upper():>11}] {r.name}: "
                   f"measured {r.measured:.6e} (tol {tol})")


@functools.cache
def run_environment() -> dict:
    """The software a report ran on: the installed package's version (None
    when it is imported from a source tree that is not installed), the
    Python, numpy and scipy versions, the BLAS numpy was built with, and
    every ``*_NUM_THREADS`` variable.  Computed once per process; every
    call returns the same dict, which callers copy rather than change."""
    import platform
    from importlib import metadata

    import scipy
    try:
        version = metadata.version("dampedstring")
    except metadata.PackageNotFoundError:
        version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "package_version": version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def random_coefficients(seed: int) -> tuple[CoefficientSpec,
                                            CoefficientSpec]:
    """Seeded draw of (rho, alpha): piecewise polynomials of at most
    MAX_PIECES pieces of degree at most MAX_DEGREE, rho in [0.5, 2], alpha
    in [-1, 1]."""
    rng = np.random.default_rng(seed)

    def draw(lo: float, hi: float, kind: str) -> CoefficientSpec:
        k = int(rng.integers(1, MAX_PIECES + 1))
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, k - 1)),
                               [1.0]])
        pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            deg = int(rng.integers(0, MAX_DEGREE + 1))
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


def _float_cells(col: np.ndarray) -> list:
    """The `fmt_float` texts of a float column, each distinct bit pattern
    formatted once and indexed back to its rows.  Bits, not values, so
    -0.0 and 0.0, and NaNs of different payloads, keep their own texts."""
    bits = col.view(f"u{col.itemsize}")
    _, first, back = np.unique(bits, return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, col[first].tolist())), dtype=object)
    return texts[back].tolist()


def to_csv(header: tuple[str, ...], columns) -> str:
    """CSV text: the header names, then one line per row of the equally
    long ``columns``.  A float column is written as `fmt_float` writes it,
    the ``repr`` of the Python float, formatted once per distinct bit
    pattern and repeated where the pattern repeats; integer and label
    columns are written by ``str``.  ValueError when the columns differ in
    length."""
    columns = [np.asarray(col) for col in columns]
    if len({len(col) for col in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    cells = [_float_cells(col) if col.dtype.kind == "f"
             else map(str, col.tolist()) for col in columns]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"
