"""Run configuration: a small sectioned key-value format.

The format is deliberately plain so fixture files can live in the repo and
be written by hand::

    [system]
    branch_slopes = [0.5, 0.5]
    branch_offsets = [0.0, 0.5]
    probabilities = [0.5, 0.5]
    sigma = "inferred"            # or: sigma_slope = 2

    [weight]
    kind = "trig"                 # constant | trig | table
    constant_term = 1.0
    cos = [1.0]

    [grid]
    cells = 1024

    [solver]
    tol = 1e-12                   # every harmonic solve: converged below it
    max_iter = 2000               # power method only
    seed = 0                      # power method only

Unknown sections or keys are errors, and so are a key given twice, a key
that the selected weight or measure kind does not read, and ``sigma``
together with ``sigma_slope``; parse errors carry the line number and
semantic errors the field name.  ``RunConfig.emit()`` produces a canonical
text whose re-parse equals the original config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError
from .grid import GridFunction, Measure
from .system import IfsSystem, WeightExpr, make_system

_SCHEMA: dict[str, dict[str, type]] = {
    "system": {"branch_slopes": list, "branch_offsets": list,
               "probabilities": list, "sigma": str, "sigma_slope": float},
    "weight": {"kind": str, "value": float, "constant_term": float,
               "cos": list, "sin": list, "table_values": list},
    "grid": {"cells": float},
    "solver": {"tol": float, "max_iter": float, "seed": float},
    "sampler": {"seed": float, "paths": float},
    "measure": {"kind": str, "positions": list, "masses": list},
}
# The keys each kind of weight and of measure reads, with the RunConfig
# field each fills; the first kind of a section is its default.  Parsing
# rejects any other key of the section, and emit writes exactly these keys,
# leaving out an empty ``cos`` or ``sin``.
_KIND_KEYS: dict[str, dict[str, dict[str, str]]] = {
    "weight": {"constant": {"value": "weight_value"},
               "trig": {"constant_term": "weight_const", "cos": "weight_cos",
                        "sin": "weight_sin"},
               "table": {"table_values": "weight_table"}},
    "measure": {"lebesgue": {},
                "atoms": {"positions": "measure_positions",
                          "masses": "measure_masses"}},
}


@dataclass
class RunConfig:
    branch_slopes: list[float]
    branch_offsets: list[float]
    probabilities: list[float]
    sigma_slope: int | None = None
    weight_kind: str = "constant"
    weight_value: float = 1.0
    weight_const: float = 1.0
    weight_cos: list[float] = field(default_factory=list)
    weight_sin: list[float] = field(default_factory=list)
    weight_table: list[float] = field(default_factory=list)
    cells: int = 1024
    solver_tol: float = 1e-12
    solver_max_iter: int = 2000
    solver_seed: int = 0
    sampler_seed: int = 7
    sampler_paths: int = 100_000
    measure_kind: str = "lebesgue"
    measure_positions: list[float] = field(default_factory=list)
    measure_masses: list[float] = field(default_factory=list)

    # -- construction of model objects -----------------------------------

    def build_weight(self) -> WeightExpr:
        if self.weight_kind == "constant":
            return WeightExpr.constant(self.weight_value)
        if self.weight_kind == "trig":
            return WeightExpr.trig(self.weight_const, self.weight_cos,
                                   self.weight_sin)
        if self.weight_kind == "table":
            if not self.weight_table:
                raise ConfigError("table weight needs table_values",
                                  field="weight.table_values")
            return WeightExpr.from_table(GridFunction(self.weight_table))
        raise ConfigError(f"unknown weight kind '{self.weight_kind}'",
                          field="weight.kind")

    def build_system(self) -> IfsSystem:
        try:
            return make_system(self.branch_slopes, self.branch_offsets,
                               self.probabilities, self.build_weight(),
                               sigma=self.sigma_slope, n_grid=self.cells)
        except DomainError as exc:
            raise ConfigError(str(exc), field="system") from exc

    def build_measure(self) -> Measure:
        if self.measure_kind == "lebesgue":
            return Measure.lebesgue(self.cells)
        if self.measure_kind == "atoms":
            if len(self.measure_positions) != len(self.measure_masses):
                raise ConfigError("positions and masses differ in length",
                                  field="measure.positions")
            return Measure([0.0] * self.cells,
                           list(zip(self.measure_positions,
                                    self.measure_masses)))
        raise ConfigError(f"unknown measure kind '{self.measure_kind}'",
                          field="measure.kind")

    # -- canonical serialization ------------------------------------------

    def emit(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, str):
                return f'"{v}"'
            if isinstance(v, list):
                return "[" + ", ".join(repr(float(x)) for x in v) + "]"
            if isinstance(v, bool):
                return repr(v)
            if isinstance(v, int):
                return repr(v)
            return repr(float(v))

        def kind_lines(section: str, kind: str) -> list[str]:
            return [f"{key} = {fmt(getattr(self, name))}" for key, name
                    in _KIND_KEYS[section].get(kind, {}).items()
                    if getattr(self, name) or key not in ("cos", "sin")]

        lines = ["[system]",
                 f"branch_slopes = {fmt(self.branch_slopes)}",
                 f"branch_offsets = {fmt(self.branch_offsets)}",
                 f"probabilities = {fmt(self.probabilities)}"]
        if self.sigma_slope is not None:
            lines.append(f"sigma_slope = {self.sigma_slope}")
        else:
            lines.append('sigma = "inferred"')
        lines += ["", "[weight]", f'kind = "{self.weight_kind}"',
                  *kind_lines("weight", self.weight_kind)]
        lines += ["", "[grid]", f"cells = {self.cells}"]
        lines += ["", "[solver]", f"tol = {fmt(self.solver_tol)}",
                  f"max_iter = {self.solver_max_iter}",
                  f"seed = {self.solver_seed}"]
        lines += ["", "[sampler]", f"seed = {self.sampler_seed}",
                  f"paths = {self.sampler_paths}"]
        lines += ["", "[measure]", f'kind = "{self.measure_kind}"',
                  *kind_lines("measure", self.measure_kind)]
        return "\n".join(lines) + "\n"


def _finite(value: float, text: str, lineno: int) -> float:
    """``value``, parsed from ``text``, unless it is ``nan`` or infinite
    (``inf`` or an overflowing literal): no key has a use for those."""
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number '{text.strip()}'", line=lineno)
    return value


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError("unterminated list", line=lineno)
        inner = raw[1:-1].strip()
        if not inner:
            return []
        out = []
        for piece in inner.split(","):
            try:
                out.append(_finite(float(piece), piece, lineno))
            except ValueError:
                raise ConfigError(f"bad number '{piece.strip()}' in list",
                                  line=lineno) from None
        return out
    try:
        return _finite(float(raw), raw, lineno)
    except ValueError:
        raise ConfigError(f"cannot parse value '{raw}'", line=lineno) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a :class:`RunConfig`."""
    data: dict[str, dict[str, object]] = {}
    where: dict[tuple[str, str], int] = {}   # (section, key) -> line
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section '[{section}]'", line=lineno)
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section '[{section}]'",
                              line=lineno)
        if (section, key) in where:
            raise ConfigError(f"'{key}' given twice in '[{section}]', first "
                              f"on line {where[section, key]}", line=lineno)
        where[section, key] = lineno
        value = _parse_value(raw_val, lineno)
        expected = _SCHEMA[section][key]
        if expected is list and not isinstance(value, list):
            raise ConfigError(f"'{key}' expects a list", line=lineno)
        if expected is str and not isinstance(value, str):
            raise ConfigError(f"'{key}' expects a quoted string", line=lineno)
        if expected is float and not isinstance(value, float):
            raise ConfigError(f"'{key}' expects a number", line=lineno)
        data[section][key] = value

    sys_sec = data.get("system", {})
    for required in ("branch_slopes", "branch_offsets", "probabilities"):
        if required not in sys_sec:
            raise ConfigError(f"missing required key '{required}'",
                              field=f"system.{required}")
    weight_sec = data.get("weight", {})
    grid_sec = data.get("grid", {})
    solver_sec = data.get("solver", {})
    sampler_sec = data.get("sampler", {})
    measure_sec = data.get("measure", {})

    def positive(sec: dict, key: str, default: float, field_name: str) -> float:
        val = float(sec.get(key, default))
        if val <= 0:
            raise ConfigError("value must be positive", field=field_name)
        return val

    def integer(sec: dict, key: str, default: int, field_name: str,
                least: int) -> int:
        val = float(sec.get(key, default))
        if not val.is_integer():
            raise ConfigError(f"value must be an integer, got {val:g}",
                              field=field_name)
        if val < least:
            raise ConfigError(f"value must be at least {least}, got {val:g}",
                              field=field_name)
        return int(val)

    if sys_sec.get("sigma", "inferred") != "inferred":
        raise ConfigError(f"unknown sigma mode '{sys_sec['sigma']}'",
                          field="system.sigma")
    if "sigma" in sys_sec and "sigma_slope" in sys_sec:
        raise ConfigError("'sigma' and 'sigma_slope' exclude each other",
                          line=max(where["system", "sigma"],
                                   where["system", "sigma_slope"]))
    for name, kinds in _KIND_KEYS.items():
        sec = data.get(name, {})
        kind = sec.get("kind", next(iter(kinds)))
        for key in sec:
            if kind in kinds and key != "kind" and key not in kinds[kind]:
                raise ConfigError(f"'{key}' is not read by {name} kind "
                                  f"'{kind}'", line=where[name, key])

    return RunConfig(
        branch_slopes=list(sys_sec["branch_slopes"]),
        branch_offsets=list(sys_sec["branch_offsets"]),
        probabilities=list(sys_sec["probabilities"]),
        sigma_slope=(integer(sys_sec, "sigma_slope", 0,
                             "system.sigma_slope", 2)
                     if "sigma_slope" in sys_sec else None),
        weight_kind=weight_sec.get("kind", "constant"),
        weight_value=float(weight_sec.get("value", 1.0)),
        weight_const=float(weight_sec.get("constant_term", 1.0)),
        weight_cos=list(weight_sec.get("cos", [])),
        weight_sin=list(weight_sec.get("sin", [])),
        weight_table=list(weight_sec.get("table_values", [])),
        cells=integer(grid_sec, "cells", 1024, "grid.cells", 2),
        solver_tol=positive(solver_sec, "tol", 1e-12, "solver.tol"),
        solver_max_iter=integer(solver_sec, "max_iter", 2000,
                                "solver.max_iter", 1),
        solver_seed=integer(solver_sec, "seed", 0, "solver.seed", 0),
        sampler_seed=integer(sampler_sec, "seed", 7, "sampler.seed", 0),
        sampler_paths=integer(sampler_sec, "paths", 100_000,
                              "sampler.paths", 1),
        measure_kind=measure_sec.get("kind", "lebesgue"),
        measure_positions=list(measure_sec.get("positions", [])),
        measure_masses=list(measure_sec.get("masses", [])),
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
