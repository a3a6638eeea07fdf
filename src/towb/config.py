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
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError, DomainError
from .grid import GridFunction, Measure
from .system import IfsSystem, WeightExpr, make_system


@dataclass
class RunConfig:
    branch_slopes: list[float]
    branch_offsets: list[float]
    probabilities: list[float]
    sigma_slope: int | None = None
    weight_kind: str = "constant"
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
        if self.weight_kind in ("constant", "trig"):
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
            if any(m < 0 for m in self.measure_masses):
                raise ConfigError("atom masses must be nonnegative",
                                  field="measure.masses")
            if not any(m > 0 for m in self.measure_masses):
                raise ConfigError("atoms carry no mass",
                                  field="measure.masses")
            return Measure([0.0] * self.cells,
                           list(zip(self.measure_positions,
                                    self.measure_masses)))
        raise ConfigError(f"unknown measure kind '{self.measure_kind}'",
                          field="measure.kind")

    # -- canonical serialization ------------------------------------------

    def emit(self) -> str:
        """The keys of ``_KEYS`` that this config reads, in table order:
        ``sigma = "inferred"`` in place of an unset ``sigma_slope``, and
        only the keys of the selected kinds, leaving out an empty ``cos``
        or ``sin``."""
        def fmt(v) -> str:
            if isinstance(v, str):
                return f'"{v}"'
            if isinstance(v, list):
                return "[" + ", ".join(repr(float(x)) for x in v) + "]"
            if isinstance(v, int):
                return repr(v)
            return repr(float(v))

        lines: list[str] = []
        for section, key, name, _, _, kind in _KEYS:
            if f"[{section}]" not in lines:
                lines += ["", f"[{section}]"]
            if kind is not None and kind != getattr(self,
                                                    _KINDS[section][0]):
                continue
            if name is None:   # sigma: inferred exactly when no slope is set
                if self.sigma_slope is None:
                    lines.append(f'{key} = "inferred"')
                continue
            value = getattr(self, name)
            if value is not None and (value or key not in ("cos", "sin")):
                lines.append(f"{key} = {fmt(value)}")
        return "\n".join(lines[1:]) + "\n"


# Every key of the format, in the order emit writes them: (section, key,
# the RunConfig field it fills, its type, its bound, the weight or measure
# kind that reads it, None when every kind does).  A number typed int must
# be a whole number at least its bound, or in its (lowest, highest) bound.
# The highest cells keeps one grid array (a float per cell) at 8 MiB;
# ``verify``, the largest, peaks at ~640 bytes of traced allocation per
# cell.  The sampler keeps one count per reached state, so paths sizes no
# array; its highest value keeps the sampling tolerance of an event of
# probability at least 0.001 above 1e-4, a hundred times the residual
# (_H_TRUST) that h may carry into the exact masses, so that a FAIL is the
# sampler's.  A float must be above its bound, which is 0 where there is
# one ("positive").  ``sigma`` fills no field: "inferred", its one value,
# is the unset ``sigma_slope``.  A key left out takes its field's RunConfig
# default, and a key whose field has none is required.
_KEYS = (
    ("system", "branch_slopes", "branch_slopes", list, None, None),
    ("system", "branch_offsets", "branch_offsets", list, None, None),
    ("system", "probabilities", "probabilities", list, None, None),
    ("system", "sigma", None, str, None, None),
    ("system", "sigma_slope", "sigma_slope", int, 2, None),
    ("weight", "kind", "weight_kind", str, None, None),
    ("weight", "value", "weight_const", float, None, "constant"),
    ("weight", "constant_term", "weight_const", float, None, "trig"),
    ("weight", "cos", "weight_cos", list, None, "trig"),
    ("weight", "sin", "weight_sin", list, None, "trig"),
    ("weight", "table_values", "weight_table", list, None, "table"),
    ("grid", "cells", "cells", int, (2, 2**20), None),
    ("solver", "tol", "solver_tol", float, 0, None),
    ("solver", "max_iter", "solver_max_iter", int, 1, None),
    ("solver", "seed", "solver_seed", int, 0, None),
    ("sampler", "seed", "sampler_seed", int, 0, None),
    ("sampler", "paths", "sampler_paths", int, (1, 10**6), None),
    ("measure", "kind", "measure_kind", str, None, None),
    ("measure", "positions", "measure_positions", list, None, "atoms"),
    ("measure", "masses", "measure_masses", list, None, "atoms"),
)
_BY_KEY = {(entry[0], entry[1]): entry for entry in _KEYS}
_SECTIONS = {entry[0] for entry in _KEYS}
# The RunConfig fields with no default: their keys are required.
_NO_DEFAULT = {f.name for f in fields(RunConfig)
               if f.default is MISSING and f.default_factory is MISSING}
# The sections with a kind: the RunConfig field holding it and the kinds
# known, its default (which may read no key of its own) and every kind of
# the section's keys.
_KINDS = {section: (name, {getattr(RunConfig, name)}
                    | {entry[5] for entry in _KEYS
                       if entry[0] == section and entry[5]})
          for section, key, name, *_ in _KEYS if key == "kind"}


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
    given: dict[tuple[str, str], object] = {}
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
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]'", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if (section, key) not in _BY_KEY:
            raise ConfigError(f"unknown key '{key}' in section '[{section}]'",
                              line=lineno)
        if (section, key) in where:
            raise ConfigError(f"'{key}' given twice in '[{section}]', first "
                              f"on line {where[section, key]}", line=lineno)
        where[section, key] = lineno
        value = _parse_value(raw_val, lineno)
        expected = _BY_KEY[section, key][3]
        if expected is list and not isinstance(value, list):
            raise ConfigError(f"'{key}' expects a list", line=lineno)
        if expected is str and not isinstance(value, str):
            raise ConfigError(f"'{key}' expects a quoted string", line=lineno)
        if expected in (int, float) and not isinstance(value, float):
            raise ConfigError(f"'{key}' expects a number", line=lineno)
        given[section, key] = value

    values: dict[str, object] = {}
    for section, key, name, expected, bound, read_by in _KEYS:
        at = f"{section}.{key}"
        if (section, key) not in given:
            if name in _NO_DEFAULT:
                raise ConfigError(f"missing required key '{key}'", field=at)
            continue
        value = given[section, key]
        if name is None:   # sigma: "inferred", and not beside sigma_slope
            if value != "inferred":
                raise ConfigError(f"unknown sigma mode '{value}'", field=at)
            slope_line = where.get((section, "sigma_slope"))
            if slope_line is not None:
                raise ConfigError("'sigma' and 'sigma_slope' exclude each "
                                  "other", line=max(where[section, key],
                                                    slope_line))
            continue
        if read_by is not None:   # after the kind key, which fills values
            kind_field, kinds = _KINDS[section]
            kind = values.get(kind_field, getattr(RunConfig, kind_field))
            if kind in kinds and kind != read_by:
                raise ConfigError(f"'{key}' is not read by {section} kind "
                                  f"'{kind}'", line=where[section, key])
        if expected is int:
            lowest, highest = (bound, None) if isinstance(bound, int) else bound
            if not value.is_integer():
                raise ConfigError(f"value must be an integer, got {value:g}",
                                  field=at)
            if value < lowest:
                raise ConfigError(f"value must be at least {lowest}, got "
                                  f"{value:g}", field=at)
            if highest is not None and value > highest:
                raise ConfigError(f"value must be at most {highest}, got "
                                  f"{int(value)}", field=at)
            value = int(value)
        elif bound is not None and value <= bound:
            raise ConfigError("value must be positive", field=at)
        values[name] = value
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
