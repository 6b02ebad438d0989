"""Run configuration: a flat ``key = value`` text format and its schema.

One assignment per line.  Dots in key names act as section separators
(``solver.tol = 1e-8``); there are no section headers.  ``#`` starts a
comment.  Values are booleans (``true``/``false``), integers, floats,
bracketed lists -- nested once for matrices, ``[[1.0, 0.0], [0.0, 1.0]]`` --
or bare strings.  Every parse error carries the source name and line number.

The parser is plain stdlib, but it never runs before numpy is imported:
the package ``__init__`` imports numpy first.  Thread pools are pinned by
``PARASTEP_THREADS`` alone (see the CLI docstring).
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


def _parse_scalar(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"':
        return tok[1:-1]
    return tok


def _parse_list(s: str, i: int, where: str):
    """Parse a bracketed list starting at ``s[i] == '['``; returns (value, end)."""
    items = []
    i += 1
    while True:
        while i < len(s) and s[i].isspace():
            i += 1
        if i >= len(s):
            raise ConfigError(f"{where}: unterminated list")
        if s[i] == "]":
            return items, i + 1
        if s[i] == "[":
            sub, i = _parse_list(s, i, where)
            items.append(sub)
        else:
            j = i
            while j < len(s) and s[j] not in ",]":
                j += 1
            tok = s[i:j].strip()
            if not tok:
                raise ConfigError(f"{where}: empty list item")
            items.append(_parse_scalar(tok))
            i = j
        while i < len(s) and s[i].isspace():
            i += 1
        if i < len(s) and s[i] == ",":
            i += 1
        elif i < len(s) and s[i] != "]":
            raise ConfigError(f"{where}: expected ',' or ']' at column {i + 1}")


def _parse_value(s: str, where: str):
    s = s.strip()
    if not s:
        raise ConfigError(f"{where}: missing value")
    if s.startswith("["):
        val, end = _parse_list(s, 0, where)
        if s[end:].strip():
            raise ConfigError(f"{where}: trailing text after list: {s[end:].strip()!r}")
        return val
    return _parse_scalar(s)


def _config_items(text: str, source: str):
    """All assignments in order, as (lineno, key, value) triples."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{where}: bad key name {key!r}")
        items.append((lineno, key, _parse_value(val, where)))
    return items


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def _float_list(val):
    if not isinstance(val, list) or not val or any(isinstance(v, list) for v in val):
        raise ValueError("expected a flat nonempty list")
    return [float(v) for v in val]


def _matrix(val):
    if not isinstance(val, list) or not val or not all(isinstance(r, list) for r in val):
        raise ValueError("expected a bracketed list of rows")
    width = len(val[0])
    if width == 0 or any(len(r) != width for r in val):
        raise ValueError("rows have unequal lengths")
    return [[float(v) for v in r] for r in val]


def _bool(val):
    if not isinstance(val, bool):
        raise ValueError("expected true or false")
    return val


def _int(val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError("expected an integer")
    return val


def _float(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError("expected a number")
    return float(val)


def _str(val):
    if not isinstance(val, str):
        raise ValueError("expected a name")
    return val


@dataclass
class ProblemConfig:
    """Everything a command run needs, resolved from config text plus flags.

    The boundary data source is either ``problem`` (a built-in exact
    solution) or ``boundary.file`` (a mesh function in the text format);
    custom operators come in through the ``scheme.*`` keys.
    """

    problem: str | None = None
    boundary_file: str | None = None
    scheme_kind: str | None = None
    scheme_lam: float = 1.0
    scheme_Lam: float = 2.0
    scheme_matrix: list | None = None
    scheme_dimension: int | None = None
    domain: list | None = None
    T: float = 0.25
    h_list: list = field(default_factory=lambda: [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    N: int = 2
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    strict: bool = False
    delta_multiple: float | None = None
    theta: float | None = None
    M_values: list | None = None
    samples: int = 200
    abp: bool = False
    rate_floor: float = 0.9

    _KEYS = {
        "problem": ("problem", _str),
        "boundary.file": ("boundary_file", _str),
        "scheme.kind": ("scheme_kind", _str),
        "scheme.lam": ("scheme_lam", _float),
        "scheme.Lam": ("scheme_Lam", _float),
        "scheme.matrix": ("scheme_matrix", _matrix),
        "scheme.dimension": ("scheme_dimension", _int),
        "domain": ("domain", _matrix),
        "T": ("T", _float),
        "h_list": ("h_list", _float_list),
        "stencil.N": ("N", _int),
        "solver.tol": ("tol", _float),
        "seed": ("seed", _int),
        "out": ("out", _str),
        "strict": ("strict", _bool),
        "diagnostics.delta_multiple": ("delta_multiple", _float),
        "diagnostics.theta": ("theta", _float),
        "diagnostics.M_values": ("M_values", _float_list),
        "diagnostics.samples": ("samples", _int),
        "diagnostics.abp": ("abp", _bool),
        "diagnostics.rate_floor": ("rate_floor", _float),
    }
    # keys of the removed solver choice: naming one is an error, not a no-op
    _REMOVED_KEYS = ("solver.method", "solver.max_iterations")

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ProblemConfig":
        cfg, seen = cls(), {}
        for lineno, key, val in _config_items(text, source):
            where = f"{source}:{lineno}"
            if key in seen:
                raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
            seen[key] = lineno
            if key in cls._REMOVED_KEYS:
                raise ConfigError(
                    f"{where}: key {key!r} was removed; Howard policy iteration is the only solver"
                )
            if key not in cls._KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            attr, conv = cls._KEYS[key]
            try:
                setattr(cfg, attr, conv(val))
            except ValueError as exc:
                raise ConfigError(f"{where}: key {key!r}: {exc}") from None
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
        return cls.from_text(text, source=str(path))

    def with_overrides(self, **kw) -> "ProblemConfig":
        """Apply command line overrides; ``None`` means 'not given'."""
        updates = {k: v for k, v in kw.items() if v is not None}
        cfg = dataclasses.replace(self, **updates)
        cfg.validate()
        return cfg

    def validate(self):
        if not self.h_list or not all(math.isfinite(h) and h > 0 for h in self.h_list):
            raise ConfigError(
                f"h_list must be a nonempty list of finite positive spacings, got {self.h_list!r}"
            )
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if not math.isfinite(self.T):
            raise ConfigError(f"T must be a finite positive number, got {self.T!r}")
        if self.N < 2:
            raise ConfigError(f"stencil.N must be at least 2, got {self.N}")
        if self.scheme_kind is not None and self.scheme_kind not in (
            "linear",
            "pucci_plus",
            "pucci_minus",
        ):
            raise ConfigError(f"scheme.kind {self.scheme_kind!r} is not a built-in operator")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"solver.tol must be a finite positive number, got {self.tol!r}")
        if self.samples < 0:
            raise ConfigError("diagnostics.samples must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key in ("theta", "delta_multiple"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(f"diagnostics.{key} must be positive")
            if value is not None and not math.isfinite(value):
                raise ConfigError(
                    f"diagnostics.{key} must be a finite positive number, got {value!r}"
                )
        if self.M_values is not None and (
            not self.M_values or not all(math.isfinite(m) and m > 0 for m in self.M_values)
        ):
            raise ConfigError(
                "diagnostics.M_values must be a nonempty list of finite positive levels, "
                f"got {self.M_values!r}"
            )
        if not math.isfinite(self.rate_floor):
            raise ConfigError(f"diagnostics.rate_floor must be finite, got {self.rate_floor!r}")

    # -- resolution helpers (import numerics lazily) ------------------------

    def descriptor(self):
        """The operator to discretize: the library problem's, or scheme.*."""
        if self.problem is not None:
            from .harness import get_problem

            return get_problem(self.problem).descriptor
        if self.scheme_kind is None:
            raise ConfigError("config needs problem = <name> or scheme.kind = <operator>")
        from .nonlinearity import NonlinearityDescriptor

        if self.scheme_kind == "linear":
            if self.scheme_matrix is None:
                n = self.scheme_dimension or (len(self.domain) if self.domain else 1)
                matrix = [[float(i == j) for j in range(n)] for i in range(n)]
            else:
                matrix = self.scheme_matrix
            return NonlinearityDescriptor.linear(matrix)
        n = self.scheme_dimension or (len(self.domain) if self.domain else 1)
        if self.scheme_kind == "pucci_plus":
            return NonlinearityDescriptor.pucci_plus(self.scheme_lam, self.scheme_Lam, n)
        return NonlinearityDescriptor.pucci_minus(self.scheme_lam, self.scheme_Lam, n)

    def bounds(self):
        if self.domain is not None:
            return tuple(tuple(row) for row in self.domain)
        if self.problem is not None:
            from .harness import get_problem

            return tuple(tuple(b) for b in get_problem(self.problem).bounds)
        raise ConfigError("config needs domain = [[lo, hi], ...] for a custom operator")
