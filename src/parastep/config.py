"""Run configuration: a flat ``key = value`` text format and its schema.

One assignment per line.  Dots in key names act as section separators
(``solver.tol = 1e-8``); there are no section headers.  ``#`` starts a
comment.  Values are booleans (``true``/``false``), integers, floats,
bracketed lists -- nested once for matrices, ``[[1.0, 0.0], [0.0, 1.0]]`` --
or bare strings.  Every error in a config line carries the source name and
line number; an error in a command line flag starts with the flag.

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
    return [_float(v) for v in val]


def _matrix(val):
    if not isinstance(val, list) or not val or not all(isinstance(r, list) for r in val):
        raise ValueError("expected a bracketed list of rows")
    width = len(val[0])
    if width == 0 or any(len(r) != width for r in val):
        raise ValueError("rows have unequal lengths")
    return [[_float(v) for v in r] for r in val]


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


def _positive(x):
    return math.isfinite(x) and x > 0


def _all_positive(xs):
    return all(map(_positive, xs))


_POSITIVE = (_positive, "must be a finite positive number, got {!r}")
_KINDS = ("linear", "pucci_plus", "pucci_minus")


def _key(name, conv, ok=None, must="", **default):
    """A config key, declared once: its name, its type converter, then its
    range test and the message (after the key name) for a value that fails
    it, formatted with that value."""
    return field(metadata={"key": name, "conv": conv, "ok": ok, "must": must}, **default)


@dataclass
class ProblemConfig:
    """Everything a command run needs, resolved from config text plus flags.

    The boundary data source is either ``problem`` (a built-in exact
    solution) or ``boundary.file`` (a mesh function in the text format);
    custom operators come in through the ``scheme.*`` keys.  Each field
    declares its key (``_key``); config lines and flags share ``_set``.
    """

    problem: str | None = _key("problem", _str, default=None)
    boundary_file: str | None = _key("boundary.file", _str, default=None)
    scheme_kind: str | None = _key(
        "scheme.kind", _str, _KINDS.__contains__, "{!r} is not a built-in operator", default=None
    )
    scheme_lam: float = _key("scheme.lam", _float, default=1.0)
    scheme_Lam: float = _key("scheme.Lam", _float, default=2.0)
    scheme_matrix: list | None = _key("scheme.matrix", _matrix, default=None)
    scheme_dimension: int | None = _key("scheme.dimension", _int, default=None)
    domain: list | None = _key("domain", _matrix, default=None)
    T: float = _key("T", _float, *_POSITIVE, default=0.25)
    h_list: list = _key(
        "h_list", _float_list, _all_positive,
        "must be a nonempty list of finite positive spacings, got {!r}",
        default_factory=lambda: [1 / 8, 1 / 16, 1 / 32, 1 / 64],
    )
    N: int = _key("stencil.N", _int, lambda n: n >= 2, "must be at least 2, got {!r}", default=2)
    tol: float | None = _key("solver.tol", _float, *_POSITIVE, default=None)
    seed: int = _key("seed", _int, lambda s: s >= 0, "must be nonnegative, got {!r}", default=0)
    out: str | None = _key("out", _str, default=None)
    strict: bool = _key("strict", _bool, default=False)
    delta_multiple: float | None = _key("diagnostics.delta_multiple", _float, *_POSITIVE, default=None)
    theta: float | None = _key("diagnostics.theta", _float, *_POSITIVE, default=None)
    M_values: list | None = _key(
        "diagnostics.M_values", _float_list, _all_positive,
        "must be a nonempty list of finite positive levels, got {!r}", default=None,
    )
    samples: int = _key("diagnostics.samples", _int, lambda n: n >= 0, "must be nonnegative", default=200)
    abp: bool = _key("diagnostics.abp", _bool, default=False)
    rate_floor: float = _key(
        "diagnostics.rate_floor", _float, math.isfinite, "must be finite, got {!r}", default=0.9
    )

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
            cfg._set(key, val, where)
        return cfg

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
        return cls.from_text(text, source=str(path))

    def with_overrides(self, flags: dict) -> "ProblemConfig":
        """Apply command line flags, given as ``{flag: (key, value)}``; a
        ``None`` value means 'not given'.  An error starts with its flag."""
        cfg = dataclasses.replace(self)
        for flag, (key, value) in flags.items():
            if value is not None:
                cfg._set(key, value, flag)
        return cfg

    def _set(self, key, val, where):
        """The one setter: convert ``val`` by the key's rule, test its range."""
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        rule = f.metadata
        try:
            value = rule["conv"](val)
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r}: {exc}") from None
        if rule["ok"] is not None and not rule["ok"](value):
            raise ConfigError(f"{where}: {key} " + rule["must"].format(value))
        setattr(self, f.name, value)

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


_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ProblemConfig)}
