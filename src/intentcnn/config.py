"""Flat ``key = value`` configuration files and typed access to their values.

Format: one pair per line (:func:`split_lines`), ``#`` starts a comment, blank
lines ignored.  Values are plain strings; the consumer converts them with
:class:`KeyReader`, which judges every value's text in one place.  List-valued
keys accept comma and/or whitespace separated items.
"""

from __future__ import annotations

import math
import re
from dataclasses import Field, fields, replace

from .errors import ConfigError, excerpt

_KV_RE = re.compile(r"^([A-Za-z0-9_.]+)\s*=\s*(.*)$")


def read_utf8(path: str, error: type[Exception]) -> str:
    """The text of a UTF-8 file.  A file that cannot be read or is not UTF-8
    raises ``error``; the message gives the offending byte's offset, never the
    file's bytes."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}") from None


def write_utf8(path: str, text: str) -> None:
    """Write text to a file as UTF-8, with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def csv_cell(text: str) -> str:
    r"""``text`` as one CSV cell: quoted, its ``"`` doubled, when it holds
    ``,``, ``"``, ``\r`` or ``\n``, so that it reads back with ``csv.reader``."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def csv_text(rows) -> str:
    r"""Rows of cells as CSV text, each row one ``\n``-ended line of
    ``csv_cell(str(cell))``."""
    return "".join(",".join(csv_cell(str(item)) for item in row) + "\n" for row in rows)


def split_lines(text: str) -> list[str]:
    r"""The lines of a text file: each ends at ``\n``, ``\r\n`` or ``\r`` (not
    at ``str.splitlines``' other breaks, such as ``\f``), a final end adds none."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_kv_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file into an ordered dict of raw string values."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(split_lines(read_utf8(path, ConfigError)), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _KV_RE.match(line)
        if m is None:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {excerpt(raw.strip())}")
        key, value = m.group(1), m.group(2).strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def bound_breach(f: Field, value) -> str | None:
    """What ``value`` breaks of the bound that field ``f`` declares in its
    metadata (``nonempty``, ``min``, ``above`` or ``choices``; a tuple's bound
    holds for each item), e.g. ``must be >= 1, got 0``; None if it is kept."""
    bound = f.metadata
    if bound.get("nonempty") and not value:
        return "must not be empty"
    for item in value if isinstance(value, tuple) else (value,):
        if "min" in bound and not item >= bound["min"]:           # nan breaks it too
            return f"must be >= {bound['min']}, got {excerpt(item)}"
        if "above" in bound and not item > bound["above"]:
            return f"must be > {bound['above']}, got {excerpt(item)}"
        if "choices" in bound and item not in bound["choices"]:
            return f"must be {' or '.join(map(repr, bound['choices']))}, got {excerpt(item)}"
    return None


def check_bounds(spec) -> None:
    """Raise a ConfigError naming the first field of the dataclass ``spec``
    whose value breaks its declared bound."""
    for f in fields(spec):
        breach = bound_breach(f, getattr(spec, f.name))
        if breach:
            raise ConfigError(f"{f.name} {breach}")


def split_list(value: str) -> list[str]:
    return [item for item in re.split(r"[,\s]+", value.strip()) if item]


def items_of(convert):
    """A converter of a list value: each :func:`split_list` item by ``convert``, as a tuple."""
    return lambda raw: tuple(map(convert, split_list(raw)))


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):        # nan would pass every range check
        raise ValueError(raw)
    return value


# a dataclass field's converter and what it expects, by its annotation's text
_FIELD_TYPES = {"int": (int, "an integer"), "float": (_finite, "a finite number"),
                "str": (str, "text"), "tuple[int, ...]": (items_of(int), "integers")}


class KeyReader:
    """Typed, typo-checked access to a parsed key=value dict.  Errors name where
    a key's value came from: ``origins[key]`` if given, else ``origin``."""

    def __init__(self, pairs: dict[str, str], origin: str = "<config>",
                 origins: dict[str, str] | None = None):
        self.pairs = dict(pairs)
        self.origin = origin
        self.origins = origins or {}
        self._seen: set[str] = set()

    def origin_of(self, key: str) -> str:
        return self.origins.get(key, self.origin)

    def take(self, key: str, default=None, convert=str, expects: str = "text"):
        """``default`` if ``key`` is absent, else ``convert`` of its text.  A
        ``ValueError`` there, or the ConfigError of a spec that ``convert``
        builds from the value, is a ConfigError naming the key, its origin and
        what it expects."""
        self._seen.add(key)
        raw = self.pairs.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{self.origin_of(key)}: key {key!r} expects {expects}, "
                              f"got {excerpt(raw)}") from exc

    def take_list(self, key: str, default=None, convert=str, expects: str = "a list"):
        """The :func:`split_list` items of ``key``, each by ``convert``, as a tuple."""
        return self.take(key, default, items_of(convert), expects)

    def take_field(self, cls, prefix: str, name: str, default=None, types=None):
        """Field ``name`` of the dataclass ``cls`` read from ``prefix + name``, typed
        by ``types`` (``convert, expects``) or its annotation, held to its declared
        bound; ``default``, else the class default, when the key is absent."""
        key, f = prefix + name, cls.__dataclass_fields__[name]
        value = self.take(key, f.default if default is None else default,
                          *(types or _FIELD_TYPES[f.type]))
        breach = bound_breach(f, value)
        if breach:
            raise ConfigError(f"{self.origin_of(key)}: key {key!r} {breach}")
        return value

    def take_fields(self, base, prefix: str, keys):
        """``base`` (a dataclass) with each field in ``keys`` read by
        :meth:`take_field`, its default the field's value in ``base``."""
        return replace(base, **{key: self.take_field(type(base), prefix, key, getattr(base, key))
                                for key in keys})

    def reject_unknown(self) -> None:
        """Raise if any key was never consumed, naming those from the first one's origin."""
        leftover = sorted(key for key in self.pairs if key not in self._seen)
        if leftover:
            origin = self.origin_of(leftover[0])
            raise ConfigError(f"{origin}: unknown key(s): "
                              f"{', '.join(k for k in leftover if self.origin_of(k) == origin)}")


def render_kv(pairs: dict[str, str]) -> str:
    """Canonical key=value rendering (sorted keys) for --show-config output."""
    return "".join(f"{key} = {pairs[key]}\n" for key in sorted(pairs))
