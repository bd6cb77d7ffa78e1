"""Exception types shared across the package; the one file reader, JSON
reader and atomic file writer; and the JSON schema that checks configs,
manifests and checkpoint metadata.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, NumericError -> 3.
"""
import csv
import io
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path


class HsinetError(Exception):
    """Base class for all package errors."""


class ConfigError(HsinetError):
    """Invalid configuration: bad spec fields, malformed config files, bad flags."""


class DataError(HsinetError):
    """Invalid or inconsistent data: parse failures, label problems, empty splits."""


class ShapeError(DataError):
    """Tensor shape mismatch; the message names both shapes."""


class CheckpointError(DataError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class NumericError(HsinetError):
    """Non-finite value encountered during training."""


def read_file(path, what, error=DataError):
    """The bytes of the file at `path`. An OSError (missing file, directory, no
    permission) or a path no file can have (a NUL or a lone surrogate in it)
    becomes `error` naming `what` and the path."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"{what} '{path}' does not exist") from None
    except OSError as e:
        raise error(f"{what} '{path}' cannot be read: {e.strerror or e}") from None
    except ValueError as e:  # UnicodeEncodeError too
        raise error(f"{what} {str(path)!r} cannot name a file: {e}") from None


def read_json(data, what, error):
    """The JSON object in `data` (bytes), or `error` naming `what` (a repeated key too)."""
    def unique(pairs):
        value = {}
        for key, item in pairs:
            if key in value:
                raise error(f"{what} repeats the key '{key}'")
            value[key] = item
        return value
    try:
        value = json.loads(data, object_pairs_hook=unique)
    except (ValueError, RecursionError) as e:  # also bytes that are not UTF-8
        raise error(f"{what} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise error(f"{what} must hold a JSON object, got {type(value).__name__}")
    return value


def write_atomic(path, data):
    """Write `data` (bytes-like) to `path` through a temp file in the same
    directory and os.replace it over the target, so a failure midway leaves
    the previous file whole, no temp file behind and an OSError naming `path`.
    No fsync: this guards against a failed write, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror or str(e), str(path)) from e
        raise


def write_csv(path, rows):
    """write_atomic of `rows` (the header first) as CSV with "\\n" line ends."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_atomic(path, text.getvalue().encode())


def write_json(path, obj):
    """write_atomic of `obj` as indented JSON with sorted keys."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


# --- JSON schema ----------------------------------------------------------
# A builder(value, where) checks a JSON value and builds what it describes, or
# raises ConfigError naming `where`; readers of data files re-raise it as their
# own error type. Value ranges of a dataclass stay in its __post_init__.

# the JSON type name and the Python types of each annotation a value can have
_KINDS = {"int": ("integer", int), "float": ("number", float, int), "str": ("string", str),
          "bool": ("boolean", bool), "int | None": ("integer", int, type(None)),
          "list": ("list", list), "object": ("object", dict)}


def _at(where, make, *args, **kwargs):
    """make(*args, **kwargs), its ConfigError prefixed with the location `where`."""
    try:
        return make(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _build(spec, value, where):
    """`value` checked and built by `spec`: a builder(value, where), or a
    `_KINDS` name (true/false count only as booleans, NaN and +-Infinity
    not as numbers)."""
    if callable(spec):
        return spec(value, where)
    name, *types = _KINDS[spec]
    if isinstance(value, bool) != (bool in types) or not isinstance(value, tuple(types)):
        raise ConfigError(f"{where} must be a JSON {name}, got {type(value).__name__}")
    if spec == "float" and not abs(value) <= sys.float_info.max:  # NaN compares false
        raise ConfigError(f"{where} must be a finite number, got {value}")
    return value


def _object(schema, required=()):
    """A JSON object of `schema` keys, each built by its spec, holding every
    `required` key ("a|b": either one)."""
    def build(value, where):
        unknown = sorted(set(_build("object", value, where)) - set(schema))
        if unknown:
            raise ConfigError(f"unknown {where} keys: {unknown} (known: {sorted(schema)})")
        built = {key: _build(schema[key], v, f"{where} '{key}'") for key, v in value.items()}
        for need in required:
            keys = need.split("|")
            if not any(key in value for key in keys):
                raise ConfigError(f"{where} needs {' or '.join(map(repr, keys))}")
        return built
    return build


def _record(cls, what, **stub):
    """cls(**value) for a JSON object of `cls` fields, each of its annotated
    type; `stub` fills the fields that only data supplies. Errors past the
    object check are prefixed with `where` unless it is `what`, the name
    the field errors give."""
    schema = {f.name: f.type for f in fields(cls) if f.name not in stub}
    check = _object(schema, [f.name for f in fields(cls)
                             if f.name in schema and f.default is MISSING])

    def build(value, where):
        _build("object", value, where)
        if where == what:
            return cls(**check(value, what), **stub)
        return _at(where, lambda: cls(**check(value, what), **stub))
    return build


def _valid(kind, ok, must):
    """A value of JSON type `kind` that passes `ok`; `must` says what it must be."""
    def build(value, where):
        if not ok(_build(kind, value, where)):
            raise ConfigError(f"{where} must be {must}, got {value!r}")
        return value
    return build


def _at_least(low):
    """A JSON integer >= low."""
    return _valid("int", lambda n: n >= low, f">= {low}")


def _list(item):
    """A non-empty JSON list of `item` entries."""
    non_empty = _valid("list", len, "a non-empty JSON list")
    return lambda value, where: [_build(item, v, f"{where} entry {i}")
                                 for i, v in enumerate(non_empty(value, where))]
