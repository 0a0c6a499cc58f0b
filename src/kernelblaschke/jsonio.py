"""JSON helpers: the config reader, complex -> [re, im] pairs, table digests,
canonical dumps, atomic writes.

Reports must be byte-identical across runs for a fixed (config, seed), so all
serialization goes through `dumps_canonical` (sorted keys, fixed separators,
no timestamps) and files are written atomically (temp file + rename).

Every config value is read through a `Field`, which carries the value's path
(``space.values[3][7]``, ``multiset.points[1].mult``, ``policy.max_terms``) and
applies one set of type rules; a value they refuse raises ``ConfigError``
naming that path:

* a number is an ``int`` or ``float``, never a ``bool`` or a ``str``, and finite
  (a tail bound may be ``Infinity``); an integer field takes an integral number
  only (``400.0`` reads as 400), and a sign rule refuses a negative value, or 0
  too where a positive one is asked for;
* a complex value is a number or an ``[re, im]`` pair of numbers;
* a flag is ``true`` or ``false``, a string is a JSON string;
* an object holds only the keys its reader names (``Field.only``);
* a table is a nonempty rectangular nested list of numbers (or of ``[re, im]``
  pairs), read in one pass into one read-only ``float64`` (or ``complex128``) array.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import os
import reprlib

import numpy as np

from .errors import ConfigError


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _is_number(t: type) -> bool:
    """Whether ``t`` is a number type: ``int``, ``float`` or a numpy real, never ``bool``."""
    return t is float or t is int or (t is not bool and issubclass(t, numbers.Real))


def json_number(value, kind: type, what: str, sign: str | None = None,
                finite: bool = True):
    """``value`` read as a ``kind`` (``int`` or ``float``) by the number rule
    above, with the ``sign`` rule (``"positive"`` or ``"non-negative"``) if one
    is given, Infinity allowed if not ``finite``; a refusal raises ValueError
    naming ``what``."""
    try:
        if not _is_number(type(value)):
            raise ValueError
        number = kind(value)
        if (kind is int and number != value) or math.isnan(number) or (
                finite and math.isinf(number)):
            raise ValueError
        if sign is not None and (number < 0 or (number == 0 and sign == "positive")):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "integer" if kind is int else "number" if not finite else "finite number"
        adjective = f"{sign} " if sign else ""
        article = "an" if (adjective or noun)[0] in "aeiou" else "a"
        raise ValueError(f"{what} must be {article} {adjective}{noun}, "
                         f"got {reprlib.repr(value)}") from None
    return number


class Field:
    """A JSON value and the path it was read at.  Lookups (``field["key"]``,
    ``get``, ``items``) give child Fields, the readers Python values, and a
    refusal raises ``ConfigError`` naming the path.  Every ``from_json`` in the
    package takes a JSON value or a Field."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: str = ""):
        self.value = value
        self.path = path

    @classmethod
    def of(cls, obj) -> "Field":
        """``obj`` itself if it is a Field, else the JSON value ``obj`` at the root."""
        return obj if isinstance(obj, cls) else cls(obj)

    def error(self, expected: str) -> ConfigError:
        return ConfigError(f"{self.path or 'config'} must be {expected}, "
                           f"got {reprlib.repr(self.value)}")

    def object(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.error("an object")
        return self.value

    def __contains__(self, key: str) -> bool:
        return key in self.object()

    def only(self, what: str, *known: str) -> "Field":
        """This object, if every key is in ``known``; else the first other key
        written is refused by its path, as not a key of ``what``."""
        unknown = [key for key in self.object() if key not in known]
        if unknown:
            raise ConfigError(f"{self[unknown[0]].path} is not a key of {what}; "
                              f"known: {', '.join(sorted(known))}")
        return self

    def get(self, key: str, default=...) -> "Field":
        """The field at ``key``; when it is absent, ``default`` read at that path,
        or an error if no default is given (``field["key"]``)."""
        path = f"{self.path}.{key}" if self.path else key
        obj = self.object()
        if key not in obj and default is ...:
            raise ConfigError(f"missing required field {path}")
        return Field(obj.get(key, default), path)

    __getitem__ = get

    def items(self) -> list["Field"]:
        """The entries of a list."""
        if not isinstance(self.value, list):
            raise self.error("a list")
        return [Field(v, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def number(self, kind: type = float, sign: str | None = None,
               finite: bool = True):
        """The value by ``json_number``'s rule."""
        try:
            return json_number(self.value, kind, self.path or "config", sign, finite)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def complex(self) -> complex:
        """A finite number, or an ``[re, im]`` pair of them."""
        value = self.value
        parts = value if type(value) is list and len(value) == 2 else [value]
        try:
            return complex(*(json_number(part, float, "") for part in parts))
        except ValueError:
            raise self.error("a finite number or an [re, im] pair of finite numbers") from None

    def flag(self) -> bool:
        if not isinstance(self.value, bool):
            raise self.error("true or false")
        return self.value

    def string(self) -> str:
        if not isinstance(self.value, str):
            raise self.error("a string")
        return self.value

    def table(self, ndim: int, pairs: bool = False, sign: str | None = None) -> np.ndarray:
        """An ``ndim``-dimensional rectangular table of numbers as one read-only
        ``float64`` array, or of ``[re, im]`` pairs as one ``complex128`` array.

        One pass checks each level's types and lengths, converts the flat
        numbers in one ``np.fromiter`` and checks them all finite (and of the
        ``sign`` asked for).  Only when it fails does a walk look for the first
        entry that is not a list or not a number, so that the error names it.
        """
        depth = ndim + pairs
        level, shape = [self.value], []
        while (len(shape) < depth and set(map(type, level)) == {list}
               and len(set(map(len, level))) == 1):
            shape.append(len(level[0]))
            level = list(itertools.chain.from_iterable(level))
        if (len(shape) == depth and all(shape) and (not pairs or shape[-1] == 2)
                and all(map(_is_number, set(map(type, level))))):
            try:
                arr = np.fromiter(level, float, len(level)).reshape(shape)
            except OverflowError:  # an integer past float range
                arr = np.array([np.nan])
            if np.isfinite(arr).all() and (
                    sign is None or (arr > 0 if sign == "positive" else arr >= 0).all()):
                arr.setflags(write=False)  # no other reference: a space adopts it
                return arr.view(complex)[..., 0] if pairs else arr
        self._locate(depth, sign)
        kind = "[re, im] pairs" if pairs else "numbers"
        raise self.error(f"a nonempty rectangular table of {kind}")

    def _locate(self, depth: int, sign: str | None) -> None:
        """Raise for the first entry of a ``depth``-level table that is not a
        list, or at the last level not a number of the ``sign`` asked for."""
        for entry in self.items():
            if depth > 1:
                entry._locate(depth - 1, sign)
            else:
                entry.number(float, sign)


def table_digest(array) -> dict:
    """``{"sha256": ..., "shape": [...]}`` of a parsed input table.

    The digest is SHA-256 over the array's little-endian ``complex128`` bytes
    (``float64`` for a real array), row-major: it names the numbers a space
    used, so two JSON spellings of them (``1``, ``1.0``, ``1e0``) agree.  Check
    a config file against a report by
    ``table_digest(space_from_json(cfg["space"]).table)``.
    """
    arr = np.asarray(array)
    data = np.ascontiguousarray(arr, dtype="<c16" if np.iscomplexobj(arr) else "<f8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "shape": list(arr.shape)}


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a new temp file in its directory and
    ``os.replace``.  The file gets the mode a plain ``open(path, "w")`` gives,
    0o666 less the umask, where ``tempfile.mkstemp``'s would be 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
