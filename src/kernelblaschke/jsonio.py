"""JSON helpers: complex <-> [re, im] pairs, numbers, table digests, canonical
dumps, atomic writes.

Reports must be byte-identical across runs for a fixed (config, seed), so all
serialization goes through `dumps_canonical` (sorted keys, fixed separators,
no timestamps) and files are written atomically (temp file + rename).  A JSON
number is an ``int`` or ``float``, never a ``bool`` or a ``str``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and not isinstance(obj[0], str) and not isinstance(obj[1], str)):
        return complex(float(obj[0]), float(obj[1]))
    raise ValueError(f"expected [re, im] pair, got {obj!r}")


def json_number(value, kind: type, what: str):
    """``value`` read as a finite ``kind`` (``int`` or ``float``).

    An int field takes an integral number only (``400.0`` reads as 400), a float
    field any finite number; a boolean, a string (``"3"`` too), a fraction in an
    int field, a non-finite number and anything ``kind`` cannot convert raise
    ValueError naming ``what``.
    """
    try:
        if isinstance(value, (bool, str)) or (kind is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError
        number = kind(value)
        if not math.isfinite(number):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{what} must be {noun}, got {value!r}") from None
    return number


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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
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
