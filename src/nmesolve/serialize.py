"""Deterministic JSON/CSV rendering.

All floating-point values are written with 17 significant digits, which
round-trips IEEE doubles exactly and makes file output byte-identical across
runs with the same inputs.  NaN and Inf are rejected: the file formats are
plain JSON/CSV and must stay parseable everywhere.
"""

import json
import math

import numpy as np

from .exceptions import ProblemFileError

__all__ = ["format_float", "dumps_json", "dump_json", "write_csv", "load_json", "read_numbers"]


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("NaN/Inf cannot be serialized")
    return format(float(x), ".17g")


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj) -> str:
    return _render(obj) + "\n"


def dump_json(obj, path) -> None:
    text = dumps_json(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # CSV cells may record non-finite diagnostics from failed runs
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format_float(value)
    if value is None:
        return ""
    return str(value)


def write_csv(fh, header, rows) -> None:
    """Write rows (sequences of str/int/float/None) with LF line endings."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_cell(v) for v in row) + "\n")


def load_json(path, keys=()) -> dict:
    """The JSON object in ``path``, which must hold each of ``keys``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise ProblemFileError(f"{path}: missing key {key!r}")
    return data


def read_numbers(values, count: int, name: str) -> np.ndarray:
    """``values`` as a float array, when it is a list of exactly ``count``
    finite JSON numbers: booleans, strings, lists, objects and integers
    beyond the float range raise ProblemFileError, as ``load_json`` does."""
    if (not isinstance(values, list) or len(values) != count
            or not all(type(v) in (int, float) for v in values)):
        raise ProblemFileError(f"{name} must be a list of {count} JSON numbers")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError as exc:
        raise ProblemFileError(f"{name} holds an integer beyond the float range") from exc
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(f"{name} contains NaN/Inf")
    return arr
