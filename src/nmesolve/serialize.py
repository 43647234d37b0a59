"""Deterministic JSON/CSV rendering through the standard library.

Every float is written as its ``repr``: the shortest decimal that reads back
as the same IEEE double, so problem, pencil and shift-spec files round-trip
bit for bit, -0.0 included, and file output is byte-identical across runs
with the same inputs.  JSON rejects NaN and Inf, so the files stay parseable
everywhere; CSV cells may record non-finite diagnostics of failed runs and
write them as ``nan``, ``inf`` and ``-inf``.
"""

import json

import numpy as np

from .exceptions import ProblemFileError

__all__ = ["dumps_json", "dump_json", "write_csv", "load_json", "read_numbers"]


def dumps_json(obj) -> str:
    return json.dumps(obj, allow_nan=False) + "\n"


def dump_json(obj, path) -> None:
    text = dumps_json(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return float.__repr__(value)
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
