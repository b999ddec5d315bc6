"""Machine-readable rendering of analysis results.

Numbers are emitted as shortest-roundtrip-ish strings (12 significant
digits) so output files diff cleanly across platforms; the parsers on
the other side get strings they can float() back. Documents meant to be
read back by the library, such as profiles for ``pgame verify``, are
wrapped in ``Exact`` and keep their numbers as JSON numbers at full
precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Exact", "fmt", "jsonable", "dumps"]


@dataclass(frozen=True)
class Exact:
    """Plain JSON data (dicts, lists, Python numbers) that ``jsonable``
    passes through unchanged, so every float is written as ``json``
    writes it, at full (``repr`` round-trip) precision."""

    data: Any


def fmt(x: float) -> str:
    s = f"{float(x):.12g}"
    return "0" if s == "-0" else s


def jsonable(obj: Any) -> Any:
    """Recursively convert plain dicts, lists and numpy values into
    JSON-ready data."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, Exact):
        return obj.data
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {
            (fmt(k) if isinstance(k, float) else str(k)): jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(x) for x in obj]
    return str(obj)


def dumps(obj: Any) -> str:
    return json.dumps(jsonable(obj), indent=2) + "\n"
