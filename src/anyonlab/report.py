"""Deterministic JSON and CSV reports and run manifests.

Reports are byte-identical across reruns of the same (config, seed):
floats carry 12 significant digits (``SIGNIFICANT_DIGITS``) in both
formats, JSON keys are sorted, and nothing time-dependent goes into a
report.  Timestamps, wall times, tool versions, and output paths live in
a sidecar manifest instead.  This module is the one place that knows a
file format or the report precision.

A JSON report is the text of ``json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False) + "\\n"`` with every float first rounded to 12
significant digits and every key turned into ``str(key)`` (when two keys
give the same string, the later one wins): two-space indents, ``","`` at
line ends, ``": "`` after a key, ASCII escapes (``\\uXXXX``) in strings,
and ``[]`` or ``{}`` for an empty container.  ``dumps_report`` writes that
text in one walk of the object.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
import platform
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from . import __version__

SIGNIFICANT_DIGITS = 12

OUT_DIR_ENV = "ANYONLAB_OUT_DIR"


def round_sig(x: float) -> float:
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def dumps_report(obj) -> str:
    """The report text of ``obj`` (see the module docstring).  NaN and
    +/-inf raise ValueError; a value that is not a dict, list, tuple, str,
    int, float, bool or None raises TypeError."""
    parts: list[str] = []
    _emit(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _emit(obj, parts: list[str], newline: str) -> None:
    """Append the text of ``obj`` to ``parts``; ``newline`` is the line break
    plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        x = round_sig(obj)
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        parts.append(float.__repr__(x))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _emit(value, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            parts.append(sep + _encode_str(key) + ": ")
            _emit(value, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def csv_text(header: list[str], rows) -> str:
    """CSV of ``header`` then each row of the iterable ``rows``: a float cell
    carries SIGNIFICANT_DIGITS, None is an empty cell, strings pass through."""
    spec = f".{SIGNIFICANT_DIGITS}g"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, spec) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def read_json(path: str, what: str):
    """The JSON value in ``path``; an error reading it names ``what`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read {what} {path}: {err.strerror}") from None
    except ValueError as err:     # also a file that is not UTF-8
        raise ValueError(f"{what} {path} is not valid JSON: {err}") from None


def resolve_out_path(path: str | os.PathLike) -> Path:
    """Relative outputs land in $ANYONLAB_OUT_DIR when it is set."""
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _save(p: Path, text: str) -> Path:
    """Write ``text`` to ``p``, creating its directories; an error names ``p``."""
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    except OSError as err:
        raise OSError(f"cannot write {p}: {err}") from None
    return p


def write_report(path: str | os.PathLike, obj) -> Path:
    return _save(resolve_out_path(path), dumps_report(obj))


def write_text(path: str | os.PathLike, text: str) -> Path:
    return _save(resolve_out_path(path), text)


def write_manifest(outputs: list[Path], command: str, argv: list[str],
                   config: dict, wall_s: float) -> Path:
    """Sidecar ``<report>.manifest.json`` of a run; ``outputs[0]`` is the report
    and ``wall_s`` the run's wall time in seconds."""
    manifest = {
        "command": command,
        "argv": argv,
        "config": config,
        "seed": config.get("seed"),
        "outputs": [str(p) for p in outputs],
        "versions": {
            "anyonlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_s": wall_s,
    }
    mpath = outputs[0].with_name(outputs[0].name + ".manifest.json")
    return _save(mpath, dumps_report(manifest))
