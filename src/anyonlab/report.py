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
text in one walk of the object, and a long list of one shape in bulk: a list
of plain strings is one join, and a list of dicts keyed by one set of
strings is written from one row template built for that list, each row's
scalar values checked in order and put into it.  Rows that do not fit the
template take the recursive walk, so every error is the one that walk
raises for the first bad value.  Both match a scalar by its exact type, in
one table (``_SCALAR_TEXT``): ``str``, ``int``, ``float``, ``numpy.float64``,
``bool`` and ``None``; a subclass (an ``IntEnum`` member) raises TypeError.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import operator
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
    """The report text of ``obj`` (see the module docstring): NaN and +/-inf
    raise ValueError.  Scalars are matched by exact type in one table,
    ``_SCALAR_TEXT`` (str, int, float, numpy.float64, bool, None); any other
    value but a dict, list or tuple raises TypeError."""
    parts: list[str] = []
    _emit(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _float_text(x: float) -> str:
    x = round_sig(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# the one scalar encoder of the walk and the row template, by exact type (so bool
# is never read as int); numpy's float64 is a float, and spectra carry it
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, float: _float_text, np.float64: _float_text,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _emit(obj, parts: list[str], newline: str) -> None:
    """Append the text of ``obj`` to ``parts``; ``newline`` is the line break
    plus the indent of the line ``obj`` starts on."""
    encode = _SCALAR_TEXT.get(type(obj))
    if encode is not None:
        parts.append(encode(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        first = obj[0]
        # a state dump row starts with its bit string: its last item rejects it at once
        if type(first) is str and type(obj[-1]) is str and all(type(v) is str for v in obj):
            parts.append("[" + inner + ("," + inner).join(map(_encode_str, obj)) + newline + "]")
            return
        template = None
        if (type(first) is dict and first and all(type(k) is str for k in first)
                and all(type(v) in _SCALAR_TEXT for v in first.values())):
            # one "%s" per key in sorted order; a row fits when it has these keys
            keys = sorted(first)
            template = "{" + ",".join(inner + "  " + _encode_str(k).replace("%", "%%") + ": %s"
                                      for k in keys) + inner + "}"
            keyset = first.keys()
            get = operator.itemgetter(*keys) if len(keys) > 1 else lambda d: (d[keys[0]],)
        sep, comma = "[" + inner, "," + inner
        for value in obj:
            if template is not None and type(value) is dict and value.keys() == keyset:
                try:        # values in key order, so the first bad one raises first
                    parts.append(sep + template % tuple([_SCALAR_TEXT[type(v)](v)
                                                         for v in get(value)]))
                    sep = comma
                    continue
                except KeyError:        # not a plain scalar: the row takes the walk
                    pass
            parts.append(sep)
            _emit(value, parts, inner)
            sep = comma
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
    except (ValueError, RecursionError) as err:     # also not UTF-8, or nested too deep
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
