"""Deterministic JSON and CSV reports and run manifests.

Reports are byte-identical across reruns of the same (config, seed):
floats carry 12 significant digits (``SIGNIFICANT_DIGITS``) in both
formats, JSON keys are sorted, and nothing time-dependent goes into a
report.  Timestamps, wall times, tool versions, and output paths live in
a sidecar manifest instead.  This module is the one place that knows a
file format or the report precision.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

from . import __version__

SIGNIFICANT_DIGITS = 12

OUT_DIR_ENV = "ANYONLAB_OUT_DIR"


def round_sig(x: float) -> float:
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def canonical(obj):
    """Recursively round floats (np.float64 is one) for stable JSON."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return round_sig(obj)
    return obj


def dumps_report(obj) -> str:
    return json.dumps(canonical(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    """The JSON value in ``path``; a parse error names ``what`` and the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:     # also a file that is not UTF-8
            raise ValueError(f"{what} {path} is not valid JSON: {err}") from None


def resolve_out_path(path: str | os.PathLike) -> Path:
    """Relative outputs land in $ANYONLAB_OUT_DIR when it is set."""
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def write_report(path: str | os.PathLike, obj) -> Path:
    p = resolve_out_path(path)
    p.write_text(dumps_report(obj), encoding="utf-8")
    return p


def write_text(path: str | os.PathLike, text: str) -> Path:
    p = resolve_out_path(path)
    p.write_text(text, encoding="utf-8")
    return p


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
    mpath.write_text(dumps_report(manifest), encoding="utf-8")
    return mpath
