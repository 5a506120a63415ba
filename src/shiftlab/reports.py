"""Experiment reports: a stable, versioned JSON schema plus CSV traces.

Reports are canonicalized (sorted keys, shortest-roundtrip floats), so a
fixed (config, seed) pair reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 1
# JSON leaves returned as they are (matched by exact type: a numpy scalar
# that subclasses float is not one)
_LEAVES = frozenset((float, int, str, bool, type(None)))


@dataclass
class ExperimentReport:
    command: str
    params: dict
    seed: int | None = None
    verdict: str | None = None
    data: dict = field(default_factory=dict)
    trace: list | None = None  # per-step rows for --format csv/jsonl; not in to_dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "verdict": self.verdict,
            "data": self.data,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _plain(obj):
    """Coerce numpy scalars/arrays, complex numbers and tuples to JSON types."""
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else _plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def trace_csv(rows: list[dict]) -> str:
    """CSV with one column per key of the first row; plain repr values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = list(rows[0])
    writer.writerow(names)
    writer.writerows([repr(row[n]) for n in names] for row in rows)
    return buf.getvalue()


def default_output_dir() -> str | None:
    return os.environ.get("SHIFTLAB_OUTDIR")


def write_text(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
