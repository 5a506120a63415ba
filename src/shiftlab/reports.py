"""Experiment reports: a stable, versioned JSON schema plus CSV traces.

Reports are canonicalized (sorted keys, shortest-roundtrip floats), so a
fixed (config, seed) pair reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA_VERSION = 1
_INF = float("inf")


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
    """Sorted keys, one-space indent, shortest-roundtrip floats, ASCII only.

    The bytes of ``json.dumps(obj, sort_keys=True, separators=(",", ": "),
    indent=1) + "\n"`` after coercing numpy scalars and arrays, complex
    numbers (to [re, im]), Fractions (to str), tuples and dict keys (to str),
    written in one pass: ``indent`` would select the stdlib's pure-Python
    encoder anyway.
    """
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(obj, out: list, nl: str):
    """Append the JSON of ``obj`` to ``out``; ``nl`` starts a line at its depth."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is float:
        out.append(_float(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        plain = {str(k): v for k, v in obj.items()}
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(plain):
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(plain[key], out, inner)
            sep = "," + inner
        out += (nl, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + " "
        if all(type(v) is float for v in obj):
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" in text:  # nan or inf: spell them as json does
                text = ("," + inner).join(map(_float, obj))
            out += ("[", inner, text, nl, "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out += (nl, "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size:
            _write_floats(obj, out, nl)
        else:
            _write(obj.tolist(), out, nl)
    elif isinstance(obj, np.bool_):
        _write(bool(obj), out, nl)
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.floating):
        out.append(_float(float(obj)))
    elif isinstance(obj, complex):
        _write([obj.real, obj.imag], out, nl)
    elif isinstance(obj, Fraction):
        out.append(encode_basestring_ascii(str(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_floats(a: np.ndarray, out: list, nl: str):
    """Append the JSON of ``a.tolist()`` for a non-empty float64 array of
    one or more dimensions, spelling each distinct value once.

    Values are told apart by their bits, so -0.0 and 0.0 (and NaN payloads)
    stay apart; the words are then gathered into the array's shape.
    """
    a = np.asarray(a)  # an np.matrix row would stay 2-d
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    spell = float.__repr__ if np.isfinite(values).all() else _float
    words = np.array(list(map(spell, values.tolist())), dtype=object)
    _write_rows(words[inverse.reshape(a.shape)], out, nl)


def _write_rows(words: np.ndarray, out: list, nl: str):
    """Write an object array of spelled floats as the nested-list branches do."""
    inner = nl + " "
    if words.ndim == 1:
        out += ("[", inner, ("," + inner).join(words.tolist()), nl, "]")
        return
    sep = "[" + inner
    for row in words:
        out.append(sep)
        _write_rows(row, out, inner)
        sep = "," + inner
    out += (nl, "]")


def trace_csv(rows: list[dict]) -> str:
    """CSV with one column per key of the first row; plain repr values, and
    an empty cell for a null (None) value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = list(rows[0])
    writer.writerow(names)
    writer.writerows(["" if row[n] is None else repr(row[n]) for n in names] for row in rows)
    return buf.getvalue()


def default_output_dir() -> str | None:
    return os.environ.get("SHIFTLAB_OUTDIR")


def write_text(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
