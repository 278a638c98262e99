"""Plain-text matrix format shared by the library and the CLI.

Layout::

    # optional comment lines
    rows cols
    a11 a12 ... a1c
    ...

Entries that read as integers are kept as integers so that exact-arithmetic
code paths (zero tolerance 0) stay exact through a round trip.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SpecFileError


def _parse_entry(tok):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        value = float(tok)
    except ValueError as exc:
        raise SpecFileError(f"bad matrix entry {tok!r}") from exc
    if not math.isfinite(value):
        raise SpecFileError(f"non-finite matrix entry {tok!r}")
    return value


def loads(text):
    lines = [ln for ln in (raw.split("#")[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise SpecFileError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise SpecFileError(f"expected 'rows cols' header, got {lines[0]!r}")
    rows, cols = (int(h) for h in header)
    entries = []
    for ln in lines[1:]:
        entries.extend(_parse_entry(tok) for tok in ln.split())
    if len(entries) != rows * cols:
        raise SpecFileError(f"expected {rows * cols} entries, got {len(entries)}")
    exact = all(isinstance(e, int) for e in entries)
    dtype = np.int64 if exact else float
    return np.array(entries, dtype=dtype).reshape(rows, cols)


def load(path):
    with open(path) as fh:
        return loads(fh.read())


def dumps(A):
    A = np.asarray(A)
    out = [f"{A.shape[0]} {A.shape[1]}"]
    for row in A:
        out.append(" ".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def dump(A, path):
    with open(path, "w") as fh:
        fh.write(dumps(A))


def _fmt(v):
    if float(v).is_integer() and abs(float(v)) < 1e15:
        return str(int(v))
    return repr(float(v))
