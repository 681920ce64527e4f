"""Deterministic report documents: a section-of-rows model with CSV and JSON writers.

Report bytes are a pure function of (config, seed, version): numbers print
with 17 significant digits, mappings serialize with sorted keys, CSV uses
'.' decimals and LF line endings.  Execution details such as wall times
never enter a report.

A section holds either plain rows or a :class:`DenseTable`, the value table
of a functional over every configuration of its window.  Dense sections are
rendered by column: each alphabet point and the value column are formatted
once, and rows are joined ``CHUNK_ROWS`` at a time.  Both writers stream
their chunks to the file (and ``describe`` without ``--out`` to stdout), so
the memory a write takes does not grow with the number of rows.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Dense rows joined into one chunk; bounds the text a writer holds at a time.
CHUNK_ROWS = 4096


def format_value(v) -> str:
    """Canonical text form of one report cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if v is None:
        return ""
    if isinstance(v, (tuple, list)):
        return ";".join(format_value(c) for c in v)
    return str(v)


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    if isinstance(v, (tuple, list)):
        return "[" + ",".join(_json_value(c) for c in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ",".join(f'"{_json_escape(str(k))}":{_json_value(val)}' for k, val in items) + "}"
    return f'"{_json_escape(str(v))}"'


def canonical_json(doc) -> bytes:
    return (_json_value(doc) + "\n").encode("utf-8")


def config_digest(config_doc) -> str:
    """SHA-256 of the canonical JSON form of the resolved configuration."""
    return hashlib.sha256(canonical_json(config_doc)).hexdigest()


@dataclass(frozen=True, eq=False)
class DenseTable:
    """Rows for every assignment of ``alphabet`` points to ``arity`` sites.

    Rows run in ``itertools.product`` order over the alphabet, which is the C
    order of ``values``; each row is its site points followed by its value.
    """

    alphabet: tuple
    arity: int
    values: np.ndarray


@dataclass
class Section:
    name: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    dense: DenseTable | None = None

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != {len(self.columns)} in {self.name}")
        self.rows.append(row)


@dataclass
class Report:
    meta: dict
    sections: list[Section] = field(default_factory=list)

    def section(self, name: str, columns: list[str], dense: DenseTable | None = None) -> Section:
        sec = Section(name=name, columns=list(columns), dense=dense)
        self.sections.append(sec)
        return sec

    def to_json_bytes(self) -> bytes:
        return "".join(self._json_chunks()).encode("utf-8")

    def stream_json(self, fh) -> None:
        """Write the JSON document to the binary file ``fh`` chunk by chunk."""
        _write_chunks(fh, self._json_chunks())

    def write(self, out_dir: str | Path, fmt: str) -> list[Path]:
        """Write the report under ``out_dir``; returns the files written."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            files = [("report.json", self._json_chunks())]
        elif fmt == "csv":
            meta = ["key,value"] + [f"{k},{format_value(v)}" for k, v in sorted(self.meta.items())]
            files = [("meta.csv", ["\n".join(meta) + "\n"])]
            files += [(f"{s.name}.csv", _csv_chunks(s)) for s in self.sections]
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written = []
        for name, chunks in files:
            path = out / name
            with path.open("wb") as fh:
                _write_chunks(fh, chunks)
            written.append(path)
        return written

    def _json_chunks(self) -> Iterator[str]:
        # The text canonical_json gives the document {"meta": ..., "sections": [...]}.
        yield f'{{"meta":{_json_value(self.meta)},"sections":['
        for k, s in enumerate(self.sections):
            lead = "," if k else ""
            if s.dense is None:
                rows = [[_cell(v) for v in row] for row in s.rows]
                yield lead + _json_value({"name": s.name, "columns": s.columns, "rows": rows})
            else:
                yield f'{lead}{{"columns":{_json_value(s.columns)},"name":{_json_value(s.name)},"rows":['
                yield from _dense_chunks(s.dense, _json_value, "[", "]", ",")
                yield "]}"
        yield "]}\n"


def _csv_chunks(s: Section) -> Iterator[str]:
    if s.dense is None:
        lines = [",".join(s.columns)] + [",".join(format_value(v) for v in row) for row in s.rows]
        yield "\n".join(lines) + "\n"
    else:
        yield ",".join(s.columns) + "\n"
        yield from _dense_chunks(s.dense, format_value, "", "\n", "")


def _dense_chunks(table: DenseTable, point, left: str, right: str, sep: str) -> Iterator[str]:
    """Rows ``left + cells + right`` joined by ``sep``, ``CHUNK_ROWS`` rows per chunk."""
    keys = map(",".join, itertools.product([point(v) for v in table.alphabet], repeat=table.arity))
    comma = "," if table.arity else ""
    flat = table.values.reshape(-1)
    lead = ""
    for start in range(0, flat.size, CHUNK_ROWS):
        values = flat[start : start + CHUNK_ROWS].tolist()
        # The finite chunk goes first: zip stops on it without drawing one key too many.
        rows = [f"{left}{key}{comma}{v:.17g}{right}" for v, key in zip(values, keys)]
        yield lead + sep.join(rows)
        lead = sep


def _write_chunks(fh, chunks) -> None:
    for chunk in chunks:
        fh.write(chunk.encode("utf-8"))


def _cell(v):
    """JSON form of a cell: tuples flatten to the same text as CSV cells."""
    if isinstance(v, (tuple, list)):
        return format_value(v)
    return v
