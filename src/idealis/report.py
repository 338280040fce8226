"""Deterministic report envelopes: canonical JSON plus a flat CSV projection.

A report document never carries wall-clock data; timing lines go to stderr
so that two runs with identical configuration produce byte-identical output
on stdout.  The JSON layout is versioned through the top-level ``schema``
field and documented in docs/schema.md.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from contextlib import contextmanager

SCHEMA = 1


def envelope(version: str, command: str, config: dict, reports: list) -> dict:
    """Top-level document: config echo plus per-monoid results, input order."""
    return {
        "schema": SCHEMA,
        "version": version,
        "command": command,
        "config": config,
        "reports": list(reports),
    }


def dumps(doc) -> str:
    """Canonical serialization.

    Sorted keys, two-space indent, fixed separators, ASCII escapes: equal
    documents serialize to equal bytes on every platform.
    """
    return json.dumps(doc, indent=2, sort_keys=True,
                      separators=(",", ": "), ensure_ascii=True) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _flatten(value, path: str, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{path}.{key}" if path else str(key)
            _flatten(value[key], sub, rows)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            rows.append((path, " ".join(_cell(v) for v in value)))
        else:
            for i, v in enumerate(value):
                _flatten(v, f"{path}[{i}]", rows)
    else:
        rows.append((path, _cell(value)))


def csv_text(doc: dict) -> str:
    """Flat projection of an envelope: one row per leaf value.

    Columns are (monoid, path, value) with dotted paths into each report;
    lossy by design, meant for spreadsheet triage rather than round-trips.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("monoid", "path", "value"))
    for rep in doc["reports"]:
        name = rep.get("monoid", rep.get("name", ""))
        rows: list = []
        body = {k: v for k, v in rep.items() if k not in ("monoid", "name")}
        _flatten(body, "", rows)
        for path, val in rows:
            writer.writerow((name, path, val))
    return buf.getvalue()


@contextmanager
def stopwatch(label: str):
    """Time a block and report it on stderr, away from the report bytes."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        print(f"{label}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
