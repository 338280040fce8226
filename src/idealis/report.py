"""Deterministic report envelopes: canonical JSON plus a flat CSV projection.

A report document never carries wall-clock data; timing lines go to stderr
so that two runs with identical configuration produce byte-identical output
on stdout.  The JSON layout is versioned through the top-level ``schema``
field and documented in docs/schema.md.  Each report renders on its own
(``json_fragment``, ``csv_rows``); written in input order inside the
envelope's frame they are the whole document's bytes.  This is the one
module that serializes.
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


def json_frame(version: str, command: str, config: dict) -> tuple:
    """The canonical JSON of an envelope split where its reports go:
    (head, tail).  Written around the ``json_fragment`` of each of one or
    more reports, ``",\n"`` between two, they give ``dumps`` of the
    envelope byte for byte.  Only top-level keys start a line indented two
    spaces, so the split is unambiguous."""
    head, _, tail = dumps(envelope(version, command, config, [])).partition(
        '\n  "reports": []')
    return head + '\n  "reports": [\n', "\n  ]" + tail


def json_fragment(rep) -> str:
    """One report as it stands inside the envelope's ``reports`` array:
    its ``dumps`` with every line indented four spaces and no final
    newline.  Strings are escaped, so every newline is the layout's."""
    return "    " + dumps(rep)[:-1].replace("\n", "\n    ")


def csv_lines(rows) -> str:
    """Rows in the canonical CSV dialect, one line each."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


CSV_HEADER = csv_lines([("monoid", "path", "value")])


def csv_rows(rep: dict) -> list:
    """The flat projection of one report: a (monoid, path, value) row per
    leaf value, with dotted paths into the report.  Lossy by design, meant
    for spreadsheet triage rather than round-trips; a run's CSV is
    ``CSV_HEADER`` and then each report's rows."""
    name = rep.get("monoid", rep.get("name", ""))
    rows: list = []
    _flatten({k: v for k, v in rep.items() if k not in ("monoid", "name")},
             "", rows)
    return [(name, path, val) for path, val in rows]


@contextmanager
def stopwatch(label: str):
    """Time a block and report it on stderr, away from the report bytes."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        print(f"{label}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
