"""Correctness checks for the benchmark's analyze reports.

A model's *verdict digest* is the SHA-256 of its classify verdicts and
witnesses: every property cell of the three system matrices, every global
cell, and every suite's agreement flag with its conditions' verdicts and
witnesses.  Notes, condition texts and any field not named here are left
out, so additive schema fields do not read as failures.  The reference
digests for the whole corpus live in ``digests.json`` next to this file;
regenerate them (only when a verdict change is intended) with

    python3 perfbench/check.py --write-digests

which runs ``idealis analyze`` over the full corpus at radius 8.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
RADIUS = 8


def _cells(table: dict) -> dict:
    return {name: [cell["verdict"], cell["witness"]]
            for name, cell in table.items()}


def projection(doc: dict) -> dict:
    """The seed-independent part of one analyze report that the digest
    covers."""
    if not doc["certified"]:
        return {"certified": False}
    return {
        "certified": True,
        "systems": {lbl: _cells(doc["systems"][lbl])
                    for lbl in sorted(doc["systems"])},
        "global": _cells(doc["global"]),
        "suites": {
            name: [suite["agreement"],
                   [[c["group"], c["id"], c["verdict"], c["witness"]]
                    for c in suite["conditions"]]]
            for name, suite in doc["suites"].items()
        },
    }


def digest(doc: dict) -> str:
    text = json.dumps(projection(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    data = json.loads(DIGESTS.read_text())
    if data["radius"] != RADIUS:
        raise ValueError(f"{DIGESTS} was recorded at radius {data['radius']}")
    return data["models"]


def model_failures(doc: dict, ref: dict) -> list:
    """Why one analyze report entry fails, as short reasons; [] if it
    passes.  Checks the digest, suite agreement and every axiom check."""
    name = doc.get("monoid")
    try:
        reasons = []
        if ref.get(name) != digest(doc):
            reasons.append("digest")
        if doc["certified"]:
            if not all(s["agreement"] for s in doc["suites"].values()):
                reasons.append("suite-disagreement")
            axioms = doc["axioms"]
            if sorted(axioms) != ["s", "t", "w"] or \
                    not all(axioms[lbl]["ok"] for lbl in axioms):
                reasons.append("axioms")
        return reasons
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed: {exc!r}"]


def report_failures(stdout: bytes, names: list, ref: dict) -> dict:
    """Failed models of one ``analyze --json`` stdout, keyed by name.

    A document that does not parse, or that does not hold exactly the
    expected models in input order, fails every model.
    """
    try:
        reports = json.loads(stdout)["reports"]
        got = [doc["monoid"] for doc in reports]
    except (ValueError, KeyError, TypeError) as exc:
        return {name: [f"unreadable report: {exc!r}"] for name in names}
    if got != names:
        return {name: ["model list mismatch"] for name in names}
    failed = {}
    for doc in reports:
        reasons = model_failures(doc, ref)
        if reasons:
            failed[doc["monoid"]] = reasons
    return failed


def write_digests(root: Path) -> None:
    """Record the reference digests of every corpus model."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        subprocess.run([sys.executable, "-m", "idealis.cli", "corpus",
                        "--dest", tmp], check=True, env=env,
                       stdout=subprocess.DEVNULL)
        out = subprocess.run([sys.executable, "-m", "idealis.cli", "analyze",
                              tmp, "--json", "--jobs", "1",
                              "--radius", str(RADIUS)],
                             check=True, env=env, capture_output=True).stdout
    models = {doc["monoid"]: digest(doc) for doc in json.loads(out)["reports"]}
    DIGESTS.write_text(json.dumps({"radius": RADIUS, "models": models},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(models)} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python3 perfbench/check.py --write-digests")
    write_digests(HERE.parent)
