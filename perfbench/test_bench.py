"""Self-test of the benchmark: the checker catches tampered reports, a
sampled run is paused and scaled, every workload runs at a tiny size, and
a checkout without sources is refused.

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402

MODELS = ["gap23", "n1"]


@contextlib.contextmanager
def _scratch():
    """A temporary directory under the checkout's .perfbench_work/, which
    is removed again once empty."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp)
        try:
            base.rmdir()
        except OSError:     # another run still uses it
            pass


def _analyze_reports() -> dict:
    """A real ``analyze --json`` document over two small named models."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("IDEALIS_RADIUS", None)
    with _scratch() as tmp:
        corpus = tmp / "corpus"
        subprocess.run([sys.executable, "-m", "idealis.cli", "corpus",
                        "--family", "named", "--dest", str(corpus)],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        specs = [str(corpus / f"{name}.spec") for name in MODELS]
        out = subprocess.run([sys.executable, "-m", "idealis.cli", "analyze",
                              *specs, "--json", "--seed", "5"],
                             check=True, env=env, capture_output=True).stdout
    return json.loads(out)


def _failures(doc) -> dict:
    return check.report_failures(json.dumps(doc).encode(), MODELS,
                                 check.load_digests())


def _first_cell(doc, pred):
    for cell in doc["reports"][0]["systems"]["t"].values():
        if pred(cell):
            return cell
    raise LookupError("no matching cell")


def test_tampered_reports_fail():
    doc = _analyze_reports()
    assert _failures(doc) == {}

    flipped = copy.deepcopy(doc)
    cell = _first_cell(flipped, lambda c: c["verdict"] in ("true", "false"))
    cell["verdict"] = "false" if cell["verdict"] == "true" else "true"
    assert _failures(flipped) == {"gap23": ["digest"]}

    witness = copy.deepcopy(doc)
    cell = _first_cell(witness, lambda c: c["witness"] is not None)
    cell["witness"] = {"tampered": True}
    assert _failures(witness) == {"gap23": ["digest"]}

    disagree = copy.deepcopy(doc)
    suite = next(iter(disagree["reports"][1]["suites"].values()))
    suite["agreement"] = False
    assert _failures(disagree) == {"n1": ["digest", "suite-disagreement"]}

    axioms = copy.deepcopy(doc)
    axioms["reports"][0]["axioms"]["w"]["ok"] = False
    assert _failures(axioms) == {"gap23": ["axioms"]}

    dropped = copy.deepcopy(doc)
    del dropped["reports"][1]
    assert set(_failures(dropped)) == set(MODELS)


def test_notes_and_new_fields_are_not_digested():
    doc = _analyze_reports()
    rep = doc["reports"][0]
    base = check.digest(rep)
    rep["schema_extra"] = 1
    for table in rep["systems"].values():
        for cell in table.values():
            cell["note"] = "reworded"
            cell["method"] = "structural"
    assert check.digest(rep) == base


def test_sampled_run_is_paused_and_scaled():
    busy = ("import time\nt0 = time.perf_counter()\n"
            "while time.perf_counter() - t0 < 1.0:\n    pass\n")
    runner = run.Runner(time.monotonic() + 60, sample=True)
    with _scratch() as tmp:
        got = runner.spawn([sys.executable, "-c", busy],
                           tmp / "out", tmp / "err")
    assert got["rc"] == 0
    assert 0 < got["active"] < got["wall"]      # paused at least once
    assert got["time"] == got["active"] * run.REF_S / got["ref"]
    assert run.cpu_busy() or not Path("/proc/stat").exists()


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_tiny_smoke_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            facts, result = [json.loads(line) for line in
                             proc.stdout.strip().splitlines()[-2:]]
            assert facts["facts"]["workload"] == workload
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == wanted[trace]


def test_refuses_checkout_without_sources():
    with _scratch() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("axioms", 0, cwd=tmp)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
