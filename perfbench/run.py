"""End-to-end and per-layer benchmark for idealis.

    python3 perfbench/run.py --workload {axioms,product}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every input is generated from ``--seed``.  Each timed run starts
a fresh interpreter, so caches start cold and peak RSS is per run.

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded
and prints the end-to-end metrics as medians over those repeats.  Its
times are scaled to a fixed host speed.  A fixed pure-Python reference
loop is timed while the run goes on: by the runner, in pauses of the run
(``Runner``), or by the axiom sweep itself, between models.  A time, with
that sampling left out, is multiplied by REF_S over the loop's mean time.
``--trace 1`` runs the workload once untraced and once under cProfile, both
serially, and prints the per-layer metrics.  Outputs are checked in both
modes; the last stdout line is the JSON result, the line before it the run
facts.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import child  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
WORKLOADS = ("axioms", "product")
SETUP_REPEATS = 5        # set-ups timed before each repeat and after the last
MIN_REPEATS = 2          # repeats of the workload per --trace 0 run, at least
TIME_LIMIT_S = 170.0
SAMPLE_EVERY_S = 0.3     # a sampled run is paused this often
REF_S = 0.015            # reference loop time that scaled times assume
REF_CPUS = 4             # the loop is timed on each of this many CPUs
# The axiom sweep checks every model with c01's sample seed, so a model's
# check is the same work on every workload seed; the seed picks the models.
C01_CHECK_SEED = 0
TIMING_LINE = re.compile(r"^(\S+): (\d+\.\d+)s$")
TINY_NAMED = {"axioms": ["gap23", "n1"],
              "product": ["affine1", "gap23", "n1", "z1"]}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def cpu_busy() -> dict:
    """Busy clock ticks (user, nice, system, irq, softirq) of each CPU
    since boot; empty where /proc/stat cannot be read."""
    busy = {}
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                name, *ticks = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    t = [int(x) for x in ticks]
                    busy[int(name[3:])] = t[0] + t[1] + t[2] + t[5] + t[6]
    except (OSError, ValueError, IndexError):
        return {}
    return busy


class Runner:
    """Spawns fresh interpreters against the checkout's sources.

    With ``sample`` set, each run is paused every SAMPLE_EVERY_S seconds,
    and the reference loop is timed on each CPU before the run, during
    every pause and after it.  On a shared machine each CPU's speed swings
    by up to 2x within seconds, and independently of the other CPUs, so
    each CPU's loop time is weighted by the ticks that CPU was busy since
    the last pause: the host speed where the run actually ran."""

    def __init__(self, deadline: float, sample: bool):
        self.deadline = deadline
        self.sample = sample
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("IDEALIS_RADIUS", None)
        self.cpus = sorted(os.sched_getaffinity(0))[:REF_CPUS]

    def reference(self, since, points: list) -> dict:
        """Time the reference loop on each CPU and append (busy-weighted
        sum of the times, total weight, plain mean) to ``points``; the
        weights are the ticks each CPU was busy after the ``since``
        snapshot.  Returns the snapshot taken after the loops."""
        busy = cpu_busy()
        allowed = os.sched_getaffinity(0)
        times = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = child.time_reference(child.REF_ROUNDS)
        finally:
            os.sched_setaffinity(0, allowed)
        weights = {cpu: max(0, busy.get(cpu, 0) - since.get(cpu, 0))
                   for cpu in times} if since else {}
        points.append((sum(w * times[cpu] for cpu, w in weights.items()),
                       sum(weights.values()), statistics.fmean(times.values())))
        return cpu_busy()

    def spawn(self, argv, stdout_path, stderr_path, sample=None) -> dict:
        """Run argv to completion in a process group of its own.  Returns
        its exit code, wall time, peak RSS (MB), and ``time``: the wall
        time less the pauses, scaled to the reference speed when
        sampling.  ``sample`` overrides the runner's setting."""
        sample = self.sample if sample is None else sample
        points = []
        mark = self.reference(None, points) if sample else None
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, process_group=0)
            try:
                status, usage, paused, mark = self._wait(proc.pid, sample,
                                                         mark, points)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ref = REF_S
        if sample:
            self.reference(mark, points)
            weight = sum(w for _, w, _ in points)
            ref = (sum(s for s, _, _ in points) / weight if weight
                   else statistics.fmean(m for _, _, m in points))
        active = wall - paused
        return {"rc": proc.returncode, "wall": wall, "active": active,
                "ref": ref, "time": active * REF_S / ref,
                "rss": usage.ru_maxrss / 1024.0}

    def _wait(self, pid: int, sample: bool, mark, points: list) -> tuple:
        """Wait for pid to exit, pausing it (when sampling) to time the
        reference loop; returns (wait status, rusage, seconds paused,
        busy snapshot after the last loop)."""
        pidfd = os.pidfd_open(pid)
        paused = 0.0
        try:
            while True:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError(f"time limit hit running pid {pid}")
                step = min(remaining, SAMPLE_EVERY_S) if sample else remaining
                if select.select([pidfd], [], [], step)[0]:
                    _, status, usage = os.wait4(pid, 0)
                    return status, usage, paused, mark
                if not sample:
                    continue
                t0 = time.perf_counter()
                try:
                    os.killpg(pid, signal.SIGSTOP)
                except ProcessLookupError:      # it exited and was reaped
                    pass
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):   # it exited first
                    return status, usage, paused, mark
                mark = self.reference(mark, points)
                os.killpg(pid, signal.SIGCONT)
                paused += time.perf_counter() - t0
        finally:
            os.close(pidfd)

    def child(self, args, tmp: Path) -> dict:
        """Run a child.py mode that must succeed."""
        run = self.spawn([sys.executable, CHILD, *args],
                         tmp / "child.out", tmp / "child.err")
        if run["rc"] != 0:
            raise BenchError(f"child {args[0]} exited {run['rc']}: "
                             + (tmp / "child.err").read_text()[-2000:])
        return run


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool, runner: Runner,
                 tmp: Path):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.runner, self.tmp = runner, tmp
        self.attempted = 0
        self.repeats = 0
        self.raw = {}               # unscaled medians, for the facts line
        self.failures = []          # (rep label, model, reasons)
        self.stdout_digest = None   # first analyze stdout of this run
        self.ref_digests = check.load_digests()
        self.inputs = tmp / "inputs"
        self.names = self._make_inputs()

    # -- inputs ----------------------------------------------------------
    def _make_inputs(self) -> list:
        """Write the corpus with the CLI and copy the seed's selection of it
        into the input directory; returns model names in CLI input order."""
        corpus = self.tmp / "corpus"
        listing = self.tmp / "corpus.json"
        run = self.runner.spawn(
            [sys.executable, "-m", "idealis.cli", "corpus", "--dest",
             str(corpus), "--json"], listing, self.tmp / "corpus.err")
        if run["rc"] != 0:
            raise BenchError("idealis corpus failed: "
                             + (self.tmp / "corpus.err").read_text()[-2000:])
        entries = json.loads(listing.read_bytes())["reports"]
        named = [e for e in entries if e["family"] == "named"]
        frob = sorted(e["name"] for e in entries
                      if e["family"] == "frobenius15")
        rng = random.Random(self.seed)
        if self.workload == "axioms":
            pick = [e["name"] for e in named if e["certified"]]
            pick += rng.sample(frob, len(frob) // 6)
        else:
            pick = [e["name"] for e in named]
        if self.tiny:
            pick = TINY_NAMED[self.workload] + (
                rng.sample(frob, 3) if self.workload == "axioms" else [])
        self.inputs.mkdir()
        for name in pick:
            shutil.copy(corpus / f"{name}.spec", self.inputs / f"{name}.spec")
        shutil.rmtree(corpus)
        return sorted(pick)

    def fail(self, label: str, model: str, reasons) -> None:
        self.failures.append((label, model, list(reasons)))

    # -- one run of the workload -------------------------------------------
    def analyze_argv(self, extra=()) -> list:
        return ["analyze", str(self.inputs), "--json", "--seed",
                str(self.seed), *extra]

    def check_analyze(self, label: str, rc: int, stdout: bytes) -> None:
        """Count this run's models, and fail those whose report is wrong;
        a non-zero exit or a stdout differing from this seed's first run
        fails every model."""
        self.attempted += len(self.names)
        whole = []
        if rc != 0:
            whole.append(f"exit status {rc}")
        sha = hashlib.sha256(stdout).hexdigest()
        if self.stdout_digest is None:
            self.stdout_digest = sha
        elif sha != self.stdout_digest:
            whole.append("stdout differs from the first run of this seed")
        bad = check.report_failures(stdout, self.names, self.ref_digests)
        for name in self.names:
            reasons = whole + bad.get(name, [])
            if reasons:
                self.fail(label, name, reasons)

    def cli_run(self, label: str) -> dict:
        """``idealis analyze`` as a user runs it, default --jobs."""
        out, err = self.tmp / "analyze.out", self.tmp / "analyze.err"
        run = self.runner.spawn(
            [sys.executable, "-m", "idealis.cli", *self.analyze_argv()],
            out, err)
        stdout = out.read_bytes()
        self.check_analyze(label, run["rc"], stdout)
        times = {m.group(1): float(m.group(2)) for m in
                 map(TIMING_LINE.match, err.read_text().splitlines())
                 if m and m.group(1) != "total"}
        # A model's stderr time includes the run's pauses and its host
        # speed; it is scaled as the run's time was.
        scale = run["time"] / run["wall"]
        return {**run, "model_times": {name: t * scale
                                       for name, t in times.items()},
                "model_sum": sum(times.values()), "bytes": len(stdout)}

    def axioms_result(self, label: str, path: Path) -> dict:
        doc = json.loads(path.read_text())
        got = [name for name, _, _ in doc["models"]]
        self.attempted += len(self.names) + 1
        if got != self.names:
            for name in self.names:
                self.fail(label, name, ["model list mismatch"])
        for name, _, bad in doc["models"]:
            if bad:
                self.fail(label, name, bad)
        if not doc["control_caught"]:
            self.fail(label, "broken-closure control", ["passed"])
        return doc

    def axioms_run(self, label: str) -> dict:
        """The sweep in a fresh interpreter.  It times the reference loop
        itself, between models and on the models' own CPU, so the runner
        does not pause it: each model's time is scaled by the loop times
        around it, and the run's time by their mean."""
        out = self.tmp / "axioms.json"
        run = self.runner.spawn(
            [sys.executable, CHILD, "axioms", str(self.inputs),
             str(C01_CHECK_SEED), str(out), "--refs"],
            self.tmp / "axioms.out", self.tmp / "axioms.err", sample=False)
        if run["rc"] != 0:
            self.attempted += len(self.names) + 1
            for name in self.names + ["broken-closure control"]:
                self.fail(label, name, [f"exit status {run['rc']}"])
            return {**run, "model_times": {}}
        doc = self.axioms_result(label, out)
        refs = [t * child.REF_ROUNDS / doc["ref_rounds"] for t in doc["refs"]]
        run["active"] = run["wall"] - sum(doc["refs"])
        run["ref"] = statistics.fmean(refs)
        run["time"] = run["active"] * REF_S / run["ref"]
        # refs[i] was timed just before model i and refs[i + 1] just
        # after it; two on each side smooth the loop's own noise.
        return {**run, "model_times": {
            name: t * REF_S / statistics.fmean(refs[max(0, i - 1):i + 3])
            for i, (name, t, _) in enumerate(doc["models"])}}

    def run_once(self, label: str) -> dict:
        if self.workload == "axioms":
            return self.axioms_run(label)
        return self.cli_run(label)

    # -- modes -----------------------------------------------------------
    def setups(self) -> list:
        return [self.runner.child(["setup", str(self.inputs)], self.tmp)
                for _ in range(SETUP_REPEATS)]

    def timed(self, seconds: float) -> dict:
        """Repeat the workload, MIN_REPEATS times and then while the next
        repeat is predicted to end within ``seconds``; set-ups are timed
        between the repeats so that both sample the same stretch of
        machine time.  Every time is scaled to the reference speed."""
        setups, runs = [], []
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            setups += self.setups()
            runs.append(self.run_once(f"run{len(runs)}"))
            now = time.perf_counter()
            if len(runs) >= MIN_REPEATS and \
                    (now - t0) + (now - t1) > seconds:
                break
        setups += self.setups()
        per_model = [statistics.median(r["model_times"][name] for r in runs
                                       if name in r["model_times"])
                     for name in self.names
                     if any(name in r["model_times"] for r in runs)]
        self.repeats = len(runs)
        for r in runs:
            print(f"repeat: wall {r['wall']:.3f} s, sampling "
                  f"{r['wall'] - r['active']:.3f} s, reference loop "
                  f"{r['ref'] * 1000:.2f} ms, scaled {r['time']:.3f} s",
                  file=sys.stderr)
        self.raw = {"raw_wall_s": statistics.median(r["active"] for r in runs),
                    "ref_loop_s": statistics.median(r["ref"] for r in runs),
                    "raw_setup_s": statistics.median(r["active"]
                                                     for r in setups)}
        return {
            "wall_s": (statistics.median(r["time"] for r in runs), "s"),
            "slowest_model_s": (max(per_model, default=0.0), "s"),
            "setup_s": (statistics.median(r["time"] for r in setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss"] for r in runs), "MB"),
        }

    def traced(self, jobs) -> dict:
        """One untraced run as a user makes it, then an untraced and a
        traced serial run from child.py; the difference of the last two is
        the tracing overhead."""
        metrics = {}
        if self.workload == "axioms":
            walls = {}
            for mode in ("plain", "profile"):
                out = self.tmp / f"axioms-{mode}.json"
                args = ["axioms", str(self.inputs), str(C01_CHECK_SEED),
                        str(out)]
                self.runner.child(args + (["--profile"] if mode == "profile"
                                          else []), self.tmp)
                doc = self.axioms_result(f"trace-{mode}", out)
                walls[mode] = doc["elapsed"]
            metrics.update(doc["layers"])
            metrics.update({"report.bytes": 0, "cli.jobs": 0,
                            "cli.model_sum_s": 0.0})
        else:
            user = self.cli_run("trace-user")
            walls = {}
            for mode in ("plain", "profile"):
                out = self.tmp / f"cli-{mode}.json"
                flags = ["--profile"] if mode == "profile" else []
                self.runner.child(["cli", str(out), *flags, "--",
                                   *self.analyze_argv(["--jobs", "1"])],
                                  self.tmp)
                doc = json.loads(out.read_text())
                stdout = Path(str(out) + ".stdout").read_bytes()
                self.check_analyze(f"trace-{mode}", doc["rc"], stdout)
                walls[mode] = doc["elapsed"]
            metrics.update(doc["layers"])
            metrics.update({"report.bytes": user["bytes"],
                            "cli.jobs": jobs or 0,
                            "cli.model_sum_s": user["model_sum"]})
        metrics["trace.overhead_s"] = walls["profile"] - walls["plain"]
        self.repeats = 1
        return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name == "report.bytes":
        return "bytes"
    return "count"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a handful of small models (smoke test only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idealis" / "__init__.py").is_file():
        print(f"perfbench: no idealis sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + TIME_LIMIT_S, sample=not args.trace)
    work = ROOT / ".perfbench_work"
    tmp = work / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.tiny, runner, tmp)
        facts_path = tmp / "facts.json"
        runner.child(["facts", str(facts_path)], tmp)
        facts = json.loads(facts_path.read_text())
        if args.trace and facts["kernel_impl"] != "slow":
            # cProfile sees a compiled kernel's functions as built-ins,
            # which no layer claims: every kernel figure would read 0.
            raise BenchError("per-layer figures need the pure-Python "
                             f"kernel, not {facts['kernel_impl']!r}; "
                             "set IDEALIS_KERNEL=slow")
        if args.trace:
            metrics = bench.traced(facts["cli_default_jobs"])
        else:
            metrics = bench.timed(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:     # another run still uses it
            pass
    failed_models = {(label, model) for label, model, _ in bench.failures}
    failed_frac = len(failed_models) / bench.attempted
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "fraction")
    for label, model, reasons in bench.failures[:20]:
        print(f"FAILED {label} {model}: {'; '.join(reasons)}", file=sys.stderr)
    facts.update({
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload, "seed": args.seed,
        "models": len(bench.names), "repeats": bench.repeats,
        "trace": args.trace,
        "jobs": 1 if args.workload == "axioms" else facts["cli_default_jobs"],
        "failed_frac": failed_frac,
        **bench.raw,
    })
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": not failed_models,
        "attempted": bench.attempted,
        "failed": len(failed_models),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
