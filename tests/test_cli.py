"""End-to-end runs of the console entry point in a subprocess, and of
its batch runner."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import idealis
from idealis import cli, corpus, report
from idealis.monoid import parse_monoid, to_text

SRC = str(Path(idealis.__file__).resolve().parent.parent)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "idealis.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    dest = tmp_path_factory.mktemp("specs")
    for e in corpus.members("named"):
        (dest / f"{e.name}.spec").write_text(to_text(e.model))
    return dest


def test_factor_chain_golden(specs):
    r = run_cli("factor", str(specs / "n2.spec"), "--element", "2,1",
                "--system", "t")
    assert r.returncode == 0
    assert r.stdout == "n2 t-chain: [1,1] | [1,0]\n"


def test_factor_failure_reports_not_errors(specs):
    r = run_cli("factor", str(specs / "gap23.spec"), "--element", "2",
                "--system", "t")
    assert r.returncode == 0
    assert "NonPrincipalRadical" in r.stdout


def test_closure_golden(specs):
    r = run_cli("closure", str(specs / "gap23.spec"), "--element", "3",
                "--system", "t")
    assert r.returncode == 0
    assert r.stdout == "gap23 t-closure: [3] (already closed)\n"


def test_verify_suite_golden(specs):
    r = run_cli("verify", str(specs / "gap23.spec"), "--suite", "Thm4.2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "gap23 Thm4.2: agreement"
    assert len([l for l in lines if " false " in l]) == 4
    assert "almost Dedekind" in lines[1]


def test_verify_grouped_suite_rows_show_the_id_once(specs):
    # condition ids of a dual suite already carry their group letter
    r = run_cli("verify", str(specs / "gap23.spec"), "--suite", "Thm4.3")
    assert r.returncode == 0
    rows = r.stdout.splitlines()[1:]
    assert [row[:7] for row in rows] == [
        "  (A1) ", "  (A2) ", "  (A3) ", "  (B1) ", "  (B2) ", "  (B3) "]


def test_spectrum_golden(specs):
    r = run_cli("spectrum", str(specs / "n2.spec"))
    assert r.stdout.splitlines() == [
        "n2 prime {0}: height 1, t-closed, t-max",
        "n2 prime {1}: height 1, t-closed, t-max",
        "n2 prime {}: height 2",
    ]


def test_analyze_text_summary(specs):
    r = run_cli("analyze", str(specs / "gap23.spec"))
    assert r.returncode == 0
    assert "gap23: certified, radius 8" in r.stdout
    assert "  s-matrix: 11 true, 23 false, 0 unknown" in r.stdout
    assert "  axioms: s ok  t ok  w ok" in r.stdout


def test_analyze_json_is_byte_deterministic(specs):
    args = ("analyze", str(specs / "gap23.spec"), str(specs / "nxz.spec"),
            "--json", "--radius", "6")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert set(doc) == {"schema", "version", "command", "config", "reports"}
    assert doc["schema"] == 1
    assert doc["command"] == "analyze"
    assert [r["monoid"] for r in doc["reports"]] == ["gap23", "nxz"]


def test_json_config_echoes_arguments(specs):
    # every option but --jobs, as docs/schema.md lists them per subcommand
    spec = str(specs / "gap23.spec")
    base = {"format": "json", "inputs": [spec], "radius": 5, "seed": 9,
            "strict": False}
    cases = [
        (("analyze",), {}),
        (("closure", "--element", "2;3", "--system", "w"),
         {"element": [[2], [3]], "system": "w"}),
        (("factor", "--element", "4"), {"element": [[4]], "system": "t"}),
        (("spectrum", "--system", "s"), {"system": "s"}),
        (("verify",), {"suite": "all"}),
        (("verify", "--suite", "Thm4.3"), {"suite": "Thm4.3"}),
    ]
    for (command, *options), extra in cases:
        r = run_cli(command, spec, *options, "--json", "--radius", "5",
                    "--seed", "9", "--jobs", "1")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["config"] == {**base, **extra}, command


def test_csv_projection(specs):
    r = run_cli("analyze", str(specs / "gap23.spec"), "--csv", "--radius", "6")
    lines = r.stdout.splitlines()
    assert lines[0] == "monoid,path,value"
    assert all(l.startswith("gap23,") for l in lines[1:])
    assert any(",systems.t.local.verdict,true" in l for l in lines)


def test_directory_input_sorts_members(specs):
    r = run_cli("spectrum", str(specs), "--json")
    doc = json.loads(r.stdout)
    names = [rep["monoid"] for rep in doc["reports"]]
    assert names == sorted(names)
    assert len(names) == 14


def test_timing_goes_to_stderr_not_stdout(specs):
    r = run_cli("analyze", str(specs / "gap23.spec"), "--json", "--radius", "6")
    assert "total:" in r.stderr
    assert "total:" not in r.stdout


def test_spectrum_batch_reports_an_uncertified_model(specs):
    # the model is reported uncertified before its system is built, so a
    # mod(...) token does not end the batch
    r = run_cli("spectrum", str(specs / "affine1.spec"),
                str(specs / "gap23.spec"), "--system", "mod(s,t)")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == ("affine1: uncertified (affine1: exact spectrum "
                        "needs a certified product model)")
    assert lines[1:] and all(l.startswith("gap23 prime ") for l in lines[1:])


def test_factor_long_chains_and_the_chain_budget(specs):
    n1 = str(specs / "n1.spec")
    for element, lbl, length in (("65", "t", 65), ("300", "s", 300)):
        r = run_cli("factor", n1, "--element", element, "--system", lbl,
                    "--json")
        assert r.returncode == 0, r.stderr
        result = json.loads(r.stdout)["reports"][0]["result"]
        assert len(result["factors"]) == length
    # past the budget: a failure report, not an error, and no long loop
    for lbl in ("t", "s"):
        r = run_cli("factor", n1, "--element", "1099511627775",
                    "--system", lbl)
        assert r.returncode == 0, r.stderr
        assert r.stdout == ("n1: no factorization (BoundExceeded) "
                            "witness [1099511626751]\n")


def test_class_group_probe_over_budget_ends_unknown(tmp_path):
    # four singular coordinates: the probe's lattice trips its ground-set
    # budget, which ends as an honest unknown, not as an error
    spec = tmp_path / "g23x4.spec"
    spec.write_text("name = g23x4\n" + "coord = numerical 2 3\n" * 4)
    r = run_cli("analyze", str(spec), "--json")
    assert r.returncode == 0, r.stderr
    systems = json.loads(r.stdout)["reports"][0]["systems"]
    for lbl in ("t", "w"):
        got = systems[lbl]["class_group_trivial"]
        assert got["verdict"] == "unknown-beyond-radius"
        assert got["note"] == (
            "the closed-ideal lattice is over budget: "
            f"{lbl}-lattice ground set has 1296 > 400 vectors")


def test_uncertified_is_reported_not_fatal(specs):
    # each per-model subcommand degrades with the note docs/schema.md
    # gives it, and only --strict fails the run on it
    spec = str(specs / "affine1.spec")
    for needs, command, *options in (
            ("ideal arithmetic", "closure", "--element", "1,1"),
            ("ideal arithmetic", "factor", "--element", "1,1"),
            ("exact spectrum", "spectrum"), ("exact spectrum", "verify")):
        r = run_cli(command, spec, *options)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (f"affine1: uncertified (affine1: {needs} needs "
                            "a certified product model)\n"), command
        r = run_cli(command, spec, *options, "--strict")
        assert r.returncode == 1, command


@pytest.mark.parametrize("args,fragment", [
    (("analyze", "/does/not/exist.spec"), "exist"),
    (("closure", "SPEC", "--element", "1,2,3", "--system", "t"),
     "3 coordinates"),
    (("closure", "SPEC", "--element", "2", "--system", "q"), "unknown ideal system"),
    (("closure", "SPEC", "--element", "x"), "element"),
    (("analyze", "SPEC", "--radius", "0"), "radius"),
    (("analyze", "SPEC", "--jobs", "0"), "jobs must be at least 1"),
    (("factor", "SPEC", "--element", "2", "--system", "q"),
     "gap23: unknown ideal system 'q'"),
    (("spectrum", "SPEC", "--system", "q"), "gap23: unknown ideal system 'q'"),
    # t lies above s on n345, whose one coordinate is not symmetric
    (("closure", "N345", "--element", "3", "--system", "mod(t,s)"),
     "n345: t <= s fails"),
    (("factor", "N345", "--element", "3", "--system", "mod(t,s)"),
     "n345: t <= s fails"),
    (("spectrum", "N345", "--system", "mod(t,s)"), "n345: t <= s fails"),
])
def test_usage_errors_exit_two(specs, args, fragment):
    names = {"SPEC": "gap23", "N345": "n345"}
    args = [str(specs / f"{names[a]}.spec") if a in names else a
            for a in args]
    r = run_cli(*args)
    assert r.returncode == 2 and r.stdout == ""
    assert fragment in r.stderr


def test_jobs_never_change_bytes(specs):
    # n2 is the slowest of the three, so with two workers the reports
    # finish out of input order.
    order = ["n2", "gap23", "nxz"]
    paths = [str(specs / f"{name}.spec") for name in order]
    for fmt in ("--json", "--csv", None):
        runs = [run_cli("analyze", *paths, "--radius", "5", "--jobs", jobs,
                        *([fmt] if fmt else []))
                for jobs in ("1", "2")]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
        for r in runs:
            timed = [line.split(":")[0] for line in r.stderr.splitlines()
                     if line.endswith("s") and not line.startswith("total:")]
            assert timed == order


def test_cpus_follow_the_affinity_set(monkeypatch):
    # one CPU allowed on a many-CPU host: the default pool is one worker
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._cpus() == 1
    assert cli._build_parser().parse_args(["analyze", "x"]).jobs == 1


def test_worker_count_is_bounded():
    assert cli._worker_count(100000, 593, 2) == 2
    assert cli._worker_count(100000, 1, 64) == 1
    assert cli._worker_count(1, 593, 64) == 1
    assert cli._worker_count(3, 593, 64) == 3


def test_exit_status_is_read_off_the_reports():
    ok = {"certified": True, "suites": {"a": {"agreement": True}},
          "axioms": {"s": {"ok": True}}}
    assert not cli._failed(ok, strict=True)
    assert cli._failed({**ok, "suites": {"a": {"agreement": False}}}, False)
    assert cli._failed({**ok, "axioms": {"s": {"ok": False}}}, False)
    assert not cli._failed({"certified": True}, strict=True)
    assert cli._failed({"certified": False}, strict=True)
    assert not cli._failed({"certified": False}, strict=False)


def _named_specs(*names):
    models = {e.name: e.model for e in corpus.members("named")}
    return [(name, to_text(models[name])) for name in names]


def _batch_args(jobs):
    # what _run_models and the task read of the parsed options
    return argparse.Namespace(jobs=jobs, command="analyze", format="json",
                              strict=False)


def _pid_worker(H, args):
    return {"monoid": H.name, "certified": True, "pid": os.getpid()}


def test_one_model_or_one_worker_runs_in_process():
    for specs, jobs in ((_named_specs("gap23"), 100000),
                        (_named_specs("gap23", "nxz", "n2"), 1)):
        results = cli._run_models(specs, _pid_worker, _batch_args(jobs))
        reports = [json.loads(fragment) for fragment, _ in results]
        assert [doc["monoid"] for doc in reports] == [n for n, _ in specs]
        assert {doc["pid"] for doc in reports} == {os.getpid()}
        assert not any(failed for _, failed in results)


def test_model_times_go_out_as_results_arrive(capsys):
    # in-process, each model's time is on stderr before the next one runs
    def worker(H, args):
        print(f"running {H.name}", file=sys.stderr)
        return {"monoid": H.name, "certified": True}

    cli._run_models(_named_specs("gap23", "nxz"), worker, _batch_args(1))
    assert [line.split(":")[0]
            for line in capsys.readouterr().err.splitlines()] == [
        "running gap23", "gap23", "running nxz", "nxz"]


FAILING_BATCH = """
import argparse, sys
from idealis import cli, corpus
from idealis.monoid import to_text

def fail_on_nxz(H, args):
    if H.name == "nxz":
        raise ValueError(H.name + ": deliberate failure")
    return {"monoid": H.name, "certified": True}

models = {e.name: e.model for e in corpus.members("named")}
specs = [(n, to_text(models[n])) for n in ("gap23", "nxz", "n2")]
try:
    cli._run_models(specs, fail_on_nxz, argparse.Namespace(
        jobs=int(sys.argv[1]), command="analyze", format="json",
        strict=False))
except Exception as exc:
    print(type(exc).__module__, type(exc).__qualname__, exc)
"""


def test_worker_failure_propagates():
    """A worker's exception reaches the caller unchanged at every --jobs,
    and the batch ends rather than hanging or breaking the pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for jobs in ("1", "2"):
        r = subprocess.run([sys.executable, "-c", FAILING_BATCH, jobs],
                           capture_output=True, text=True, env=env,
                           timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "builtins ValueError nxz: deliberate failure\n"


BATCH = ("gap23", "nxz", "n2", "z1")     # workers: gap23, n2 | nxz, z1


@pytest.fixture
def two_cpus(monkeypatch):
    # --jobs 2 forks two workers on any host
    monkeypatch.setattr(cli, "_cpus", lambda: 2)


def test_forked_workers_share_the_batch_round_robin(two_cpus):
    # a closure does not pickle, and need not: only results cross back
    parent = os.getpid()

    def worker(H, args):
        return {"monoid": H.name, "certified": True, "pid": os.getpid(),
                "parent": os.getppid() == parent}

    results = cli._run_models(_named_specs(*BATCH), worker, _batch_args(2))
    reports = [json.loads(fragment) for fragment, _ in results]
    assert [doc["monoid"] for doc in reports] == list(BATCH)
    pids = [doc["pid"] for doc in reports]
    assert pids[0] == pids[2] != pids[1] == pids[3]
    assert parent not in pids and all(doc["parent"] for doc in reports)


@pytest.mark.parametrize("failing, first", [
    (("nxz", "n2"), "nxz"),         # the second worker's comes first
    (("gap23", "nxz"), "gap23"),    # the first worker's comes first
])
def test_first_failure_in_input_order_is_raised(two_cpus, failing, first):
    def worker(H, args):
        if H.name in failing:
            raise ValueError(H.name)
        return {"monoid": H.name, "certified": True}

    with pytest.raises(ValueError, match=f"^{first}$"):
        cli._run_models(_named_specs(*BATCH), worker, _batch_args(2))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_worker_ends_the_batch(two_cpus):
    # the first worker dies on gap23 while the second sleeps: the batch
    # ends at once with an error, and the sleeper is killed and reaped
    def worker(H, args):
        if H.name == "gap23":
            os._exit(3)
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(cli.WorkerError, match="exit status 3"):
        cli._run_models(_named_specs(*BATCH), worker, _batch_args(2))
    assert time.monotonic() - t0 < 30
    _no_child_left()


class TwoArgumentError(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, name, detail):
        super().__init__(f"{name}: {detail}")


def _unpicklable(name):
    exc = ValueError(f"{name}: holds a closure")
    exc.hook = lambda: None
    return exc


@pytest.mark.parametrize("make", [
    lambda name: TwoArgumentError(name, "no round trip"), _unpicklable,
], ids=["unpickles-badly", "does-not-pickle"])
def test_an_exception_that_will_not_pickle_names_its_model(two_cpus, make):
    def worker(H, args):
        if H.name == "nxz":
            raise make(H.name)
        return {"monoid": H.name, "certified": True}

    with pytest.raises(cli.WorkerError, match="^nxz: "):
        cli._run_models(_named_specs(*BATCH), worker, _batch_args(2))
    _no_child_left()


def whole_document(args, reports) -> str:
    """The render of a run's whole envelope at once, which the CLI's
    report-by-report output must equal byte for byte."""
    doc = report.envelope(idealis.__version__, args.command,
                          cli._config(args), reports)
    if args.format == "json":
        return report.dumps(doc)
    if args.format == "csv":
        return report.CSV_HEADER + report.csv_lines(
            row for rep in doc["reports"] for row in report.csv_rows(rep))
    lines = []
    for rep in reports:
        if args.command != "corpus" and not rep["certified"]:
            lines.append(f"{rep['monoid']}: uncertified ({rep['note']})")
        else:
            lines.extend(cli._COMMANDS[args.command][1](rep))
    return "\n".join(lines) + "\n" if lines else ""


@pytest.mark.parametrize("argv", [
    ("analyze", "gap23", "--radius", "5"),
    ("analyze", "gap23", "affine1", "nxz", "--radius", "5"),
    ("verify", "n2", "--suite", "Thm4.3"),
    ("verify", "gap23", "z1", "affine1", "--radius", "5"),
    ("spectrum", "z1"),
    ("spectrum", "n2", "affine1", "g23xz", "--system", "w"),
    ("corpus", "--family", "named"),
], ids=lambda argv: "-".join(argv[:3]))
def test_output_is_the_whole_document(specs, capsys, argv):
    # the reports come straight from the workers, rendered here at once
    command, *rest = argv
    argv = [command] + [str(specs / f"{a}.spec")
                        if (specs / f"{a}.spec").exists() else a
                        for a in rest]
    args = cli._build_parser().parse_args(argv)
    if command == "corpus":
        reports = cli._cmd_corpus(args)
    else:
        reports = [cli._report(parse_monoid(Path(p).read_text()), args)
                   for p in args.inputs]
    out = {}
    for fmt in ("json", "csv", "text"):
        args.format = fmt
        cli.run(argv + ([] if fmt == "text" else [f"--{fmt}"]) + (
            [] if command == "corpus" else ["--jobs", "1"]))
        out[fmt] = capsys.readouterr().out
        assert out[fmt] == whole_document(args, reports), fmt
    if rest == ["z1"]:
        assert out["text"] == ""


def test_a_failed_batch_writes_no_stdout(specs):
    # n2 has two coordinates and the element one: exit 2 on the second
    # model, after the first one's report is rendered
    paths = [str(specs / "gap23.spec"), str(specs / "n2.spec")]
    for fmt in ("--json", None):
        for jobs in ("1", "2"):
            r = run_cli("closure", *paths, "--element", "2", "--jobs", jobs,
                        *([fmt] if fmt else []))
            assert r.returncode == 2 and r.stdout == "", (fmt, jobs)
            assert "--element vectors have 1 coordinates" in r.stderr


def test_parse_errors_name_the_file(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("coord = widget 3\n")
    r = run_cli("analyze", str(bad))
    assert r.returncode == 2
    assert "bad.spec" in r.stderr and "line 1" in r.stderr


def test_mixed_spec_is_a_parse_error(tmp_path):
    # a spec with both coord and affine lines is refused, not half-read
    bad = tmp_path / "mixed.spec"
    bad.write_text("name = x\ncoord = numerical 2 3\naffine = (1,0) (0,1)\n")
    r = run_cli("analyze", str(bad))
    assert r.returncode == 2 and r.stdout == ""
    assert "mixed.spec: line 3: coord and affine lines do not mix" in r.stderr


def test_corpus_listing():
    r = run_cli("corpus", "--json")
    doc = json.loads(r.stdout)
    rows = doc["reports"]
    assert len(rows) == 593
    assert rows[0] == {"name": "n1", "family": "named", "certified": True,
                       "dim": 1, "note": "factorial"}
    families = {row["family"] for row in rows}
    assert families == {"named", "frobenius15"}
    assert sum(row["family"] == "frobenius15" for row in rows) == 579


def test_corpus_takes_no_model_options():
    # nothing corpus lists or writes depends on a radius, a seed or workers
    r = run_cli("corpus", "--family", "named", "--json")
    assert json.loads(r.stdout)["config"] == {
        "dest": None, "family": "named", "format": "json", "strict": False}
    for flag in ("--radius", "--seed", "--jobs"):
        r = run_cli("corpus", flag, "3")
        assert r.returncode == 2 and r.stdout == ""
        assert f"unrecognized arguments: {flag} 3" in r.stderr


def test_corpus_build(tmp_path):
    r = run_cli("corpus", "--family", "named", "--dest", str(tmp_path))
    assert r.returncode == 0
    files = sorted(p.name for p in tmp_path.glob("*.spec"))
    assert len(files) == 14
    assert "gap23.spec" in files and "affine1.spec" in files


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert idealis.__version__ in r.stdout
