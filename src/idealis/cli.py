"""Command-line front door: parse monoid specs, run the engines, report.

Commands: ``analyze`` (property matrix, suites, spectrum, axiom battery),
``closure``, ``factor``, ``spectrum``, ``verify`` (TFAE suites), ``corpus``
(list or write the built-in corpus).  ``_report`` makes each model's
report for every subcommand but corpus.  Reports are deterministic for a
fixed configuration; timing goes to stderr.  Exit status 1 means a suite
disagreed, an axiom check failed, or (under --strict) an input was not
certified; usage, parse, and I/O problems exit 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import signal
import sys
import time
import traceback
from pathlib import Path

from . import __version__, corpus as corpus_mod, report as report_mod
from .classify import classify, suite_battery, suite_names
from .factor import radical_factor_principal, sp_factor
from .ideals import ideal_from
from .monoid import MonoidModel, parse_monoid
from .spectrum import spectrum_json
from .systems import axioms_check, close, system

AXIOM_SAMPLES = 200


class CliError(Exception):
    """Usage or input problem; maps to exit status 2."""


def _at_least_one(what: str):
    """argparse type for an integer option that must be at least 1."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be at least 1")
        return value

    return parse


def parse_element(text: str) -> tuple:
    """Generator list: vectors separated by ';', coordinates by ',' or space."""
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gens.append(tuple(int(x) for x in chunk.replace(",", " ").split()))
        except ValueError:
            raise CliError(f"--element: {chunk!r} is not an integer vector") from None
    if not gens:
        raise CliError("--element is empty")
    if len({len(g) for g in gens}) != 1:
        raise CliError("--element vectors have mixed dimensions")
    return tuple(gens)


def _collect_specs(inputs) -> list:
    paths = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.spec"))
            if not found:
                raise CliError(f"{raw}: directory contains no .spec files")
            paths.extend(found)
        elif path.is_file():
            paths.append(path)
        else:
            raise CliError(f"{raw}: no such file or directory")
    return paths


def _load_specs(paths) -> list:
    """(model name, spec text) per path.  Every spec is parsed here, so a
    bad input fails the run before any model is analyzed; ``_task`` parses
    the text again where the model is analyzed."""
    specs = []
    for path in paths:
        try:
            text = path.read_text()
            specs.append((parse_monoid(text).name, text))
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
    return specs


def _report(H: MonoidModel, args) -> dict:
    """One model's report under the run's subcommand; _task renders it
    and reads the exit status off it (see _failed).

    Around a body with a ``needs`` (see _COMMANDS) this keeps the contract
    of docs/schema.md, "Per-command reports": a wrong --element dimension
    exits 2 first, an uncertified model degrades to a note before
    --system is read, and a ValueError (a bad or unordered system token)
    exits 2 naming the model.
    """
    body, _, needs = _COMMANDS[args.command]
    if needs is None:
        return body(H, args)
    element = getattr(args, "element", None)
    if element is not None and len(element[0]) != H.dim:
        raise CliError(f"--element vectors have {len(element[0])} "
                       f"coordinates; {H.name} has {H.dim}")
    if not H.certified:
        return {"monoid": H.name, "certified": False,
                "note": f"{H.name}: {needs} needs a certified product model"}
    try:
        fields = body(H, args)
    except ValueError as exc:
        raise CliError(f"{H.name}: {exc}") from None
    return {"monoid": H.name, "certified": True, **fields}


# Per-model bodies.  A body with a needs returns its own fields, which
# _report completes; analyze's returns the whole report.

def _cmd_analyze(H: MonoidModel, args) -> dict:
    doc = classify(H, args.radius)
    if doc["certified"]:
        doc["axioms"] = {
            lbl: axioms_check(system(lbl, H), AXIOM_SAMPLES,
                              min(args.radius, 6), args.seed).to_json()
            for lbl in ("s", "w", "t")}
    return doc


def _cmd_closure(H: MonoidModel, args) -> dict:
    sysH = system(args.system, H)
    X = ideal_from(args.element, H)
    closed = close(sysH, X)
    return {
        "system": sysH.label,
        "input": X.to_json(),
        "closed": closed.to_json(),
        "already_closed": closed.gens == X.gens,
    }


def _cmd_factor(H: MonoidModel, args) -> dict:
    sysH = system(args.system, H)
    if len(args.element) == 1 and sysH.label == "t":
        result = radical_factor_principal(H, args.element[0])
    else:
        target = close(sysH, ideal_from(args.element, H))
        result = sp_factor(target, sysH)
    return {
        "system": sysH.label,
        "element": [list(g) for g in args.element],
        "ok": result.ok,
        "result": result.to_json(),
    }


def _cmd_spectrum(H: MonoidModel, args) -> dict:
    sysH = system(args.system, H)
    return {"system": sysH.label, **spectrum_json(sysH)}


def _cmd_verify(H: MonoidModel, args) -> dict:
    names = (args.suite,) if args.suite else None
    return {
        "radius": args.radius,
        "suites": {name: rep.to_json() for name, rep
                   in suite_battery(H, args.radius, names).items()},
    }


def _task(worker, args, text: str) -> tuple:
    """Parse one spec, run the worker on it and render its report:
    (fragment, failed, seconds), see _rendered.

    The time covers the worker only.  The model's derived data is dropped
    as soon as its report is built, and the report once it is rendered, so
    only strings leave a worker process.
    """
    H = parse_monoid(text)
    t0 = time.perf_counter()
    doc = worker(H, args)
    dt = time.perf_counter() - t0
    H.memo.clear()
    return (*_rendered(args, doc), dt)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (a ``taskset`` or cpuset narrows it), else every
    CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for a batch: never more than the tasks or the CPUs."""
    return min(jobs, tasks, cpus)


def _run_models(specs, worker, args) -> list:
    """Run the worker on each (name, spec text): (fragment, failed) per
    model, in input order.

    Models are independent, so with more than one worker they run in
    forked worker processes (see _forked); only their results cross back,
    so the worker function need not pickle.  A single worker runs the
    same task in-process.
    """
    task = functools.partial(_task, worker, args)
    workers = _worker_count(args.jobs, len(specs), _cpus())
    if workers <= 1:
        return _collect(specs, map(task, (text for _, text in specs)))
    return _collect(specs, _forked(task, specs, workers))


class WorkerError(RuntimeError):
    """A worker process ended without a usable result."""


class _Traceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception it sends back."""

    def __str__(self) -> str:
        return self.args[0]


def _forked(task, specs, workers: int):
    """Yield the task's result on each spec text in input order, from
    ``workers`` forked processes: model i runs in worker i mod workers.

    Each worker runs its whole share, stopping at its first exception,
    and only then pickles its results (and that exception) into its own
    pipe, so it never waits on the parent while it has models left.  The
    parent reads every pipe and reaps every worker before it yields; in
    their place it raises the exception of the first failing model in
    input order, or ``WorkerError`` for a worker that died without a
    result.  On any exception it kills the workers not yet reaped first.

    fork, not spawn: the CLI starts no thread, so no lock is copied
    mid-update, and no worker re-imports the package.  Nothing execs, so
    a SIGSTOP to the process group never finds a child between vfork and
    exec, where spawn's children leave the CLI in uninterruptible sleep
    and the group never stopped.
    """
    pipes = {}                          # pid -> read end, until reaped
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _serve(task, specs[k::workers], write_end)
            os.close(write_end)
            pipes[pid] = open(read_end, "rb")
        shares = []
        for pid, pipe in list(pipes.items()):
            with pipe:
                try:
                    share = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    share = None
            status = os.waitpid(pid, 0)[1]
            del pipes[pid]
            if share is None:
                raise WorkerError(
                    f"worker process {pid} ended (exit status "
                    f"{os.waitstatus_to_exitcode(status)}) without sending "
                    "the results of its models")
            shares.append(share)
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(len(specs)):
        results, failure = shares[i % workers]
        if i // workers < len(results):
            yield results[i // workers]
        else:
            exc, tb = pickle.loads(failure)
            raise exc from _Traceback(tb)


def _serve(task, share, fd: int):
    """A forked worker's whole life: run the task on each spec text of its
    share, stop at the first exception, and write (results, failure) to
    the pipe ``fd``, pickled, failure being the pickled (exception,
    traceback text) or None.  An exception that does not survive a pickle
    round trip is sent as a ``WorkerError`` naming its model.  Leaves by
    ``os._exit``, so no inherited buffer is flushed twice and no caller's
    cleanup runs in the worker."""
    code = 1
    try:
        results, failure = [], None
        for name, text in share:
            try:
                results.append(task(text))
            except Exception as exc:
                tb = traceback.format_exc()
                try:
                    failure = pickle.dumps((exc, tb))
                    pickle.loads(failure)
                except Exception:
                    failure = pickle.dumps((WorkerError(
                        f"{name}: {type(exc).__qualname__}: {exc}"), tb))
                break
        with open(fd, "wb") as pipe:
            pickle.dump((results, failure), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _collect(specs, results) -> list:
    """The (fragment, failed) of each task result, which arrive in input
    order; each model's time goes to stderr as its result comes back."""
    out = []
    for (name, _), (fragment, failed, dt) in zip(specs, results):
        print(f"{name}: {dt:.2f}s", file=sys.stderr)
        out.append((fragment, failed))
    return out


def _failed(doc: dict, strict: bool) -> bool:
    """Does this report fail the run: a suite disagreed, an axiom check
    failed, or (under --strict) the input was not certified?"""
    if not doc["certified"]:
        return strict
    return (any(not s["agreement"] for s in doc.get("suites", {}).values())
            or any(not a["ok"] for a in doc.get("axioms", {}).values()))


# Text rendering: each subcommand's block yields the lines of one
# report; _fragment writes the line of an uncertified one.

def _verdict_counts(table: dict) -> str:
    counts = {"true": 0, "false": 0, "unknown-beyond-radius": 0}
    for cell in table.values():
        counts[cell["verdict"]] += 1
    return (f"{counts['true']} true, {counts['false']} false, "
            f"{counts['unknown-beyond-radius']} unknown")


def _suite_digest(suite: dict) -> str:
    verdicts = {c["verdict"] for c in suite["conditions"]}
    if verdicts == {"true"}:
        overall = "true"
    elif verdicts == {"false"}:
        overall = "false"
    else:
        overall = "mixed"
    return overall if suite["agreement"] else f"{overall} DISAGREE"


def _text_analyze(doc):
    yield f"{doc['monoid']}: certified, radius {doc['radius']}"
    ax = doc.get("axioms", {})
    if ax:
        yield "  axioms: " + "  ".join(
            f"{lbl} {'ok' if ax[lbl]['ok'] else 'FAIL'}" for lbl in sorted(ax))
    for lbl in ("s", "w", "t"):
        yield f"  {lbl}-matrix: {_verdict_counts(doc['systems'][lbl])}"
    suites = doc["suites"]
    yield "  suites: " + "  ".join(
        f"{n}={_suite_digest(suites[n])}" for n in sorted(suites))
    heights = ",".join(str(p["height"]) for p in doc["spectrum"]["primes"])
    yield f"  primes: {len(doc['spectrum']['primes'])} (heights {heights})"


def _text_verify(doc):
    for suite_name in sorted(doc["suites"]):
        suite = doc["suites"][suite_name]
        head = "agreement" if suite["agreement"] else "DISAGREEMENT"
        yield f"{doc['monoid']} {suite_name}: {head}"
        for cond in suite["conditions"]:
            row = f"  ({cond['id']}) {cond['verdict']:22s} {cond['text']}"
            notes = [n for n in (cond["note"],
                                 "vacuous" if cond["vacuous"] else "") if n]
            if notes:
                row += f"  [{'; '.join(notes)}]"
            yield row


def _gens_str(ideal_doc) -> str:
    return "; ".join(",".join(str(x) for x in g) for g in ideal_doc["gens"])


def _text_closure(doc):
    status = "already closed" if doc["already_closed"] else "grew"
    yield (f"{doc['monoid']} {doc['system']}-closure: "
           f"[{_gens_str(doc['closed'])}] ({status})")


def _text_factor(doc):
    res = doc["result"]
    if doc["ok"]:
        chain = " | ".join(f"[{_gens_str(f)}]" for f in res["factors"])
        yield f"{doc['monoid']} {doc['system']}-chain: {chain or '[unit]'}"
        return
    msg = f"{doc['monoid']}: no factorization ({res['failure']})"
    if "witness" in res:
        msg += f" witness [{_gens_str(res['witness'])}]"
    yield msg


def _text_spectrum(doc):
    lbl = doc["system"]
    for p in doc["primes"]:
        face = "{" + ",".join(str(i) for i in p["face"]) + "}"
        flags = [f"height {p['height']}"]
        if p[f"{lbl}_ideal"]:
            flags.append(f"{lbl}-closed")
        if p[f"{lbl}_max"]:
            flags.append(f"{lbl}-max")
        yield f"{doc['monoid']} prime {face}: {', '.join(flags)}"


def _text_corpus(row):
    yield (f"{row['name']:14s} {row['family']:12s} "
           f"{'certified' if row['certified'] else 'uncertified'}")


def _fragment(args, doc: dict) -> str:
    """One report in the run's format, as _write places it in the
    envelope: its JSON inside the reports array, its CSV rows, or its
    text lines."""
    if args.format == "json":
        return report_mod.json_fragment(doc)
    if args.format == "csv":
        return report_mod.csv_lines(report_mod.csv_rows(doc))
    if args.command != "corpus" and not doc["certified"]:
        lines = [f"{doc['monoid']}: uncertified ({doc['note']})"]
    else:
        lines = _COMMANDS[args.command][1](doc)
    return "".join(line + "\n" for line in lines)


def _rendered(args, doc: dict) -> tuple:
    """(fragment, failed): what the run keeps of one report."""
    return _fragment(args, doc), _failed(doc, args.strict)


def _write(args, fragments) -> None:
    """Write the envelope to ``sys.stdout`` as it is at call time: the
    head, each fragment in input order (one write each, never a joined
    copy of the document), the tail.  JSON fragments are separated by
    ",\n"; CSV has its header once; text is the fragments alone."""
    head, sep, tail = "", "", ""
    if args.format == "json":
        head, tail = report_mod.json_frame(__version__, args.command,
                                           _config(args))
        sep = ",\n"
    elif args.format == "csv":
        head = report_mod.CSV_HEADER
    out = sys.stdout
    out.write(head)
    for k, fragment in enumerate(fragments):
        out.write(sep + fragment if k else fragment)
    out.write(tail)


def _config(args) -> dict:
    """The config echo: every option but the subcommand and --jobs, which
    changes scheduling, never results."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "jobs")}
    if "element" in config:
        config["element"] = [list(g) for g in args.element]
    for key in ("suite", "family"):
        if key in config and config[key] is None:
            config[key] = "all"
    return config


def _cmd_corpus(args) -> list:
    entries = corpus_mod.members(args.family)
    if args.dest:
        paths = corpus_mod.build(Path(args.dest), args.family)
        return [
            {"name": e.name, "family": e.family,
             "certified": e.model.certified, "file": str(p)}
            for e, p in zip(entries, paths)
        ]
    return [
        {"name": e.name, "family": e.family,
         "certified": e.model.certified, "dim": e.model.dim,
         "note": e.note}
        for e in entries
    ]


# Each subcommand's body, text block and needs: what its note says needs
# a certified model, None where the body answers an uncertified one
# itself.  The corpus body takes the arguments alone; every other one
# runs per model through _report (see _run_models).
_COMMANDS = {
    "analyze": (_cmd_analyze, _text_analyze, None),
    "closure": (_cmd_closure, _text_closure, "ideal arithmetic"),
    "factor": (_cmd_factor, _text_factor, "ideal arithmetic"),
    "spectrum": (_cmd_spectrum, _text_spectrum, "exact spectrum"),
    "verify": (_cmd_verify, _text_verify, "exact spectrum"),
    "corpus": (_cmd_corpus, _text_corpus, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealis",
        description="Ideal-system calculator for finitely generated monoids.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # --strict and the output format, for every subcommand
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--strict", action="store_true",
                        help="uncertified inputs fail the run")
    fmt = output.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const",
                     const="json", help="canonical JSON report")
    fmt.add_argument("--csv", dest="format", action="store_const",
                     const="csv", help="flat CSV projection")
    output.set_defaults(format="text")

    # and the options of the subcommands that run models
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--radius", type=_at_least_one("radius"), default=8,
                        help="enumeration radius (default 8)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (recorded in reports)")
    common.add_argument("--jobs", type=_at_least_one("jobs"),
                        default=min(4, _cpus()),
                        help="worker processes (default min(4, usable CPUs))")

    def inputs(p):
        p.add_argument("inputs", nargs="+", metavar="SPEC",
                       help=".spec files or directories of them")

    p = sub.add_parser("analyze", parents=[common],
                       help="property matrix, suites, spectrum, axioms")
    inputs(p)

    p = sub.add_parser("closure", parents=[common],
                       help="close a finitely generated set")
    inputs(p)
    p.add_argument("--system", default="t", help="s | t | v | w | mod(p,r)")
    p.add_argument("--element", required=True,
                   help="generators, e.g. \"2,1\" or \"2,0;0,3\"")

    p = sub.add_parser("factor", parents=[common],
                       help="radical factorization of an element or ideal")
    inputs(p)
    p.add_argument("--system", default="t", help="s | t | v | w | mod(p,r)")
    p.add_argument("--element", required=True,
                   help="element or generator list to factor")

    p = sub.add_parser("spectrum", parents=[common],
                       help="prime spectrum with closure/maximality flags")
    inputs(p)
    p.add_argument("--system", default="t", help="s | t | v | w | mod(p,r)")

    p = sub.add_parser("verify", parents=[common],
                       help="run TFAE suites and check agreement")
    inputs(p)
    p.add_argument("--suite", choices=suite_names(), default=None,
                   help="one suite (default: all)")

    p = sub.add_parser("corpus", parents=[output],
                       help="list or write the built-in corpus")
    p.add_argument("--family", choices=corpus_mod.FAMILIES, default=None,
                   help="restrict to one family")
    p.add_argument("--dest", default=None,
                   help="write .spec files into this directory")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "element", None) is not None:
        args.element = parse_element(args.element)

    if args.command == "corpus":
        results = [_rendered(args, row) for row in _cmd_corpus(args)]
    else:
        specs = _load_specs(_collect_specs(args.inputs))
        with report_mod.stopwatch("total"):
            results = _run_models(specs, _report, args)
    # every fragment is in before the first write, so a run that fails
    # partway writes nothing to stdout
    _write(args, [fragment for fragment, _ in results])
    return 1 if any(failed for _, failed in results) else 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except CliError as exc:
        print(f"idealis: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
