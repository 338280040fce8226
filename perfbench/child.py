"""Work that the benchmark runs inside a fresh interpreter.

    python3 child.py setup SPECDIR
        import idealis and parse every spec file (the timed set-up)
    python3 child.py facts OUT
        kernel implementation and the CLI's default --jobs
    python3 child.py axioms SPECDIR SEED OUT [--profile | --refs]
        the sampled axiom sweep over SPECDIR plus the broken-closure control;
        with --refs, the reference loop is timed before the first model and
        after each one
    python3 child.py cli OUT [--profile] -- ARGV...
        idealis.cli.main(ARGV) in this process, stdout to OUT.stdout

``--profile`` runs the work under cProfile and adds the per-layer figures
(see ``layer_metrics``) to the JSON written to OUT.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from pathlib import Path

LAYERS = ("kernel", "ideals", "systems", "spectrum", "factor", "classify",
          "report", "cli", "monoid", "corpus")
KERNEL_CALLS = ("divisible_any", "reduce_gens", "v_close_gens",
                "modular_close_gens")
KERNEL_CLOSURES = ("v_close_gens", "modular_close_gens")
CUM = (("ideals", "ideal_from"), ("systems", "close"),
       ("systems", "axioms_check"), ("systems", "closed_ideals"),
       ("spectrum", "is_dvm"), ("factor", "radical_closed_ideals"),
       ("classify", "classify"), ("classify", "tfae_suite"),
       ("report", "dumps"))
CALLS = (("ideals", "ideal_from"), ("systems", "close"),
         ("systems", "closed_ideals"))
REF_ROUNDS = 40          # one reference loop as the benchmark times it
MODEL_REF_ROUNDS = 10    # the shorter loop timed between the sweep's models


def reference_loop(rounds: int = REF_ROUNDS) -> int:
    """Fixed pure-Python work of the kind idealis does (small int tuples,
    componentwise order, sets, dicts, sorting), independent of idealis.
    Its time tells how fast the host runs such code at the moment."""
    rng = random.Random(20260101)
    acc = 0
    for _ in range(rounds):
        gens = [tuple(rng.randrange(24) for _ in range(3)) for _ in range(24)]
        keep = sorted({g for g in gens if not any(
            h != g and all(a <= b for a, b in zip(h, g)) for h in gens)})
        table = {}
        for g in keep:
            table[g] = table.get(g, 0) + sum(g)
        acc += len(keep) + len(table)
    return acc


def time_reference(rounds: int) -> float:
    """Seconds the reference loop takes, with the cyclic garbage collector
    off: a collection during the loop would time the caller's heap."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop(rounds)
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def parse_specs(specdir: str) -> list:
    import idealis
    return [idealis.parse_monoid(p.read_text())
            for p in sorted(Path(specdir).glob("*.spec"))]


def _layer_of(filename: str, pkg: Path):
    """Layer name of a profiled source file; None outside idealis."""
    try:
        rel = Path(filename).resolve().relative_to(pkg)
    except ValueError:
        return None
    if rel.parts[0] == "_kernel":
        return "kernel"
    return rel.stem if rel.stem in LAYERS else None


def layer_metrics(prof) -> dict:
    """Per-layer self time plus the named call counts and cumulative times,
    aggregated by source module of the idealis package."""
    import pstats

    import idealis
    pkg = Path(idealis.__file__).resolve().parent
    stats = pstats.Stats(prof).stats
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["kernel.calls"] = 0
    by_name = {}
    for key, (_, ncalls, tottime, cumtime, callers) in stats.items():
        layer = _layer_of(key[0], pkg)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += tottime
        if layer == "kernel":
            out["kernel.calls"] += ncalls
        by_name.setdefault((layer, key[2]), []).append(
            (ncalls, cumtime, callers, key))

    def entry(layer, func):
        found = by_name.get((layer, func), [(0, 0.0, {}, None)])
        if len(found) > 1:
            raise ValueError(f"ambiguous profiled function {layer}.{func}")
        return found[0]

    for func in KERNEL_CALLS:
        out[f"kernel.{func}.calls"] = entry("kernel", func)[0]
    for layer, func in CALLS:
        out[f"{layer}.{func}.calls"] = entry(layer, func)[0]
    for layer, func in CUM:
        out[f"{layer}.{func}.cum_s"] = entry(layer, func)[1]
    close_calls, _, _, close_key = entry("systems", "close")
    from_close = sum(entry("kernel", func)[2].get(close_key, (0, 0))[1]
                     for func in KERNEL_CLOSURES)
    out["systems.close.kernel_frac"] = (from_close / close_calls
                                        if close_calls else 0.0)
    return out


def run_profiled(work, profile: bool):
    """Run work(), under cProfile if asked; returns (result, elapsed,
    layer metrics or None)."""
    prof = None
    if profile:
        import cProfile
        prof = cProfile.Profile()
        prof.enable()
    t0 = time.perf_counter()
    try:
        result = work()
    finally:
        elapsed = time.perf_counter() - t0
        if prof is not None:
            prof.disable()
    return result, elapsed, (layer_metrics(prof) if prof else None)


def axiom_sweep(specdir: str, seed: int, refs: bool) -> dict:
    """axioms_check for s, t and w on every model, each model timed, then
    the broken-closure control, which must fail with an extension witness.
    With ``refs``, the reference loop is timed before the first model and
    after each one, so each model's time can be set against the host speed
    of that moment."""
    import idealis
    from idealis.systems import _axioms_check_fn, dropped_generator_close

    models = []
    ref_times = [time_reference(MODEL_REF_ROUNDS)] if refs else []
    for H in parse_specs(specdir):
        t0 = time.perf_counter()
        try:
            bad = [lbl for lbl in ("s", "t", "w")
                   if not idealis.axioms_check(idealis.system(lbl, H),
                                               samples=200, radius=4,
                                               seed=seed).ok]
        except Exception as exc:  # one failing model never sinks the sweep
            bad = [f"exception: {exc!r}"]
        models.append([H.name, time.perf_counter() - t0, bad])
        if refs:
            ref_times.append(time_reference(MODEL_REF_ROUNDS))
    gap23 = idealis.numerical_monoid("gap23", (2, 3))
    control = _axioms_check_fn(
        dropped_generator_close(idealis.system("t", gap23)), gap23,
        "control", samples=200, radius=4, seed=seed)
    caught = (not control.ok) and control.failures[0]["axiom"] == "A"
    return {"models": models, "control_caught": caught,
            "refs": ref_times, "ref_rounds": MODEL_REF_ROUNDS}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        parse_specs(argv[1])
        return 0
    if mode == "facts":
        import idealis._kernel
        from idealis import cli
        try:
            jobs = cli._build_parser().parse_args(["analyze", "x"]).jobs
        except (AttributeError, SystemExit):
            jobs = None
        Path(argv[1]).write_text(json.dumps(
            {"kernel_impl": idealis._kernel.IMPL, "cli_default_jobs": jobs}))
        return 0
    if mode == "axioms":
        specdir, seed, out = argv[1], int(argv[2]), argv[3]
        result, elapsed, layers = run_profiled(
            lambda: axiom_sweep(specdir, seed, "--refs" in argv[4:]),
            "--profile" in argv[4:])
        Path(out).write_text(json.dumps(
            {**result, "elapsed": elapsed, "layers": layers}))
        return 0
    if mode == "cli":
        out = argv[1]
        split = argv.index("--")
        from idealis import cli
        saved = sys.stdout
        with open(out + ".stdout", "w") as sink:
            sys.stdout = sink
            try:
                rc, elapsed, layers = run_profiled(
                    lambda: cli.main(argv[split + 1:]),
                    "--profile" in argv[2:split])
            finally:
                sys.stdout = saved
        Path(out).write_text(json.dumps(
            {"rc": rc, "elapsed": elapsed, "layers": layers}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
