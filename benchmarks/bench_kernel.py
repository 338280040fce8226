"""Per-operation timings of the kernel's generator arithmetic.

Usage::

    python benchmarks/bench_kernel.py [--number 300] [--repeat 5]

Runs a fixed basket of generator-arithmetic workloads through
``idealis._kernel`` and prints the median time of each.  Workload sizes are
chosen so a full run stays under a minute.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from idealis import _kernel
from idealis.monoid import free_monoid, numerical_monoid, product


def workloads():
    gap23 = numerical_monoid("gap23", (2, 3))
    wide = numerical_monoid("wide", (16, 17, 19, 21, 23, 25, 27, 29, 31))
    f13 = numerical_monoid("f13", (8, 9, 10, 11, 14, 15))
    n2 = free_monoid("n2", 2)
    n3 = free_monoid("n3", 3)
    free4 = free_monoid("free4", 4)
    g23xn = product("g23xn", numerical_monoid("a", (2, 3)),
                    free_monoid("b", 1))

    out = []

    def add(label, pack, fn_name, *args):
        out.append((label, pack, fn_name, args))

    # The sampled axiom sweep's hottest calls: one numerical coordinate
    # with Frobenius number 13, as in the frobenius15 family.
    add("divisible_any 1-d", f13.pack, "divisible_any", (16,),
        ((9,), (12,), (13,)))
    add("reduce_gens 1-d", f13.pack, "reduce_gens",
        ((30,), (8,), (21,), (17,), (9,), (12,), (13,), (40,), (12,)))
    add("inverse_gens 1-d", f13.pack, "inverse_gens", ((-8,), (-11,), (-17,)))
    add("v_close 1-d", gap23.pack, "v_close_gens", ((4,), (5,), (7,)))
    add("v_close wide gaps", wide.pack, "v_close_gens",
        ((16,), (21,), (29,), (47,)))
    add("v_close 2-d", n2.pack, "v_close_gens",
        ((4, 0), (3, 2), (1, 5), (0, 6)))
    add("intersect 2-d", g23xn.pack, "intersect_gens",
        ((2, 3), (5, 0), (4, 1)), ((3, 2), (2, 4)))
    add("radical 2-d", g23xn.pack, "radical_gens", ((6, 2), (4, 5)))
    # Modular closures: the coordinatewise hull of a w-closure on n2, n3
    # and free 4.
    add("modular close", n2.pack, "modular_close_gens",
        ((3, 1), (1, 4), (2, 2)))
    add("modular close 3-d", n3.pack, "modular_close_gens",
        ((2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)))
    add("modular close 4-d", free4.pack, "modular_close_gens",
        ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1),
         (2, 0, 1, 0)))
    add("box members", g23xn.pack, "box_members", (0, 0), (12, 12))
    return out


def run(loads, number, repeat):
    rows = {}
    for label, pack, fn_name, args in loads:
        fn = getattr(_kernel, fn_name)
        timings = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            for _ in range(number):
                fn(pack, *args)
            timings.append((time.perf_counter() - t0) / number)
        rows[label] = statistics.median(timings)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, default=300,
                    help="calls per timing sample (default 300)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="samples per operation; the median is reported")
    args = ap.parse_args(argv)

    loads = workloads()
    rows = run(loads, args.number, args.repeat)

    width = max(len(label) for label, *_ in loads)
    header = f"{'operation':<{width}}  {'median':>10}"
    print(header)
    print("-" * len(header))
    for label, *_ in loads:
        print(f"{label:<{width}}  {rows[label] * 1e6:>8.1f}us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
