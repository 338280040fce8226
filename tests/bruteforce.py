"""Ground-truth oracles over dense membership grids.

Everything here recomputes membership from raw generators with numpy over
the counting coordinates (group coordinates never constrain membership and
are projected away), so closures, inverses, modularizations, and radicals
can be cross-checked without touching the kernel's generator arithmetic.

Box margins follow one rule, used by every caller: an H-closed set has all
its minimal points within c + maxatom + maxgen + window per coordinate, and
any failure of "inverse contained in H" has a witness clipped into the same
box.  The margin arguments are spelled out in docs/exactness.md.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


@functools.lru_cache(maxsize=None)
def coord_members(coord, hi: int) -> np.ndarray:
    """Membership of [0, hi] in one counting coordinate, from its generators.

    Cached per (coordinate, hi); callers must not write into the result.
    """
    ok = np.zeros(hi + 1, dtype=bool)
    ok[0] = True
    if coord.kind == "free":
        ok[:] = True
        return ok
    for x in range(1, hi + 1):
        ok[x] = any(x >= g and ok[x - g] for g in coord.gens)
    return ok


@functools.lru_cache(maxsize=None)
def coord_atoms(coord) -> tuple:
    if coord.kind == "free":
        return (1,)
    top = max(coord.gens)
    ok = coord_members(coord, top)
    return tuple(g for g in sorted(set(coord.gens))
                 if not any(ok[y] and ok[g - y] for y in range(1, g)))


@functools.lru_cache(maxsize=None)
def coord_conductor(coord) -> int:
    if coord.kind == "free":
        return 0
    top = max(coord.gens) ** 2 + 1
    ok = coord_members(coord, top)
    gaps = [x for x in range(top + 1) if not ok[x]]
    return gaps[-1] + 1 if gaps else 0


def shift(arr: np.ndarray, off) -> np.ndarray:
    """result[z] = arr[z - off], False past the edges."""
    if arr.ndim == 0:
        return arr.copy()
    out = np.zeros_like(arr)
    src, dst = [], []
    for ax, o in enumerate(off):
        n = arr.shape[ax]
        if abs(o) >= n:
            return out
        if o >= 0:
            dst.append(slice(o, n))
            src.append(slice(0, n - o))
        else:
            dst.append(slice(0, n + o))
            src.append(slice(-o, n))
    out[tuple(dst)] = arr[tuple(src)]
    return out


class Grid:
    """Dense membership of one model over [lo, hi]^k, counting coords only."""

    def __init__(self, H, lo: int, hi: int):
        self.H = H
        self.idx = tuple(H.counting)
        self.k = len(self.idx)
        self.lo, self.hi = lo, hi
        coords = [H.coords[i] for i in self.idx]
        n = hi - lo + 1
        member = np.ones((), dtype=bool)
        for c in coords:
            line = np.zeros(n, dtype=bool)
            full = coord_members(c, hi)
            line[max(0, -lo):] = full[max(0, lo):]
            member = np.logical_and.outer(member, line)
        self.member = member
        self.atom_vecs = []
        for pos, c in enumerate(coords):
            for a in coord_atoms(c):
                v = [0] * self.k
                v[pos] = a
                self.atom_vecs.append(tuple(v))

    def proj(self, v) -> tuple:
        return tuple(v[i] for i in self.idx)

    def has(self, arr: np.ndarray, point) -> bool:
        if self.k == 0:
            return bool(arr)
        iz = tuple(p - self.lo for p in point)
        if any(i < 0 or i >= arr.shape[ax] for ax, i in enumerate(iz)):
            return False
        return bool(arr[iz])

    def ideal(self, gens) -> np.ndarray:
        """X = union of g + H over the projected generators."""
        out = np.zeros_like(self.member)
        for g in gens:
            out |= shift(self.member, self.proj(g))
        return out

    def inverse(self, gens) -> np.ndarray:
        """z with z + g in H for every generator; exact per grid point."""
        out = np.ones_like(self.member)
        for g in gens:
            out &= shift(self.member, tuple(-x for x in self.proj(g)))
        return out

    def minima(self, closed: np.ndarray) -> list:
        """Antichain of minimal points of an H-closed set within the box."""
        if self.k == 0:
            return [()] if closed else []
        mask = closed.copy()
        for a in self.atom_vecs:
            mask &= ~shift(closed, a)
        return [tuple(int(x) + self.lo for x in iz) for iz in np.argwhere(mask)]

    def window_points(self, arr: np.ndarray, lo: int, hi: int) -> set:
        """Projected points of arr with every coordinate in [lo, hi]."""
        if self.k == 0:
            return {()} if arr else set()
        pts = np.argwhere(arr) + self.lo
        pts = pts[np.all((pts >= lo) & (pts <= hi), axis=1)]
        return set(map(tuple, pts.tolist()))


def _margins(H, gens, window: int) -> tuple:
    coords = [H.coords[i] for i in H.counting]
    maxg = max((abs(x) for g in gens for i, x in enumerate(g)
                if i in H.counting), default=0)
    maxatom = max((a for c in coords for a in coord_atoms(c)), default=1)
    cond = max((coord_conductor(c) for c in coords), default=0)
    lo = -(maxg + maxatom + 1)
    hi = window + cond + maxg + maxatom + 1
    return lo, hi


def inverse_points(H, gens, window: int) -> set:
    """(gens + H)^{-1} restricted to [-window, window]^k, definitionally."""
    lo, hi = _margins(H, gens, window)
    grid = Grid(H, min(lo, -window), max(hi, window))
    return grid.window_points(grid.inverse(gens), -window, window)


def v_members(H, gens, window: int) -> set:
    """((gens + H)^{-1})^{-1} on [0, window]^k via the double inverse."""
    lo, hi = _margins(H, gens, window)
    grid = Grid(H, lo, hi)
    mins = grid.minima(grid.inverse(gens))
    out = np.ones_like(grid.member)
    for m in mins:
        out &= shift(grid.member, tuple(-x for x in m))
    return grid.window_points(out, 0, window)


def mod_st_members(H, gens, window: int) -> set:
    """Definitional membership of X_{mod(s,t)} on [0, window]^k.

    x qualifies iff F = {u in H : x + u in X_s} has F_t = H; the maximal F
    decides (the condition is monotone in F), its t-triviality via the
    inverse criterion: F_t = H iff F^{-1} has no point outside H.
    """
    lo, hi = _margins(H, gens, window)
    grid = Grid(H, lo, hi)
    Xs = grid.ideal(gens)
    accepted = set()
    # -m + H for each minimum m, built once per call
    unshifted = {}
    for x in _box_points(grid, window):
        fstar = grid.member & shift(Xs, tuple(-c for c in x))
        viol = np.ones_like(grid.member)
        for m in grid.minima(fstar):
            moved = unshifted.get(m)
            if moved is None:
                moved = unshifted[m] = shift(grid.member,
                                             tuple(-c for c in m))
            viol &= moved
        if not bool(np.any(viol & ~grid.member)):
            accepted.add(x)
    return accepted


def _box_points(grid: Grid, window: int):
    if grid.k == 0:
        yield ()
        return
    def rec(prefix):
        if len(prefix) == grid.k:
            yield tuple(prefix)
            return
        for c in range(window + 1):
            yield from rec(prefix + [c])
    yield from rec([])


def radical_members(H, gens, window: int) -> set:
    """sqrt(gens + H) on [0, window]^k: one large multiple decides.

    X is an ideal, so k*x in X is monotone in k; K = cond + maxgen + 2 is
    past every conductor on the support of x, making the single test exact.
    """
    coords = [H.coords[i] for i in H.counting]
    cond = max((coord_conductor(c) for c in coords), default=0)
    maxg = max((abs(x) for g in gens for i, x in enumerate(g)
                if i in H.counting), default=0)
    K = cond + maxg + 2
    tables = [coord_members(c, cond + 1) for c in coords]

    def in_H(p) -> bool:
        for c, table, x in zip(coords, tables, p):
            if x < 0:
                return False
            if x <= cond and not table[min(x, len(table) - 1)]:
                return False
        return True

    gens_p = [tuple(g[i] for i in H.counting) for g in gens]
    lo, hi = _margins(H, gens, window)
    grid = Grid(H, lo, hi)
    out = set()
    for x in _box_points(grid, window):
        if not grid.has(grid.member, x):
            continue
        big = tuple(K * c for c in x)
        if any(in_H(tuple(b - gc for b, gc in zip(big, gp)))
               for gp in gens_p):
            out.add(x)
    return out


def primary_violation_point(H, gens, radius: int):
    """Lex-first (x, y) in the box with x+y in X, y outside sqrt X, x outside X."""
    lo, hi = _margins(H, gens, 2 * radius + 1)
    grid = Grid(H, lo, hi)
    X = grid.ideal(gens)
    rad = radical_members(H, gens, 2 * radius + 1)
    box = sorted(grid.window_points(grid.member, 0, radius))
    for x in box:
        if grid.has(X, x):
            continue
        for y in box:
            if y in rad:
                continue
            z = tuple(a + b for a, b in zip(x, y))
            if grid.has(X, z):
                return x, y
    return None


def is_prime_box(H, gens, radius: int) -> bool:
    """Proper, and no box pair x+y lands in X with both factors outside."""
    lo, hi = _margins(H, gens, 2 * radius + 1)
    grid = Grid(H, lo, hi)
    X = grid.ideal(gens)
    zero = (0,) * grid.k
    if grid.has(X, zero):
        return False
    box = sorted(grid.window_points(grid.member, 0, radius))
    outside = [x for x in box if not grid.has(X, x)]
    for x in outside:
        for y in outside:
            z = tuple(a + b for a, b in zip(x, y))
            if grid.has(X, z):
                return False
    return True


def member_points(H, gens, window: int) -> set:
    """(gens + H) intersected with [0, window]^k."""
    lo, hi = _margins(H, gens, window)
    grid = Grid(H, lo, hi)
    return grid.window_points(grid.ideal(gens), 0, window)


def pairs_comparable(H, radius: int) -> bool:
    """Every pair a, b of H.enumerate(radius) has a | b or b | a.

    In a cancellative monoid that is principality of <a, b>: a generator c
    of <a, b> lies in a + H, say, and a in c + H, so c and a differ by a
    unit and a divides b.  The sweep runs over the whole box, group
    coordinates included, and reads "b - a in H" off the grid.
    """
    box = np.array([[v[i] for i in H.counting] for v in H.enumerate(radius)],
                   dtype=np.int64)
    if box.shape[1] == 0:
        return True
    grid = Grid(H, -radius, radius)
    diff = box[None, :, :] - box[:, None, :] - grid.lo  # [a, b] -> b - a
    divides = grid.member[tuple(np.moveaxis(diff, -1, 0))]
    return bool(np.all(divides | divides.T))


def dvm_verdict(H, radius: int) -> str:
    """is_dvm's answer from the pair sweep alone.

    A product of lines other than N x Z^m has two incomparable members in
    the box once the radius reaches 1 (two counting coordinates) or the
    second atom of its one numerical coordinate (the two least atoms
    differ by a gap), so past that radius the sweep alone decides.
    """
    if not H.counting:
        return "not-applicable"
    return "true" if pairs_comparable(H, radius) else "false"


def in_monoid(H, v) -> bool:
    """v in H, read off each counting coordinate's membership line."""
    for i in H.counting:
        c, x = H.coords[i], v[i]
        cond = coord_conductor(c)
        if x < 0 or (x < cond and not coord_members(c, cond)[x]):
            return False
    return True


def divisible_any(H, v, gens) -> bool:
    """v in gens + H: some v - g is a member."""
    return any(in_monoid(H, tuple(a - b for a, b in zip(v, g)))
               for g in gens)


def reduce_gens(H, gens) -> tuple:
    """The minimal elements of gens under divisibility, deduplicated and
    sorted; group coordinates must already be zero."""
    pts = set(gens)
    return tuple(sorted(g for g in pts if not any(
        h != g and in_monoid(H, tuple(a - b for a, b in zip(g, h)))
        for h in pts)))


def module_gens_1d(coord, shifts) -> tuple:
    """Minimal z with z + s a member of the coordinate for every shift.

    The module's least member m is at most cond - min(shifts), and m
    divides every z >= m + cond, so all minimal points lie below
    cond - min(shifts) + cond, the end of the scan."""
    if coord.kind == "group":
        return (0,)
    cond = coord_conductor(coord)
    lo = -min(shifts)
    ok = coord_members(coord, 3 * cond + max(shifts) + lo)
    module = [z for z in range(lo, lo + 2 * cond + 1)
              if all(ok[z + s] for s in shifts)]
    return tuple(z for z in module
                 if not any(w < z and ok[z - w] for w in module))


def chain_heights(faces) -> dict:
    """Height of each face's prime by longest-chain search in the finite
    face poset: a larger face is a smaller prime, so P_F has height one
    more than the largest height of a face strictly above F."""
    heights = {}
    for face in sorted(faces, key=len, reverse=True):
        heights[face] = 1 + max((heights[g] for g in faces if face < g),
                                default=0)
    return heights


def modular_close_choice(H, gens, faces) -> tuple:
    """Modular closure by the choice-function product, on grid oracles.

    For every choice phi of one generator per face, the term
    cap_F (phi(F) + H_F) is a product over the coordinates of the module
    of z with z - phi(F)_i a member for every face F leaving i counting;
    the closure is the union of the terms, n^k of them for n generators
    and k faces.  A counting coordinate inverted in every face is a
    ValueError, as in the kernel.
    """
    if not gens:
        return ()
    if not faces:
        return ((0,) * H.dim,)
    n, k = len(gens), len(faces)
    pts = set()
    for phi in itertools.product(range(n), repeat=k):
        cols = []
        for i, coord in enumerate(H.coords):
            if coord.kind == "group":
                cols.append((0,))
                continue
            shifts = tuple(-gens[phi[j]][i] for j in range(k)
                           if i not in faces[j])
            if not shifts:
                raise ValueError(f"coordinate {i} inverted in every face")
            cols.append(module_gens_1d(coord, shifts))
        pts.update(itertools.product(*cols))
    return reduce_gens(H, pts)


def radical_closed_by_filter(sys) -> tuple:
    """Proper radical closed ideals by the whole-subset filter.

    Every subset of the nonempty supports that is a nonempty antichain
    names the union of its cells (generators: products of atoms over the
    support); it counts when the system closes it to itself.  Sorted by
    generators, as ``factor.radical_closed_ideals`` returns them.
    """
    from idealis.ideals import ideal_from
    from idealis.systems import close

    H = sys.monoid
    supports = [frozenset(c) for r in range(1, len(H.counting) + 1)
                for c in itertools.combinations(H.counting, r)]
    out = []
    for r in range(1, len(supports) + 1):
        for fam in itertools.combinations(supports, r):
            if any(a < b for a in fam for b in fam):
                continue
            gens = []
            for S in fam:
                cols = [coord_atoms(H.coords[i]) if i in S else (0,)
                        for i in range(H.dim)]
                gens.extend(itertools.product(*cols))
            J = ideal_from(gens, H)
            if close(sys, J) == J:
                out.append(J)
    return tuple(sorted(out, key=lambda J: J.gens))


def radical_product_full(sys, I, invertible: bool):
    """A product of proper radical closed ideals equal to I, or None, by a
    depth-first search over every such ideal that contains I (only the
    invertible ones when ``invertible``), to the depth bound of
    ``classify._find_radical_product``."""
    from idealis.factor import (invertible_radicals, power_depths,
                                radical_closed_ideals)
    from idealis.ideals import ideal_eq, ideal_subset, ideal_sum, unit_ideal
    from idealis.systems import close

    H = sys.monoid
    universe = invertible_radicals(sys) if invertible \
        else radical_closed_ideals(sys)
    universe = [R for R in universe if ideal_subset(I, R)]
    bound = sum(power_depths(I, sys))
    bound += min(sum(g[i] for i in H.counting) for g in I.gens)

    def dfs(cur, start, depth):
        if ideal_eq(cur, I):
            return []
        if depth == 0:
            return None
        for idx in range(start, len(universe)):
            nxt = close(sys, ideal_sum(cur, universe[idx]))
            if ideal_subset(I, nxt):
                rest = dfs(nxt, idx, depth - 1)
                if rest is not None:
                    return [universe[idx]] + rest
        return None

    return dfs(unit_ideal(H), 0, bound) if universe else None
