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
import random

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
    ValueError.
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
    invertible ones when ``invertible``).  The depth bound is complete: a
    factor below a height-one prime P raises the largest closed P-power
    containing the partial product, a factor below no height-one prime
    raises the total counting degree of every member, and I caps both."""
    from idealis.factor import invertible_radicals, radical_closed_ideals
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


def power_depths(I, sys) -> tuple:
    """``factor.power_depth`` of I at each height-one prime."""
    from idealis.factor import power_depth
    from idealis.spectrum import height_one

    return tuple(power_depth(I, P.ideal, sys) for P in height_one(sys.monoid))


def meager_family_full(I, sys, max_size: int):
    """``factor.meager_family`` without its filter: the first family of at
    most max_size invertible radical closed ideals, by size and then in
    their order, that meets in radical(I) and is meager for I, trying
    every combination of the whole universe."""
    from idealis.factor import invertible_radicals, meager_check
    from idealis.ideals import ideal_eq, ideal_intersect, radical

    rad = radical(I)
    universe = invertible_radicals(sys)
    for size in range(1, min(max_size, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            if ideal_eq(functools.reduce(ideal_intersect, combo), rad) \
                    and meager_check(combo, I, sys).meager:
                return combo
    return None


@functools.lru_cache(maxsize=4)
def _every_sample_inputs(H, samples, radius, seed) -> tuple:
    """Each sample's draws (gens, probe, extra, c) with its ideals X, Y =
    X plus ``extra`` and X + c, built afresh.  Cached, so that the checks
    of several systems on one model in turn draw and build them once."""
    from idealis.ideals import _translate, _trusted_ideal
    from idealis.systems import _draw_stream

    out = []
    for gens, probe, extra, c in _draw_stream(H, radius, seed, samples):
        X = _trusted_ideal(gens, H)
        out.append((gens, probe, extra, c, X, _trusted_ideal(gens + extra, H),
                    _translate(X, c)))
    return tuple(out)


def axioms_every_sample(close_fn, H, label, samples, radius, seed):
    """The sampled axiom check with every check run on every sample, as
    ``systems._axioms_check_fn`` ran before its tape kept only the samples
    with a new check input: A (each drawn generator, then the probe g + h,
    in the closure), B (idempotence, then monotonicity under X plus
    ``extra``) and C (closing X + c gives the closure plus c), the first
    failing sample ending the check.  A sample whose generator loop fails
    A drew no h and g, so its ``extra`` and c are read from the stream
    replayed without them, and its Y and X + c are built from those."""
    from idealis.ideals import _translate, _trusted_ideal, ideal_subset
    from idealis.systems import CheckReport, _draw_stream

    failures = []

    def fail(axiom, **kw):
        failures.append({"axiom": axiom, "system": label, **kw})

    done = 0
    for done, (gens, probe, extra, c, X, Y, Xc) in enumerate(
            _every_sample_inputs(H, samples, radius, seed), 1):
        Xr = close_fn(X)
        gs = [list(v) for v in gens]
        miss = [g for g in gens if not Xr.contains_vec(g)]
        if miss:
            fail("A", witness=list(miss[0]), gens=gs)
            *_, (_, _, extra, c) = _draw_stream(H, radius, seed, done,
                                                probe_last=False)
            Y = _trusted_ideal(gens + extra, H)
            Xc = _translate(X, c)
        elif not Xr.contains_vec(probe):
            fail("A", witness=list(probe), gens=gs)
        if close_fn(Xr).gens != Xr.gens:
            fail("B", kind="idempotence", gens=gs)
        if not ideal_subset(Xr, close_fn(Y)):
            fail("B", kind="monotonicity", gens=gs,
                 extra=[list(v) for v in extra])
        # C compares generator tuples: the closure's, moved by c as they
        # stand, against those of the closure of X + c.
        if close_fn(Xc).gens != _translate(Xr, c).gens:
            fail("C", shift=list(c), gens=gs)
        if failures:
            break
    counts = {"A": done, "B": done, "C": done, "D": samples}
    return CheckReport(f"axioms[{label}]", H.name, samples, radius, seed,
                       counts, failures)


def modular_system_full(ctx):
    """``classify._p_modular_system`` scanning every triple (I, J, N) of
    proper closed ideals with I inside N, as it ran before the scan skipped
    the triples the closure axioms decide."""
    from idealis.classify import _f, _t, _u
    from idealis.ideals import ideal_intersect, ideal_subset, ideal_union
    from idealis.systems import close, modular_law_violation

    sys = ctx.sys
    H = ctx.monoid
    if sys.op != "t":
        return _t(note="union-stable closure" if sys.kind == "s"
                  else "modularization of a union-stable system")
    if not H.counting:
        return _t(note="H is the only nonempty ideal", vacuous=True)
    if ctx.regular:
        return _t(note="closed ideals form a distributive lattice of "
                       "principal ideals")
    lat = ctx.lattice()
    if lat is None or len(lat) > 16:
        return _u(note="closed-ideal lattice too large for the triple scan")
    proper = [I for I in lat if ctx.proper(I)]
    for N in proper:
        for I in proper:
            if not ideal_subset(I, N):
                continue
            for J in proper:
                joined = close(sys, ideal_union(I, J))
                g = modular_law_violation(sys, I, J, N, joined=joined,
                                          met=ideal_intersect(J, N))
                if g is not None:
                    return _f({"I": I, "J": J, "N": N, "element": list(g)},
                              note="modular law fails at the marked element")
    if len(H.counting) == 1:
        c = H.coords[H.counting[0]]
        if ctx.radius >= 2 * (c.conductor + c.n1):
            return _t(note="no violation and the box covers twice the "
                           "conductor window")
    return _u(note=f"no violation within radius {ctx.radius}")


def cancellative_full(ctx):
    """``classify._p_cancellative`` closing I + J for every ordered pair,
    as it ran before it closed each unordered pair once."""
    from idealis.classify import _f, _t, _u
    from idealis.ideals import ideal_sum
    from idealis.systems import close

    H = ctx.monoid
    if not H.counting:
        return _t(note="products of copies of H stay H", vacuous=True)
    if ctx.regular and (ctx.eff == "t" or len(H.counting) == 1):
        return _t(note="closed ideals are principal, multiplication is "
                       "translation")
    r = min(ctx.radius, 3) if ctx.eff == "s" else ctx.radius
    lat = ctx.lattice_at(r, cap=120)
    if lat is None:
        return _u(note="closed-ideal lattice too large for the collision "
                       "scan")
    proper = [I for I in lat if ctx.proper(I)]
    for I in proper:
        seen: dict = {}
        for J in proper:
            key = close(ctx.sys, ideal_sum(I, J)).gens
            if key in seen:
                return _f({"I": I, "J": seen[key], "L": J},
                          note="distinct closed cofactors with the same "
                               "product")
            seen[key] = J
    return _u(note=f"no collision among {len(proper)} closed ideals within "
                   f"radius {r}")


def class_group_probe_full(sys, radius: int, cap: int = 4):
    """``factor.class_group_probe`` with invertibility decided by closing
    I + I^-1 for every closed ideal in the box, principal ones included,
    and no memo."""
    from idealis.factor import ClassGroupProbe
    from idealis.ideals import ideal_eq, ideal_sum, inverse, unit_ideal
    from idealis.systems import close, closed_ideals, power_close

    invertible = [I for I in closed_ideals(sys, radius) if not I.is_empty
                  and ideal_eq(close(sys, ideal_sum(I, inverse(I))),
                               unit_ideal(sys.monoid))]
    nonprincipal = tuple(I for I in invertible if not I.is_principal)
    torsion = []
    for J in nonprincipal:
        for k in range(2, cap + 1):
            if power_close(sys, J, k).is_principal:
                torsion.append((J, k))
                break
    return ClassGroupProbe(
        monoid=sys.monoid.name, system=sys.label, radius=radius,
        invertible_count=len(invertible),
        principal_count=len(invertible) - len(nonprincipal),
        nonprincipal=nonprincipal, torsion=tuple(torsion), cap=cap)


def post_cor38_sample_from_box(H, radius: int) -> list:
    """``classify._post_cor38``'s generator sets taken from the whole box:
    its first ten nonzero members alone, then the k-th nonzero member with
    the k-th from the end for k below min(8, half the nonzero members)."""
    box = [v for v in H.enumerate(min(radius, 5)) if any(v)]
    sample = [(v,) for v in box[:10]]
    return sample + [(box[k], box[-1 - k])
                     for k in range(min(8, len(box) // 2))]


@functools.lru_cache(maxsize=1024)
def closed_faces_by_closing(sys) -> tuple:
    """The faces of the sys-closed primes, in ``proper_faces`` order, found
    by closing every prime with ``close_by_stepping``: the rule
    ``systems.closed_faces`` followed before it read them off the
    operator.  Cached per system object."""
    from idealis.systems import _prime_gens, proper_faces

    H = sys.monoid
    return tuple(f for f in proper_faces(H)
                 if close_by_stepping(sys, _prime_gens(H, f))
                 == _prime_gens(H, f))


def maximal_faces(faces) -> tuple:
    """The faces of the maximal primes among ``faces``: the minimal faces,
    in their order."""
    return tuple(f for f in faces if not any(g < f for g in faces))


def closes_as_by_stepping(sys):
    """The system sys closes as, by the rule ``systems.close`` once stepped
    by: while sys is mod(p, r) and the maximal r-closed primes are the
    maximal ideal alone, p."""
    while sys.kind == "mod" and maximal_faces(
            closed_faces_by_closing(sys.parts[1])) == (frozenset(),):
        sys = sys.parts[0]
    return sys


def close_by_stepping(sys, gens) -> tuple:
    """The canonical generators of the sys-closure of the ideal with
    canonical generators ``gens``, by the rule ``systems.close`` once
    followed: step with ``closes_as_by_stepping``; then s keeps the input,
    t and v take the double inverse, and a modularization takes the
    coordinatewise hull of its left operand's closure."""
    sys = closes_as_by_stepping(sys)
    if not gens or sys.kind == "s":
        return gens
    from idealis import _kernel as K

    pack = sys.monoid.pack
    if sys.kind in ("t", "v"):
        return K.v_close_gens(pack, gens)
    return K.modular_close_gens(pack, close_by_stepping(sys.parts[0], gens))


def op_by_stepping(sys) -> str:
    """The operator sys closes as, read off ``closes_as_by_stepping``: "s"
    for s, "t" for t and v, and for a modularization left standing the
    hull of its left operand's closure, which is "t" where that closes as
    t."""
    sys = closes_as_by_stepping(sys)
    if sys.kind != "mod":
        return "s" if sys.kind == "s" else "t"
    return "t" if op_by_stepping(sys.parts[0]) == "t" else "hull"


def leq_check(p, r, samples: int, radius: int = 6, seed: int = 0):
    """Sampled check that p-closure is contained in r-closure, recording a
    strictness witness when some sample separates them: the precondition
    ``systems.system`` sampled for mod(p, r) at (16, 4, 7) before it
    decided p <= r from the operators."""
    from idealis.ideals import _trusted_ideal, ideal_eq, ideal_subset
    from idealis.systems import (CheckReport, _box_vectors, _check_samples,
                                 _sampler, close)

    if p.monoid is not r.monoid:
        raise ValueError("systems bound to different monoids")
    _check_samples(samples)
    H = p.monoid
    below, sample = _sampler(random.Random(seed), H.enumerate(radius),
                             _box_vectors(H, radius))
    failures = []
    strict_witness = None
    for _ in range(samples):
        gens = sample(1 + below(4))
        X = _trusted_ideal(gens, H)
        Xp, Xr = close(p, X), close(r, X)
        if not ideal_subset(Xp, Xr):
            bad = next(g for g in Xp.gens if not Xr.contains_vec(g))
            failures.append({"gens": [list(v) for v in gens],
                             "witness": list(bad)})
        elif strict_witness is None and not ideal_eq(Xp, Xr):
            extra = next(g for g in Xr.gens if not Xp.contains_vec(g))
            strict_witness = {"gens": [list(v) for v in gens],
                              "element": list(extra)}
    return CheckReport(f"leq[{p.label},{r.label}]", H.name, samples, radius,
                       seed, {"leq": samples}, failures, strict_witness)
