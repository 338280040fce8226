"""The finitary ideal systems s, t (= finitary v), w, and generic
modularizations mod(p, r), together with the sampled axiom checker.

A ``System`` is bound to its monoid, and ``system`` decides once, in
``System.op``, which of three operators closes a finitely generated X:

    "s"     -- X itself
    "t"     -- the double inverse of the generator set (t and v coincide
               on finitely generated input, the only input that arises)
    "hull"  -- the coordinatewise hull of X

mod(p, r) closes as p where H is r-local, and otherwise as the hull of the
p-closure, which is the p-closure itself unless p closes as s; w is
mod(s, t).  The closed primes are read off the operator: every prime under
s, the height-one ones under t and the hull (``docs/exactness.md``, "Three
closure operators").  So is the order p <= r that mod(p, r) needs: s <=
hull <= t on every model ("The order of the three operators").
"""

import random
from copy import deepcopy
from dataclasses import dataclass, field
from functools import partial
from itertools import product as iproduct
from math import prod
from operator import add, mul

from . import _kernel as K
from .ideals import (Ideal, _translate, _trusted_ideal, ideal_intersect,
                     ideal_subset, ideal_union, unit_ideal)
from .monoid import MonoidModel, memoised


@dataclass(frozen=True, eq=False)
class System:
    monoid: MonoidModel
    kind: str                     # "s" | "t" | "v" | "mod"
    parts: tuple = ()             # (p, r) when kind == "mod"
    label: str = ""
    op: str = "s"                 # what it closes as: "s" | "t" | "hull"
    # Closed Ideals keyed by the generator tuple they close, each the one
    # object its model keeps for its value: one dict per model and op,
    # shared by the systems that close alike and read by ``close`` alone.
    cache: dict = field(default_factory=dict, repr=False)
    # This system's derived views, under string-headed keys.  Reached
    # through its model's memo.
    memo: dict = field(default_factory=dict, repr=False)

    def __repr__(self):
        return f"System({self.label}, {self.monoid.name})"


def _split_args(body: str):
    depth = 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:pos], body[pos + 1:]
    raise ValueError(f"expected two comma-separated systems in {body!r}")


def system(token: str, H: MonoidModel) -> System:
    """Resolve a system selector: s | t | v | w | mod(<p>,<r>).

    Systems are registered in the model's memo, one per token, each with
    the operator it closes as.
    """
    token = token.strip()

    def make(kind, parts, op):
        return System(H, kind, parts, token, op,
                      memoised(H, ("cache", op), dict))

    def build():
        if token in ("s", "t", "v"):
            return make(token, (), "s" if token == "s" else "t")
        if token == "w":
            p, r = system("s", H), system("t", H)
        elif token.startswith("mod(") and token.endswith(")"):
            left, right = _split_args(token[4:-1])
            p, r = system(left, H), system(right, H)
            if _rank(p.op, H) > _rank(r.op, H):
                raise ValueError(f"{p.label} <= {r.label} fails: the "
                                 f"operators compare as {p.op} > {r.op}")
        else:
            raise ValueError(f"unknown ideal system {token!r}")
        local = r_max_faces(r) == _LOCAL
        return make("mod", (p, r),
                    p.op if local or p.op != "s" else "hull")

    return memoised(H, ("system", token), build)


def modularization(p: System, r: System) -> System:
    """The derived system mod(p, r); w is modularization(s, t)."""
    if p.monoid is not r.monoid:
        raise ValueError("operands bound to different monoids")
    if p.kind == "s" and r.kind == "t":
        return system("w", p.monoid)
    return system(f"mod({p.label},{r.label})", p.monoid)


def _rank(op: str, H: MonoidModel) -> int:
    """op's place in the order s <= hull <= t of the operators' closures
    on H, operators that agree on H sharing one: the hull is s on at most
    one counting coordinate, and t is the hull where every counting
    coordinate is symmetric (``docs/exactness.md``, "The order of the
    three operators").  Like every closure, it needs a product model."""
    H.pack  # raises ValueError on an affine model
    counting = [H.coords[i] for i in H.counting]
    return ((op != "s" and len(counting) > 1)
            + (op == "t" and not all(c.symmetric for c in counting)))


def _prime_gens(H: MonoidModel, face: frozenset) -> tuple:
    """The prime of a face: the cells of the counting coordinates off it."""
    return K.cells_gens(H.pack, [(i,) for i in H.counting if i not in face])


def _face_order(face):
    return len(face), tuple(sorted(face))


def proper_faces(H: MonoidModel) -> tuple:
    """All faces of nonempty primes: subsets of the counting coordinates
    that omit at least one of them, ordered deterministically.  Memoised
    per model."""
    counting = H.counting
    return memoised(H, "proper_faces", lambda: tuple(sorted(
        (frozenset(i for j, i in enumerate(counting) if bits >> j & 1)
         for bits in range((1 << len(counting)) - 1)), key=_face_order)))


def closed_faces(sys: System) -> tuple:
    """Faces of the sys-closed primes, in ``proper_faces`` order: every
    proper face under s, and under t and the hull the height-one faces,
    each leaving one counting coordinate uninverted (``docs/exactness.md``,
    "Modularization as a finite intersection").  Nothing is closed."""
    H = sys.monoid

    def build():
        if sys.op == "s":
            return proper_faces(H)
        every = frozenset(H.counting)
        return tuple(sorted((every - {i} for i in H.counting),
                            key=_face_order))

    return memoised(sys, "closed_faces", build)


def r_max_faces(sys: System) -> tuple:
    """Faces of the maximal sys-closed primes: the maximal ideal's alone
    under s, and every closed face under t and the hull."""
    if sys.op != "s":
        return closed_faces(sys)
    return _LOCAL if sys.monoid.counting else ()


# r_max_faces of a system whose only maximal closed prime is the maximal
# ideal: its face inverts nothing.
_LOCAL = (frozenset(),)


def close(sys: System, X: Ideal) -> Ideal:
    """sys-closure of a finitely generated ideal, as a canonical Ideal; X
    itself when X is closed."""
    if X.monoid is not sys.monoid:
        raise ValueError("ideal bound to a different monoid")
    op = sys.op
    if op == "s" or not X.gens:
        return X
    # Inline, not through ``memoised``: the hot path of both perfbench workloads.
    cache = sys.cache
    got = cache.get(X.gens)
    if got is not None:
        return X if got.gens == X.gens else got
    H = sys.monoid
    if op == "t":
        gens = K.v_close_gens(H.pack, X.gens)
    else:
        gens = K.modular_close_gens(H.pack, X.gens)
    # One object per closure value in the model's memos: the first closed
    # input with the value, kept as itself, or else one built for it.
    values = memoised(H, ("closures",), dict)
    got = values.get(gens)
    if got is None:
        if gens == X.gens:
            got = X
        else:
            # One object per distinct vector in the model's closures;
            # through a list, as in ``inverse_gens``.
            vectors = memoised(H, ("vectors",), dict)
            got = Ideal(H, tuple([vectors.setdefault(v, v) for v in gens]))
        values[got.gens] = got
    cache[X.gens] = got
    return X if got.gens == X.gens else got


def modular_close(p: System, r: System, X: Ideal) -> Ideal:
    return close(modularization(p, r), X)


def power_close(sys: System, I: Ideal, k: int) -> Ideal:
    """The sys-closed k-th power (I^k)_sys; k = 0 gives H.

    The system's memo keeps the sequence (I^1)_sys, (I^2)_sys, ... per I,
    each power closed from the one before plus I: (I^k)_sys is
    ((I^(k-1))_sys + I)_sys for every ideal system.
    """
    if k == 0:
        return unit_ideal(sys.monoid)
    seq = memoised(sys, ("powers", I.gens), lambda: [close(sys, I)])
    pack = sys.monoid.pack
    while len(seq) < k:
        seq.append(close(sys, Ideal(sys.monoid,
                                    K.sum_gens(pack, seq[-1].gens, I.gens))))
    return seq[k - 1]


def dropped_generator_close(sys: System):
    """A deliberately broken closure (drops the lex-last generator).

    Exists to validate axioms_check: the result is not extensive, so the
    checker must fail it with an extension witness.
    """
    def broken(X: Ideal) -> Ideal:
        Y = close(sys, X)
        return Ideal(Y.monoid, Y.gens[:-1])
    return broken


@dataclass
class CheckReport:
    """Outcome of a sampled property check; failures carry witnesses."""

    what: str
    monoid: str
    samples: int
    radius: int
    seed: int
    counts: dict
    failures: list
    strict_witness: object = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def strict(self) -> bool:
        return self.strict_witness is not None

    def to_json(self):
        return {
            "what": self.what, "monoid": self.monoid,
            "samples": self.samples, "radius": self.radius, "seed": self.seed,
            "counts": dict(sorted(self.counts.items())),
            "failures": self.failures,
            "ok": self.ok, "strict": self.strict,
            "strict_witness": self.strict_witness,
        }


def _sampler(rng, members, box):
    """The sampled checks' draws from ``rng``: ``below(n)``, uniform in
    range(n), and ``sample(k)``, k generators drawn from H (integral
    samples) or from the whole box (fractional ones), the pool chosen by
    ``rng.random() < 0.5``.

    ``below`` is ``random.Random._randbelow_with_getrandbits`` on
    ``rng.getrandbits``, so ``pool[below(len(pool))]`` draws what
    ``rng.choice(pool)`` draws and ``a + below(b - a + 1)`` what
    ``rng.randint(a, b)`` does: the stream equals the ``choice``/``randint``
    stream the checks were first written with, at the same seed, without
    their per-draw Python-level calls.  ``test_sampler_draw_stream_is_pinned``
    pins it.
    """
    getrandbits = rng.getrandbits
    coin = rng.random

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    pools = [(pool, len(pool), len(pool).bit_length())
             for pool in (members, box)]

    def sample(k):
        pool, n, bits = pools[0] if coin() < 0.5 else pools[1]
        out = []
        for _ in range(k):
            # below(n), inlined: draws are most of the sweep's calls
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            out.append(pool[r])
        return tuple(out)

    return below, sample


def _check_samples(samples):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _box_vectors(H: MonoidModel, radius: int):
    ranges = []
    for i, c in enumerate(H.coords):
        lo = -radius if c.kind == "group" else -(radius // 2)
        ranges.append(range(lo, radius + 1))
    return [v for v in iproduct(*ranges)]


def _draw_stream(H, radius, seed, n, probe_last=True):
    """The first ``n`` samples' draws of the axiom check at ``seed``, each
    as (gens, probe, extra, c); the draws of h and g for the probe g + h
    are skipped on the last sample unless ``probe_last``."""
    members = H.enumerate(radius)
    size = len(members)
    below, sample = _sampler(random.Random(seed), members,
                             _box_vectors(H, radius))
    for k in range(1, n + 1):
        gens = sample(1 + below(4))
        probe = None
        if probe_last or k < n:
            h = members[below(size)]
            probe = tuple(map(add, gens[below(len(gens))], h))
        extra = sample(1 + below(2))
        c = members[below(size)]
        yield gens, probe, extra, c


# The bits of a tape entry's ``new``: the checks whose input no earlier
# sample had.  X's covers both checks that read X alone.
_NEW_X = 1          # A's generator loop and B's idempotence, keyed on X
_NEW_PROBE = 2      # A's probe, keyed on (X, probe)
_NEW_Y = 4          # B's monotonicity, keyed on (X, Y)
_NEW_SHIFT = 8      # C, keyed on (X, c)


def _tape_builder(H):
    """A function from sample k's draws to its tape entry, or to None when
    every check input of the sample repeats an earlier sample's.

    An entry is (k, gens, probe, X, Y, Xc, extra, c, new): the draws, the
    ideals built from them (X, Y = X plus ``extra`` and Xc = X translated
    by c) and the bitmask ``new`` of the sample's checks whose input is
    new.  Each distinct Ideal is built once per builder and interned by
    its canonical generator tuple, each distinct shift of X is built once,
    and equal draw tuples are stored once.
    """
    tuples = {}
    ideals = {}         # canonical generators -> the one Ideal
    drawn = {}          # drawn generators -> their Ideal
    shifts = {}         # (X.gens, c) -> Xc
    xs, probes, ys = set(), set(), set()

    def intern(x):
        return tuples.setdefault(x, x)

    def ideal(gens):
        got = drawn.get(gens)
        if got is None:
            I = _trusted_ideal(gens, H)
            got = drawn[gens] = ideals.setdefault(I.gens, I)
        return got

    def first(seen, key):
        if key in seen:
            return False
        seen.add(key)
        return True

    def build(k, draws):
        gens, probe, extra, c = draws
        X = ideal(gens)
        Y = ideal(gens + extra)
        key = X.gens
        new = ((first(xs, key) and _NEW_X)
               | (first(probes, (key, probe)) and _NEW_PROBE)
               | (first(ys, (key, Y.gens)) and _NEW_Y))
        Xc = shifts.get((key, c))
        if Xc is None:
            new |= _NEW_SHIFT
            Xc = _translate(X, c)
            Xc = shifts[key, c] = ideals.setdefault(Xc.gens, Xc)
        if not new:
            return None
        return (k, intern(gens), intern(probe), X, Y, Xc, intern(extra), c,
                new)

    return build


def _axiom_tape(H, samples, radius, seed):
    """The samples of the axiom check at these arguments that hold a new
    check input, drawn once per model and read by every system checked
    with them.

    The samples are those of the pass path, on which no draw depends on
    the closure: h and g are drawn only when A passes, and a failing
    sample ends the check.  A closure is a function of its input, so a
    check on an input an earlier sample had can only repeat that sample's
    pass; such a sample is left out, and an entry's ``new`` names the
    checks to run (``docs/exactness.md``, "One draw tape per model").
    """
    return memoised(H, ("axiom_tape", samples, radius, seed),
                    lambda: tuple(filter(None, map(
                        _tape_builder(H), range(1, samples + 1),
                        _draw_stream(H, radius, seed, samples)))))


def _axioms_check_fn(close_fn, H, label, samples, radius, seed):
    _check_samples(samples)
    pack = H.pack
    divisible_any = K.divisible_any
    closed = {}         # X.gens -> close_fn(X), once per distinct X
    failures = []

    def fail(axiom, **kw):
        failures.append({"axiom": axiom, "system": label, **kw})

    # Each entry runs the checks whose input is new (``_axiom_tape``).  A
    # new X makes every input of its sample new, so a sample that fails
    # A's loop runs every check; a check any other failing sample skips
    # repeats an earlier pass.
    done = samples
    for k, gens, probe, X, Y, Xc, extra, c, new in _axiom_tape(
            H, samples, radius, seed):
        if new & _NEW_X:
            Xr = closed[X.gens] = close_fn(X)
            # (A) extension: X + H inside the closure.  The generators lie
            # in X and Xr is a module, so they lie in Xr just when X does.
            miss = next((g for g in gens
                         if not divisible_any(pack, g, Xr.gens)), None)
        else:
            Xr = closed[X.gens]
            miss = None
        if miss is not None:
            fail("A", witness=list(miss), gens=[list(v) for v in gens])
            # This sample drew no h and g: its extra and c are the
            # replayed stream's, not the tape's.
            *_, (_, _, extra, c) = _draw_stream(H, radius, seed, k,
                                                probe_last=False)
            Y, Xc = _trusted_ideal(gens + extra, H), _translate(X, c)
        elif new & _NEW_PROBE and not divisible_any(pack, probe, Xr.gens):
            fail("A", witness=list(probe), gens=[list(v) for v in gens])
        # (B) monotone closure, via idempotence plus monotonicity.
        if new & _NEW_X and close_fn(Xr).gens != Xr.gens:
            fail("B", kind="idempotence", gens=[list(v) for v in gens])
        if new & _NEW_Y and not ideal_subset(Xr, close_fn(Y)):
            fail("B", kind="monotonicity", gens=[list(v) for v in gens],
                 extra=[list(v) for v in extra])
        # (C) translation equivariance.
        # Xc is X translated by c, so it is Xr's translate when Xr is X.
        if new & _NEW_SHIFT:
            rhs = Xc if Xr is X else _translate(Xr, c)
            if close_fn(Xc).gens != rhs.gens:
                fail("C", shift=list(c), gens=[list(v) for v in gens])
        if failures:
            done = k
            break
    # Each sample up to the last one run has had A, B and C checked on its
    # inputs, by itself or by an earlier sample with equal ones.  (D) holds
    # by construction: closures only ever see finite generator sets.
    # Recorded, not tested.
    counts = {"A": done, "B": done, "C": done, "D": samples}
    return CheckReport(f"axioms[{label}]", H.name, samples, radius, seed,
                       counts, failures)


def axioms_check(sys: System, samples: int, radius: int, seed: int = 0) -> CheckReport:
    """Sampled verification of the closure axioms for a bound system.

    The outcome is a function of the draw tape and of the closure, so it
    is kept in the model's memo once per operator a system closes as
    (``System.op``): w on a t-local model reads s's, whichever is checked
    first.  Each call gets its own report, labelled with sys.
    """
    H = sys.monoid

    def run():
        rep = _axioms_check_fn(partial(close, sys), H, sys.label,
                               samples, radius, seed)
        return rep.counts, rep.failures

    counts, failures = memoised(
        H, ("axioms", sys.op, samples, radius, seed), run)
    return CheckReport(f"axioms[{sys.label}]", H.name, samples, radius, seed,
                       dict(counts),
                       [{**deepcopy(f), "system": sys.label}
                        for f in failures])


def modular_law_violation(sys: System, I: Ideal, J: Ideal, N: Ideal, *,
                          joined: Ideal = None, met: Ideal = None):
    """Witness element breaking (I u J)_r cap N into (I u (J cap N))_r, or
    None.  Requires I inside N.  A caller scanning many triples may pass
    the (I u J)_r and J cap N it keeps as ``joined`` and ``met``."""
    if joined is None:
        joined = close(sys, ideal_union(I, J))
    if met is None:
        met = ideal_intersect(J, N)
    lhs = ideal_intersect(joined, N)
    rhs = close(sys, ideal_union(I, met))
    for g in lhs.gens:
        if not rhs.contains_vec(g):
            return g
    return None


def closed_ideals(sys: System, radius: int, cap: int = 20000,
                  max_ground: int = 400) -> tuple:
    """Every sys-closed ideal whose canonical generators lie in the radius
    box, H included, the empty ideal excluded; sorted by generators.

    The family is exhaustive and is built in one of two ways, which
    ``docs/exactness.md`` ("Lattice enumeration") shows give the same
    ideals:

    - A coordinatewise system (one that closes as t or as the hull, or as
      s on at most one counting coordinate; see ``_coordinatewise``)
      closes one counting coordinate at a time, so its closed ideals are
      the products of closed ideals that vanish off one axis each.  Each
      axis family comes from next-closure over the box members on that
      axis, and the family is their product.
    - Any other system runs Ganter's next-closure over the whole box with
      the operator E -> members(close(sys, E)) meet box.  An ideal
      generated inside the box is recovered from its box trace; closed
      sets whose ideal needs a generator outside the box are dropped.

    Raises BudgetExceeded past ``max_ground`` box vectors or past ``cap``
    ideals.  The cap trips before anything is enumerated where the size is
    known first: a product family has the product of the axis families'
    sizes, and the s-family holds at least 2^w - 1 ideals when w distinct
    canonical box vectors share one coordinate sum.  The verdict machinery
    falls back to structural arguments then.  The result, or the
    BudgetExceeded, is memoised per (radius, cap, max_ground).  An affine
    model raises ValueError under every system.
    """
    return memoised(sys, ("lattice", radius, cap, max_ground),
                    lambda: _lattice(sys, radius, cap, max_ground))


def _coordinatewise(sys: System) -> bool:
    """Is every sys-closure a product of one-dimensional modules, one per
    counting coordinate, each depending on that coordinate of the input
    alone?  True under t and the hull, and under s with at most one
    counting coordinate."""
    return sys.op != "s" or len(sys.monoid.counting) <= 1


def _lattice(sys: System, radius: int, cap: int, max_ground: int):
    """closed_ideals' family."""
    H = sys.monoid
    H.pack  # raises ValueError on an affine model, whatever sys closes as
    # The box is counted before it is built: it is the product of each
    # coordinate's members in [-radius, radius].
    n = prod(sum(map(c.member, range(-radius, radius + 1))) for c in H.coords)
    if n > max_ground:
        raise K.BudgetExceeded(
            f"{sys.label}-lattice ground set has {n} > {max_ground} vectors")
    ground = list(H.enumerate(radius))
    over = K.BudgetExceeded(
        f"{sys.label}-lattice at radius {radius} exceeds {cap}")
    if not _coordinatewise(sys):
        if (1 << _widest_level(H, ground)) - 1 > cap:
            raise over
        out = _next_closure(sys, ground, cap)
        if out is None:
            raise over
        return tuple(sorted(out, key=lambda I: I.gens))
    axes = []
    for i in H.counting:
        axis = _next_closure(
            sys, [v for v in ground if not any(v[:i]) and not any(v[i + 1:])],
            cap)
        if axis is None:
            raise over
        axes.append([I.gens for I in axis])
    if prod(map(len, axes)) > cap:
        raise over
    # A product ideal's generators take one generator per axis ideal and
    # add them up; each is zero off its axis.  Axes in increasing order,
    # each sorted, give them in lex order.
    zero = (0,) * H.dim
    out = [Ideal(H, tuple(tuple(map(sum, zip(zero, *picks)))
                          for picks in iproduct(*factors)))
           for factors in iproduct(*axes)]
    return tuple(sorted(out, key=lambda I: I.gens))


def _widest_level(H: MonoidModel, ground) -> int:
    """The most distinct canonical vectors in ``ground`` sharing one sum
    of counting coordinates.  They form an antichain: a divisor with the
    same sum differs only in group coordinates."""
    keep = H.counting_mask
    levels = {}
    for v in ground:
        c = tuple(map(mul, keep, v))
        levels.setdefault(sum(c), set()).add(c)
    return max(map(len, levels.values()))


def _next_closure(sys: System, ground: list, cap: int):
    """Ganter's next-closure over ``ground`` (members in lex order): the
    sys-closed ideals, in lectic order, whose canonical generators lie in
    ``ground`` and which some subset of it generates; None past ``cap``."""
    H = sys.monoid
    n = len(ground)
    pack = H.pack
    box = set(ground)
    keep = H.counting_mask
    # Canonical vectors: group coordinates zeroed.  Divisibility ignores
    # group coordinates, so a member and its canonical vector divide the
    # same members.
    canon = [tuple(map(mul, keep, v)) for v in ground] if 0 in keep else ground
    # Traces are int bitmasks over ground: bit j stands for ground[j].
    # The trace of a closed ideal is the union of its generators' up-sets,
    # each the AND over the counting coordinates of a column mask: the
    # members whose i-th coordinate minus x is a member of coordinate i.
    columns = {}
    upsets = {}

    def column(i, x):
        got = columns.get((i, x))
        if got is None:
            got = columns[i, x] = sum(
                1 << j for j, v in enumerate(ground)
                if K.member1(pack, i, v[i] - x))
        return got

    def upset(g):
        got = upsets.get(g)
        if got is None:
            got = (1 << n) - 1
            for i in H.counting:
                got &= column(i, g[i])
            upsets[g] = got
        return got

    # above[j]: the members ground[j] divides, itself excluded.
    above = [upset(c) & ~(1 << j) for j, c in enumerate(canon)]

    def trace(mask):
        # The ideal a mask generates is generated by the canonical vectors
        # of its minimal members, sorted: what reduce_gens keeps of them
        # all.  Members are visited in increasing order, each covering
        # what it divides; a covered member is skipped, as what it divides
        # is covered already.  Left uncovered is the first member of each
        # minimal run of members that share a canonical vector.
        covered = 0
        rest = mask
        while rest:
            low = rest & -rest
            covered |= above[low.bit_length() - 1]
            rest &= ~covered & ~low
        rest = mask & ~covered
        gens = []
        while rest:
            low = rest & -rest
            gens.append(canon[low.bit_length() - 1])
            rest ^= low
        gens.sort()
        I = close(sys, Ideal(H, tuple(gens)))
        bits = 0
        for g in I.gens:
            bits |= upset(g)
        return bits, I

    out = []
    A, ideal_A = trace(0)
    while True:
        if not ideal_A.is_empty and all(g in box for g in ideal_A.gens):
            out.append(ideal_A)
            if len(out) > cap:
                return None
        nxt = None
        for i in range(n - 1, -1, -1):
            if A >> i & 1:
                continue
            below = (1 << i) - 1
            B, ideal_B = trace((A & below) | 1 << i)
            # lectic test: B adds nothing below i
            if not B & ~A & below:
                nxt = (B, ideal_B)
                break
        if nxt is None:
            break
        A, ideal_A = nxt
    return out
