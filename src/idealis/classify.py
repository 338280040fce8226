"""Deciding the property matrix and the cross-checked equivalence suites.

Three public entry points.  evaluate() decides one named property of a pair
(monoid, system) and says how it decided: structural argument, exhaustive
computation over a finite universe, bounded search, or an honest
``unknown-beyond-radius``.  tfae_suite() evaluates one of the fixed condition
lists that must agree verdict for verdict on every certified model; the
agreement flag is the point, a disagreement signals a bug in the closure
engine rather than in the input.  classify() bundles the full matrix, the
suites and a spectrum summary into one JSON-ready dict.

Each property is one decider in ``_REGISTRY``.  The paper states its
characterizations in dual pairs (invertible or principal, maximal closed or
height-one primes, primary or not), and each such pair is one registering
factory called twice with what differs.  ``MATRIX_PROPS`` is every
registered property outside the element-wise ``GLOBAL_PROPS``.

False verdicts carry validated witnesses: a witness that fails its own
check raises AssertionError instead of being reported.  The exhaustive
radical-product search depends only on the system, the witness and the
universe of factors, so the system's memo keeps its result and each such
search runs once however many deciders refute at that witness.  True
verdicts rest on the structural arguments in ``docs/exactness.md``; the box
and lattice re-checks of those arguments live in ``tests/test_classify.py``
(``test_true_branches_hold_on_boxes``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from . import _kernel as K
from .factor import (
    Failure,
    class_group_probe,
    invertible_radicals,
    is_invertible,
    meager_factor,
    meager_family,
    power_depth,
    power_depths,
    radical_closed_ideals,
    radical_factor_principal,
    sp_factor,
)
from .ideals import (
    Ideal,
    ideal_eq,
    ideal_from,
    ideal_intersect,
    ideal_subset,
    ideal_sum,
    ideal_union,
    principal,
    radical,
    unit_ideal,
)
from .monoid import MonoidModel, memoised
from .spectrum import (
    PrimeIdeal,
    UncertifiedModel,
    height_one,
    is_dvm,
    primes,
    r_max,
    spectrum_json,
)
from .systems import (
    System,
    _coordinatewise,
    close,
    closed_faces,
    closed_ideals,
    modular_law_violation,
    power_close,
    system,
)

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown-beyond-radius"

__all__ = [
    "Condition",
    "PropertyVerdict",
    "TfaeReport",
    "classify",
    "evaluate",
    "property_names",
    "suite_names",
    "tfae_suite",
    "MATRIX_PROPS",
    "GLOBAL_PROPS",
]


# --------------------------------------------------------------------------
# verdict records


@dataclass(frozen=True)
class _V:
    verdict: str
    witness: object = None
    note: str = ""
    vacuous: bool = False

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": _witness_json(self.witness),
            "note": self.note,
            "vacuous": self.vacuous,
        }


def _t(note: str = "", vacuous: bool = False) -> _V:
    return _V(TRUE, None, note, vacuous)


def _f(witness, note: str = "") -> _V:
    return _V(FALSE, witness, note)


def _u(note: str = "") -> _V:
    return _V(UNKNOWN, None, note)


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, Ideal):
        return w.to_json()
    if isinstance(w, PrimeIdeal):
        out = w.ideal.to_json()
        out["face"] = sorted(w.face)
        return out
    if isinstance(w, dict):
        return {k: _witness_json(v) for k, v in sorted(w.items())}
    if isinstance(w, (list, tuple)):
        if all(isinstance(a, int) for a in w):
            return list(w)
        return [_witness_json(a) for a in w]
    return w


@dataclass(frozen=True, kw_only=True)
class PropertyVerdict(_V):
    """One decided property, with provenance of the decision in ``note``."""

    monoid: str
    system: str
    prop: str
    radius: int

    @property
    def holds(self) -> bool:
        return self.verdict == TRUE

    def to_json(self) -> dict:
        return {
            "monoid": self.monoid,
            "system": self.system,
            "property": self.prop,
            "radius": self.radius,
            **super().to_json(),
        }


def _vjson(v: _V) -> dict:
    out = v.to_json()
    if not v.vacuous:
        del out["vacuous"]
    return out


# --------------------------------------------------------------------------
# evaluation context


def _eff_kind(sys: System) -> str:
    """"s" if the token is built from s alone, else "t".  On every model
    it picks lattice radii and note text."""
    if sys.kind == "s":
        return "s"
    if sys.kind in ("t", "v"):
        return "t"
    p, r = sys.parts
    return _eff_kind(p) if _eff_kind(r) == "s" else "t"


class PropertyContext:
    """Views shared by every property decided for one (r, radius).

    A context holds no state of its own: verdicts and views live in the
    system's memo (``r.memo``) or its model's (``H.memo``), so every
    context over the same pair shares them.
    """

    def __init__(self, sys: System, radius: int):
        self.monoid = sys.monoid
        self.sys = sys
        self.radius = radius

    # -- dispatch ----------------------------------------------------------

    def prop(self, name: str) -> _V:
        """The memoised verdict of the property with canonical ``name``; a
        budget that trips while it is decided makes it unknown, with the
        budget's message."""
        def decide():
            try:
                return _REGISTRY[name](self)
            except K.BudgetExceeded as exc:
                return _u(note=f"over budget: {exc}")

        return memoised(self.sys, ("prop", self.radius, name), decide)

    # -- shape -------------------------------------------------------------

    @property
    def singular(self) -> tuple:
        H = self.monoid
        return tuple(i for i in H.counting if H.coords[i].atoms != (1,))

    @property
    def regular(self) -> bool:
        return not self.singular

    @property
    def eff(self) -> str:
        return _eff_kind(self.sys)

    def zero(self) -> tuple:
        return (0,) * self.monoid.dim

    def proper(self, I: Ideal) -> bool:
        return not I.contains_vec(self.zero())

    # -- views -------------------------------------------------------------

    def lattice_at(self, radius: int, cap: int = 5000):
        try:
            return closed_ideals(self.sys, radius, cap=cap, max_ground=360)
        except K.BudgetExceeded:
            return None

    def lattice(self):
        # the s-lattice explodes combinatorially, keep its box small
        r = min(self.radius, 4) if self.eff == "s" else self.radius
        return self.lattice_at(r)

    def cells(self):
        """Support cells with nonempty counting support, sorted by gens;
        memoised on the model, which every system shares.

        Each cell is closed under every system between s and v on these
        models; ``test_true_branches_hold_on_boxes`` checks that.
        """
        H = self.monoid

        def build():
            out = []
            cnt = sorted(H.counting)
            for m in range(1, len(cnt) + 1):
                for S in itertools.combinations(cnt, m):
                    out.append((frozenset(S),
                                Ideal(H, K.cells_gens(H.pack, [S]))))
            out.sort(key=lambda sc: sc[1].gens)
            return tuple(out)

        return memoised(H, "cells", build)

    def closed_primes(self):
        # closed_faces is in proper_faces order: (face size, sorted face)
        return memoised(self.sys, "closed_primes", lambda: tuple(
            primes(self.monoid).by_face(f) for f in closed_faces(self.sys)))


# --------------------------------------------------------------------------
# small constructions


def _scaled_unit(H: MonoidModel, i: int, k: int) -> tuple:
    return tuple(k if j == i else 0 for j in range(H.dim))


def _least_singular_principal(ctx: PropertyContext) -> Ideal:
    i = ctx.singular[0]
    return principal(ctx.monoid, _scaled_unit(ctx.monoid, i,
                                              ctx.monoid.coords[i].n1))


def _two_gen_max(ctx: PropertyContext) -> Ideal:
    # the height >= 2 prime over the first two counting coordinates
    i, j = sorted(ctx.monoid.counting)[:2]
    H = ctx.monoid
    return ideal_from([_scaled_unit(H, i, H.coords[i].n1),
                       _scaled_unit(H, j, H.coords[j].n1)], H)


def _pair_witness(ctx: PropertyContext, k: int) -> Ideal:
    # (k e_i, e_i + e_j) over the first two counting coordinates
    i, j = sorted(ctx.monoid.counting)[:2]
    H = ctx.monoid
    return ideal_from([_scaled_unit(H, i, k),
                       tuple((1 if a in (i, j) else 0) for a in range(H.dim))],
                      H)


def _is_power_of(sys: System, I: Ideal, R: Ideal):
    """The k with (R^k)_r = I, or None.  R must be closed, as every caller's
    is: a closed-prime radical, a support cell or a height-one prime.
    Closed powers only shrink, so once some (R^j)_r equals I, every deeper
    power that still holds I equals it too; the deepest is at I's depth."""
    k = power_depth(I, R, sys)
    return k if k and power_close(sys, R, k) == I else None


def _face(I: Ideal) -> frozenset:
    """The coordinates on which some generator of I is nonzero."""
    return frozenset(k for g in I.gens for k, c in enumerate(g) if c)


def _box_primary(ctx: PropertyContext, I: Ideal) -> bool:
    """Whether the radius-6 box holds no primary violation of I.  The scan
    reads only the members that vanish off I's face (``docs/exactness.md``,
    "Fixed witnesses stay in their face"), and the model's memo keeps it."""
    H = ctx.monoid
    radius = min(ctx.radius, 6)

    def scan():
        face = _face(I)
        members = K.box_members(H.pack, (0,) * H.dim, tuple(
            radius if k in face else 0 for k in range(H.dim)))
        return K.primary_violation(H.pack, members, I.gens,
                                   radical(I).gens) is None

    return memoised(H, ("box_primary", I.gens, radius), scan)


def _radical_product_search(ctx: PropertyContext, I: Ideal,
                            invertible: bool = False):
    """Exhaustive bounded search for a product of proper radical closed
    ideals, invertible ones only when ``invertible``, equal to I; returns
    the factor list or None.  Nothing in it depends on the radius, so the
    result is kept in the system's memo."""
    return memoised(ctx.sys, ("radical_product", I.gens, invertible),
                    lambda: _find_radical_product(ctx.sys, I, invertible))


def _find_radical_product(sys: System, I: Ideal, invertible: bool):
    """The search behind _radical_product_search.

    The depth bound is complete: a factor below a height-one prime P raises
    the largest closed P-power containing the partial product, any factor
    below no height-one prime raises the total counting degree of every
    member, and both quantities are capped by I itself.  Every factor
    contains the product, and for a system that closes as s a product
    stays one when each factor is cut down to I's face
    (``docs/exactness.md``, "Fixed witnesses stay in their face").
    """
    H = sys.monoid
    universe = invertible_radicals(sys) if invertible \
        else radical_closed_ideals(sys)
    face = _face(I) if sys.op == "s" else None
    universe = [R for R in universe if ideal_subset(I, R)
                and (face is None or _face(R) <= face)]
    if not universe:
        return None
    bound = sum(power_depths(I, sys))
    bound += min(sum(g[i] for i in H.counting) for g in I.gens)
    hit: list = []

    def dfs(cur, start, depth):
        if hit:
            return
        if ideal_eq(cur, I):
            hit.append(list(path))
            return
        if depth == 0:
            return
        for idx in range(start, len(universe)):
            nxt = close(sys, ideal_sum(cur, universe[idx]))
            if not ideal_subset(I, nxt):
                continue
            path.append(universe[idx])
            dfs(nxt, idx, depth - 1)
            path.pop()

    path: list = []
    dfs(unit_ideal(H), 0, bound)
    return hit[0] if hit else None


def _meager_intersection_exists(ctx: PropertyContext, I: Ideal) -> bool:
    """Complete scan: some family of invertible radical closed ideals meets
    in radical(I) and passes the meager containment rows for I."""
    U = invertible_radicals(ctx.sys)
    return meager_family(I, ctx.sys, len(U)) is not None


# --------------------------------------------------------------------------
# property registry

_REGISTRY: dict = {}


def _prop(name):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn
    return deco


def _singular_only(name, vacuous_note, regular_note, refute):
    """Register a property that holds vacuously without counting
    coordinates and structurally on regular models.  On a singular model
    ``refute(ctx, w)`` checks that it fails at the least singular
    principal ideal w and returns the false verdict."""
    def decide(ctx):
        if not ctx.monoid.counting:
            return _t(note=vacuous_note, vacuous=True)
        if ctx.regular:
            return _t(note=regular_note)
        return refute(ctx, _least_singular_principal(ctx))
    _REGISTRY[name] = decide


def _no_radical_product(note):
    """Refuted at w: the complete bounded search finds no product of
    radical closed ideals equal to w."""
    def refute(ctx, w):
        if _radical_product_search(ctx, w) is not None:
            raise AssertionError
        return _f(w, note=note)
    return refute


def _no_radical_peel(note):
    """Refuted at w: the greedy radical peel of w's generator fails, and
    its failure witness is the verdict's."""
    def refute(ctx, w):
        out = radical_factor_principal(ctx.monoid, w.gens[0])
        if not isinstance(out, Failure):
            raise AssertionError
        return _f(out.witness, note=note)
    return refute


@_prop("local")
def _p_local(ctx):
    """A unique maximal closed prime."""
    faces = [sorted(P.face) for P in r_max(ctx.sys)]
    if len(faces) == 1:
        return _t(note=f"unique maximal closed prime, face {faces[0]}")
    if not faces:
        return _f(None, note="a group has no maximal closed prime")
    return _f({"maximal_faces": faces},
              note=f"{len(faces)} maximal closed primes")


@_prop("treed")
def _p_treed(ctx):
    """Closed primes under any maximal closed prime form a chain."""
    cp = ctx.closed_primes()
    if not cp:
        return _t(note="no closed primes", vacuous=True)
    for P in r_max(ctx.sys):
        # P_F lies inside P_G exactly when G is inside F
        below = [q for q in cp if P.face <= q.face]
        for a, b in itertools.combinations(below, 2):
            if not (a.face <= b.face or b.face <= a.face):
                return _f({"under_face": sorted(P.face), "left": a.ideal,
                           "right": b.ideal},
                          note="incomparable closed primes under one "
                               "maximal closed prime")
    return _t(note="closed primes below each maximal one are comparable")


def _localizations_dvm(name, primes_of, where):
    """Register "every localization at a prime of ``primes_of(ctx)`` is a
    discrete valuation monoid"; ``where`` names such a prime."""
    def decide(ctx):
        if not primes_of(ctx):
            return _t(note=f"no {where}s", vacuous=True)
        for P in primes_of(ctx):
            loc = ctx.monoid.localize(P.face)
            if is_dvm(loc) != "true":
                return _f({"face": sorted(P.face), "localization": loc.name},
                          note=f"localization at the marked {where} is not "
                               "a discrete valuation monoid")
        return _t(note=f"all localizations at {where}s are discrete "
                       "valuation monoids")
    _REGISTRY[name] = decide


# Every localization at a maximal closed prime is a discrete valuation
# monoid; the same test at every height-one prime.
_localizations_dvm("almost_dedekind", lambda ctx: r_max(ctx.sys),
                   "maximal closed prime")
_localizations_dvm("localizations_dvm", lambda ctx: height_one(ctx.monoid),
                   "height-one prime")


@_prop("sp")
def _p_sp(ctx):
    """Every nonempty proper closed ideal is a finite product of radical
    closed ideals."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="no proper nonempty ideals on a group", vacuous=True)
    if ctx.singular:
        w = _least_singular_principal(ctx)
        out = sp_factor(w, ctx.sys)
        if not isinstance(out, Failure):
            raise AssertionError(out)
        if _radical_product_search(ctx, w) is not None:
            raise AssertionError
        return _f(out.witness,
                  note=f"the principal ideal {list(w.gens[0])}+H has no "
                       "factorization into radical closed ideals; its "
                       "radical is not invertible")
    if _coordinatewise(ctx.sys):
        return _t(note="closed ideals are principal and peel along supports"
                  if ctx.eff == "t"
                  else "closed ideals are powers of the height-one cell")
    w = _pair_witness(ctx, 3)
    if not ideal_eq(close(ctx.sys, w), w):
        raise AssertionError
    if _radical_product_search(ctx, w) is not None:
        raise AssertionError
    return _f(w, note="closed ideal with no factorization into radical "
                      "closed ideals; the complete bounded search is empty")


# The invertible/principal twins: (word, test of a closed ideal).
_TESTS = {"invertible": is_invertible,
          "principal": lambda I, sys: I.is_principal}


def _fg_closed(name, word):
    """Register "nonempty finitely generated closed ideals are ``word``"."""
    def decide(ctx):
        H = ctx.monoid
        if not H.counting:
            return _t(note="the only nonempty ideal is H", vacuous=True)
        if ctx.singular:
            C = Ideal(H, K.cells_gens(H.pack, [(ctx.singular[0],)]))
            if _TESTS[word](C, ctx.sys):
                raise AssertionError
            return _f(C, note="closed finitely generated support cell that "
                              f"is not {word}")
        if _coordinatewise(ctx.sys):
            return _t(note="closed finitely generated ideals are principal")
        M = _two_gen_max(ctx)
        if _TESTS[word](M, ctx.sys):
            raise AssertionError
        return _f(M, note=f"the two-generator height-two prime is not {word}")
    _REGISTRY[name] = decide


_fg_closed("prufer", "invertible")
_fg_closed("bezout", "principal")


@_prop("valuation")
def _p_valuation(ctx):
    """x or -x lies in H for every x of the quotient group."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="H is its own quotient group")
    cnt = sorted(H.counting)
    if len(cnt) >= 2:
        i, j = cnt[:2]
        x = tuple((1 if a == i else -1 if a == j else 0)
                  for a in range(H.dim))
        return _f(list(x), note="neither the element nor its negative lies "
                                "in H")
    i = cnt[0]
    c = H.coords[i]
    if c.atoms == (1,):
        return _t(note="comparability holds along the single counting "
                       "coordinate")
    gap = next(k for k in range(1, c.conductor + 1) if not c.member(k))
    return _f(list(_scaled_unit(H, i, gap)),
              note="positive gap element: neither it nor its negative "
                   "lies in H")


@_prop("dvm")
def _p_dvm(ctx):
    """Discrete valuation monoid: valuation with principal height-one
    maximal ideal."""
    verdict = is_dvm(ctx.monoid)
    if verdict == "true":
        return _t(note="maximal ideal is principal and filtration is "
                       "discrete")
    if verdict == "not-applicable":
        return _f(None, note="H is a group, there is no maximal ideal")
    return _f(None, note="maximal ideal fails principality or discreteness "
                         "within the box")


# Non-units factor into prime elements.
_singular_only(
    "factorial", "there are no non-units",
    "the coordinate unit vectors are prime and generate",
    lambda ctx, w: _f(w, note="no prime element divides the least singular "
                              "atom: the maximal ideal of that coordinate "
                              "is not principal"))

# Non-units factor into radical elements.
_singular_only(
    "radical_factorial", "there are no non-units",
    "greedy support peeling writes every element as a sum of "
    "characteristic vectors",
    _no_radical_peel("radical of the least singular atom is not principal, "
                     "the greedy peel has no radical element to start "
                     "with"))


def _prime_power(name, primary, vacuous_note):
    """Register the prime power condition: closed ideals with prime radical,
    only the primary ones when ``primary``, are closed powers of it."""
    what = "primary closed ideal" if primary else "closed ideal"

    def refutes(ctx, I):
        # box-primary when that is asked, and no closed power of its radical
        return ((not primary or _box_primary(ctx, I))
                and _is_power_of(ctx.sys, I, radical(I)) is None)

    def decide(ctx):
        H = ctx.monoid
        if not H.counting:
            return _t(note=vacuous_note, vacuous=True)
        if ctx.regular and _coordinatewise(ctx.sys):
            return _t(note=f"{what}s with prime radical are powers of the "
                           "corresponding cell")
        found = None
        lat = ctx.lattice()
        if lat is not None:
            cp = {P.ideal.gens for P in ctx.closed_primes()}
            found = next((I for I in lat if ctx.proper(I)
                          and radical(I).gens in cp and refutes(ctx, I)),
                         None)
        if found is None:
            if ctx.singular:
                found = _least_singular_principal(ctx)
            elif primary:
                i, j = sorted(H.counting)[:2]
                found = ideal_from([_scaled_unit(H, i, 1),
                                    _scaled_unit(H, j, 2)], H)
            else:
                found = _pair_witness(ctx, 2)
            if not refutes(ctx, found):
                raise AssertionError
        return _f(found, note=f"{what} with prime radical that is no closed "
                              "power of it")
    _REGISTRY[name] = decide


# Primary closed ideals with prime radical are powers of it; the strong
# condition drops "primary".
_prime_power("ppc", True, "no proper primary closed ideals")
_prime_power("strong_ppc", False,
             "no proper closed ideals with prime radical")


@_prop("primary_inclusive")
def _p_primary_inclusive(ctx):
    """Between nested closed primes there is a primary closed ideal."""
    cp = ctx.closed_primes()
    if not any(Q.face < P.face for P in cp for Q in cp):
        return _t(note="closed primes are pairwise incomparable",
                  vacuous=True)
    if ctx.prop("modular_system").verdict == TRUE:
        return _t(note="the system is modular, which forces primary "
                       "inclusiveness")
    return _u(note="nested closed primes exist and the system is not known "
                   "to be modular")


@_prop("modular_system")
def _p_modular_system(ctx):
    """(I u J)_r cap N = (I u (J cap N))_r whenever I lies inside N."""
    sys = ctx.sys
    H = ctx.monoid
    # unions of s-ideals are s-ideals, and modularizing a modular system
    # keeps it: every system that does not close as t
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
    # Only I inside N, J incomparable with N and I outside J can break the
    # law (docs/exactness.md, "Lattice scans skip what the axioms decide").
    # Inclusions and joins are built once, J cap N once per kept (N, J).
    le = [[ideal_subset(A, B) for B in proper] for A in proper]
    joins = {}
    for n, N in enumerate(proper):
        meets = {j: (J, ideal_intersect(J, N)) for j, J in enumerate(proper)
                 if not (le[j][n] or le[n][j])}
        for i, I in enumerate(proper):
            if not le[i][n]:
                continue
            for j, (J, met) in meets.items():
                if le[i][j]:
                    continue
                joined = joins.get((i, j))
                if joined is None:
                    joined = joins[i, j] = close(sys, ideal_union(I, J))
                g = modular_law_violation(sys, I, J, N, joined=joined, met=met)
                if g is not None:
                    return _f({"I": I, "J": J, "N": N, "element": list(g)},
                              note="modular law fails at the marked element")
    if len(H.counting) == 1:
        c = H.coords[H.counting[0]]
        if ctx.radius >= 2 * (c.conductor + c.n1):
            return _t(note="no violation and the box covers twice the "
                           "conductor window")
    return _u(note=f"no violation within radius {ctx.radius}")


@_prop("cancellative")
def _p_cancellative(ctx):
    """(I J)_r = (I L)_r forces J = L on nonempty closed ideals."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="products of copies of H stay H", vacuous=True)
    if ctx.regular and _coordinatewise(ctx.sys):
        return _t(note="closed ideals are principal, multiplication is "
                       "translation")
    r = min(ctx.radius, 3) if ctx.eff == "s" else ctx.radius
    lat = ctx.lattice_at(r, cap=120)
    if lat is None:
        return _u(note="closed-ideal lattice too large for the collision "
                       "scan")
    proper = [I for I in lat if ctx.proper(I)]
    sums: dict = {}  # sums commute: one closure per unordered pair
    for a, I in enumerate(proper):
        seen: dict = {}
        for b, J in enumerate(proper):
            key = sums.pop((b, a)) if b < a else sums.setdefault(
                (a, b), close(ctx.sys, ideal_sum(I, J)).gens)
            if key in seen:
                return _f({"I": I, "J": seen[key], "L": J},
                          note="distinct closed cofactors with the same "
                               "product")
            seen[key] = J
    return _u(note=f"no collision among {len(proper)} closed ideals within "
                   f"radius {r}")


@_prop("half_cancellative")
def _p_half_cancellative(ctx):
    """(I^k)_r = (J^k)_r forces I = J."""
    if not ctx.monoid.counting:
        return _t(note="trivial on a group", vacuous=True)
    return _t(note="coordinate minima of proper closed ideals grow strictly "
                   "along products, powers determine the base")


@_prop("finite_conductor")
def _p_finite_conductor(ctx):
    """Every nonempty closed ideal contains a translate of H."""
    return _t(note="generators live in a finite window on every coordinate")


@_prop("acc_radical_principal")
def _p_acc_radical_principal(ctx):
    """Ascending chains of radical principal ideals stabilize."""
    H = ctx.monoid
    k = sum(1 for i in H.counting if H.coords[i].atoms == (1,))
    return _t(note=f"only {2 ** k} radical principal ideals exist, every "
                   "chain is finite")


@_prop("pit")
def _p_pit(ctx):
    """Minimal primes over nontrivial principal ideals have height one."""
    return _t(note="minimal primes over a principal ideal are the support "
                   "cells of its generator, all of corank one")


@_prop("min_primes_fg_height_one")
def _p_min_primes_fg_height_one(ctx):
    """Minimal primes over nontrivial finitely generated closed ideals have
    height one."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="no nontrivial closed ideals", vacuous=True)
    cnt = set(H.counting)
    high = [P for P in r_max(ctx.sys) if len(cnt - P.face) >= 2]
    if not high:
        return _t(note="every proper closed ideal lies under a corank-one "
                       "prime")
    P = high[0]
    return _f(P.ideal, note="finitely generated closed prime of height "
                            f"{len(cnt - P.face)} that is its own minimal "
                            "prime")


def _radical_principal(word):
    """Register "radicals of nontrivial principal ideals are ``word``"."""
    def decide(ctx):
        if not ctx.monoid.counting:
            return _t(note="the radical of any principal ideal is H",
                      vacuous=True)
        for S, C in ctx.cells():
            if not _TESTS[word](C, ctx.sys):
                return _f(C, note="radical of every principal ideal "
                                  f"supported on {sorted(S)}; not {word}")
        return _t(note=f"every support cell is {word}")
    _REGISTRY[f"radical_principal_{word}"] = decide


def _radical_fg(word):
    """Register "nontrivial radical closed finitely generated ideals are
    ``word``"."""
    def decide(ctx):
        if not ctx.monoid.counting:
            return _t(note="no nontrivial radical closed ideals",
                      vacuous=True)
        for J in radical_closed_ideals(ctx.sys):
            if not _TESTS[word](J, ctx.sys):
                return _f(J, note=f"radical closed ideal that is not {word}")
        return _t(note=f"all radical closed ideals are {word}")
    _REGISTRY[f"radical_fg_{word}"] = decide


for _word in _TESTS:
    _radical_principal(_word)
    _radical_fg(_word)


@_prop("primes_contain_invertible_radical")
def _p_primes_contain_invertible_radical(ctx):
    """Every nontrivial closed prime contains an invertible radical closed
    ideal."""
    cp = ctx.closed_primes()
    if not cp:
        return _t(note="no closed primes", vacuous=True)
    U = invertible_radicals(ctx.sys)
    for P in cp:
        if not any(ideal_subset(J, P.ideal) for J in U):
            return _f(P.ideal, note="closed prime containing no invertible "
                                    "radical closed ideal")
    return _t(note="each closed prime contains an invertible radical "
                   "closed ideal")


@_prop("primes_contain_radical_principal")
def _p_primes_contain_radical_principal(ctx):
    """Every nontrivial closed prime contains a radical element."""
    H = ctx.monoid
    cp = ctx.closed_primes()
    if not cp:
        return _t(note="no closed primes", vacuous=True)
    reg = [i for i in H.counting if H.coords[i].atoms == (1,)]
    for P in cp:
        if not any(j not in P.face for j in reg):
            return _f(P.ideal, note="closed prime avoided by every radical "
                                    "principal ideal")
    return _t(note="each closed prime contains a characteristic vector with "
                   "radical principal ideal")


def _max_eq(name, other, true_note):
    """Register "the maximal closed primes are those of ``other(ctx)``"."""
    def decide(ctx):
        mx = {P.face for P in r_max(ctx.sys)}
        oth = {P.face for P in other(ctx)}
        if mx == oth:
            return _t(note=true_note, vacuous=not mx)
        diff = sorted(sorted(f) for f in mx.symmetric_difference(oth))
        return _f({"faces": diff}, note="faces on one side only")
    _REGISTRY[name] = decide


# Maximal closed primes are exactly the height-one primes; they agree with
# the t-maximal ones.
_max_eq("max_eq_height_one", lambda ctx: height_one(ctx.monoid),
        "maximal closed primes and height-one primes coincide")
_max_eq("max_eq_t_max",
        lambda ctx: r_max(system("t", ctx.monoid)),
        "maximal closed primes for the system are the t-maximal ones")


@_prop("class_group_trivial")
def _p_class_group_trivial(ctx):
    """Invertible closed ideals are principal."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="the only invertible ideal is H", vacuous=True)
    if ctx.sys.kind == "s":
        return _t(note="an s-invertible ideal contains the negative of one "
                       "of its members, hence is principal")
    if ctx.regular:
        return _t(note="invertible closed ideals are principal on a free "
                       "by group model")
    if len(r_max(ctx.sys)) <= 1:
        return _t(note="local: the minimum window of an invertible closed "
                       "ideal is principal")
    try:
        probe = class_group_probe(ctx.sys, min(ctx.radius, 6), cap=4)
    except K.BudgetExceeded as exc:
        return _u(note=f"the closed-ideal lattice is over budget: {exc}")
    if probe.nonprincipal:
        return _f(probe.nonprincipal[0],
                  note="invertible closed ideal that is not principal")
    return _u(note=f"all {probe.invertible_count} invertible closed ideals "
                   f"within radius {min(ctx.radius, 6)} are principal")


@_prop("intersection_localizations")
def _p_intersection_localizations(ctx):
    """H equals the intersection of its localizations at height-one
    primes."""
    if not height_one(ctx.monoid):
        return _t(note="no height-one primes, the empty intersection is "
                       "the group itself", vacuous=True)
    return _t(note="an element of every localization clears each "
                   "height-one denominator, hence lies in H")


def _no_invertible_radical_factors(ctx, w):
    out = meager_factor(w, ctx.sys)
    if not isinstance(out, Failure):
        raise AssertionError
    if _radical_product_search(ctx, w, invertible=True) is not None:
        raise AssertionError
    return _f(w, note="invertible ideal with no factorization into "
                      "invertible radical closed ideals; its radical is "
                      "not invertible")


# Invertible closed ideals factor into invertible radical closed ideals.
_singular_only(
    "invertibles_radical_factorial", "the only invertible ideal is H",
    "principal generators split along their supports into invertible cells",
    _no_invertible_radical_factors)

# Invertible closed ideals are products of radical closed ideals,
# invertible or not.
_singular_only(
    "invertible_radical_product", "the only invertible ideal is H",
    "support peeling factors every principal ideal into radical cells",
    _no_radical_product("invertible ideal that is no product of radical "
                        "closed ideals; the complete bounded search is "
                        "empty"))

# Invertible closed ideals are products of pairwise comparable radical
# closed ideals.
_singular_only(
    "invertible_comparable_radical_product", "the only invertible ideal is H",
    "support peeling yields a nested chain of radical cells",
    _no_radical_product("invertible ideal that is no product of radical "
                        "closed ideals, comparable or not"))


def _radical_not_invertible(ctx, w):
    R = radical(w)
    if is_invertible(R, ctx.sys):
        raise AssertionError
    return _f(R, note=f"radical of the invertible ideal "
                      f"{list(w.gens[0])}+H; not invertible")


# Radicals of invertible closed ideals are invertible.
_singular_only(
    "radical_invertible_invertible", "the only invertible ideal is H",
    "radicals of invertible ideals are invertible cells",
    _radical_not_invertible)

# Nontrivial principal ideals are products of radical closed ideals.
_singular_only(
    "principal_radical_product", "no nontrivial principal ideals",
    "support peeling factors every principal ideal",
    _no_radical_product("principal ideal that is no product of radical "
                        "closed ideals"))

# Nontrivial principal ideals are products of pairwise comparable radical
# closed ideals.
_singular_only(
    "principal_comparable_radical_product", "no nontrivial principal ideals",
    "support peeling yields a nested chain",
    _no_radical_product("principal ideal that is no product of radical "
                        "closed ideals, comparable or not"))

# Nontrivial principal ideals are products of pairwise comparable radical
# principal ideals.
_singular_only(
    "principal_comparable_radical_principal_product",
    "no nontrivial principal ideals",
    "support peeling yields a nested chain of characteristic-vector "
    "principals",
    _no_radical_peel("the radical met by the greedy peel is not principal"))


@_prop("closed_comparable_radical_product")
def _p_closed_comparable_radical_product(ctx):
    """Every nonempty proper closed ideal is a product of pairwise
    comparable radical closed ideals."""
    H = ctx.monoid
    if not H.counting:
        return _t(note="no proper nonempty closed ideals", vacuous=True)
    refute = _no_radical_product("closed ideal that is no product of radical "
                                 "closed ideals, comparable or not")
    if ctx.singular:
        return refute(ctx, _least_singular_principal(ctx))
    if _coordinatewise(ctx.sys):
        return _t(note="support peeling writes closed ideals as nested "
                       "radical products")
    return refute(ctx, _pair_witness(ctx, 3))


def _no_meager_family(ctx, w):
    if _meager_intersection_exists(ctx, w):
        raise AssertionError
    return _f(radical(w), note="no meager family of invertible radical "
                               "closed ideals meets in this radical")


# Radicals of invertible closed ideals are meager intersections of
# invertible radical closed ideals.
_singular_only(
    "meager_radical_intersections", "the only invertible ideal is H",
    "the singleton family of the support cell is meager",
    _no_meager_family)


# --------------------------------------------------------------------------
# name normalization

_ALIASES = {
    "ad": "almost_dedekind",
    "almost_dedekind": "almost_dedekind",
    "prime_power": "ppc",
    "prime_power_condition": "ppc",
    "strong_prime_power": "strong_ppc",
    "strong_prime_power_condition": "strong_ppc",
    "class_group": "class_group_trivial",
    "pruefer": "prufer",
}
for _k in _REGISTRY:
    _ALIASES.setdefault(_k, _k)

_SYS_PREFIXES = ("s", "t", "v", "w")


def _canon(name: str) -> str:
    s = name.strip().replace("-", "_")
    head, _, tail = s.partition("_")
    if tail and head in _SYS_PREFIXES:
        s = tail
    key = s.lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown property {name!r}")
    return _ALIASES[key]


def property_names() -> tuple:
    return tuple(sorted(_REGISTRY))


# --------------------------------------------------------------------------
# suites


@dataclass(frozen=True, kw_only=True)
class Condition(_V):
    cid: str
    text: str

    @property
    def group(self) -> str:
        """Conditions that must agree share a group: the id's letters."""
        return self.cid.rstrip("0123456789")

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "text": self.text,
            **super().to_json(),
            "group": self.group,
        }


@dataclass(frozen=True)
class TfaeReport:
    suite: str
    monoid: str
    radius: int
    conditions: tuple
    agreement: bool
    note: str = ""

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "monoid": self.monoid,
            "radius": self.radius,
            "agreement": self.agreement,
            "note": self.note,
            "conditions": [c.to_json() for c in self.conditions],
        }


def _eval_conjunction(H, radius, conjuncts) -> _V:
    """Conjuncts are evaluated in listed order and the first exact false
    wins; an unknown is only reported when nothing later refutes."""
    vac = False
    pending = None
    for lbl, prop in conjuncts:
        v = PropertyContext(system(lbl, H), radius).prop(prop)
        if v.verdict == FALSE:
            return _f(v.witness, note=f"{lbl}:{prop}: {v.note}")
        if v.verdict == UNKNOWN and pending is None:
            pending = _u(note=f"{lbl}:{prop}: {v.note}")
        vac = vac or v.vacuous
    return _t(vacuous=vac) if pending is None else pending


def _cond_powers_at_height_one(H, radius) -> _V:
    """Per height-one prime: ideals with that radical are powers of it, and
    the localization direction is half-cancellative.  The half-cancellative
    part holds structurally, so the power part is decided first."""
    if not height_one(H):
        return _t(note="no height-one primes", vacuous=True)
    for P in height_one(H):
        (i,) = sorted(set(H.counting) - P.face)
        if H.coords[i].atoms == (1,):
            continue
        w = principal(H, _scaled_unit(H, i, H.coords[i].n1))
        if not ideal_eq(radical(w), P.ideal):
            raise AssertionError
        if _is_power_of(system("t", H), w, P.ideal) is not None:
            raise AssertionError
        return _f(w, note="closed ideal with radical the height-one prime "
                          f"on coordinate {i} that is no closed power of it")
    return _t(note="closed ideals with height-one radical are powers of it "
                   "and coordinate minima grow strictly along products")


def _post_cor38(H, radius, conds):
    """Once every condition holds, the two closures must agree as maps, not
    just in verdicts; checked on a deterministic sample of generator sets."""
    if any(c.verdict != TRUE for c in conds):
        return ""
    w_sys = system("w", H)
    t_sys = system("t", H)
    r = min(radius, 5)  # the box's two ends, read off its member columns
    cols = [[x for x in range(-r, r + 1) if c.member(x)] for c in H.coords]
    ends = [list(itertools.islice(filter(any, itertools.product(*cs)), 10))
            for cs in (cols, [col[::-1] for col in cols])]
    m = min(8, (prod(map(len, cols)) - 1) // 2)
    sample = [(v,) for v in ends[0]] + list(zip(ends[0], ends[1][:m]))
    n = 0
    for gens in sample:
        X = ideal_from(gens, H)
        if not ideal_eq(close(w_sys, X), close(t_sys, X)):
            raise AssertionError(f"closure identity fails on {gens}")
        n += 1
    return f"closure identity verified on {n} generator sets"


# Condition rows: (id, text, body); body is a conjunct list, a callable, or
# the via-equivalents marker with the ids it averages over.  Rows whose ids
# share their letters (none, or "A" in "A1") must agree.
SUITES = {
    "Thm4.2": [
        ("1", "almost Dedekind with the SP property",
         [("t", "almost_dedekind"), ("t", "sp")]),
        ("2", "finite conductor and principal ideals factor into "
              "radical closed ideals",
         [("t", "finite_conductor"), ("t", "principal_radical_product")]),
        ("3", "closed ideals factor into pairwise comparable radical "
              "closed ideals",
         [("t", "closed_comparable_radical_product")]),
        ("4", "radicals of principal ideals are invertible",
         [("t", "radical_principal_invertible")]),
    ],
    "Cor4.4": [
        ("1", "almost Dedekind with the SP property",
         [("t", "almost_dedekind"), ("t", "sp")]),
        ("2", "SP property for the modularization", [("w", "sp")]),
        ("3", "finite conductor and principal ideals factor into "
              "radical ideals of the modularization",
         [("w", "finite_conductor"), ("w", "principal_radical_product")]),
        ("4", "ideals closed for the modularization factor into "
              "pairwise comparable radical ideals",
         [("w", "closed_comparable_radical_product")]),
        ("5", "radicals of principal ideals are invertible for the "
              "modularization",
         [("w", "radical_principal_invertible")]),
    ],
    "Cor4.5": [
        ("1", "Bezout with the SP property", [("t", "bezout"), ("t", "sp")]),
        ("2", "Bezout with the SP property for the modularization",
         [("w", "bezout"), ("w", "sp")]),
        ("3", "radicals of principal ideals are principal",
         [("t", "radical_principal_principal")]),
        ("4", "principal ideals factor into pairwise comparable "
              "radical principal ideals",
         [("t", "principal_comparable_radical_principal_product")]),
    ],
    "Thm3.9": [
        ("1", "almost Dedekind with the SP property",
         [("t", "almost_dedekind"), ("t", "sp")]),
        ("2", "treed spectrum and closed primes contain invertible "
              "radical closed ideals",
         [("t", "treed"), ("t", "primes_contain_invertible_radical")]),
        ("3", "prime power condition, primary inclusive, and closed "
              "primes contain invertible radical closed ideals",
         [("t", "ppc"), ("t", "primary_inclusive"),
          ("t", "primes_contain_invertible_radical")]),
        ("4", "radical closed finitely generated ideals are invertible",
         [("t", "radical_fg_invertible")]),
        ("5", "radicals of principal ideals are invertible and minimal "
              "primes of finitely generated closed ideals have height "
              "one",
         [("t", "radical_principal_invertible"),
          ("t", "min_primes_fg_height_one")]),
    ],
    "Thm3.10": [
        ("1", "Bezout with the SP property", [("t", "bezout"), ("t", "sp")]),
        ("2", "radical factorial and Bezout",
         [("t", "radical_factorial"), ("t", "bezout")]),
        ("3", "treed spectrum, closed primes contain radical elements, "
              "and the class group is trivial",
         [("t", "treed"), ("t", "primes_contain_radical_principal"),
          ("t", "class_group_trivial")]),
        ("4", "prime power condition, primary inclusive, and radicals "
              "of principal ideals are principal",
         [("t", "ppc"), ("t", "primary_inclusive"),
          ("t", "radical_principal_principal")]),
        ("5", "treed spectrum and radicals of principal ideals are "
              "principal",
         [("t", "treed"), ("t", "radical_principal_principal")]),
        ("6", "radicals of principal ideals are principal and minimal "
              "primes of finitely generated closed ideals have height "
              "one",
         [("t", "radical_principal_principal"),
          ("t", "min_primes_fg_height_one")]),
        ("7", "radical closed finitely generated ideals are principal",
         [("t", "radical_fg_principal")]),
    ],
    "Prop3.6": [
        ("1", "almost Dedekind", [("t", "almost_dedekind")]),
        ("2", "strong prime power condition and cancellative ideal "
              "multiplication",
         [("t", "strong_ppc"), ("t", "cancellative")]),
        ("3", "ideals with height-one prime radical are powers of it "
              "and powers are half-cancellative",
         _cond_powers_at_height_one),
        ("4", "treed spectrum with the strong prime power condition",
         [("t", "treed"), ("t", "strong_ppc")]),
        ("5", "strong prime power condition for a modular system",
         [("t", "strong_ppc"), ("t", "modular_system")]),
        ("6", "maximal closed primes have height one and the prime "
              "power condition holds",
         [("t", "max_eq_height_one"), ("t", "ppc")]),
        ("7", "prime power condition, principal ideal theorem, and "
              "primary inclusive",
         [("t", "ppc"), ("t", "pit"), ("t", "primary_inclusive")]),
    ],
    "Prop5.2": [
        ("1", "invertible closed ideals factor into invertible radical "
              "closed ideals",
         [("t", "invertibles_radical_factorial")]),
        ("2", "invertible closed ideals factor into radical closed "
              "ideals",
         [("t", "invertible_radical_product")]),
        ("3", "H is the intersection of its localizations at "
              "height-one primes, those are discrete valuation "
              "monoids, and radicals of invertibles are meager "
              "intersections",
         [("t", "intersection_localizations"),
          ("t", "localizations_dvm"),
          ("t", "meager_radical_intersections")]),
    ],
    "Cor5.3": [
        ("1", "almost Dedekind with the SP property",
         [("t", "almost_dedekind"), ("t", "sp")]),
        ("2", "Pruefer and invertible closed ideals factor into "
              "invertible radical closed ideals",
         [("t", "prufer"), ("t", "invertibles_radical_factorial")]),
    ],
    "Cor4.6": [
        ("1", "factorial", [("t", "factorial")]),
        ("2", "radicals of principal ideals are principal with the "
              "ascending chain condition on radical principal ideals",
         [("t", "radical_principal_principal"),
          ("t", "acc_radical_principal")]),
    ],
    "Prop5.4": [
        ("1", "principal ideals factor into pairwise comparable "
              "radical closed ideals",
         [("t", "principal_comparable_radical_product")]),
        ("2", "radicals of principal ideals are invertible",
         [("t", "radical_principal_invertible")]),
        ("3", "radicals of invertible closed ideals are invertible",
         [("t", "radical_invertible_invertible")]),
        ("4", "consensus of the invertibility conditions",
         ("via", ("2", "3", "5"))),
        ("5", "invertible closed ideals factor into pairwise "
              "comparable radical closed ideals",
         [("t", "invertible_comparable_radical_product")]),
    ],
    "Cor3.8": [
        ("1", "almost Dedekind", [("t", "almost_dedekind")]),
        ("2", "almost Dedekind for the modularization",
         [("w", "almost_dedekind")]),
        ("3", "maximal closed primes of the modularization have height "
              "one and its prime power condition holds",
         [("w", "max_eq_height_one"), ("w", "ppc")]),
        ("4", "strong prime power condition for the modularization",
         [("w", "strong_ppc")]),
        ("5", "prime power condition for the modularization and the "
              "principal ideal theorem",
         [("w", "ppc"), ("t", "pit")]),
    ],
    "Thm4.3": [
        ("A1", "almost Dedekind with the SP property",
         [("t", "almost_dedekind"), ("t", "sp")]),
        ("A2", "maximal closed primes are the t-maximal ones and "
               "radicals of principal ideals are invertible",
         [("t", "max_eq_t_max"), ("t", "radical_principal_invertible")]),
        ("A3", "SP property for the modularization", [("w", "sp")]),
        ("B1", "Bezout with the SP property", [("t", "bezout"), ("t", "sp")]),
        ("B2", "radicals of principal ideals are principal",
         [("t", "radical_principal_principal")]),
        ("B3", "Bezout with the SP property for the modularization",
         [("w", "bezout"), ("w", "sp")]),
    ],
}


def suite_names() -> tuple:
    return tuple(SUITES)


def suite_battery(H: MonoidModel, radius: int = 8, names=None) -> dict:
    """Run several suites over one model.

    Returns {suite name: TfaeReport} in the order given (all suites when
    names is None).  Verdicts and views live in the model's memo, so
    lattice and localization work runs once across suites.
    """
    names = tuple(SUITES) if names is None else tuple(names)
    return {name: tfae_suite(H, name, radius) for name in names}


def tfae_suite(H: MonoidModel, suite: str, radius: int = 8) -> TfaeReport:
    """Evaluate one equivalence suite; raises UncertifiedModel on models
    without a certified spectrum."""
    primes(H)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of "
                         f"{', '.join(SUITES)}")
    conds: list = []
    deferred: list = []
    for cid, text, body in SUITES[suite]:
        if isinstance(body, tuple) and body and body[0] == "via":
            deferred.append((len(conds), cid, text, body[1]))
            conds.append(None)
            continue
        v = body(H, radius) if callable(body) \
            else _eval_conjunction(H, radius, body)
        conds.append(Condition(**vars(v), cid=cid, text=text))
    for pos, cid, text, deps in deferred:
        got = {c.cid: c.verdict for c in conds if c is not None}
        vals = {got[d] for d in deps}
        verdict = vals.pop() if len(vals) == 1 else UNKNOWN
        conds[pos] = Condition(verdict=verdict, note="via-equivalents",
                               cid=cid, text=text)
    note = _post_cor38(H, radius, conds) if suite == "Cor3.8" else ""
    pools: dict = {}
    for c in conds:
        pools.setdefault(c.group, set()).add(c.verdict)
    agreement = all(len(s) == 1 for s in pools.values())
    return TfaeReport(suite=suite, monoid=H.name, radius=radius,
                      conditions=tuple(conds), agreement=agreement,
                      note=note)


# --------------------------------------------------------------------------
# public evaluation surface

GLOBAL_PROPS = (
    "acc_radical_principal",
    "dvm",
    "factorial",
    "pit",
    "radical_factorial",
    "valuation",
)

MATRIX_PROPS = tuple(sorted(set(_REGISTRY) - set(GLOBAL_PROPS)))


def evaluate(H: MonoidModel, sys, prop: str, radius: int = 8) -> PropertyVerdict:
    """Decide one property; ``sys`` is a System or a system token, ``prop``
    accepts aliases like ``t_SP`` or ``aD``."""
    primes(H)
    if isinstance(sys, str):
        sys = system(sys, H)
    name = _canon(prop)
    v = PropertyContext(sys, radius).prop(name)
    return PropertyVerdict(**vars(v), monoid=H.name, system=sys.label,
                           prop=name, radius=radius)


def classify(H: MonoidModel, radius: int = 8) -> dict:
    """Full report: property matrix over s, w, t, the element-wise globals,
    all suites, and a spectrum summary."""
    try:
        primes(H)
    except UncertifiedModel as exc:
        return {"monoid": H.name, "certified": False, "radius": radius,
                "note": str(exc)}
    systems_out = {}
    for lbl in ("s", "w", "t"):
        ctx = PropertyContext(system(lbl, H), radius)
        systems_out[lbl] = {p: _vjson(ctx.prop(p)) for p in MATRIX_PROPS}
    t_ctx = PropertyContext(system("t", H), radius)
    glob = {p: _vjson(t_ctx.prop(p)) for p in GLOBAL_PROPS}
    suites = {name: tfae_suite(H, name, radius).to_json() for name in SUITES}
    return {
        "monoid": H.name,
        "certified": True,
        "radius": radius,
        "systems": systems_out,
        "global": glob,
        "suites": suites,
        "spectrum": spectrum_json(t_ctx.sys),
    }
