"""Factorization in the invertible-ideal monoid.

Invertibility and divisibility tests, radical factorization of principal
ideals (greedy peel by the radical's generator), SP factorization of closed
ideals and meager-set factorization of invertible ideals (one peel loop,
two step functions), the radical closed ideals as meets of closed primes,
support witnesses, and a bounded class-group probe.

Everything here returns either a FactorChain (with reassembly re-checked at
construction time) or a Failure carrying the offending ideal, so callers can
cross-reference counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice

from . import _kernel as K
from .ideals import (
    Ideal,
    ideal_eq,
    ideal_intersect,
    ideal_subset,
    ideal_sum,
    inverse,
    principal,
    radical,
    unit_ideal,
)
from .monoid import MonoidModel, memoised
from .spectrum import height_one
from .systems import (System, close, closed_faces, closed_ideals,
                      power_close, system)

# The longest chain radical_factor_principal, sp_factor and meager_factor
# build, and the deepest closed power a depth scan looks at; past it chains
# report Failure("BoundExceeded").
_CHAIN_BUDGET = 1024

# The most antichains of closed primes radical_closed_ideals walks: above
# the 7,579 of the s-system on a free monoid of rank 5, far below the
# 7,828,354 of rank 6.
_ANTICHAIN_BUDGET = 10_000


class PreconditionFailed(ValueError):
    """An operation's hypothesis does not hold for the given input."""

    def __init__(self, message: str, witness: Ideal | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Failure:
    """A factorization that cannot be completed, with the ideal that blocks it.

    reason is one of NonPrincipalRadical, BoundExceeded, RadicalNotInvertible,
    NoMeagerSet.
    """

    reason: str
    witness: Ideal | None = None

    @property
    def ok(self) -> bool:
        return False

    def to_json(self):
        out = {"failure": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class FactorChain:
    system: System
    target: Ideal
    factors: tuple[Ideal, ...]
    comparable: bool

    @property
    def ok(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.factors)

    def to_json(self):
        return {
            "system": self.system.label,
            "target": self.target.to_json(),
            "factors": [f.to_json() for f in self.factors],
            "comparable": self.comparable,
        }


def _chain(sys: System, target: Ideal, factors, require_comparable: bool) -> FactorChain:
    factors = tuple(factors)
    for f in factors:
        if not ideal_eq(radical(f), f):
            raise AssertionError(f"non-radical factor {f!r} in chain")
    comparable = all(
        ideal_subset(factors[i], factors[i + 1]) for i in range(len(factors) - 1)
    )
    if require_comparable and not comparable:
        raise AssertionError("factor chain is not comparable")
    if factors:
        product = close(sys, reduce(ideal_sum, factors))
    else:
        product = unit_ideal(sys.monoid)
    if not ideal_eq(product, target):
        raise AssertionError(
            f"chain does not reassemble: product {product.gens} != target {target.gens}"
        )
    return FactorChain(sys, target, factors, comparable)


def _require_closed(I: Ideal, sys: System, what: str) -> None:
    if I.monoid is not sys.monoid:
        raise ValueError(f"{what}: ideal and system live on different monoids")
    if not ideal_eq(close(sys, I), I):
        raise ValueError(f"{what}: ideal {I.gens} is not closed under {sys.label}")


def is_invertible(I: Ideal, sys: System) -> bool:
    """Whether close(sys, I + I^-1) is the unit ideal.

    I must be a nonempty sys-closed ideal; a principal g + H is invertible
    with no closure, as (g + H) + (-g + H) = H.
    """
    if I.is_empty:
        raise ValueError("is_invertible: empty ideal")
    _require_closed(I, sys, "is_invertible")
    if I.is_principal:
        return True
    return memoised(sys, ("invertible", I.gens), lambda: ideal_eq(
        close(sys, ideal_sum(I, inverse(I))), unit_ideal(sys.monoid)))


def cofactor(I: Ideal, J: Ideal, sys: System) -> Ideal:
    """The ideal B with close(sys, B + I) = J, valid when I divides J.

    This is close(sys, J + I^-1); tests play it against divides_in_invertibles.
    """
    return close(sys, ideal_sum(J, inverse(I)))


def divides_in_invertibles(I: Ideal, J: Ideal, sys: System) -> bool:
    """Divisibility of J by I inside the monoid of invertible closed ideals.

    Divisibility there is plain containment J subseteq I; both arguments must
    be invertible.
    """
    if not is_invertible(I, sys) or not is_invertible(J, sys):
        raise ValueError("divides_in_invertibles: non-invertible input")
    return ideal_subset(J, I)


def is_radical_in_invertibles(I: Ideal, sys: System) -> bool:
    """Radicality of an invertible ideal, as an element of the ideal monoid.

    Coincides with radical(I) = I; the element-wise divisor characterization
    is exercised separately by the tests.
    """
    if not is_invertible(I, sys):
        raise ValueError("is_radical_in_invertibles: non-invertible input")
    return ideal_eq(radical(I), I)


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _is_unit(H: MonoidModel, x) -> bool:
    return all(x[i] == 0 for i in H.counting)


def radical_factor_principal(H: MonoidModel, x) -> FactorChain | Failure:
    """Factor x + H into radical principal ideals by peeling radicals.

    The radical of x + H is principal exactly when every counting coordinate
    in the support of x has one atom, so is free.  It is then generated by
    the support's indicator, and what is left after peeling it off has a
    principal radical again, so every radical met is s-invertible: the
    chain is sp_factor's s-peel.  It has as many factors as the largest
    counting coordinate of x, the k-th generated by the indicator of the
    coordinates where x is at least k; past _CHAIN_BUDGET factors it ends
    as Failure("BoundExceeded").
    """
    x = tuple(int(c) for c in x)
    if not H.contains(x):
        raise ValueError(f"radical_factor_principal: {x} is not in {H.name}")
    target = principal(H, x)
    rad = radical(target)
    if not rad.is_principal:
        return Failure("NonPrincipalRadical", witness=rad)
    return _peel(target, system("s", H), _sp_step, require_comparable=True)


def _peel(I: Ideal, sys: System, step,
          require_comparable: bool) -> FactorChain | Failure:
    """Factor I by peeling until H is left: ``step(cur, sys)`` returns the
    factors it peels off ``cur`` and what is left, or a Failure, which ends
    the chain.  A step that would take the chain past _CHAIN_BUDGET factors
    gives Failure("BoundExceeded") with what is left before it; a step that
    leaves ``cur`` as it was raises."""
    unit = unit_ideal(sys.monoid)
    cur = I
    factors: list[Ideal] = []
    while not ideal_eq(cur, unit):
        got = step(cur, sys)
        if isinstance(got, Failure):
            return got
        peeled, nxt = got
        if len(factors) + len(peeled) > _CHAIN_BUDGET:
            return Failure("BoundExceeded", witness=cur)
        if ideal_eq(nxt, cur):
            raise AssertionError("peel did not advance")
        factors.extend(peeled)
        cur = nxt
    return _chain(sys, I, factors, require_comparable)


def _sp_step(cur: Ideal, sys: System):
    """Peel the radical R of cur: the cofactor is close(sys, cur + R^-1)."""
    rad = radical(cur)
    if not ideal_eq(close(sys, rad), rad) or not is_invertible(rad, sys):
        return Failure("RadicalNotInvertible", witness=rad)
    return (rad,), cofactor(rad, cur, sys)


def sp_factor(I: Ideal, sys: System) -> FactorChain | Failure:
    """Factor a closed ideal into a comparable chain of radical closed ideals.

    Peels the radical off the front (``_sp_step``).  Fails when some
    radical along the way is not an invertible ideal of the system
    (including not being closed at all), or when the chain would grow past
    _CHAIN_BUDGET.
    """
    if I.is_empty:
        raise ValueError("sp_factor: empty ideal")
    _require_closed(I, sys, "sp_factor")
    return _peel(I, sys, _sp_step, require_comparable=True)


@dataclass(frozen=True)
class MeagerVerdict:
    """Per-prime bookkeeping for the meager-set condition.

    rows hold (face, k_P, contained): k_P members of the candidate set lie
    inside the height-one prime with that face, and the target must sit inside
    the k_P-th closed power of the prime.
    """

    meager: bool
    rows: tuple[tuple[tuple[int, ...], int, bool], ...]

    def __bool__(self) -> bool:
        return self.meager


def meager_check(members, I: Ideal, sys: System) -> MeagerVerdict:
    members = tuple(members)
    for J in members:
        _require_closed(J, sys, "meager_check")
    _require_closed(I, sys, "meager_check")
    rows = []
    ok = True
    for P in height_one(sys.monoid):
        k = sum(1 for J in members if ideal_subset(J, P.ideal))
        contained = k == 0 or ideal_subset(I, power_close(sys, P.ideal, k))
        rows.append((tuple(sorted(P.face)), k, contained))
        ok = ok and contained
    return MeagerVerdict(ok, tuple(rows))


def radical_closed_ideals(sys: System) -> tuple[Ideal, ...]:
    """All proper radical sys-closed ideals, sorted by generators: the meets
    of the nonempty antichains of closed primes (``docs/exactness.md``,
    "Radical closed ideals from closed primes").  A meet folds from H, the
    cell of the empty support, one prime P_F at a time: a cell C_S stays
    when S leaves the face F and otherwise becomes the cells C_{S+i}, i off
    F; ``cells_gens`` keeps the minimal generators.

    Raises BudgetExceeded when there are more than _ANTICHAIN_BUDGET
    antichains; the walk stops there, before any meet.  The result, or the
    BudgetExceeded, is memoised."""
    return memoised(sys, "radical_closed", lambda: _radical_closed(sys))


def _radical_closed(sys: System):
    """radical_closed_ideals' list."""
    H = sys.monoid
    families = list(islice(_antichains(closed_faces(sys), [], 0),
                           _ANTICHAIN_BUDGET + 1))
    if len(families) > _ANTICHAIN_BUDGET:
        raise K.BudgetExceeded(
            f"{sys.label}-radical closed ideals: more than "
            f"{_ANTICHAIN_BUDGET} antichains of closed primes")

    def meet(supports, F):
        return {S | {i} if S <= F else S
                for S in supports for i in H.counting if i not in F}

    return tuple(sorted(
        (Ideal(H, K.cells_gens(H.pack, reduce(meet, fam, [frozenset()])))
         for fam in families),
        key=lambda J: J.gens))


def _antichains(sets, chosen, start):
    """Every nonempty antichain of the distinct sets in ``sets`` that
    extends ``chosen`` by sets at index ``start`` or later, once each: a set
    comparable with one already chosen is skipped."""
    for k in range(start, len(sets)):
        S = sets[k]
        if any(S <= T or T <= S for T in chosen):
            continue
        chosen.append(S)
        yield tuple(chosen)
        yield from _antichains(sets, chosen, k + 1)
        chosen.pop()


def invertible_radicals(sys: System) -> tuple[Ideal, ...]:
    """The invertible members of radical_closed_ideals(sys), in its order.
    Where sys closes as s they are the principal ones (``docs/exactness.md``,
    "Invertible radicals under s")."""
    under_s = sys.op == "s"
    return memoised(sys, "invertible_radicals", lambda: tuple(
        J for J in radical_closed_ideals(sys)
        if (J.is_principal if under_s else is_invertible(J, sys))))


def power_depth(I: Ideal, R: Ideal, sys: System) -> int:
    """The largest k <= _CHAIN_BUDGET with I inside (R^k)_sys.  A chain of
    k factors below R needs depth k, so the budget that bounds chains
    bounds the scan."""
    k = 0
    while k < _CHAIN_BUDGET and ideal_subset(I, power_close(sys, R, k + 1)):
        k += 1
    return k


def meager_family(I: Ideal, sys: System, max_size: int):
    """The first family of at most max_size invertible radical closed ideals,
    by size and then in their order, that meets in radical(I) and is meager
    for I; None when there is none.  A meet lies inside each member, so
    only the ideals that contain radical(I) are combined; they keep their
    order, and so the first family is the same."""
    rad = radical(I)
    universe = [J for J in invertible_radicals(sys) if ideal_subset(rad, J)]
    for size in range(1, min(max_size, len(universe)) + 1):
        for combo in combinations(universe, size):
            meet = reduce(ideal_intersect, combo)
            if ideal_eq(meet, rad) and meager_check(combo, I, sys).meager:
                return combo
    return None


def _meager_step(cur: Ideal, sys: System):
    """Peel a meager family of at most three members off cur."""
    omega = meager_family(cur, sys, 3)
    if omega is None:
        return Failure("NoMeagerSet", witness=radical(cur))
    for J in omega:
        cur = cofactor(J, cur, sys)
    return omega, cur


def meager_factor(I: Ideal, sys: System) -> FactorChain | Failure:
    """Factor an invertible ideal by repeatedly peeling a meager set.

    At each step the radical of the current ideal must be an intersection of
    at most three invertible radical closed ideals forming a meager set for
    it (``_meager_step``).  Each peel strictly lowers the largest power
    depth at a height-one prime (``docs/exactness.md``, "One peel loop"),
    so the chain ends; past _CHAIN_BUDGET factors it ends as
    Failure("BoundExceeded").
    """
    if not is_invertible(I, sys):
        raise ValueError("meager_factor: input must be invertible")
    return _peel(I, sys, _meager_step, require_comparable=False)


def _radical_gen(H: MonoidModel, x) -> tuple[int, ...]:
    rad = radical(principal(H, x))
    if not rad.is_principal:
        raise PreconditionFailed(
            f"radical of {x} + H is not principal", witness=rad
        )
    return rad.gens[0]


def support_witness(I: Ideal):
    """A single element lying in exactly the height-one primes containing I.

    Requires radicals of principal ideals to be principal, which on these
    models means every counting coordinate has a single atom; that is checked
    up front.  The witness is folded pairwise over the generators: with
    a = gen(rad(x+y+H)), b = gen(rad(x+H)), c = gen(rad(y+H)) and
    d = gen(rad((a-b)+H) meet rad((a-c)+H)), the pair's witness is a - d.
    """
    H = I.monoid
    for i in H.counting:
        if len(H.coords[i].atoms) != 1:
            raise PreconditionFailed(
                f"coordinate {i} has a non-principal prime cell",
                witness=Ideal(H, K.cells_gens(H.pack, [(i,)])),
            )
    if I.is_empty:
        raise ValueError("support_witness: empty ideal")

    def pair(x, y):
        a = _radical_gen(H, tuple(p + q for p, q in zip(x, y)))
        b = _radical_gen(H, x)
        c = _radical_gen(H, y)
        meet = ideal_intersect(
            radical(principal(H, _vec_sub(a, b))),
            radical(principal(H, _vec_sub(a, c))),
        )
        if not meet.is_principal:
            raise PreconditionFailed(
                "intersection of radicals is not principal", witness=meet
            )
        return _vec_sub(a, meet.gens[0])

    gens = I.gens
    wit = gens[0]
    for y in gens[1:]:
        wit = pair(wit, y)
    wit = _radical_gen(H, wit) if not _is_unit(H, wit) else (0,) * H.dim

    over_ideal = {P.face for P in height_one(H) if P.contains(I)}
    over_wit = {P.face for P in height_one(H) if P.ideal.contains_vec(wit)}
    if over_ideal != over_wit:
        raise AssertionError(
            f"support witness {wit} has primes {sorted(map(sorted, over_wit))}, "
            f"ideal has {sorted(map(sorted, over_ideal))}"
        )
    return wit


@dataclass(frozen=True)
class ClassGroupProbe:
    """Evidence about the class group gathered from a box enumeration.

    trivial means no non-principal invertible ideal was found within the
    radius; torsion lists non-principal invertibles whose k-th closed power
    is principal for some k up to the cap.
    """

    monoid: str
    system: str
    radius: int
    invertible_count: int
    principal_count: int
    nonprincipal: tuple[Ideal, ...]
    torsion: tuple[tuple[Ideal, int], ...]
    cap: int

    @property
    def trivial(self) -> bool:
        return not self.nonprincipal

    def to_json(self):
        return {
            "monoid": self.monoid,
            "system": self.system,
            "radius": self.radius,
            "invertible_count": self.invertible_count,
            "principal_count": self.principal_count,
            "trivial_within_radius": self.trivial,
            "nonprincipal": [J.to_json() for J in self.nonprincipal],
            "torsion": [
                {"ideal": J.to_json(), "k": k} for J, k in self.torsion
            ],
            "torsion_cap": self.cap,
        }


def class_group_probe(sys: System, radius: int, cap: int = 4) -> ClassGroupProbe:
    """Enumerate closed invertible ideals in the box; report (non)principality
    and bounded torsion.  The class group itself is never materialized."""
    invertible = []
    for I in closed_ideals(sys, radius):
        if I.is_empty:
            continue
        if is_invertible(I, sys):
            invertible.append(I)
    nonprincipal = tuple(I for I in invertible if not I.is_principal)
    torsion = []
    for J in nonprincipal:
        for k in range(2, cap + 1):
            if power_close(sys, J, k).is_principal:
                torsion.append((J, k))
                break
    return ClassGroupProbe(
        monoid=sys.monoid.name,
        system=sys.label,
        radius=radius,
        invertible_count=len(invertible),
        principal_count=len(invertible) - len(nonprincipal),
        nonprincipal=nonprincipal,
        torsion=tuple(torsion),
        cap=cap,
    )
