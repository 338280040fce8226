"""Prime s-ideals of product models via the face correspondence.

Every prime s-ideal of a product model is P_F = {x in H : supp(x) not a
subset of F} for a face F, a subset of the counting coordinates omitting at
least one of them (group coordinates are divisor-closed, hence in every
face).  The poset is therefore finite and everything downstream (heights,
minimal primes, r-max) is exact.  Primality of each constructed ideal is
still re-verified on a small box; that check is a tripwire, not a proof.
"""

from dataclasses import dataclass

from . import _kernel as K
from .ideals import Ideal, ideal_from, ideal_subset, unit_ideal
from .monoid import MonoidModel
from .systems import System, _prime_gens, close, proper_faces, r_max_faces


class UncertifiedModel(Exception):
    """Raised when an exact computation is requested of an affine model."""


@dataclass(frozen=True, eq=False)
class PrimeIdeal:
    monoid: MonoidModel
    face: frozenset
    ideal: Ideal
    height: int

    def __repr__(self):
        return f"PrimeIdeal(face={sorted(self.face)}, ht={self.height})"

    def contains(self, I: Ideal) -> bool:
        return ideal_subset(I, self.ideal)


@dataclass(frozen=True, eq=False)
class Spectrum:
    monoid: MonoidModel
    primes: tuple

    def by_face(self, face) -> PrimeIdeal:
        face = frozenset(face)
        for P in self.primes:
            if P.face == face:
                return P
        raise KeyError(f"no prime with face {sorted(face)}")


def _check_certified(H: MonoidModel):
    if not H.certified:
        raise UncertifiedModel(
            f"{H.name}: exact spectrum needs a certified product model")


_PRIMALITY_RADIUS = 3


def primes(H: MonoidModel) -> Spectrum:
    """All prime s-ideals, heights by chain search in the finite poset."""
    _check_certified(H)
    got = H.memo.get("spectrum")
    if got is not None:
        return got
    faces = proper_faces(H)
    ideals = {face: Ideal(H, _prime_gens(H, face)) for face in faces}
    box = H.enumerate(_PRIMALITY_RADIUS)
    for face, P in ideals.items():
        bad = K.primary_violation(H.pack, box, P.gens, P.gens)
        if bad is not None:
            raise AssertionError(f"face {sorted(face)} is not prime: {bad}")
    # Longest chains, largest faces (smallest primes) first.
    heights = {}
    for face in sorted(faces, key=len, reverse=True):
        below = [heights[g] for g in faces if face < g]
        heights[face] = 1 + max(below, default=0)
    ordered = tuple(
        PrimeIdeal(H, face, ideals[face], heights[face])
        for face in sorted(faces, key=lambda f: (heights[f], tuple(sorted(f)))))
    spec = H.memo["spectrum"] = Spectrum(H, ordered)
    return spec


def height_one(H: MonoidModel):
    """The minimal nonempty primes (the paper's height-one set)."""
    return [P for P in primes(H).primes if P.height == 1]


def minimal_primes_over(I: Ideal):
    """Minimal elements of {P prime : I inside P}."""
    if I.is_empty:
        raise ValueError("minimal primes over the empty ideal")
    over = [P for P in primes(I.monoid).primes if P.contains(I)]
    return [P for P in over
            if not any(Q.face > P.face for Q in over)]


def r_max(H: MonoidModel, sys: System):
    """Maximal sys-closed primes, with a box check that nothing closed
    sits strictly above a candidate."""
    faces = r_max_faces(H, sys)
    spec = primes(H)
    out = [spec.by_face(f) for f in faces]
    if not sys._cache.get("r_max_verified"):
        one = unit_ideal(H)
        for M in out:
            for x in H.enumerate(_PRIMALITY_RADIUS):
                if M.ideal.contains_vec(x):
                    continue
                grown = close(sys, ideal_from(M.ideal.gens + (x,), H))
                if grown.gens != one.gens:
                    raise AssertionError(
                        f"{sys.label}-closed ideal above face "
                        f"{sorted(M.face)} via {x}")
        sys._cache["r_max_verified"] = True
    return out


def is_dvm(H: MonoidModel, radius: int = 4) -> str:
    """"true" / "false" / "not-applicable" (the H = G case).

    True needs: unique maximal ideal of height one, principal; the box
    cross-check then confirms every ideal with generators in the box is
    principal.  The sweep is quadratic in the box, so the verdict is
    memoised on H per radius.
    """
    _check_certified(H)
    key = ("dvm", radius)
    got = H.memo.get(key)
    if got is None:
        got = H.memo[key] = _dvm_verdict(H, radius)
    return got


def _dvm_verdict(H: MonoidModel, radius: int) -> str:
    if H.is_group:
        return "not-applicable"
    M = primes(H).by_face(frozenset())
    if M.height != 1 or not M.ideal.is_principal:
        return "false"
    # One counting coordinate generated by 1: verify principality anyway.
    for a in H.enumerate(radius):
        for b in H.enumerate(radius):
            if not ideal_from([a, b], H).is_principal:
                return "false"
    return "true"


def spectrum_json(H: MonoidModel, sys: System) -> dict:
    """The report shape: faces, heights, closure and maximality flags."""
    spec = primes(H)
    max_faces = set(r_max_faces(H, sys))
    rows = []
    for P in spec.primes:
        rows.append({
            "face": sorted(P.face),
            "height": P.height,
            f"{sys.label}_ideal": close(sys, P.ideal).gens == P.ideal.gens,
            f"{sys.label}_max": P.face in max_faces,
        })
    return {"primes": rows}
