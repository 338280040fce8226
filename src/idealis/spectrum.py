"""Prime s-ideals of product models via the face correspondence.

Every prime s-ideal of a product model is P_F = {x in H : supp(x) not a
subset of F} for a face F, a subset of the counting coordinates omitting at
least one of them (group coordinates are divisor-closed, hence in every
face).  The poset is therefore finite and everything downstream (heights,
minimal primes, r-max) is exact.  The tests re-check primality on boxes
(``test_spectrum.py::test_primality_on_boxes``), maximality of the r-max
primes (``test_r_max_is_maximal_on_boxes``) and the DVM verdict against a
pair sweep (``test_is_dvm_matches_pair_sweep_oracle``).
"""

from dataclasses import dataclass

from .ideals import Ideal, ideal_subset
from .monoid import MonoidModel, memoised
from .systems import (System, _prime_gens, closed_faces, proper_faces,
                      r_max_faces)


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


def primes(H: MonoidModel) -> Spectrum:
    """All prime s-ideals.  The height of P_F is the number of counting
    coordinates off F (``docs/exactness.md``, "The face correspondence")."""
    _check_certified(H)

    def build():
        n = len(H.counting)
        return Spectrum(H, tuple(
            PrimeIdeal(H, face, Ideal(H, _prime_gens(H, face)), n - len(face))
            for face in sorted(proper_faces(H),
                               key=lambda f: (n - len(f), tuple(sorted(f))))))

    return memoised(H, "spectrum", build)


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
    """Maximal sys-closed primes, one per face of ``r_max_faces``.
    ``test_r_max_is_maximal_on_boxes`` checks that adding any box member
    outside one of them closes to H."""
    spec = primes(H)
    return [spec.by_face(f) for f in r_max_faces(sys)]


def is_dvm(H: MonoidModel) -> str:
    """"true" / "false" / "not-applicable" (the H = G case).

    True exactly when the unique maximal ideal has height one and is
    principal, which on a product of lines means H = N x Z^m
    (``docs/exactness.md``).  ``test_is_dvm_matches_pair_sweep_oracle``
    checks the verdict against a sweep over box pairs.  The verdict is
    memoised on H.
    """
    _check_certified(H)
    return memoised(H, "dvm", lambda: _dvm_verdict(H))


def _dvm_verdict(H: MonoidModel) -> str:
    if H.is_group:
        return "not-applicable"
    M = primes(H).by_face(frozenset())
    return "true" if M.height == 1 and M.ideal.is_principal else "false"


def spectrum_json(H: MonoidModel, sys: System) -> dict:
    """The report shape: faces, heights, closure and maximality flags."""
    spec = primes(H)
    closed = set(closed_faces(sys))
    max_faces = set(r_max_faces(sys))
    rows = []
    for P in spec.primes:
        rows.append({
            "face": sorted(P.face),
            "height": P.height,
            f"{sys.label}_ideal": P.face in closed,
            f"{sys.label}_max": P.face in max_faces,
        })
    return {"primes": rows}
