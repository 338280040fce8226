"""Finitely generated s-ideals and fractional H-modules.

An ``Ideal`` is the module X + H generated by a finite set inside the
quotient group; ``kind`` distinguishes integral ideals (generators in H)
from general fractional modules.  Generators are canonical: group
coordinates are zeroed (adding a unit does not move the module), dominated
generators are dropped, and the survivors are sorted lexicographically.
The empty generator set denotes the empty ideal, fixed by every closure.
"""

from dataclasses import dataclass
from operator import add, mul

from . import _kernel as K
from .monoid import MAX_COORD, MonoidModel


@dataclass(frozen=True, eq=False, slots=True)
class Ideal:
    monoid: MonoidModel
    gens: tuple

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.monoid is other.monoid
                and self.gens == other.gens)

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"Ideal({self.monoid.name}, {list(self.gens)})"

    @property
    def kind(self) -> str:
        if all(self.monoid.contains(g) for g in self.gens):
            return "integral"
        return "fractional"

    @property
    def is_empty(self) -> bool:
        return not self.gens

    @property
    def is_principal(self) -> bool:
        return len(self.gens) <= 1

    def contains_vec(self, g) -> bool:
        return K.divisible_any(self.monoid.pack, tuple(g), self.gens)

    def members(self, radius: int):
        """Members of the ideal within the enumeration box of the monoid."""
        return [v for v in self.monoid.enumerate(radius) if self.contains_vec(v)]

    def to_json(self):
        return {"gens": [list(g) for g in self.gens], "kind": self.kind}


def _canonical(H: MonoidModel, gens) -> tuple:
    dim = H.dim
    normed = []
    for g in gens:
        g = tuple(g)
        if len(g) != dim:
            raise ValueError(f"generator {g} has dimension {len(g)} != {dim}")
        if max(map(abs, g)) >= MAX_COORD:
            raise ValueError(f"generator {g} exceeds the coordinate bound")
        normed.append(g)
    return _reduce(H, normed)


def _reduce(H: MonoidModel, gens) -> tuple:
    """Zero the group coordinates and canonicalise; no validation."""
    keep = H.counting_mask
    if 0 in keep:
        gens = [tuple(map(mul, keep, g)) for g in gens]
    return K.reduce_gens(H.pack, tuple(gens))


def ideal_from(gens, H: MonoidModel) -> Ideal:
    """The s-ideal (or fractional module) generated by a finite set."""
    return Ideal(H, _canonical(H, gens))


def _trusted_ideal(gens, H: MonoidModel) -> Ideal:
    """``ideal_from`` for internal callers whose generators are already
    int tuples of the model's dimension inside the coordinate bound (box
    samples, say).  Nothing is re-validated."""
    return Ideal(H, _reduce(H, gens))


def principal(H: MonoidModel, g) -> Ideal:
    return ideal_from([g], H)


def unit_ideal(H: MonoidModel) -> Ideal:
    return ideal_from([(0,) * H.dim], H)


def empty_ideal(H: MonoidModel) -> Ideal:
    return Ideal(H, ())


def _same(I: Ideal, J: Ideal):
    if I.monoid is not J.monoid:
        raise ValueError("ideals belong to different monoids")
    return I.monoid


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    H = _same(I, J)
    return Ideal(H, K.sum_gens(H.pack, I.gens, J.gens))


def ideal_power(I: Ideal, k: int) -> Ideal:
    """k-fold Minkowski sum; k = 0 gives H."""
    if k < 0:
        raise ValueError("negative power")
    out = unit_ideal(I.monoid)
    for _ in range(k):
        out = ideal_sum(out, I)
    return out


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    H = _same(I, J)
    return Ideal(H, K.intersect_gens(H.pack, I.gens, J.gens))


def ideal_union(I: Ideal, J: Ideal) -> Ideal:
    """The s-ideal generated by the set union (the modular-law 'I u J')."""
    H = _same(I, J)
    return Ideal(H, K.reduce_gens(H.pack, I.gens + J.gens))


def inverse(X: Ideal) -> Ideal:
    """X^{-1} = {z in G : z + X subset of H}."""
    if X.is_empty:
        raise ValueError("the empty ideal has no finitely generated inverse")
    return Ideal(X.monoid, K.inverse_gens(X.monoid.pack, X.gens))


def radical(I: Ideal) -> Ideal:
    """Support-criterion radical; integral input only."""
    if I.kind != "integral":
        raise ValueError("radical of a fractional module")
    return Ideal(I.monoid, K.radical_gens(I.monoid.pack, I.gens))


def ideal_subset(I: Ideal, J: Ideal) -> bool:
    H = _same(I, J)
    return all(K.divisible_any(H.pack, g, J.gens) for g in I.gens)


def ideal_eq(I: Ideal, J: Ideal) -> bool:
    _same(I, J)
    return I.gens == J.gens


def _translate(I: Ideal, c) -> Ideal:
    """Translate by c: the module c + I.  For internal callers whose c is
    an int tuple of the model's dimension that keeps every translated
    generator inside the coordinate bound (a box member moving a closure
    of box samples, say); nothing is validated.

    Translation keeps divisibility and lexicographic order, so once the
    group coordinates are zeroed again the translated generators of a
    canonical ideal are canonical as they stand.
    """
    H = I.monoid
    keep = H.counting_mask
    if 0 in keep:
        return Ideal(H, tuple([tuple(map(mul, keep, map(add, c, g)))
                               for g in I.gens]))
    return Ideal(H, tuple([tuple(map(add, c, g)) for g in I.gens]))
