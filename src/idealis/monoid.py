"""Monoid models: finite products of one-dimensional coordinates.

A model lives inside its quotient group G = Z^d, written additively.  Each
coordinate is a numerical semigroup (generator gcd 1), a free coordinate N,
or a group coordinate Z.  Products of these are closed under localization at
primes, which is what makes the downstream closure and spectrum computations
exact.

An experimental ``affine`` kind keeps a raw generator list and decides
membership by bounded search; models of that kind are flagged uncertified
and the theorem suites refuse them.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import gcd

from . import _kernel as K

MAX_DIM = 16
# Kernel arithmetic is done in 64-bit; two coordinate additions must not wrap.
MAX_COORD = 1 << 40


@dataclass(frozen=True)
class Coordinate:
    """One axis of a product model, with its membership data precomputed."""

    kind: str                     # "numerical" | "free" | "group"
    gens: tuple[int, ...]         # defining generators (numerical only)
    conductor: int                # least c with [c, oo) contained
    frobenius: int                # largest gap, -1 when there is none
    n1: int                       # least nonzero member
    table: bytes                  # membership below the conductor
    atoms: tuple[int, ...]        # irreducible members, () for a group

    def member(self, x: int) -> bool:
        if self.kind == "group":
            return True
        if x < 0:
            return False
        return x >= self.conductor or self.table[x] == 1


def _numerical(gens: tuple[int, ...]) -> Coordinate:
    g = tuple(sorted(set(gens)))
    if not g or g[0] <= 0:
        raise ValueError(f"numerical generators must be positive, got {gens}")
    acc = 0
    for x in g:
        acc = gcd(acc, x)
    if acc != 1:
        raise ValueError(f"numerical generators must have gcd 1, got {gens}")
    n1 = g[0]
    # Sieve far enough to see n1 consecutive members; a run of that length
    # certifies the conductor (shift the run by multiples of n1).
    cap = g[0] * (g[1] if len(g) > 1 else 1) + n1 + 1
    member = bytearray(cap + 1)
    member[0] = 1
    for x in range(1, cap + 1):
        for a in g:
            if x >= a and member[x - a]:
                member[x] = 1
                break
    run = 0
    conductor = -1
    for x in range(cap + 1):
        run = run + 1 if member[x] else 0
        if run == n1:
            conductor = x - n1 + 1
            break
    if conductor < 0:
        raise AssertionError(f"sieve cap {cap} too small for {gens}")
    # Atoms lie in [1, conductor + n1]: anything larger is n1 plus a nonzero
    # member.  The endpoint matters (n1 itself when the conductor is 0).
    atoms = tuple(
        x for x in range(1, conductor + n1 + 1)
        if member[x] and not any(
            member[x - y] for y in range(1, x) if member[y]))
    kind = "free" if conductor == 0 else "numerical"
    return Coordinate(kind, g, conductor, conductor - 1, n1,
                      bytes(member[:conductor]), atoms)


_FREE = _numerical((1,))
_GROUP = Coordinate("group", (), 0, -1, 1, b"", ())


class MonoidModel:
    """Immutable monoid description.

    Identity semantics: two models are distinct objects even if isomorphic,
    and ideals are tied to their model by reference.

    Everything derived from the model lives in the plain dict ``memo``, or
    is reached only through it: its ideal systems (each with its closure
    cache), its spectrum, its localizations, membership of affine vectors
    and the verdicts memoised on it.  The memo dies with the model, and
    ``memo.clear()`` drops it early.  Only the coordinate data itself
    (``counting``, ``counting_mask``, ``pack``) is cached as attributes.
    """

    def __init__(self, name, coords=(), affine_gens=None):
        self.name = name
        self.coords = tuple(coords)
        self.affine_gens = None if affine_gens is None else tuple(
            tuple(v) for v in affine_gens)
        if self.affine_gens is not None:
            if self.coords:
                raise ValueError("affine models take no coordinate list")
            dims = {len(v) for v in self.affine_gens}
            if len(dims) != 1:
                raise ValueError("affine generators of mixed dimension")
            self._dim = dims.pop()
            for v in self.affine_gens:
                if all(x == 0 for x in v):
                    raise ValueError("affine generator 0 is redundant")
                if any(x < 0 for x in v):
                    raise ValueError("affine generators must be nonnegative")
        else:
            if not self.coords:
                raise ValueError("a model needs at least one coordinate")
            self._dim = len(self.coords)
        if self._dim > MAX_DIM:
            raise ValueError(f"at most {MAX_DIM} coordinates supported")
        self.memo = {}

    def __repr__(self):
        return f"MonoidModel({self.name!r})"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def certified(self) -> bool:
        return self.affine_gens is None

    @property
    def is_group(self) -> bool:
        return self.certified and all(c.kind == "group" for c in self.coords)

    @cached_property
    def counting(self) -> tuple[int, ...]:
        """Indices of the non-group coordinates."""
        return tuple(i for i, c in enumerate(self.coords) if c.kind != "group")

    @cached_property
    def counting_mask(self) -> tuple[int, ...]:
        """1 on counting coordinates, 0 on group ones: multiplying a vector
        by it componentwise zeroes its group coordinates."""
        return tuple(0 if c.kind == "group" else 1 for c in self.coords)

    @cached_property
    def pack(self):
        if not self.certified:
            raise ValueError(f"{self.name}: affine models have no kernel pack")
        return (
            tuple(1 if c.kind == "group" else 0 for c in self.coords),
            tuple(c.conductor for c in self.coords),
            tuple(c.frobenius for c in self.coords),
            tuple(c.table for c in self.coords),
            tuple(None if c.kind == "group" else
                  K.member_mask(c.conductor, c.frobenius, c.table)
                  for c in self.coords),
            tuple(c.atoms for c in self.coords),
        )

    def contains(self, g) -> bool:
        g = tuple(g)
        if len(g) != self._dim:
            raise ValueError(f"dimension mismatch: {len(g)} != {self._dim}")
        if self.certified:
            return K.contains(self.pack, g)
        return self._affine_contains(g)

    def _affine_contains(self, g) -> bool:
        if any(x < 0 for x in g):
            return False
        # Exact: generators are nonnegative and nonzero, so every chain of
        # subtractions ends at 0 or leaves the orthant.  The depth of that
        # search is the coordinate sum, hence an explicit stack: a vector
        # is decided once every nonnegative remainder before its first
        # member remainder is decided.
        memo = self.memo.setdefault("affine", {})
        memo[(0,) * self._dim] = True
        stack = [g]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            ok, undecided = False, None
            for a in self.affine_gens:
                rest = tuple(x - y for x, y in zip(v, a))
                if any(x < 0 for x in rest):
                    continue
                seen = memo.get(rest)
                if seen is None:
                    undecided = rest
                    break
                if seen:
                    ok = True
                    break
            if undecided is not None:
                stack.append(undecided)
                continue
            memo[v] = ok
            stack.pop()
        return memo[g]

    def divides(self, a, b) -> bool:
        a, b = tuple(a), tuple(b)
        if len(a) != self._dim or len(b) != self._dim:
            raise ValueError("dimension mismatch")
        return self.contains(tuple(y - x for x, y in zip(a, b)))

    def enumerate(self, radius: int):
        """Members with group coordinates in [-radius, radius] and the rest
        in [0, radius], in lexicographic order."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.certified:
            lo = tuple(-radius if c.kind == "group" else 0 for c in self.coords)
            hi = tuple(radius for _ in self.coords)
            return K.box_members(self.pack, lo, hi)
        out = []
        def rec(prefix):
            if len(prefix) == self._dim:
                if self._affine_contains(prefix):
                    out.append(prefix)
                return
            for x in range(radius + 1):
                rec(prefix + (x,))
        rec(())
        return out

    def localize(self, P) -> "MonoidModel":
        """Model of H_P: coordinates in the face of P become groups.

        ``P`` is a prime (anything with a ``face`` attribute) or a bare
        collection of coordinate indices.  Memoised per face, so every
        caller shares one localized model (and whatever its own memo holds).
        """
        face = frozenset(getattr(P, "face", P))
        key = ("localize", face)
        got = self.memo.get(key)
        if got is not None:
            return got
        if not self.certified:
            raise ValueError("localization needs a certified product model")
        if not face <= set(range(self._dim)):
            raise ValueError(f"face {sorted(face)} out of range")
        if set(self.counting) <= face:
            raise ValueError("not a prime: face covers every counting coordinate")
        coords = tuple(
            _GROUP if (i in face and c.kind != "group") else c
            for i, c in enumerate(self.coords))
        loc = MonoidModel(f"{self.name}_loc{''.join(str(i) for i in sorted(face))}",
                          coords)
        self.memo[key] = loc
        return loc


def parse_monoid(text: str) -> MonoidModel:
    """Parse the one-monoid spec grammar.

    ::

        name = <identifier>
        coord = numerical <g1> <g2> ...
        coord = free <n>
        coord = group <n>
        affine = (<v1>) (<v2>) ...

    ``free n`` and ``group n`` expand to n coordinates.  Blank lines and
    ``#`` comments are ignored.
    """
    name = None
    coords = []
    affine = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key == "name":
            if not rhs.isidentifier():
                raise ValueError(f"line {lineno}: name must be an identifier")
            name = rhs
        elif key == "coord":
            parts = rhs.split()
            if not parts:
                raise ValueError(f"line {lineno}: empty coord")
            kind, args = parts[0], parts[1:]
            try:
                nums = [int(x) for x in args]
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer argument") from None
            if kind == "numerical":
                coords.append(_numerical(tuple(nums)))
            elif kind in ("free", "group"):
                if len(nums) != 1 or nums[0] < 1:
                    raise ValueError(f"line {lineno}: {kind} takes a positive count")
                coords.extend([_FREE if kind == "free" else _GROUP] * nums[0])
            else:
                raise ValueError(f"line {lineno}: unknown coordinate kind {kind!r}")
        elif key == "affine":
            vecs = []
            for chunk in rhs.replace("(", " ").split(")"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                vecs.append(tuple(int(x) for x in chunk.replace(",", " ").split()))
            if not vecs:
                raise ValueError(f"line {lineno}: affine needs generators")
            affine = vecs
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if name is None:
        name = "H"
    if affine is not None:
        return MonoidModel(name, affine_gens=affine)
    return MonoidModel(name, coords)


def to_text(H: MonoidModel) -> str:
    """Spec-grammar serialization; parse_monoid(to_text(H)) reproduces H."""
    lines = [f"name = {H.name}"]
    if not H.certified:
        vecs = " ".join("(" + ",".join(str(x) for x in v) + ")"
                        for v in H.affine_gens)
        lines.append(f"affine = {vecs}")
        return "\n".join(lines) + "\n"
    for kind, run in groupby(H.coords, key=lambda c: c.kind):
        run = list(run)
        if kind == "numerical":
            for c in run:
                lines.append("coord = numerical " + " ".join(str(g) for g in c.gens))
        else:
            lines.append(f"coord = {kind} {len(run)}")
    return "\n".join(lines) + "\n"


def numerical_monoid(name, *gens):
    """Product of numerical coordinates, one per generator tuple."""
    return MonoidModel(name, [_numerical(tuple(g)) for g in gens])


def free_monoid(name, n):
    return MonoidModel(name, [_FREE] * n)


def group_monoid(name, n):
    return MonoidModel(name, [_GROUP] * n)


def product(name, *models):
    """Concatenate the coordinate lists of certified models."""
    coords = []
    for m in models:
        if not m.certified:
            raise ValueError("products of affine models are not supported")
        coords.extend(m.coords)
    return MonoidModel(name, coords)


def contains(H: MonoidModel, g) -> bool:
    return H.contains(g)


def divides(H: MonoidModel, a, b) -> bool:
    return H.divides(a, b)


def localize(H: MonoidModel, P) -> MonoidModel:
    return H.localize(P)
