"""The kernel's one-coordinate and bitmask paths, its generator arithmetic
and its modular closure, against the grid oracles of ``bruteforce``."""

import random

import bruteforce as bf
from idealis import corpus
from idealis import _kernel as K
from idealis.monoid import free_monoid
from idealis.systems import proper_faces


def _models():
    return [e.model for e in corpus.members() if e.model.certified]


def test_module_gens_1d_matches_oracle():
    rng = random.Random(41)
    seen = set()
    for H in _models():
        for i, coord in enumerate(H.coords):
            if coord in seen:
                continue
            seen.add(coord)
            for span in (3, 12, 40):
                shifts = tuple(rng.randint(-span, span)
                               for _ in range(rng.randint(1, 5)))
                # the inverse of vectors that vanish off coordinate i is
                # that coordinate's module times zero elsewhere
                inv = K.inverse_gens(H.pack, tuple(
                    tuple(s if j == i else 0 for j in range(H.dim))
                    for s in shifts))
                assert tuple(v[i] for v in inv) == \
                    bf.module_gens_1d(coord, shifts), (coord, shifts)
    kinds = {c.kind for c in seen}
    assert kinds == {"numerical", "free", "group"} and len(seen) > 550


def test_divisible_and_reduce_match_oracle():
    rng = random.Random(43)
    for H in _models():
        keep = H.counting_mask
        for _ in range(6):
            gens = tuple(
                tuple(k * rng.randint(-6, 24) for k in keep)
                for _ in range(rng.randint(1, 6)))
            assert K.reduce_gens(H.pack, gens) == bf.reduce_gens(H, gens), \
                (H.name, gens)
            for _ in range(4):
                v = tuple(rng.randint(-6, 30) for _ in keep)
                assert K.divisible_any(H.pack, v, gens) == \
                    bf.divisible_any(H, v, gens), (H.name, v, gens)
                assert K.divisible_any(H.pack, v, gens[:1]) == \
                    bf.divisible_any(H, v, gens[:1]), (H.name, v, gens)


def test_intersect_and_sum_match_grid_oracle(certified):
    # Membership on a dense grid: the intersection is the AND of the two
    # ideals, the sum the union of A's ideal translated by each b in B.
    # Generator entries are at least -2, so both sides are exact on
    # [lo, hi - 4], which holds every generator the kernel returns.
    rng = random.Random(59)
    lo, hi = -4, 36
    for H in certified.values():
        keep = H.counting_mask
        grid = bf.Grid(H, lo, hi)
        for _ in range(8):
            A, B = (tuple(tuple(k * rng.randint(-2, 7) for k in keep)
                          for _ in range(rng.randint(1, 4)))
                    for _ in range(2))
            meet = K.intersect_gens(H.pack, A, B)
            join = K.sum_gens(H.pack, A, B)
            XA = grid.ideal(A)
            union = grid.ideal(())
            for b in B:
                union |= bf.shift(XA, grid.proj(b))
            for got, want in ((meet, XA & grid.ideal(B)), (join, union)):
                assert got == bf.reduce_gens(H, got), (H.name, A, B, got)
                assert grid.window_points(grid.ideal(got), lo, hi - 4) == \
                    grid.window_points(want, lo, hi - 4), (H.name, A, B)
    assert {"nxz", "g23xz", "z2"} <= set(certified)


def test_inverse_is_canonical(certified):
    """``inverse_gens`` returns the product of its per-coordinate lists
    without a reduction; the product must be canonical as it stands:
    sorted, duplicate-free, an antichain, and fixed by ``reduce_gens``.
    The inverse of each inverse is checked too, which is the v-closure."""
    rng = random.Random(61)
    models = dict(certified, free3=free_monoid("free3", 3))
    for name, H in models.items():
        pack, keep = H.pack, H.counting_mask
        for _ in range(25):
            gens = K.reduce_gens(pack, tuple(
                tuple(k * rng.randint(-6, 24) for k in keep)
                for _ in range(rng.randint(1, 5))))
            inv = K.inverse_gens(pack, gens)
            for out in (inv, K.inverse_gens(pack, inv)):
                assert list(out) == sorted(set(out)), (name, gens, out)
                assert not any(K.divisible_any(pack, b, (a,))
                               for a in out for b in out if a != b), \
                    (name, gens, out)
                assert out == K.reduce_gens(pack, out), (name, gens, out)
    assert {"nxz", "g23xz", "n3"} <= set(models)


def _close_cases(H, rng, rounds, most=4, span=6):
    # The hull against the choice-function product at the height-one
    # faces, each leaving one counting coordinate uninverted: the faces of
    # every modularization that is not local (``docs/exactness.md``,
    # "Modularization as a finite intersection").
    faces = [frozenset(H.counting) - {i} for i in H.counting]
    keep = H.counting_mask
    for _ in range(rounds):
        gens = tuple(tuple(k * rng.randint(-2, span) for k in keep)
                     for _ in range(rng.randint(1, most)))
        got = K.modular_close_gens(H.pack, gens)
        assert got == bf.modular_close_choice(H, gens, faces), \
            (H.name, gens)


def test_modular_close_matches_choice_oracle():
    # Every certified named model and its localization at each proper face.
    rng = random.Random(47)
    for e in corpus.members("named"):
        if not e.model.certified:
            continue
        for face in proper_faces(e.model):
            _close_cases(e.model.localize(face), rng, 12)


def test_modular_close_multi_face_oracle(n3):
    rng = random.Random(53)
    _close_cases(n3, rng, 40)
    _close_cases(free_monoid("free4", 4), rng, 30)


def test_modular_close_errors(n3):
    gens = tuple((a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2))
    assert K.modular_close_gens(n3.pack, gens) == ((1, 1, 1),)
    assert K.modular_close_gens(n3.pack, ()) == ()
