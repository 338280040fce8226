"""The kernel's one-coordinate and bitmask paths, its generator arithmetic
and its modular closure, against the grid oracles of ``bruteforce``."""

import random

import pytest

import bruteforce as bf
from idealis import corpus
from idealis import _kernel as K
from idealis.monoid import free_monoid
from idealis.systems import proper_faces, r_max_faces, system


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
                assert K.module_gens_1d(H.pack, i, shifts) == \
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
                assert K.divides(H.pack, gens[0], v) == \
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


def _close_cases(H, faces, rng, rounds, most=4, span=6):
    keep = H.counting_mask
    for _ in range(rounds):
        gens = tuple(tuple(k * rng.randint(-2, span) for k in keep)
                     for _ in range(rng.randint(1, most)))
        got = K.modular_close_gens(H.pack, gens, faces)
        assert got == bf.modular_close_choice(H, gens, faces), \
            (H.name, gens, faces)


def test_modular_close_matches_choice_oracle():
    # The face-at-a-time intersection against the n^k choice-function
    # product, with the t-maximal faces of every certified named model and
    # of its localization at each proper face.
    rng = random.Random(47)
    for e in corpus.members("named"):
        if not e.model.certified:
            continue
        for face in proper_faces(e.model):
            L = e.model.localize(face)
            _close_cases(L, r_max_faces(L, system("t", L)), rng, 12)


def test_modular_close_multi_face_oracle(named, n3, nxz, g23xz):
    rng = random.Random(53)
    _close_cases(n3, [frozenset({0, 1}), frozenset({0, 2}),
                      frozenset({1, 2})], rng, 40)
    free4 = free_monoid("free4", 4)
    _close_cases(free4, [frozenset(range(4)) - {i} for i in range(4)],
                 rng, 30)
    # Overlapping and repeated faces, the empty face, group coordinates.
    for H, faces in ((n3, [frozenset({0}), frozenset({0, 1}),
                           frozenset({2})]),
                     (n3, [frozenset({1}), frozenset({1}), frozenset()]),
                     (free4, [frozenset({0, 1}), frozenset({1, 2}),
                              frozenset({2, 3}), frozenset({0, 3})]),
                     (named["g23x25"], [frozenset({0}), frozenset({1}),
                                        frozenset()]),
                     (nxz, [frozenset({1}), frozenset()]),
                     (g23xz, [frozenset(), frozenset({1}), frozenset()])):
        _close_cases(H, faces, rng, 25, span=9)


def test_modular_close_errors(n2, n3):
    gens = tuple((a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2))
    faces = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    with pytest.raises(K.BudgetExceeded, match="8\\^3 choice functions"):
        K.modular_close_gens(n3.pack, gens, faces, budget=511)
    assert K.modular_close_gens(n3.pack, gens, faces, budget=512) == \
        ((1, 1, 1),)
    with pytest.raises(ValueError, match="coordinate 1 inverted in every"):
        K.modular_close_gens(n2.pack, ((1, 2),), [frozenset({1}),
                                                  frozenset({0, 1})])
    # the budget is checked first, before any face is looked at
    with pytest.raises(K.BudgetExceeded):
        K.modular_close_gens(n2.pack, ((1, 2), (2, 1)),
                             [frozenset({0, 1})] * 3, budget=7)
