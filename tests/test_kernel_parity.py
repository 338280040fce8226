"""The compiled kernel must agree with the pure-Python one bit for bit."""

import random

import pytest

import idealis._kernel._slow as slow
from idealis.monoid import free_monoid

fast = pytest.importorskip(
    "idealis._kernel._fast",
    reason="compiled kernel not built; install with the Cython extension")


def model_packs(named):
    for name in ("gap23", "n345", "n25", "n2", "g23xn", "nxz", "z2"):
        yield name, named[name]


def sample_gens(rng, H, k, span=8):
    out = []
    for _ in range(k):
        v = tuple(rng.randrange(-span if c.kind == "group" else 0, span + 1)
                  for c in H.coords)
        out.append(v)
    return tuple(out)


def test_membership_and_division_parity(named):
    rng = random.Random(17)
    for name, H in model_packs(named):
        pack = H.pack
        for _ in range(200):
            v = sample_gens(rng, H, 1, span=10)[0]
            assert slow.contains(pack, v) == fast.contains(pack, v), (name, v)
            a, b = sample_gens(rng, H, 2, span=6)
            assert slow.divides(pack, a, b) == fast.divides(pack, a, b)


def test_generator_arithmetic_parity(named):
    rng = random.Random(23)
    for name, H in model_packs(named):
        pack = H.pack
        for _ in range(40):
            gens = sample_gens(rng, H, rng.randrange(1, 5))
            other = sample_gens(rng, H, rng.randrange(1, 4))
            assert slow.reduce_gens(pack, gens) == fast.reduce_gens(pack, gens)
            assert slow.inverse_gens(pack, gens) == fast.inverse_gens(pack, gens)
            assert slow.v_close_gens(pack, gens) == fast.v_close_gens(pack, gens)
            assert slow.sum_gens(pack, gens, other) == \
                fast.sum_gens(pack, gens, other)
            assert slow.intersect_gens(pack, gens, other) == \
                fast.intersect_gens(pack, gens, other)


def test_radical_and_box_parity(named):
    rng = random.Random(29)
    for name, H in model_packs(named):
        pack = H.pack
        lo = tuple(-3 if c.kind == "group" else 0 for c in H.coords)
        hi = tuple(5 for _ in H.coords)
        assert slow.box_members(pack, lo, hi) == fast.box_members(pack, lo, hi)
        for _ in range(30):
            gens = sample_gens(rng, H, rng.randrange(1, 4), span=6)
            integral = tuple(tuple(abs(x) for x in g) for g in gens)
            assert slow.radical_gens(pack, integral) == \
                fast.radical_gens(pack, integral), (name, integral)


def test_modular_close_parity(named):
    rng = random.Random(31)
    cases = [
        (named["gap23"], [frozenset()]),
        (named["n2"], [frozenset({0}), frozenset({1})]),
        (named["g23xn"], [frozenset({0}), frozenset({1})]),
        (named["n3"], [frozenset({0, 1}), frozenset({0, 2}),
                       frozenset({1, 2})]),
        (free_monoid("free4", 4), [frozenset(range(4)) - {i}
                                   for i in range(4)]),
    ]
    for H, faces in cases:
        pack = H.pack
        for _ in range(25):
            gens = tuple(tuple(rng.randrange(0, 7) for _ in H.coords)
                         for _ in range(rng.randrange(1, 4)))
            assert slow.modular_close_gens(pack, gens, faces) == \
                fast.modular_close_gens(pack, gens, faces), (H.name, gens)


def test_primary_violation_parity(named):
    for name, H in model_packs(named):
        if H.is_group:
            continue
        pack = H.pack
        lo = tuple(0 for _ in H.coords)
        hi = tuple(4 for _ in H.coords)
        members = slow.box_members(pack, lo, hi)
        rng = random.Random(37)
        for _ in range(20):
            gens = tuple(tuple(rng.randrange(1, 5) for _ in H.coords)
                         for _ in range(rng.randrange(1, 3)))
            rad = slow.radical_gens(pack, gens)
            assert slow.primary_violation(pack, members, gens, rad) == \
                fast.primary_violation(pack, members, gens, rad)


def test_budget_parity(n3):
    pack = n3.pack
    gens = tuple((a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2))
    faces = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    with pytest.raises(slow.BudgetExceeded):
        slow.modular_close_gens(pack, gens, faces, budget=5)
    with pytest.raises(fast.BudgetExceeded):
        fast.modular_close_gens(pack, gens, faces, budget=5)
