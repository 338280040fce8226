"""The pure kernel's one-coordinate and bitmask paths against the grid
oracles of ``bruteforce``, on every coordinate of the corpus."""

import random

import bruteforce as bf
from idealis import corpus
from idealis._kernel import _slow as K


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
