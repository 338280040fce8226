"""Fractional ideal arithmetic against dense-grid oracles."""

import random

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from idealis.ideals import (_translate, _trusted_ideal, empty_ideal,
                            ideal_eq, ideal_from, ideal_intersect,
                            ideal_power, ideal_subset, ideal_sum,
                            ideal_union, inverse, principal, radical,
                            unit_ideal)
from idealis.monoid import MAX_COORD, free_monoid, numerical_monoid
from idealis.systems import _box_vectors


def members_set(I, window):
    return {tuple(p) for p in I.members(window)}


def test_canonical_antichain(gap23):
    # 6 = 4 + 2 is divisible by 4, so it is not a canonical generator
    assert ideal_from([(4,), (6,)], gap23).gens == ((4,),)
    assert ideal_from([(4,), (5,)], gap23).gens == ((4,), (5,))
    assert ideal_from([(5,), (4,)], gap23).gens == ((4,), (5,))


def test_constructors(gap23):
    assert principal(gap23, (2,)).is_principal
    assert unit_ideal(gap23).gens == ((0,),)
    assert empty_ideal(gap23).is_empty
    assert empty_ideal(gap23).gens == ()
    assert ideal_from([(-1,)], gap23).kind == "fractional"
    assert ideal_from([(2,)], gap23).kind == "integral"


def test_equality_and_hash(gap23):
    a = ideal_from([(4,), (6,)], gap23)
    b = ideal_from([(4,)], gap23)
    assert a == b and hash(a) == hash(b)
    assert ideal_eq(a, b)


def test_membership_window(gap23):
    I = ideal_from([(2,)], gap23)
    assert I.members(8) == [(2,), (4,), (5,), (6,), (7,), (8,)]
    assert I.contains_vec((7,)) and not I.contains_vec((3,))


def test_mixed_monoid_rejected(gap23, n2):
    with pytest.raises(ValueError):
        ideal_sum(ideal_from([(2,)], gap23), ideal_from([(1, 0)], n2))


def test_inverse_window_golden(gap23):
    # The inverse of ideal{4,5} is the set {z >= -2}; one generator cannot
    # span it over <2,3> because -1 - (-2) = 1 is a gap.
    J = inverse(ideal_from([(4,), (5,)], gap23))
    assert J.gens == ((-2,), (-1,))
    assert {z for z in range(-5, 10) if J.contains_vec((z,))} == \
        set(range(-2, 10))
    assert J.kind == "fractional"


def test_sum_power_shift(gap23, n2):
    assert ideal_sum(ideal_from([(4,)], gap23), ideal_from([(5,)], gap23)).gens \
        == ((9,),)
    assert ideal_power(ideal_from([(2,)], gap23), 3).gens == ((6,),)
    assert _translate(ideal_from([(2,)], gap23), (3,)).gens == ((5,),)
    assert _translate(empty_ideal(gap23), (5,)).is_empty
    assert ideal_intersect(ideal_from([(2, 0)], n2),
                           ideal_from([(0, 3)], n2)).gens == ((2, 3),)
    assert ideal_union(ideal_from([(2, 0)], n2),
                       ideal_from([(0, 3)], n2)).gens == ((0, 3), (2, 0))


def test_power_one_and_zero(gap23):
    I = ideal_from([(2,), (3,)], gap23)
    assert ideal_power(I, 1) == I
    assert ideal_power(I, 0) == unit_ideal(gap23)
    with pytest.raises(ValueError):
        ideal_power(I, -1)


def gens_1d(draw_members):
    return st.lists(
        st.sampled_from(draw_members), min_size=1, max_size=4
    ).map(lambda xs: tuple((x,) for x in xs))


@given(gens_1d([2, 3, 4, 5, 6, 7]), gens_1d([2, 3, 4, 5, 6, 7]))
def test_sum_matches_pairwise_sumset(a, b):
    H = numerical_monoid("gap23", (2, 3))
    got = ideal_sum(ideal_from(a, H), ideal_from(b, H))
    want = ideal_from([(x[0] + y[0],) for x in a for y in b], H)
    assert got == want


@given(gens_1d([3, 4, 5, 6, 7, 8]), gens_1d([3, 4, 5, 6, 7, 8]))
def test_intersect_matches_set_intersection(a, b):
    H = numerical_monoid("n345", (3, 4, 5))
    got = ideal_intersect(ideal_from(a, H), ideal_from(b, H))
    window = 20
    want = {p for p in members_set(ideal_from(a, H), window)
            if p in members_set(ideal_from(b, H), window)}
    assert members_set(got, window) == want


@st.composite
def n2_gens(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    return tuple(
        (draw(st.integers(0, 5)), draw(st.integers(0, 5))) for _ in range(k))


@given(n2_gens())
def test_inverse_matches_grid(gens):
    H = free_monoid("n2", 2)
    J = inverse(ideal_from(gens, H))
    got = {(x, y) for x in range(-6, 7) for y in range(-6, 7)
           if J.contains_vec((x, y))}
    assert got == bf.inverse_points(H, gens, 6)


@given(n2_gens())
def test_radical_matches_grid(gens):
    H = free_monoid("n2", 2)
    got = {p for p in members_set(radical(ideal_from(gens, H)), 6)
           if max(p) <= 6}
    assert got == bf.radical_members(H, gens, 6)


def test_radical_golden(gap23, n345):
    assert radical(ideal_from([(2,)], gap23)).gens == ((2,), (3,))
    assert radical(ideal_from([(6,), (8,)], n345)).gens == ((3,), (4,), (5,))
    M = ideal_from([(2,), (3,)], gap23)
    assert radical(ideal_power(M, 4)) == M


def test_subset(gap23):
    I = ideal_from([(4,)], gap23)
    M = ideal_from([(2,), (3,)], gap23)
    assert ideal_subset(I, M) and not ideal_subset(M, I)
    assert ideal_subset(empty_ideal(gap23), I)


def test_empty_ideal_behaviour(gap23):
    E = empty_ideal(gap23)
    I = ideal_from([(2,)], gap23)
    assert ideal_sum(E, I).is_empty
    assert ideal_union(E, I) == I
    assert ideal_intersect(E, I).is_empty
    assert not E.contains_vec((0,))


def test_json_shape(n2):
    doc = ideal_from([(2, 0), (0, 3)], n2).to_json()
    assert doc == {"gens": [[0, 3], [2, 0]], "kind": "integral"}


@pytest.mark.parametrize("name", ["gap23", "g23xn", "g23xz", "nxz", "z2"])
def test_trusted_paths_match_validating(named, name):
    """The trusted constructor and the translation skip validation, and
    ``_translate`` the final reduction too; on random box samples (the
    sampled checkers' own pools) each must give exactly what ``ideal_from``
    gives."""
    H = named[name]
    rng = random.Random(name)
    members, box = H.enumerate(4), _box_vectors(H, 4)
    group = [i for i in range(H.dim) if i not in H.counting]
    moved_group = 0
    for _ in range(300):
        pool = members if rng.random() < 0.5 else box
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        I = ideal_from(gens, H)
        assert _trusted_ideal(gens, H).gens == I.gens
        c = rng.choice(box)
        moved_group += any(c[i] for i in group)
        translates = [tuple(x + y for x, y in zip(c, g)) for g in I.gens]
        assert _translate(I, c).gens == ideal_from(translates, H).gens
    assert moved_group or not group


def test_ideal_from_validates(gap23, nxz):
    # input is validated once, where it enters; _translate trusts it
    with pytest.raises(ValueError, match="dimension"):
        ideal_from([(1, 0)], gap23)
    with pytest.raises(ValueError, match="coordinate bound"):
        ideal_from([(MAX_COORD,)], gap23)
    with pytest.raises(ValueError, match="coordinate bound"):
        ideal_from([(1, -MAX_COORD)], nxz)
