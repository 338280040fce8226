"""Prime spectra via the face correspondence, cross-checked on boxes."""

import time

import pytest

import bruteforce as bf
from idealis.classify import PropertyContext
from idealis.ideals import ideal_from, unit_ideal
from idealis.monoid import free_monoid, group_monoid, numerical_monoid
from idealis.spectrum import (UncertifiedModel, height_one, is_dvm,
                              minimal_primes_over, primes, r_max,
                              spectrum_json)
from idealis.systems import close, proper_faces, system


def faces(ps):
    return sorted(sorted(P.face) for P in ps)


def test_spectrum_shapes(n2, gap23, g23xn, nxz, z2):
    assert faces(primes(n2).primes) == [[], [0], [1]]
    assert faces(primes(gap23).primes) == [[]]
    # the group coordinate sits in every face, so nxz looks one-dimensional
    assert faces(primes(nxz).primes) == [[]]
    assert primes(z2).primes == ()


def test_heights_and_ideals(n2, g23xn):
    sp = primes(n2)
    assert {tuple(sorted(P.face)): P.height for P in sp.primes} == \
        {(0,): 1, (1,): 1, (): 2}
    assert sp.by_face([0]).ideal.gens == ((0, 1),)
    assert sp.by_face([]).ideal.gens == ((0, 1), (1, 0))
    assert primes(g23xn).by_face([1]).ideal.gens == ((2, 0), (3, 0))


def test_heights_match_chain_search(certified):
    """Heights by formula (counting coordinates off the face) equal the
    longest chains of the face poset, on the named models and on free 1 to
    free 5."""
    models = dict(certified)
    models.update((f"free{d}", free_monoid(f"free{d}", d)) for d in range(1, 6))
    for name, H in models.items():
        assert {P.face: P.height for P in primes(H).primes} == \
            bf.chain_heights(proper_faces(H)), name


def _with_localizations(certified):
    """Every certified named model, free 3 and free 4, each followed by its
    localization at every proper face."""
    models = list(certified.values())
    models += [free_monoid("free3", 3), free_monoid("free4", 4)]
    for H in models:
        yield H
        for face in proper_faces(H):
            yield H.localize(face)


def test_primality_on_boxes(certified):
    # the face construction is exact; this re-checks each ideal the hard way
    for H in _with_localizations(certified):
        for P in primes(H).primes:
            assert bf.is_prime_box(H, P.ideal.gens, 5), (H.name, P)


def test_non_primes_rejected_by_box_check(gap23, n2):
    assert not bf.is_prime_box(gap23, ((3,),), 6)       # 2+2 in, 2 out
    assert not bf.is_prime_box(n2, ((1, 1),), 5)


def test_height_one(n2, gap23):
    assert faces(height_one(n2)) == [[0], [1]]
    assert faces(height_one(gap23)) == [[]]


def test_minimal_primes_over(n2, gap23):
    got = minimal_primes_over(ideal_from([(2, 0)], n2))
    assert faces(got) == [[1]]
    # (1,1) lies in both coordinate primes, so both are minimal over it
    got = minimal_primes_over(ideal_from([(1, 1)], n2))
    assert faces(got) == [[0], [1]]
    assert faces(minimal_primes_over(ideal_from([(4,)], gap23))) == [[]]


def test_r_max_depends_on_system(n2, g23xn):
    assert faces(r_max(system("t", n2))) == [[0], [1]]
    assert faces(r_max(system("s", n2))) == [[]]
    assert faces(r_max(system("t", g23xn))) == [[0], [1]]


def test_r_max_is_maximal_on_boxes(certified):
    """Nothing closed sits strictly above an r-maximal prime: adding any box
    member outside it closes to H."""
    for H in _with_localizations(certified):
        one = unit_ideal(H)
        box = H.enumerate(3)
        for lbl in ("s", "t", "w"):
            sys = system(lbl, H)
            for M in r_max(sys):
                for x in box:
                    if not M.ideal.contains_vec(x):
                        grown = close(sys, ideal_from(M.ideal.gens + (x,), H))
                        assert grown == one, (H.name, lbl, M, x)


def test_r_max_members_are_closed_primes(n2):
    t = system("t", n2)
    for P in r_max(t):
        assert close(t, P.ideal) == P.ideal


@pytest.mark.parametrize("build,want", [
    (lambda: free_monoid("n1", 1), "true"),
    (lambda: numerical_monoid("gap23", (2, 3)), "false"),
    (lambda: group_monoid("z1", 1), "not-applicable"),
])
def test_is_dvm(build, want):
    assert is_dvm(build()) == want


def test_localizations_at_height_one_are_dvms(n2):
    # both localizations of N^2 at height-one primes are discrete valuation
    for P in height_one(n2):
        assert is_dvm(n2.localize(P)) == "true"


# reaches the second atom of every numerical coordinate in the named corpus
_SWEEP_RADIUS = 5


def test_is_dvm_matches_pair_sweep_oracle(certified):
    """The structural verdict agrees with a sweep over box pairs."""
    # radius 1 already puts two incomparable members in the box of any
    # product with two counting coordinates
    models = [(H, _SWEEP_RADIUS) for H in certified.values()]
    models += [(free_monoid(f"free{d}", d), 1) for d in (3, 4)]
    for H, radius in models:
        for L in [H] + [H.localize(face) for face in proper_faces(H)]:
            assert is_dvm(L) == bf.dvm_verdict(L, radius), L.name


def test_free5_spectrum_within_budget():
    # past dimension 3: the spectrum and every localization's DVM verdict
    t0 = time.perf_counter()
    H = free_monoid("free5", 5)
    spec = primes(H)
    verdicts = [is_dvm(H.localize(face)) for face in proper_faces(H)]
    took = time.perf_counter() - t0
    assert took < 3.0, f"free5 took {took:.1f}s"
    assert len(spec.primes) == 31
    # N x Z^4 at the five height-one faces, nothing else
    assert verdicts.count("true") == 5


def test_primes_by_face_on_free13():
    """Once the spectrum is built, the closed and the maximal closed primes
    of s, t and w on free 13 are looked up by face, not found by scanning
    the 8191 primes once per face (0.01 s measured on a 2-CPU host; the
    scan took 1.0 s)."""
    H = free_monoid("free13", 13)
    spec = primes(H)
    t0 = time.perf_counter()
    found = {}
    for lbl in ("s", "t", "w"):
        sys = system(lbl, H)
        found[lbl] = (PropertyContext(sys, 8).closed_primes(), r_max(sys))
    took = time.perf_counter() - t0
    assert took < 0.3, f"free13's closed primes took {took:.2f}s"
    closed, maximal = found["s"]
    assert faces(closed) == faces(spec.primes) and faces(maximal) == [[]]
    for lbl in ("t", "w"):
        closed, maximal = found[lbl]
        assert faces(closed) == faces(maximal) == faces(height_one(H)), lbl
    with pytest.raises(KeyError, match=r"no prime with face \[0, 1, 2, 3, "):
        spec.by_face(range(13))


def test_uncertified_raises(affine1):
    with pytest.raises(UncertifiedModel):
        primes(affine1)


def test_spectrum_json_golden(n2):
    doc = spectrum_json(system("t", n2))
    assert doc == {"primes": [
        {"face": [0], "height": 1, "t_ideal": True, "t_max": True},
        {"face": [1], "height": 1, "t_ideal": True, "t_max": True},
        {"face": [], "height": 2, "t_ideal": False, "t_max": False},
    ]}


def test_prime_contains(n2):
    P = primes(n2).by_face([0])
    assert P.contains(ideal_from([(0, 2), (1, 3)], n2))
    assert not P.contains(ideal_from([(1, 0)], n2))
