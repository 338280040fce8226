"""Radical factorization chains, invertibility, meager peels, probes."""

import itertools
import time

import pytest

import bruteforce as bf
from idealis import _kernel as K, corpus, factor
from idealis.classify import PropertyContext
from idealis.factor import (_CHAIN_BUDGET, Failure, PreconditionFailed,
                            _meager_step, class_group_probe, cofactor,
                            divides_in_invertibles, invertible_radicals,
                            is_invertible, is_radical_in_invertibles,
                            meager_check, meager_factor, power_depths,
                            radical_closed_ideals, radical_factor_principal,
                            sp_factor, support_witness)
from idealis.ideals import (ideal_eq, ideal_from, ideal_subset, ideal_sum,
                            principal, radical, unit_ideal)
from idealis.monoid import free_monoid, group_monoid, numerical_monoid, product
from idealis.systems import close, closed_ideals, system


def test_principal_chain_on_n2(n2):
    ch = radical_factor_principal(n2, (2, 1))
    assert [F.gens for F in ch.factors] == [((1, 1),), ((1, 0),)]
    assert ch.comparable
    assert ch.target.gens == ((2, 1),)
    # reassembly is asserted inside the chain constructor; spot-check anyway
    acc = unit_ideal(n2)
    for F in ch.factors:
        acc = close(ch.system, ideal_sum(acc, F))
    assert acc == ch.target


def test_principal_chain_factors_are_radical_and_nested(n2):
    ch = radical_factor_principal(n2, (3, 1))
    assert [F.gens for F in ch.factors] == \
        [((1, 1),), ((1, 0),), ((1, 0),)]
    for F in ch.factors:
        assert ideal_eq(radical(F), F)
    for A, B in zip(ch.factors, ch.factors[1:]):
        assert ideal_subset(A, B) or ideal_subset(B, A)


def test_gap_element_has_no_radical_chain(gap23):
    # sqrt(2 + H) = M is not principal, so no chain of radical principal
    # factors can exist; the witness is the offending radical
    f = radical_factor_principal(gap23, (2,))
    assert isinstance(f, Failure)
    assert f.to_json() == {"failure": "NonPrincipalRadical",
                           "witness": {"gens": [[2], [3]], "kind": "integral"}}


def test_unit_factors_trivially(gap23, n2):
    assert radical_factor_principal(gap23, (0,)).factors == ()
    assert radical_factor_principal(n2, (0, 0)).factors == ()


def test_principal_chain_is_the_greedy_peel(certified):
    # each factor is the radical of what the ones before it leave over
    for H in certified.values():
        for x in H.enumerate(3):
            ch = radical_factor_principal(H, x)
            if not ch.ok:
                assert ch.reason == "NonPrincipalRadical"
                assert not radical(principal(H, x)).is_principal
                continue
            rest = x
            for F in ch.factors:
                assert F == radical(principal(H, rest))
                rest = tuple(a - b for a, b in zip(rest, F.gens[0]))
            assert principal(H, rest) == unit_ideal(H)


def test_chains_up_to_the_budget(n1, nxz):
    # one radical factor per unit of the largest counting coordinate, for
    # the radical peel and the SP peel alike
    s = system("s", n1)
    for k in (65, 300, _CHAIN_BUDGET):
        assert len(radical_factor_principal(n1, (k,))) == k
        assert len(sp_factor(principal(n1, (k,)), s)) == k
    assert len(radical_factor_principal(nxz, (70, -3))) == 70
    # one more is BoundExceeded, witnessed by what the budget leaves over
    for k in (_CHAIN_BUDGET + 1, (1 << 40) - 1):
        for got in (radical_factor_principal(n1, (k,)),
                    sp_factor(principal(n1, (k,)), s)):
            assert got.reason == "BoundExceeded"
            assert got.witness.gens == ((k - _CHAIN_BUDGET,),)
    got = radical_factor_principal(nxz, (_CHAIN_BUDGET + 5, 7))
    assert got.reason == "BoundExceeded"
    assert got.witness.gens == ((5, 0),)


def test_sp_factor(n2, gap23):
    t = system("t", n2)
    r = sp_factor(close(t, ideal_from([(1, 1)], n2)), t)
    assert [F.gens for F in r.factors] == [((1, 1),)]
    tg = system("t", gap23)
    f = sp_factor(close(tg, ideal_from([(3,)], gap23)), tg)
    assert isinstance(f, Failure)
    assert f.reason == "RadicalNotInvertible"
    assert f.witness.gens == ((2,), (3,))


def test_sp_factor_requires_closed_input(n2):
    t = system("t", n2)
    with pytest.raises(ValueError, match="not closed"):
        sp_factor(ideal_from([(1, 0), (0, 1)], n2), t)


def test_radical_closed_ideals(n2, gap23):
    t = system("t", n2)
    assert [I.gens for I in radical_closed_ideals(t)] == \
        [((0, 1),), ((1, 0),), ((1, 1),)]
    # under s the union of the two coordinate primes is closed as well
    s = system("s", n2)
    assert [I.gens for I in radical_closed_ideals(s)] == \
        [((0, 1),), ((0, 1), (1, 0)), ((1, 0),), ((1, 1),)]
    assert [I.gens for I in radical_closed_ideals(system("t", gap23))] == \
        [((2,), (3,))]


def test_radical_closed_ideals_are_radical_and_closed(certified):
    """Each cell union is its own radical: its generators' supports are
    exactly the antichain, so the support criterion gives it back."""
    models = dict(certified, free3=free_monoid("free3", 3),
                  free4=free_monoid("free4", 4))
    for name, H in models.items():
        for lbl in ("s", "t", "w"):
            sys = system(lbl, H)
            fam = radical_closed_ideals(sys)
            assert all(a.gens < b.gens for a, b in zip(fam, fam[1:])), \
                (name, lbl)
            for J in fam:
                assert ideal_eq(radical(J), J), (name, lbl, J.gens)
                assert ideal_eq(close(sys, J), J), (name, lbl, J.gens)


def test_antichain_enumeration_matches_subset_filter(certified):
    """The meets of antichains of closed primes are what filtering every
    subset of supports by closure returns: on the named models, free 1 to
    free 4, products with group coordinates and a fixed sixth of
    frobenius15, under systems with and without a coordinatewise closure."""
    models = dict(certified)
    models.update((f"free{d}", free_monoid(f"free{d}", d)) for d in range(1, 5))
    g23, N, Z = (numerical_monoid("g23", (2, 3)), free_monoid("N", 1),
                 group_monoid("Z", 1))
    models["g23xz2"] = product("g23xz2", g23, Z, Z)
    models["nxzxn"] = product("nxzxn", N, Z, N)
    models.update((e.name, e.model)
                  for e in corpus.members("frobenius15")[::6])
    for name, H in models.items():
        for lbl in ("s", "t", "w", "v", "mod(s,v)", "mod(t,t)", "mod(s,s)"):
            sys = system(lbl, H)
            assert radical_closed_ideals(sys) == \
                bf.radical_closed_by_filter(sys), (name, lbl)
    # the Dedekind number 168 less the empty antichain and {emptyset}
    assert len(radical_closed_ideals(system("s", models["free4"]))) == 166


def test_invertible_radicals_under_s_are_the_principal_ones(certified):
    """Where a system closes as s, invertible_radicals keeps the principal
    radical closed ideals; that is the is_invertible filter, in its order,
    under s and w on the named models, free 3 and free 4."""
    models = dict(certified, free3=free_monoid("free3", 3),
                  free4=free_monoid("free4", 4))
    as_s = 0
    for name, H in models.items():
        for lbl in ("s", "w"):
            sys = system(lbl, H)
            assert invertible_radicals(sys) == tuple(
                J for J in radical_closed_ideals(sys)
                if is_invertible(J, sys)), (name, lbl)
            as_s += sys.op == "s"
    # w closes as s on the t-local models, and as itself on the rest
    assert len(models) < as_s < 2 * len(models)


def test_free6_coordinatewise_radicals_are_the_cells():
    """Under t and w only the height-one primes of free 6 are closed, so its
    radical closed ideals are the 63 single-support cells."""
    H = free_monoid("free6", 6)
    cells = sorted((tuple(int(i in S) for i in range(6)),)
                   for k in range(1, 7)
                   for S in itertools.combinations(range(6), k))
    for lbl in ("t", "w"):
        t0 = time.perf_counter()
        fam = radical_closed_ideals(system(lbl, H))
        took = time.perf_counter() - t0
        assert took < 1.0, f"free6 {lbl} took {took:.2f}s"
        assert [J.gens for J in fam] == cells, lbl


def test_antichain_budget_trips_on_free6_under_s(monkeypatch):
    """Under s every prime of free 6 is closed, and its 7,828,354
    antichains are far past the budget: the walk stops within 2 s, the trip
    is memoised, so asking again walks nothing, and a property read off the
    list ends unknown with the budget's message."""
    H = free_monoid("free6", 6)
    s = system("s", H)
    t0 = time.perf_counter()
    with pytest.raises(K.BudgetExceeded, match="more than 10000 antichains"):
        radical_closed_ideals(s)
    took = time.perf_counter() - t0
    assert took < 2.0, f"free6 s took {took:.2f}s"
    walks = []
    walk = factor._antichains
    monkeypatch.setattr(factor, "_antichains",
                        lambda *args: walks.append(args) or walk(*args))
    with pytest.raises(K.BudgetExceeded, match="more than 10000 antichains"):
        radical_closed_ideals(s)
    assert walks == []
    with pytest.raises(K.BudgetExceeded, match="more than 10000 antichains"):
        invertible_radicals(s)
    ctx = PropertyContext(s, 8)
    for prop in ("radical_fg_invertible", "primes_contain_invertible_radical"):
        got = ctx.prop(prop)
        assert got.verdict == "unknown-beyond-radius", prop
        assert got.note == ("over budget: s-radical closed ideals: more "
                            "than 10000 antichains of closed primes"), prop


def test_radical_closed_family_matches_lattice_filter(n2):
    """Every radical closed ideal in the radius-5 lattice is a cell union."""
    t = system("t", n2)
    fam = set(radical_closed_ideals(t))
    unit = unit_ideal(n2)
    from_lattice = {
        I for I in closed_ideals(t, 5)
        if I != unit and ideal_eq(radical(I), I)
    }
    assert from_lattice == fam


def test_is_invertible(gap23, n2):
    tg = system("t", gap23)
    assert is_invertible(ideal_from([(2,)], gap23), tg)
    assert not is_invertible(ideal_from([(2,), (3,)], gap23), tg)
    t = system("t", n2)
    assert is_invertible(ideal_from([(1, 1)], n2), t)


def test_principal_ideals_are_invertible_without_a_closure():
    # (g + H) + (-g + H) = H: no principal ideal reaches the memoised
    # closure of I + I^-1, through the probe or directly
    H = numerical_monoid("gap23", (2, 3))
    t = system("t", H)
    probe = class_group_probe(t, 6)
    assert probe.invertible_count == probe.principal_count == 6
    assert is_invertible(ideal_from([(2,)], H), t)
    assert not is_invertible(ideal_from([(2,), (3,)], H), t)
    keys = [k[1] for k in t.memo
            if isinstance(k, tuple) and k[0] == "invertible"]
    assert ((2,),) not in keys and ((2,), (3,)) in keys
    assert all(len(gens) > 1 for gens in keys)


def test_cofactor_reassembles(n2):
    t = system("t", n2)
    I = ideal_from([(1, 0)], n2)
    J = ideal_from([(3, 2)], n2)
    C = cofactor(I, J, t)
    assert close(t, ideal_sum(I, C)) == close(t, J)


def test_divides_in_invertibles_is_containment(n2):
    t = system("t", n2)
    I = ideal_from([(1, 0)], n2)
    assert divides_in_invertibles(I, ideal_from([(3, 2)], n2), t)
    assert not divides_in_invertibles(I, ideal_from([(0, 2)], n2), t)


def test_radical_in_invertibles(n2):
    t = system("t", n2)
    assert is_radical_in_invertibles(ideal_from([(1, 1)], n2), t)
    assert not is_radical_in_invertibles(ideal_from([(2, 0)], n2), t)


def test_meager_check_rows(n2):
    t = system("t", n2)
    P1 = close(t, ideal_from([(1, 0)], n2))
    I = close(t, ideal_from([(2, 0)], n2))
    v = meager_check([P1, P1], I, t)
    assert bool(v)
    assert v.rows == (((0,), 0, True), ((1,), 2, True))
    bad = meager_check([P1, P1, P1], I, t)    # (2,0) is not in P1 cubed
    assert not bad.meager


def test_meager_factor_peels(n2, gap23):
    t = system("t", n2)
    mf = meager_factor(close(t, ideal_from([(2, 1)], n2)), t)
    assert [F.gens for F in mf.factors] == [((1, 1),), ((1, 0),)]
    tg = system("t", gap23)
    with pytest.raises(ValueError, match="invertible"):
        meager_factor(close(tg, ideal_from([(2,), (3,)], gap23)), tg)


def test_meager_chains_up_to_the_budget(n1):
    # one peel of the prime (1) per unit, past the old 64-deep power scan
    t = system("t", n1)
    for k in (65, 100, _CHAIN_BUDGET):
        ch = meager_factor(close(t, principal(n1, (k,))), t)
        assert len(ch) == k
        assert {F.gens for F in ch.factors} == {((1,),)}
    got = meager_factor(close(t, principal(n1, (_CHAIN_BUDGET + 1,))), t)
    assert got.reason == "BoundExceeded"
    assert got.witness.gens == ((1,),)


def test_meager_peel_lowers_the_measure(certified):
    """Each meager peel strictly lowers the largest power depth at a
    height-one prime (docs/exactness.md, "One peel loop"), on every proper
    invertible closed ideal of the deciders' lattices that has a meager
    family."""
    peeled = 0
    for name, H in certified.items():
        for lbl in ("s", "w", "t"):
            ctx = PropertyContext(system(lbl, H), 8)
            sys = ctx.sys
            lat = ctx.lattice() or ctx.lattice_at(2)
            for I in lat:
                if not ctx.proper(I) or not is_invertible(I, sys):
                    continue
                step = _meager_step(I, sys)
                if isinstance(step, Failure):
                    continue
                _, rest = step
                assert max(power_depths(rest, sys), default=0) < \
                    max(power_depths(I, sys)), (name, lbl, I)
                peeled += 1
    assert peeled >= 300


def test_support_witness(n2):
    from idealis.spectrum import height_one
    for gens in ([(2, 1)], [(1, 0), (0, 1)], [(0, 3)]):
        I = ideal_from(gens, n2)
        z = support_witness(I)
        for P in height_one(n2):
            assert P.ideal.contains_vec(z) == P.contains(I)
    assert support_witness(ideal_from([(1, 0), (0, 1)], n2)) == (0, 0)


def test_support_witness_needs_principal_cells(gap23):
    with pytest.raises(PreconditionFailed, match="non-principal"):
        support_witness(ideal_from([(2,), (3,)], gap23))


def test_class_group_probe(n2, gap23):
    doc = class_group_probe(system("t", n2), 4).to_json()
    assert doc["trivial_within_radius"] is True
    assert doc["invertible_count"] == doc["principal_count"] == 25
    assert doc["nonprincipal"] == []
    doc = class_group_probe(system("t", gap23), 6).to_json()
    assert doc["invertible_count"] == 6
    assert doc["trivial_within_radius"] is True
