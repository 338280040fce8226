"""Property verdicts, frozen witnesses, and equivalence-suite agreement."""

import gc
import hashlib
import itertools
import json
import sys
import time
import weakref
from pathlib import Path

import pytest

import bruteforce as bf
from idealis import _kernel as K
from idealis.classify import (GLOBAL_PROPS, MATRIX_PROPS, UNKNOWN,
                              PropertyContext, _box_primary,
                              _find_radical_product, _is_power_of,
                              _least_singular_principal,
                              _meager_intersection_exists, _pair_witness,
                              _scaled_unit, classify, evaluate,
                              property_names, suite_battery, suite_names,
                              tfae_suite)
from idealis.factor import (is_invertible, meager_factor,
                            radical_factor_principal, sp_factor)
from idealis.ideals import ideal_from, principal, radical
from idealis.monoid import (free_monoid, group_monoid, numerical_monoid,
                            parse_monoid, product)
from idealis.report import dumps
from idealis.spectrum import UncertifiedModel, height_one
from idealis.systems import close, system

ALL_TRUE = {"n1", "n2", "n3", "nxz", "z1", "z2"}
ALL_FALSE = {"gap23", "n345", "n25", "n357", "g23xn", "g23x25", "g23xz"}

# Semi-decisions that legitimately stay open at radius 8: the collision or
# violation window of these monoids exceeds the search box.
EXPECTED_UNKNOWN = {
    ("n3", "s"): {"cancellative"},
    ("n345", "s"): {"cancellative"},
    ("n25", "s"): {"cancellative"},
    ("n25", "t"): {"modular_system"},
    ("n357", "s"): {"cancellative"},
    ("g23xn", "w"): {"cancellative", "class_group_trivial"},
    ("g23xn", "t"): {"cancellative", "class_group_trivial", "modular_system"},
    ("g23x25", "w"): {"cancellative", "class_group_trivial"},
    ("g23x25", "t"): {"cancellative", "class_group_trivial",
                      "modular_system"},
}


DIGESTS = Path(__file__).with_name("classify_digests.json")


def test_classify_report_bytes_are_frozen(certified):
    # SHA-256 of every report byte, notes included; perfbench's digests
    # cover verdicts and witnesses only
    models = dict(certified, free3=free_monoid("free3", 3))
    got = {name: hashlib.sha256(dumps(classify(H, 8)).encode()).hexdigest()
           for name, H in models.items()}
    assert got == json.loads(DIGESTS.read_text())


def test_each_witness_is_searched_once(monkeypatch):
    # on gap23 seven deciders per system refute through the radical
    # product search, at two distinct (witness, universe) inputs
    C = sys.modules[classify.__module__]
    calls, searched = [], []
    memoised, find = C._radical_product_search, C._find_radical_product

    def count_calls(ctx, I, invertible=False):
        calls.append(ctx.sys.label)
        return memoised(ctx, I, invertible)

    def count_searches(sys_, I, invertible):
        searched.append((sys_.label, I.gens, invertible))
        return find(sys_, I, invertible)

    monkeypatch.setattr(C, "_radical_product_search", count_calls)
    monkeypatch.setattr(C, "_find_radical_product", count_searches)
    classify(numerical_monoid("gap23", (2, 3)))
    assert len(calls) == 21
    assert len(searched) == len(set(searched)) == 6
    assert sorted(lbl for lbl, _, _ in searched) == ["s", "s", "t", "t",
                                                     "w", "w"]


def test_property_name_canonicalization(gap23):
    assert evaluate(gap23, "t", "t_SP").prop == "sp"
    assert evaluate(gap23, "t", "aD").prop == "almost_dedekind"
    assert evaluate(gap23, "t", "prime_power_condition").prop == "ppc"
    with pytest.raises(ValueError, match="unknown property"):
        evaluate(gap23, "t", "nfreely_atomic")


def test_ppc_witness_frozen(gap23):
    v = evaluate(gap23, "t", "ppc")
    assert v.verdict == "false"
    assert v.witness.gens == ((2,),)
    assert "no closed power" in v.note


def test_sp_witnesses_frozen(gap23, n345):
    # sqrt(3+H) = M fails to be a product of closed primes in both cases
    assert evaluate(gap23, "t", "sp").witness.gens == ((2,), (3,))
    assert evaluate(n345, "w", "sp").witness.gens == ((3,), (4,), (5,))


def test_almost_dedekind_witness_names_localization(g23xn):
    v = evaluate(g23xn, "t", "almost_dedekind")
    assert v.verdict == "false"
    assert v.witness == {"face": [1], "localization": "g23xn_loc1"}


def test_vacuous_flag(gap23):
    # one closed prime only: no strict pair exists to compare
    v = evaluate(gap23, "t", "primary_inclusive")
    assert v.verdict == "true" and v.vacuous


def test_expected_unknowns_and_nothing_else(certified):
    for name, H in certified.items():
        doc = classify(H)
        for lbl in ("s", "w", "t"):
            got = {p for p, v in doc["systems"][lbl].items()
                   if v["verdict"] == "unknown-beyond-radius"}
            assert got == EXPECTED_UNKNOWN.get((name, lbl), set()), (name, lbl)


def test_unknowns_carry_explanatory_notes(n25):
    v = evaluate(n25, "t", "modular_system")
    assert v.verdict == "unknown-beyond-radius"
    assert "radius" in v.note


def test_gap23_matrix_counts(gap23):
    doc = classify(gap23)
    for lbl in ("s", "w", "t"):
        verdicts = [v["verdict"] for v in doc["systems"][lbl].values()]
        assert verdicts.count("true") == 11
        assert verdicts.count("false") == 23
    assert sorted(p for p, v in doc["systems"]["t"].items()
                  if v["verdict"] == "true") == [
        "class_group_trivial", "finite_conductor", "half_cancellative",
        "intersection_localizations", "local", "max_eq_height_one",
        "max_eq_t_max", "min_primes_fg_height_one", "modular_system",
        "primary_inclusive", "treed"]


def test_global_rows(gap23, n2):
    doc = classify(gap23)
    assert {p: v["verdict"] for p, v in doc["global"].items()} == {
        "acc_radical_principal": "true", "dvm": "false", "factorial": "false",
        "pit": "true", "radical_factorial": "false", "valuation": "false"}
    doc = classify(n2)
    assert doc["global"]["factorial"]["verdict"] == "true"
    assert doc["global"]["radical_factorial"]["verdict"] == "true"


def test_factorial_implies_radical_factorial(certified):
    for H in certified.values():
        doc = classify(H)
        if doc["global"]["factorial"]["verdict"] == "true":
            assert doc["global"]["radical_factorial"]["verdict"] == "true"


def test_modular_system_implies_primary_inclusive(certified):
    # consequence of modularity; vacuous truths count as truths
    for H in certified.items():
        name, H = H
        doc = classify(H)
        for lbl in ("s", "w", "t"):
            row = doc["systems"][lbl]
            if row["modular_system"]["verdict"] == "true":
                assert row["primary_inclusive"]["verdict"] == "true", \
                    (name, lbl)


def test_w_sp_is_t_ad_and_t_sp(certified):
    """The bridge between the w-matrix and the t-matrix columns."""
    for name, H in certified.items():
        w_sp = evaluate(H, "w", "sp").verdict
        t_ad = evaluate(H, "t", "almost_dedekind").verdict
        t_sp = evaluate(H, "t", "sp").verdict
        if "unknown-beyond-radius" in (w_sp, t_ad, t_sp):
            continue
        both = "true" if (t_ad == "true" and t_sp == "true") else "false"
        assert w_sp == both, name


def test_treed_with_invertible_radicals_forces_ad_and_sp(certified):
    for name, H in certified.items():
        for lbl in ("s", "w", "t"):
            treed = evaluate(H, lbl, "treed").verdict
            inv = evaluate(H, lbl, "primes_contain_invertible_radical").verdict
            if treed == "true" and inv == "true":
                assert evaluate(H, lbl, "almost_dedekind").verdict == "true"
                assert evaluate(H, lbl, "sp").verdict == "true"


def test_suite_names_are_stable():
    assert suite_names() == ("Thm4.2", "Cor4.4", "Cor4.5", "Thm3.9",
                             "Thm3.10", "Prop3.6", "Prop5.2", "Cor5.3",
                             "Cor4.6", "Prop5.4", "Cor3.8", "Thm4.3")
    assert len(property_names()) == 40
    assert len(MATRIX_PROPS) == 34 and len(GLOBAL_PROPS) == 6


def test_unknown_suite_rejected(gap23):
    with pytest.raises(ValueError, match="unknown suite"):
        tfae_suite(gap23, "Thm9.9")


def test_all_suites_agree_on_named_models(certified):
    for name, H in certified.items():
        for suite, rep in suite_battery(H).items():
            assert rep.agreement, (name, suite)
            verdicts = {c.verdict for c in rep.conditions if not c.vacuous}
            if name in ALL_TRUE:
                # groups satisfy everything vacuously, leaving an empty set
                assert verdicts <= {"true"}, (name, suite)
            else:
                assert "true" not in verdicts, (name, suite)


def test_suite_report_shape(gap23):
    rep = tfae_suite(gap23, "Thm4.2")
    doc = rep.to_json()
    assert doc["suite"] == "Thm4.2" and doc["monoid"] == "gap23"
    assert doc["agreement"] is True
    assert all(c["verdict"] == "false" for c in doc["conditions"])
    ids = [c["id"] for c in doc["conditions"]]
    assert ids == sorted(ids, key=lambda s: [int(x) for x in s.split(".")])


def test_dual_suite_carries_groups(gap23):
    rep = tfae_suite(gap23, "Thm4.3")
    assert sorted({c.group for c in rep.conditions}) == ["A", "B"]
    assert rep.agreement


def test_via_equivalents_note(gap23):
    rep = tfae_suite(gap23, "Prop5.4")
    c4 = next(c for c in rep.conditions if c.cid == "4")
    assert c4.verdict == "false"
    assert c4.note == "via-equivalents"


def test_closure_identity_postcheck(n2):
    rep = tfae_suite(n2, "Cor3.8")
    assert rep.agreement
    assert "closure identity verified" in rep.note


def test_suite_battery_shares_contexts(n345):
    got = suite_battery(n345, names=("Thm4.2", "Cor4.4"))
    assert set(got) == {"Thm4.2", "Cor4.4"}
    assert all(not r.conditions[0].verdict == "true" for r in got.values())


def test_classify_shape(nxz, affine1):
    doc = classify(nxz)
    assert doc["certified"] is True
    assert set(doc) == {"monoid", "certified", "radius", "systems", "global",
                        "suites", "spectrum"}
    assert set(doc["systems"]) == {"s", "w", "t"}
    assert set(doc["suites"]) == set(suite_names())
    bad = classify(affine1)
    assert bad["certified"] is False and "note" in bad


def test_uncertified_suites_raise(affine1):
    with pytest.raises(UncertifiedModel):
        tfae_suite(affine1, "Thm4.2")


def test_model_is_freed_after_classify():
    # everything classify derives hangs off the model's memo, nothing global
    H = free_monoid("n2", 2)
    classify(H)
    ref = weakref.ref(H)
    del H
    gc.collect()
    assert ref() is None


def test_free4_classify_within_budget():
    # c05's per-model bound, on a model above the corpus' dimension 3
    t0 = time.perf_counter()
    doc = classify(free_monoid("free4", 4), radius=8)
    took = time.perf_counter() - t0
    assert took < 60.0, f"free4 took {took:.1f}s"
    for name, rep in doc["suites"].items():
        assert rep["agreement"], name
        verdicts = {c["verdict"] for c in rep["conditions"]
                    if not c.get("vacuous")}
        assert verdicts <= {"true"}, name


def test_classify_with_three_group_coordinates_within_budget():
    # the primary scan reads only the witness's face, never the 13^3 group
    # positions of a box member
    H = product("g23xz3", numerical_monoid("g23", (2, 3)),
                group_monoid("z3", 3))
    t0 = time.perf_counter()
    doc = classify(H, radius=8)
    took = time.perf_counter() - t0
    assert took < 5.0, f"g23xz3 took {took:.1f}s"
    assert all(rep["agreement"] for rep in doc["suites"].values())


def test_free5_and_free6_classify_within_budget():
    # both fixed witnesses are checked in their face (docs/exactness.md).
    # Beyond the s-lattice's collision scan, free 6 leaves open the five
    # s-verdicts that read the over-budget antichain walk.
    over_budget = {"sp", "closed_comparable_radical_product",
                   "radical_fg_invertible", "radical_fg_principal",
                   "primes_contain_invertible_radical"}
    for n, budget, open_s in ((5, 5.0, set()), (6, 10.0, over_budget)):
        t0 = time.perf_counter()
        doc = classify(free_monoid(f"free{n}", n), radius=8)
        took = time.perf_counter() - t0
        assert took < budget, f"free{n} took {took:.1f}s"
        for name, rep in doc["suites"].items():
            assert rep["agreement"], (n, name)
            assert {c["verdict"] for c in rep["conditions"]} == {"true"}, \
                (n, name)
        unknown = {(lbl, p) for lbl, row in doc["systems"].items()
                   for p, v in row.items() if v["verdict"] == UNKNOWN}
        unknown |= {("global", p) for p, v in doc["global"].items()
                    if v["verdict"] == UNKNOWN}
        assert unknown == {("s", p) for p in open_s | {"cancellative"}}, n


def _group_products():
    g23, N, Z = (numerical_monoid("g23", (2, 3)), free_monoid("N", 1),
                 group_monoid("Z", 1))
    return {"g23xz2": product("g23xz2", g23, Z, Z),
            "nxz2": product("nxz2", N, Z, Z),
            "zxnxz": product("zxnxz", Z, N, Z),
            "n2xz2": product("n2xz2", N, Z, N, Z)}


def _oracle_models(certified):
    return dict(certified, **_group_products(),
                free3=free_monoid("free3", 3), free4=free_monoid("free4", 4))


def test_box_scan_in_the_face_matches_full_box(certified):
    """A primary violation lies in the box exactly when one lies among its
    members that vanish off the ideal's face: checked against the full-box
    scan on principal and two-generator ideals and, on regular models, on
    the fallback witness (e_i, 2e_j) of ``ppc``."""
    seen = set()
    for name, H in _oracle_models(certified).items():
        ctx = PropertyContext(H, system("t", H), 2)
        members = H.enumerate(2)
        base = [v for v in members
                if all(c == 0 or m for c, m in zip(v, H.counting_mask))
                and any(v)]
        # pairs of members on at most two coordinates keep free 4's scan
        # small and every pair the products had
        narrow = [v for v in base if sum(map(bool, v)) <= 2]
        ideals = [principal(H, v) for v in base]
        ideals += [ideal_from([u, v], H)
                   for u, v in itertools.combinations(narrow, 2)]
        if ctx.regular:
            ideals += [ideal_from([_scaled_unit(H, i, 1),
                                   _scaled_unit(H, j, 2)], H)
                       for i, j in itertools.permutations(H.counting, 2)]
        for I in ideals:
            full = K.primary_violation(H.pack, members, I.gens,
                                       radical(I).gens) is None
            assert _box_primary(ctx, I) == full, (name, I.gens)
            seen.add(full)
    assert seen == {True, False}


def test_product_search_in_the_face_matches_full_universe(certified):
    """The search over factors generated in the witness's face finds a
    product exactly when the search over every radical closed ideal does,
    in both universes: at each fixed witness a decider searches, and at
    (2e_i, e_i + e_j) and e_i + e_j, which factor."""
    seen = set()
    for name, H in _oracle_models(certified).items():
        for lbl in ("s", "t", "w", "mod(s,v)"):
            ctx = PropertyContext(H, system(lbl, H), 8)
            if ctx.singular:
                witnesses = [_least_singular_principal(ctx)]
            elif len(H.counting) >= 2:
                i, j = sorted(H.counting)[:2]
                witnesses = [_pair_witness(ctx, 3), _pair_witness(ctx, 2),
                             principal(H, tuple(int(a in (i, j))
                                                for a in range(H.dim)))]
            else:
                witnesses = []
            for w in witnesses:
                for inv in (False, True):
                    got = _find_radical_product(ctx.sys, w, inv)
                    want = bf.radical_product_full(ctx.sys, w, inv)
                    assert (got is None) == (want is None), \
                        (name, lbl, w.gens, inv)
                    seen.add(got is None)
    assert seen == {True, False}


def test_each_box_scan_runs_once(monkeypatch):
    # the primary scan depends on the model, the ideal and the box, not on
    # the system: s, w and t refute at one witness with one scan
    scans = []
    scan = K.primary_violation

    def count(pack, members, gens_i, gens_rad):
        scans.append(gens_i)
        return scan(pack, members, gens_i, gens_rad)

    monkeypatch.setattr(K, "primary_violation", count)
    classify(parse_monoid("name = g23x4\n" + "coord = numerical 2 3\n" * 4))
    assert len(scans) == 1


def _taken(ctx, prop):
    v = ctx.prop(prop)
    return v.verdict == "true" and not v.vacuous


def test_true_branches_hold_on_boxes(certified):
    """The structural arguments behind the deciders' true branches
    (docs/exactness.md), re-checked on boxes and closed-ideal lattices:
    support cells are closed under every system, and every non-vacuous true
    verdict below survives the check that backs it."""
    models = dict(certified, free3=free_monoid("free3", 3))
    for name, H in models.items():
        for lbl in ("s", "t", "v", "w", "mod(s,v)"):
            sys = system(lbl, H)
            for S, C in PropertyContext(H, sys, 8).cells():
                assert close(sys, C) == C, (name, lbl, sorted(S))
        glob = PropertyContext(H, system("t", H), 8)
        if _taken(glob, "radical_factorial"):
            for v in H.enumerate(4)[:40]:
                if any(v[i] for i in H.counting):
                    assert radical_factor_principal(H, v).ok, (name, v)
        if _taken(glob, "intersection_localizations"):
            locs = [H.localize(P.face) for P in height_one(H)]
            for v in itertools.product(range(-2, 3), repeat=H.dim):
                if all(L.contains(v) for L in locs):
                    assert H.contains(v), (name, v)
        for lbl in ("s", "w", "t"):
            ctx = PropertyContext(H, system(lbl, H), 8)
            sys = ctx.sys
            # a 3-d model's radius-8 lattice is over budget, a radius-2 one
            # still gives ideals to check
            lat = ctx.lattice() or ctx.lattice_at(2)
            proper = [I for I in lat if ctx.proper(I)]
            where = (name, lbl)
            if _taken(ctx, "sp"):
                for I in proper:
                    assert sp_factor(I, sys).ok, (where, I)
            cp = {P.ideal.gens for P in ctx.closed_primes()}
            for prop, primary_only in (("ppc", True), ("strong_ppc", False)):
                if not _taken(ctx, prop):
                    continue
                for I in proper:
                    R = radical(I)
                    if R.gens not in cp:
                        continue
                    if primary_only and not _box_primary(ctx, I):
                        continue
                    assert _is_power_of(sys, I, R) is not None, (where, I)
            inv = [I for I in proper if is_invertible(I, sys)]
            if _taken(ctx, "invertibles_radical_factorial"):
                for I in inv[:40]:
                    assert meager_factor(I, sys).ok, (where, I)
            if _taken(ctx, "radical_invertible_invertible"):
                for I in inv[:40]:
                    R = radical(I)
                    assert close(sys, R) == R, (where, I)
                    assert is_invertible(R, sys), (where, I)
            if _taken(ctx, "meager_radical_intersections"):
                for I in inv[:20]:
                    assert _meager_intersection_exists(ctx, I), (where, I)
