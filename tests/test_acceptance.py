"""The ten acceptance gates, one test per criterion, in order.

Each test is self-contained and states its expected aggregate inline; the
slow sweeps (1, 3, 5, 10) also enforce their runtime budgets.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bruteforce as bf
import idealis
from idealis import corpus
from idealis.classify import suite_battery
from idealis.factor import (Failure, divides_in_invertibles, is_invertible,
                            radical_closed_ideals, radical_factor_principal,
                            sp_factor, support_witness)
from idealis.ideals import (ideal_eq, ideal_from, ideal_intersect,
                            ideal_subset, ideal_sum, ideal_union, principal,
                            radical, unit_ideal)
from idealis.monoid import to_text
from idealis.spectrum import height_one, primes, r_max
from idealis.systems import (axioms_check, close, closed_ideals,
                             dropped_generator_close, modular_close, system)
from idealis.systems import _axioms_check_fn

NINE_SUITES = ("Thm4.2", "Cor4.4", "Cor4.5", "Thm3.9", "Thm3.10", "Prop3.6",
               "Prop5.2", "Cor5.3", "Cor4.6")


@pytest.fixture(scope="module")
def corpus_entries():
    return corpus.members()


@pytest.fixture(scope="module")
def corpus_certified(corpus_entries):
    return [e for e in corpus_entries if e.model.certified]


def test_c01_axiom_suite(corpus_certified, gap23):
    """s, t, w pass the sampled axioms on every certified monoid; the
    broken closure control fails with an extension witness; under 30 s."""
    t0 = time.perf_counter()
    for e in corpus_certified:
        for lbl in ("s", "t", "w"):
            rep = axioms_check(system(lbl, e.model), samples=200, radius=4,
                               seed=0)
            assert rep.ok, (e.name, lbl, rep.failures)
    elapsed = time.perf_counter() - t0

    control = _axioms_check_fn(dropped_generator_close(system("t", gap23)),
                               gap23, "control", samples=200, radius=4, seed=0)
    assert not control.ok
    assert control.failures[0]["axiom"] == "A"

    assert elapsed < 30.0, f"axiom sweep took {elapsed:.1f}s"


def _antichain_ideals(H, radius):
    """Every distinct ideal with canonical generators in the box: one per
    antichain of nonzero box members, plus H itself."""
    pts = [p for p in H.enumerate(radius) if any(p)]
    fams = [()]
    def rec(start, chosen):
        for j in range(start, len(pts)):
            p = pts[j]
            if any(H.divides(c, p) or H.divides(p, c) for c in chosen):
                continue
            chosen.append(p)
            fams.append(tuple(chosen))
            rec(j + 1, chosen)
            chosen.pop()
    rec(0, [])
    return [unit_ideal(H) if not f else ideal_from(f, H) for f in fams]


@pytest.mark.parametrize("name", ["n345", "n2", "g23xn"])
def test_c02_modularization_equivalence(named, name):
    """modular_close(s,t,.) equals the definitional membership oracle on
    every ideal generated inside the radius-6 box."""
    H = named[name]
    s, t = system("s", H), system("t", H)
    checked = 0
    for X in _antichain_ideals(H, 6):
        got = modular_close(s, t, X)
        gotw = {tuple(p[i] for i in H.counting) for p in got.members(6)}
        want = bf.mod_st_members(H, X.gens, 6)
        assert gotw == want, (name, X.gens)
        checked += 1
    assert checked >= {"n345": 12, "n2": 3431, "g23xn": 6797}[name]


def test_c03_closure_oracle(corpus_certified):
    """close(t, X) equals the double-inverse fixed point on 100 seeded
    generator sets per corpus monoid."""
    for idx, e in enumerate(corpus_certified):
        H = e.model
        rng = random.Random(1000 + idx)
        box = [v for v in H.enumerate(4) if any(v)] or H.enumerate(4)
        t = system("t", H)
        for _ in range(100):
            gens = tuple(rng.choice(box) for _ in range(rng.randrange(1, 4)))
            Y = close(t, ideal_from(gens, H))
            got = {tuple(p[i] for i in H.counting) for p in Y.members(5)
                   if all(p[i] <= 5 for i in H.counting)}
            assert got == bf.v_members(H, gens, 5), (e.name, gens)


def test_c04_spectrum_goldens(n2, gap23, g23xn):
    def shape(H):
        return sorted((P.height, tuple(sorted(P.face))) for P in primes(H).primes)

    assert shape(n2) == [(1, (0,)), (1, (1,)), (2, ())]
    assert shape(gap23) == [(1, ())]
    assert shape(g23xn) == [(1, (0,)), (1, (1,)), (2, ())]
    # every constructed prime ideal survives a definitional primality check
    for H in (n2, gap23, g23xn):
        for P in primes(H).primes:
            assert bf.is_prime_box(H, P.ideal.gens, 5)
    assert sorted(sorted(P.face) for P in r_max(system("t", g23xn))) \
        == [[0], [1]]
    assert [sorted(P.face) for P in r_max(system("s", g23xn))] == [[]]


def test_c05_tfae_agreement(corpus_entries):
    """All nine suites agree internally on every certified corpus monoid;
    aggregates match the expected class of each monoid."""
    all_true = {"n1", "n2", "n3", "nxz", "z1", "z2"}
    t0 = time.perf_counter()
    worst = 0.0
    for e in corpus_entries:
        if not e.model.certified:
            continue
        s0 = time.perf_counter()
        battery = suite_battery(e.model, radius=8, names=NINE_SUITES)
        worst = max(worst, time.perf_counter() - s0)
        for suite, rep in battery.items():
            assert rep.agreement, (e.name, suite)
            verdicts = {c.verdict for c in rep.conditions if not c.vacuous}
            if e.name in all_true:
                assert verdicts <= {"true"}, (e.name, suite)
            elif e.family == "frobenius15" or e.name in {
                    "gap23", "n345", "n25", "n357", "g23xn", "g23x25",
                    "g23xz"}:
                assert "true" not in verdicts, (e.name, suite)
    total = time.perf_counter() - t0
    assert worst < 60.0, f"slowest monoid took {worst:.1f}s"
    assert total < 300.0, f"corpus sweep took {total:.1f}s"


def test_c06_factorization_goldens(n2, gap23):
    for a in range(7):
        for b in range(7):
            if (a, b) == (0, 0):
                continue
            ch = radical_factor_principal(n2, (a, b))
            assert len(ch.factors) == max(a, b), (a, b)
            assert ch.comparable
            acc = unit_ideal(n2)
            for F in ch.factors:
                acc = close(ch.system, ideal_sum(acc, F))
            assert acc == ch.target

    f = radical_factor_principal(gap23, (2,))
    assert isinstance(f, Failure)
    assert f.witness.gens == ((2,), (3,))

    tg = system("t", gap23)
    f = sp_factor(close(tg, ideal_from([(3,)], gap23)), tg)
    assert isinstance(f, Failure) and f.reason == "RadicalNotInvertible"


def test_c07_power_obstruction_trials(named, corpus_entries):
    """k+1 radical closed ideals under one height-one prime: their closed
    product admits no k-th power of a nonzero radical element."""
    hosts = []
    pool_models = [named[n] for n in ("gap23", "n345", "n25", "n357", "n2",
                                      "n3", "g23xn", "g23x25", "nxz")]
    pool_models += [e.model for e in corpus_entries
                    if e.family == "frobenius15"][::40]
    for H in pool_models:
        for lbl in ("s", "w", "t"):
            sys_ = system(lbl, H)
            fam = radical_closed_ideals(sys_)
            for P in height_one(H):
                pool = [I for I in fam if ideal_subset(I, P.ideal)]
                if pool:
                    hosts.append((H, sys_, pool))

    cache = {}
    def radical_elements(H):
        if H.name not in cache:
            cache[H.name] = [
                x for x in H.enumerate(4)
                if any(x) and ideal_eq(radical(principal(H, x)),
                                       principal(H, x))]
        return cache[H.name]

    rng = random.Random(33)
    for _ in range(1000):
        H, sys_, pool = hosts[rng.randrange(len(hosts))]
        k = rng.randrange(1, 4)
        picks = [pool[rng.randrange(len(pool))] for _ in range(k + 1)]
        prod = picks[0]
        for I in picks[1:]:
            prod = ideal_sum(prod, I)
        prod = close(sys_, prod)
        for x in radical_elements(H):
            kx = tuple(k * c for c in x)
            assert not prod.contains_vec(kx), \
                (H.name, sys_.label, k, x, [I.gens for I in picks])


@pytest.mark.parametrize("name", ["n2", "nxz"])
def test_c08_divisibility_containment(named, name):
    """Among box-enumerable t-invertible ideals: dividing is containing,
    and the product identity through intersection and union holds."""
    H = named[name]
    t = system("t", H)
    inv = [I for I in closed_ideals(t, 5) if is_invertible(I, t)]
    assert len(inv) == {"n2": 36, "nxz": 6}[name]
    for I, J in itertools.product(inv, repeat=2):
        assert divides_in_invertibles(I, J, t) == ideal_subset(J, I)
        lhs = close(t, ideal_sum(I, J))
        rhs = close(t, ideal_sum(ideal_intersect(I, J),
                                 close(t, ideal_union(I, J))))
        assert lhs == rhs


def test_c09_support_witness(n2):
    X1 = height_one(n2)
    box = [(x, y) for x in range(5) for y in range(5)]
    for g1, g2 in itertools.combinations_with_replacement(box, 2):
        I = ideal_from([g1, g2], n2)
        z = support_witness(I)
        for P in X1:
            assert P.ideal.contains_vec(z) == P.contains(I), (g1, g2)
    assert support_witness(ideal_from([(1, 0), (0, 1)], n2)) == (0, 0)


def test_c10_cli_determinism(tmp_path, corpus_entries):
    """Two analyze runs over the full corpus emit identical bytes."""
    dest = tmp_path / "corpus"
    dest.mkdir()
    for e in corpus_entries:
        (dest / f"{e.name}.spec").write_text(to_text(e.model))

    src = str(Path(idealis.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "idealis.cli", "analyze", str(dest),
           "--json", "--seed", "0"]
    runs = [subprocess.run(cmd, capture_output=True, env=env)
            for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    doc = json.loads(runs[0].stdout)
    assert len(doc["reports"]) == len(corpus_entries)
