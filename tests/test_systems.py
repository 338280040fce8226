"""Ideal system construction, closures against oracles, axiom checks."""

import itertools
import operator
import random
import time
from functools import partial
from operator import add

import pytest

import bruteforce as bf
from idealis import _kernel as K
from idealis import systems
from idealis.ideals import Ideal, ideal_from, ideal_subset
from idealis.monoid import MonoidModel, free_monoid, parse_monoid
from idealis.systems import (axioms_check, close, closed_ideals,
                             dropped_generator_close, modular_close,
                             modular_law_violation, modularization,
                             r_max_faces, system)


def members_set(I, window):
    return {tuple(p) for p in I.members(window)}


def test_tokens_intern(gap23):
    assert system("t", gap23) is system("t", gap23)
    assert system("w", gap23) is modularization(system("s", gap23),
                                                system("t", gap23))
    assert system("s", gap23).label == "s"


def test_mod_token_closes_like_w(gap23):
    # "mod(s,t)" is its own registry entry but must close identically to w
    a, b = system("mod(s,t)", gap23), system("w", gap23)
    for gens in ([(2,)], [(3,), (4,)], [(5,), (7,)]):
        X = ideal_from(gens, gap23)
        assert close(a, X) == close(b, X)


def test_unknown_token(gap23):
    with pytest.raises(ValueError, match="unknown ideal system"):
        system("q", gap23)


def test_mod_requires_comparable_systems(n345):
    # t does not sit below s here: <3,4,5> is not symmetric, so ideal{4,5}
    # is not divisorial
    with pytest.raises(ValueError, match="operators compare as t > s"):
        system("mod(t,s)", n345)


def test_t_equals_v_on_these_models(certified):
    rng = random.Random(3)
    for H in certified.values():
        box = H.enumerate(4)
        for _ in range(6):
            gens = tuple(rng.choice(box) for _ in range(rng.randrange(1, 4)))
            X = ideal_from(gens, H)
            if X.is_empty:
                continue
            assert close(system("t", H), X) == close(system("v", H), X)


@pytest.mark.parametrize("name", ["gap23", "n345", "n2", "g23xn", "nxz", "z2"])
def test_t_closure_matches_grid(named, name):
    H = named[name]
    rng = random.Random(11)
    box = [v for v in H.enumerate(4) if any(v)] or H.enumerate(4)
    t = system("t", H)
    for _ in range(12):
        gens = tuple(rng.choice(box) for _ in range(rng.randrange(1, 4)))
        Y = close(t, ideal_from(gens, H))
        window = 5
        want = bf.v_members(H, gens, window)
        got = {tuple(p[i] for i in H.counting) for p in Y.members(window)
               if all(p[i] <= window for i in H.counting)}
        assert got == want, (name, gens)


@pytest.mark.parametrize("name", ["gap23", "n345", "n2", "g23xn"])
def test_w_closure_matches_grid(named, name):
    H = named[name]
    rng = random.Random(7)
    box = [v for v in H.enumerate(4) if any(v)]
    s, t = system("s", H), system("t", H)
    for _ in range(8):
        gens = tuple(rng.choice(box) for _ in range(rng.randrange(1, 3)))
        Y = modular_close(s, t, ideal_from(gens, H))
        assert Y == close(system("w", H), ideal_from(gens, H))
        window = 5
        want = bf.mod_st_members(H, gens, window)
        got = {tuple(p[i] for i in H.counting) for p in Y.members(window)
               if all(p[i] <= window for i in H.counting)}
        assert got == want, (name, gens)


def test_s_below_w_below_t(certified):
    for H in certified.values():
        for lo, hi in (("s", "w"), ("w", "t")):
            rep = bf.leq_check(system(lo, H), system(hi, H), samples=20,
                               radius=4, seed=1)
            assert rep.ok, (H.name, lo, hi, rep.failures)


def test_w_satisfies_modular_law(n345, g23xn):
    for H in (n345, g23xn):
        w = system("w", H)
        rng = random.Random(5)
        box = [v for v in H.enumerate(4) if any(v)]
        for _ in range(10):
            I = close(w, ideal_from([rng.choice(box)], H))
            N = close(w, ideal_from(I.gens + (rng.choice(box),), H))
            J = close(w, ideal_from([rng.choice(box), rng.choice(box)], H))
            if not ideal_subset(I, N):
                continue
            assert modular_law_violation(w, I, J, N) is None


@pytest.mark.parametrize("label", ["s", "w", "t"])
def test_axioms_hold(certified, label):
    for H in certified.values():
        rep = axioms_check(system(label, H), samples=40, radius=4, seed=2)
        assert rep.ok, (H.name, label, rep.failures)
        assert rep.counts["A"] == 40


def test_axioms_catch_a_broken_closure(gap23):
    # dropping a generator breaks extension; the checker must say so
    from idealis.systems import _axioms_check_fn
    t = system("t", gap23)
    rep = _axioms_check_fn(dropped_generator_close(t), gap23,
                           "broken", samples=40, radius=4, seed=0)
    assert not rep.ok
    assert rep.failures[0]["axiom"] == "A"
    assert "witness" in rep.failures[0]


def _pass_path_draws(H, samples, radius, seed):
    """What a fresh sampler draws for an axiom check whose every sample
    passes A: gens, h, g, extra and c per sample, in that order."""
    members = H.enumerate(radius)
    below, sample = systems._sampler(random.Random(seed), members,
                                     systems._box_vectors(H, radius))
    out = []
    for _ in range(samples):
        gens = sample(1 + below(4))
        h = members[below(len(members))]
        g = gens[below(len(gens))]
        extra = sample(1 + below(2))
        c = members[below(len(members))]
        out.append((gens, tuple(map(add, g, h)), extra, c))
    return out


def _tape_models(certified):
    from idealis import corpus
    frob = corpus.members("frobenius15")
    return list(certified.values()) + [frob[i].model for i in (0, 300, 500)]


@pytest.mark.parametrize("samples,radius,seed", [(200, 4, 0), (50, 6, 3)])
def test_axiom_tape_is_the_sampler_stream(certified, samples, radius, seed):
    """The draw stream is the pass path's, and the tape holds, in order,
    exactly the samples with a new check input: each at its index, with
    its draws, its ideals and the bits of its new checks."""
    for H in _tape_models(certified):
        tape = systems._axiom_tape(H, samples, radius, seed)
        stream = list(systems._draw_stream(H, radius, seed, samples))
        assert stream == _pass_path_draws(H, samples, radius, seed)
        seen = set()
        want = []
        for k, (gens, probe, extra, c) in enumerate(stream, 1):
            X = ideal_from(gens, H)
            Y = ideal_from(gens + extra, H)
            Xc = ideal_from([tuple(map(add, c, g)) for g in gens], H)
            new = 0
            for bit, key in ((systems._NEW_X, ("X", X.gens)),
                             (systems._NEW_PROBE, ("probe", X.gens, probe)),
                             (systems._NEW_Y, ("Y", X.gens, Y.gens)),
                             (systems._NEW_SHIFT, ("shift", X.gens, c))):
                if key not in seen:
                    seen.add(key)
                    new |= bit
            if new:
                want.append((k, gens, probe, X, Y, Xc, extra, c, new))
        assert list(tape) == want
        # equal ideals are one object
        ideals = [I for t in tape for I in t[3:6]]
        assert len({id(I) for I in ideals}) == len({I.gens for I in ideals})
        assert systems._axiom_tape(H, samples, radius, seed) is tape


def test_axiom_checks_share_one_draw_tape(monkeypatch, certified):
    # s draws the tape; t and w, at the same arguments, draw nothing.
    log = []
    monkeypatch.setattr(systems.random, "Random", _recording_random(log))
    for H in _tape_models(certified):
        H = MonoidModel(H.name, H.coords)
        axioms_check(system("s", H), samples=200, radius=4, seed=0)
        drawn = len(log)
        assert drawn > 0
        for label in ("t", "w"):
            axioms_check(system(label, H), samples=200, radius=4, seed=0)
        assert len(log) == drawn, H.name


@pytest.mark.parametrize("samples,radius,seed", [(200, 4, 0), (50, 6, 3)])
def test_axiom_reports_do_not_depend_on_check_order(certified, samples,
                                                    radius, seed):
    def run(H, labels):
        return {label: axioms_check(system(label, H), samples, radius,
                                    seed).to_json()
                for label in labels}

    for H in _tape_models(certified):
        forward = run(MonoidModel(H.name, H.coords), "stw")
        backward = run(MonoidModel(H.name, H.coords), "wts")
        alone = {}
        for label in "stw":
            alone.update(run(MonoidModel(H.name, H.coords), label))
        assert forward == backward == alone, H.name
        assert all(doc["ok"] for doc in forward.values()), H.name


def test_failing_sample_replays_its_own_draws(certified):
    """A sample failing A inside the generator loop draws no h and g, so
    its extra and c are not the tape's.  A control run after passing
    checks on one model reports exactly what it reports on a fresh one,
    which is what the every-sample oracle reports."""
    from idealis.ideals import Ideal

    def doubling(H):
        # neither extensive nor translation equivariant: C shows its c
        return lambda X: Ideal(H, tuple(sorted(
            tuple(2 * x for x in g) for g in close(system("t", H), X).gens)))

    replayed = 0
    for H in certified.values():
        for broken in (lambda H: dropped_generator_close(system("t", H)),
                       doubling):
            fresh = MonoidModel(H.name, H.coords)
            want = systems._axioms_check_fn(broken(fresh), fresh, "control",
                                            200, 4, 0).to_json()
            assert want == bf.axioms_every_sample(
                broken(fresh), fresh, "control", 200, 4, 0).to_json()
            used = MonoidModel(H.name, H.coords)
            for label in ("s", "t", "w"):
                assert axioms_check(system(label, used), 200, 4, 0).ok
            got = systems._axioms_check_fn(broken(used), used, "control",
                                           200, 4, 0).to_json()
            assert got == want, H.name
            if not got["failures"] or got["failures"][0]["axiom"] != "A":
                # doubling may keep extension on a model; the c01 control
                # never does
                assert broken is doubling, H.name
                continue
            first = got["failures"][0]
            k = got["counts"]["A"]
            shifts = [f["shift"] for f in got["failures"] if f["axiom"] == "C"]
            if first["witness"] in first["gens"] and shifts:
                *_, (_, _, _, stream_c) = systems._draw_stream(used, 4, 0, k)
                replayed += shifts[0] != list(stream_c)
    # the replay changed a reported shift somewhere, so the check has teeth
    assert replayed > 0


def test_axiom_check_is_the_every_sample_oracle():
    """The check, which runs each distinct check input once, reports what
    the oracle that runs every check on every sample reports: for s, t and
    w on every certified corpus model and its localizations, at c01's
    arguments, at analyze's with seed 1 and at (50, 6, 3).  w is held
    against the oracle where it closes differently from s; on a t-local
    model ``close`` closes w as s, so its closure function is s's."""
    from idealis import corpus
    for e in corpus.members():
        if not e.model.certified:
            continue
        H = MonoidModel(e.name, e.model.coords)
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            # one label per operator, s's where w closes as s
            labels = {system(label, L).op: label
                      for label in ("w", "t", "s")}
            for args in ((200, 4, 0), (200, 6, 1), (50, 6, 3)):
                for label in sorted(labels.values()):
                    close_fn = partial(close, system(label, L))
                    want = bf.axioms_every_sample(close_fn, L, label, *args)
                    got = systems._axioms_check_fn(close_fn, L, label, *args)
                    assert got.to_json() == want.to_json(), \
                        (L.name, label, args)


def _failed_by(f, check, probe):
    """Is the failure f one of ``check``'s?"""
    if check == "A loop":
        return f["axiom"] == "A" and f["witness"] in f["gens"]
    if check == "A probe":
        return (f["axiom"] == "A" and f["witness"] == list(probe)
                and f["witness"] not in f["gens"])
    if check == "C":
        return f["axiom"] == "C"
    return f["axiom"] == "B" and f["kind"] == check.split()[1]


@pytest.mark.parametrize("check", ["A loop", "A probe", "B idempotence",
                                   "B monotonicity", "C"])
@pytest.mark.parametrize("name,args", [("n345", (200, 6, 1)),
                                       ("n2", (200, 4, 0))])
def test_check_first_run_after_sample_50_reports_the_oracles_failure(
        monkeypatch, named, name, args, check):
    """A closure that is t's except on one input, first drawn after sample
    50, fails the check that input is new to: at the oracle's sample, with
    the oracle's witness or shift, and with the rest of that sample's
    failures.  The input is X for A's loop, X's t-closure for B's
    idempotence, X plus ``extra`` for B's monotonicity and X + c for C,
    and the broken closure sends it to the empty ideal.  No closure fails
    A's probe alone, as the probe g + h lies in g + H, so there the
    kernel's membership test fails for one (probe, closure) pair."""
    real = K.divisible_any
    samples, radius, seed = args
    stream = list(systems._draw_stream(named[name], radius, seed, samples))
    for k, (gens, probe, extra, c) in enumerate(stream[50:], 51):
        H = MonoidModel(name, named[name].coords)
        t = system("t", H)
        X = ideal_from(gens, H)
        Xr = close(t, X)
        target = {"A loop": X, "A probe": X, "B idempotence": Xr,
                  "B monotonicity": ideal_from(gens + extra, H),
                  "C": ideal_from([tuple(map(add, c, g)) for g in gens],
                                  H)}[check].gens

        def broken(I):
            return Ideal(H, ()) if I.gens == target else close(t, I)

        def membership(pack, v, gs):
            return (v != probe or gs != Xr.gens) and real(pack, v, gs)

        with monkeypatch.context() as patch:
            if check == "A probe":
                patch.setattr(K, "divisible_any", membership)
                broken = partial(close, t)
            want = bf.axioms_every_sample(broken, H, "broken", *args)
            if (want.counts["A"] != k
                    or not _failed_by(want.failures[0], check, probe)):
                continue
            got = systems._axioms_check_fn(broken, H, "broken", *args)
        assert got.to_json() == want.to_json(), k
        return
    pytest.fail(f"no input first drawn after sample 50 fails {check}")


@pytest.mark.parametrize("name", ["gap23", "n2"])
def test_each_distinct_check_input_is_closed_once(named, name):
    """On a passing check the closure function is called once per distinct
    (check, input) of the sample stream, in stream order: X for A's loop
    and X's closure for B's idempotence, once per X; X plus ``extra`` for
    B's monotonicity, once per (X, Y); X + c for C, once per (X, c).  A's
    probe calls no closure."""
    H = MonoidModel(name, named[name].coords)
    t = system("t", H)
    calls = []

    def counting(X):
        calls.append(X.gens)
        return close(t, X)

    assert systems._axioms_check_fn(counting, H, "t", 200, 4, 0).ok
    seen = set()
    want = []
    for gens, probe, extra, c in systems._draw_stream(H, 4, 0, 200):
        X = ideal_from(gens, H)
        Y = ideal_from(gens + extra, H)
        Xc = ideal_from([tuple(map(add, c, g)) for g in gens], H)
        inputs = {("X", X.gens): [X.gens, close(t, X).gens],
                  ("Y", X.gens, Y.gens): [Y.gens],
                  ("C", X.gens, c): [Xc.gens]}
        for key, closed in inputs.items():
            if key not in seen:
                seen.add(key)
                want += closed
    assert calls == want
    # running every check on every sample closes four ideals a sample
    assert len(calls) < 4 * 200


# The tokens of the face lemma's test, and its two mixed products.
FACE_TOKENS = ("s", "t", "v", "w", "mod(s,v)", "mod(t,t)", "mod(s,s)",
               "mod(w,t)", "mod(s,w)", "mod(mod(s,s),t)", "mod(s,mod(s,s))",
               "mod(w,w)")
MIXED_SPECS = ("name = g23xn3\ncoord = numerical 2 3\ncoord = free 3",
               "name = n345xg23xzxn\ncoord = numerical 3 4 5\n"
               "coord = numerical 2 3\ncoord = group 1\ncoord = free 1")


def test_maximal_faces_are_local_or_height_one(certified):
    """Every system's maximal closed primes are the maximal ideal alone or
    exactly the height-one primes (``docs/exactness.md``, "Modularization
    as a finite intersection").  On the certified named models, free 3,
    free 4 and two mixed products, and on every localization of these.
    Each modularization also closes every prime and four random ideals as
    the choice-function product of its left operand's closure over its
    right operand's maximal faces: the closed primes the lemma counts do
    not come from the hull alone, and the hull is taken of the left
    operand's closure."""
    models = [MonoidModel(name, H.coords) for name, H in certified.items()]
    models += [free_monoid("free3", 3), free_monoid("free4", 4)]
    models += map(parse_monoid, MIXED_SPECS)
    rng = random.Random(67)
    seen = set()
    for H in models:
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            faces = systems.proper_faces(L)
            height_one = tuple(f for f in faces
                               if len(f) == len(L.counting) - 1)
            ideals = [Ideal(L, systems._prime_gens(L, f)) for f in faces]
            keep = L.counting_mask
            ideals += [ideal_from([[k * rng.randint(0, 6) for k in keep]
                                   for _ in range(rng.randint(1, 3))], L)
                       for _ in range(4)]
            for token in FACE_TOKENS:
                sys = system(token, L)
                got = r_max_faces(sys)
                assert got in ((frozenset(),), height_one), (L.name, token)
                seen.add((len(L.counting) > 1, got == height_one))
                if sys.kind != "mod":
                    continue
                p, r = sys.parts
                for X in ideals:
                    assert close(sys, X).gens == bf.modular_close_choice(
                        L, close(p, X).gens, r_max_faces(r)), (L.name, token)
    # local and height-one systems both occur from two counting coordinates
    assert seen == {(False, True), (True, False), (True, True)}


def test_operator_and_faces_are_the_stepping_rules():
    """Each system's operator, closed primes, maximal closed primes and
    closure are what the rules they replaced give: closing every prime,
    and stepping from mod(p, r) to p while H is r-local, then closing a
    modularization as the hull of its left operand's closure.  On every
    certified corpus model and its localizations, free 3, free 4 and the
    face lemma's two mixed products, for its tokens, mod(t,s) and
    mod(v,w), over 20 seeded ideals each; a token whose operands fail
    p <= r is skipped."""
    from idealis import corpus
    models = [MonoidModel(e.name, e.model.coords)
              for e in corpus.members() if e.model.certified]
    models += [free_monoid("free3", 3), free_monoid("free4", 4)]
    models += map(parse_monoid, MIXED_SPECS)
    tokens = FACE_TOKENS + ("mod(t,s)", "mod(v,w)")
    rng = random.Random(28)
    built = dict.fromkeys(tokens, 0)
    ops = set()
    for H in models:
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            box = systems._box_vectors(L, 4)
            keep = L.counting_mask
            ideals = [ideal_from([tuple(map(operator.mul, keep, rng.choice(box)))
                                  for _ in range(rng.randint(1, 3))], L)
                      for _ in range(20)]
            for token in tokens:
                try:
                    sys = system(token, L)
                except ValueError as exc:
                    assert "operators compare as" in str(exc), (L.name, token)
                    continue
                built[token] += 1
                ops.add(sys.op)
                closed = bf.closed_faces_by_closing(sys)
                assert systems.closed_faces(sys) == closed, (L.name, token)
                assert r_max_faces(sys) == bf.maximal_faces(closed), \
                    (L.name, token)
                assert sys.op == bf.op_by_stepping(sys), (L.name, token)
                for X in ideals:
                    assert close(sys, X).gens == bf.close_by_stepping(
                        sys, X.gens), (L.name, token, X.gens)
    assert all(built.values()), built
    assert ops == {"s", "t", "hull"}


# The modularizations of the order test besides the face lemma's, and the
# semigroups whose products with N, Z and one another it adds.
ORDER_TOKENS = ("mod(t,s)", "mod(v,s)", "mod(t,w)", "mod(v,w)", "mod(w,s)",
                "mod(t,mod(s,s))", "mod(mod(t,t),s)", "mod(s,t)",
                "mod(w,mod(s,s))")
ORDER_FACTORS = ("numerical 3 4 5", "numerical 2 3", "numerical 2 5",
                 "numerical 3 5 7")


def test_order_is_the_sampled_precondition():
    """mod(p, r) resolves exactly where the sampled p <= r check it
    replaced passes (``bruteforce.leq_check`` at 16 samples, radius 4 and
    seed 7), for ORDER_TOKENS and the face lemma's modularizations.  On
    every certified corpus model, free 3, free 4, the face lemma's two
    mixed products, the products of ORDER_FACTORS with N, Z and one
    another, and every localization of these.  Sampling can refute p <= r
    only, so the rule is sound where it accepts, and the sample finds a
    refutation wherever it rejects."""
    from idealis import corpus
    models = [MonoidModel(e.name, e.model.coords)
              for e in corpus.members() if e.model.certified]
    models += [free_monoid("free3", 3), free_monoid("free4", 4)]
    models += map(parse_monoid, MIXED_SPECS)
    models += [parse_monoid(f"name = x{k}\ncoord = {a}\ncoord = {b}")
               for k, (a, b) in enumerate(
                   itertools.combinations_with_replacement(
                       ORDER_FACTORS + ("free 1", "group 1"), 2))
               if a in ORDER_FACTORS]
    tokens = ORDER_TOKENS + tuple(t for t in FACE_TOKENS if t[:4] == "mod(")
    verdicts = {token: set() for token in tokens}
    for H in models:
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            for token in tokens:
                p, r = (system(x, L)
                        for x in systems._split_args(token[4:-1]))
                want = bf.leq_check(p, r, samples=16, radius=4, seed=7).ok
                try:
                    system(token, L)
                    got = True
                except ValueError as exc:
                    assert f"operators compare as {p.op} > {r.op}" in \
                        str(exc), (L.name, token)
                    got = False
                assert got == want, (L.name, token)
                verdicts[token].add(got)
    # each collapse both holds and fails somewhere: t = s (mod(t,s)),
    # hull = s (mod(w,s)) and t = hull (mod(t,w))
    assert all(verdicts[t] == {True, False}
               for t in ("mod(t,s)", "mod(w,s)", "mod(t,w)")), verdicts
    assert verdicts["mod(s,t)"] == verdicts["mod(w,t)"] == {True}


def test_t_is_s_exactly_on_symmetric_coordinates():
    """A numerical semigroup has every fractional ideal divisorial exactly
    when it is symmetric (Kunz), which is the t = s collapse of the order:
    on every one-dimensional certified corpus model, t leaves every ideal
    with at most three generators in [0, F + n1 + 2) as it is exactly
    when the coordinate is symmetric."""
    from idealis import corpus
    seen = []
    for e in corpus.members():
        if not e.model.certified or e.model.dim != 1:
            continue
        H = MonoidModel(e.name, e.model.coords)
        c = H.coords[0]
        t = system("t", H)
        top = c.frobenius + c.n1 + 2
        divisorial = all(
            close(t, X).gens == X.gens
            for k in (1, 2, 3)
            for X in (ideal_from([(g,) for g in gens], H)
                      for gens in itertools.combinations(range(top), k)))
        assert divisorial == c.symmetric, e.name
        seen.append(c.symmetric)
    assert 0 < sum(seen) < len(seen)


def test_faces_at_max_dim_close_nothing(monkeypatch):
    """s, t and w on free 16, the largest dimension a model takes, read
    their closed and maximal closed primes off the operator: no closure
    runs, and the 2^16 - 1 proper faces of s are listed within the bound
    (closing every prime took 14.1 s on a 2-CPU host)."""
    from idealis.monoid import MAX_DIM

    def no_close(sys, X):
        raise AssertionError(f"{sys.label} closed {X.gens}")

    monkeypatch.setattr(systems, "close", no_close)
    H = free_monoid("free16", MAX_DIM)
    every = frozenset(range(MAX_DIM))
    height_one = tuple(sorted((every - {i} for i in range(MAX_DIM)),
                              key=sorted))
    t0 = time.perf_counter()
    for label in ("s", "t", "w"):
        sys = system(label, H)
        closed = systems.closed_faces(sys)
        if label == "s":
            assert len(closed) == 2 ** MAX_DIM - 1 and closed[0] == frozenset()
            assert r_max_faces(sys) == (frozenset(),)
        else:
            assert closed == r_max_faces(sys) == height_one, label
    took = time.perf_counter() - t0
    assert took < 5.0, f"free 16's faces took {took:.1f}s"


def test_tokens_at_max_dim_resolve_from_the_operators(monkeypatch):
    """Every FACE_TOKENS entry, mod(t,s) and mod(v,w) resolve on free 16,
    the largest dimension a model takes, within the bound (under 1 ms
    measured on a 2-CPU host): nothing is drawn, enumerated or closed.
    The hull is t there and s lies below it, so mod(t,s) alone fails."""
    from idealis.monoid import MAX_DIM

    def refuse(*args, **kwargs):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(random, "Random", refuse)
    monkeypatch.setattr(MonoidModel, "enumerate", refuse)
    monkeypatch.setattr(systems, "_box_vectors", refuse)
    monkeypatch.setattr(systems, "close", refuse)
    H = free_monoid("free16", MAX_DIM)
    t0 = time.perf_counter()
    ops = {token: system(token, H).op for token in FACE_TOKENS + ("mod(v,w)",)}
    with pytest.raises(ValueError, match="operators compare as t > s"):
        system("mod(t,s)", H)
    took = time.perf_counter() - t0
    assert ops["mod(v,w)"] == "t" and ops["w"] == "hull"
    assert took < 0.5, f"free 16's tokens took {took:.2f}s"


def test_affine_lattice_raises_under_every_system(affine1):
    # an affine model has no kernel pack: no system lists its closed ideals
    H = MonoidModel(affine1.name, affine_gens=affine1.affine_gens)
    for label in ("s", "t", "w"):
        with pytest.raises(ValueError, match="affine models have no kernel"):
            closed_ideals(system(label, H), 3)


def test_local_modularization_closes_as_its_left_operand(gap23):
    """When r's only maximal closed prime is the maximal ideal, mod(p, r)
    returns the p-closure.  On every certified corpus model and its
    localizations, for w and mod(t,t), over the ideals a c01 sample draws,
    against the coordinatewise hull of the p-closure, which a t-local
    model, having one counting coordinate, leaves as it is.  (The
    localization at the empty face is the model itself.)"""
    from idealis import corpus
    local = 0
    for e in corpus.members():
        H = e.model
        if not H.certified:
            continue
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            t = system("t", L)
            faces = r_max_faces(t)
            ideals = {I for sample in systems._axiom_tape(L, 200, 4, 0)
                      for I in sample[3:6]}
            for label, p in (("w", system("s", L)), ("mod(t,t)", t)):
                sys = system(label, L)
                for X in ideals:
                    assert close(sys, X).gens == K.modular_close_gens(
                        L.pack, close(p, X).gens), (L.name, label)
                if faces == (frozenset(),):
                    # the shortcut fills no cache of its own
                    assert sys.cache is p.cache, L.name
            local += faces == (frozenset(),)
    assert local >= 586
    # the c01 control on w, which closes as s on gap23, still fails A
    assert r_max_faces(system("t", gap23)) == (frozenset(),)
    rep = systems._axioms_check_fn(
        dropped_generator_close(system("w", gap23)), gap23, "control",
        samples=200, radius=4, seed=0)
    assert rep.failures[0]["axiom"] == "A"
    assert "witness" in rep.failures[0]


def test_shared_axiom_outcome_is_the_unshared_report():
    """w's report, read from s's outcome wherever H is t-local, equals the
    report of a check that shares nothing: on every certified corpus model
    and its localizations, at c01's arguments and at another set on one
    model, with w checked before s and s reading what w left."""
    from functools import partial

    from idealis import corpus
    shared = 0
    for e in corpus.members():
        if not e.model.certified:
            continue
        H = MonoidModel(e.name, e.model.coords)
        for L in [H] + [H.localize(f) for f in systems.proper_faces(H) if f]:
            for args in ((200, 4, 0), (50, 6, 3)):
                for label in ("w", "s"):
                    sys = system(label, L)
                    want = systems._axioms_check_fn(
                        partial(close, sys), L, label, *args).to_json()
                    assert axioms_check(sys, *args).to_json() == want, \
                        (L.name, label, args)
            shared += system("w", L).op == "s"
    assert shared >= 586


def test_shared_axiom_outcome_carries_the_asked_label(monkeypatch, gap23):
    """A failure in the closure of the systems that close as s shows in
    w's report on a t-local model under w's own label, whichever system is
    checked first."""
    from idealis.ideals import Ideal
    real = systems.close

    def broken_s(sys, X):
        Y = real(sys, X)
        return Ideal(Y.monoid, Y.gens[:-1]) if sys.op == "s" else Y

    monkeypatch.setattr(systems, "close", broken_s)
    for order in ("ws", "sw"):
        # a fresh memo, so no outcome from an earlier check is read
        H = MonoidModel(gap23.name, gap23.coords)
        assert system("w", H).op == "s"
        reps = {label: axioms_check(system(label, H), 200, 4, 0).to_json()
                for label in order}
        for label, doc in reps.items():
            assert doc["what"] == f"axioms[{label}]"
            assert not doc["ok"] and doc["failures"][0]["axiom"] == "A"
            assert {f["system"] for f in doc["failures"]} == {label}
        relabelled = {**reps["s"], "what": "axioms[w]",
                      "failures": [{**f, "system": "w"}
                                   for f in reps["s"]["failures"]]}
        assert reps["w"] == relabelled
        # each call gets its own failures
        reps["w"]["failures"][0]["gens"].append("x")
        assert axioms_check(system("w", H), 200, 4, 0).to_json() == relabelled


def _memo_models(H):
    """H and every model reached through its memo (its localizations)."""
    yield H
    for v in list(H.memo.values()):
        if isinstance(v, MonoidModel):
            yield from _memo_models(v)


def test_closure_memos_keep_one_object_per_value():
    """After c01's s, t and w checks on the certified named models, free 3
    and the sixth of frobenius15 that perfbench's axiom sweep can pick,
    and after classify on the first two, on fresh copies and on their
    localizations: every memoised closure is the one object the model
    keeps for its value, whichever system and input reached it; it closes
    to itself, and so does an equal copy of it built from new tuples; and
    every generator vector of a memoised closure that no memo holds as its
    own input is the object the model's vector table holds."""
    from idealis import corpus
    from idealis.classify import classify
    from idealis.ideals import Ideal
    models = [MonoidModel(e.name, e.model.coords)
              for e in corpus.members("named") if e.model.certified]
    models.append(free_monoid("free3", 3))
    swept = [MonoidModel(e.name, e.model.coords)
             for e in corpus.members("frobenius15")[::6]]
    for H in models + swept:
        for label in ("s", "t", "w"):
            assert axioms_check(system(label, H), samples=200, radius=4,
                                seed=0).ok
    for H in models:
        classify(H)
    kept = built = 0
    for H in models + swept:
        for L in _memo_models(H):
            table = L.memo.get(("vectors",), {})
            values = L.memo.get(("closures",), {})
            memos = [(sys, key, Y) for sys in L.memo.values()
                     if isinstance(sys, systems.System)
                     for key, Y in sys.cache.items()]
            inputs = {id(key) for _, key, _ in memos}
            for sys, key, Y in memos:
                assert values[Y.gens] is Y, (L.name, sys.label, key)
                assert close(sys, Y) is Y, (L.name, sys.label, key)
                copy = Ideal(L, tuple(tuple(list(v)) for v in Y.gens))
                assert close(sys, copy) is copy, (L.name, sys.label, key)
                if id(Y.gens) in inputs:
                    kept += 1
                else:
                    built += 1
                    assert all(table[v] is v for v in Y.gens), \
                        (L.name, sys.label, key)
    assert kept and built


def test_lattice_box_over_budget_is_never_built(monkeypatch):
    """closed_ideals counts a certified box before it builds it: past
    max_ground it raises with the box's size and the same message, and the
    box is never enumerated."""
    H = parse_monoid("coord = numerical 2 3\ncoord = group 1\ncoord = free 1")
    n = len(H.enumerate(6))

    def no_box(self, radius):
        raise AssertionError(f"{self.name}: box of radius {radius} built")

    monkeypatch.setattr(MonoidModel, "enumerate", no_box)
    for label in ("s", "t", "w"):
        with pytest.raises(K.BudgetExceeded) as exc:
            closed_ideals(system(label, H), 6, max_ground=n - 1)
        assert str(exc.value) == \
            f"{label}-lattice ground set has {n} > {n - 1} vectors"


def test_check_report_is_json_safe(gap23):
    import json
    rep = axioms_check(system("t", gap23), samples=10, radius=4)
    doc = rep.to_json()
    json.dumps(doc)
    assert doc["ok"] is True
    assert doc["what"] == "axioms[t]"


def test_closed_ideals_exhaustive_1d(gap23):
    """Cross-check Ganter enumeration against subset brute force."""
    t = system("t", gap23)
    got = {I.gens for I in closed_ideals(t, 6)}
    box = [g for g in gap23.enumerate(6) if any(g)]
    want = set()
    for r in range(1, len(box) + 1):
        for sub in itertools.combinations(box, r):
            X = ideal_from(sub, gap23)
            Y = close(t, X)
            if Y == X and all(g[0] <= 6 for g in Y.gens):
                want.add(X.gens)
    want.add(((0,),))  # H itself is closed under every system
    assert got == want


@pytest.mark.parametrize("name", ["n2", "g23xn"])
@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("label", ["s", "t", "w"])
def test_closed_ideals_exhaustive_2d(named, name, radius, label):
    """Close every subset of a 2-d box; the closures generated inside the
    box are exactly the enumerated family."""
    _exhaustive(MonoidModel(name, named[name].coords), radius, label)


# Coordinates taken from named models: (model, index) per coordinate.
GROUP_BOXES = {
    "nxz": ((("nxz", 0), ("nxz", 1)), 2),
    "zxn": ((("nxz", 1), ("nxz", 0)), 2),
    "g23xz": ((("g23xz", 0), ("g23xz", 1)), 2),
    "zxg23": ((("g23xz", 1), ("g23xz", 0)), 2),
    "nxzxn": ((("nxz", 0), ("nxz", 1), ("n1", 0)), 1),
    "zxn2": ((("nxz", 1), ("n2", 0), ("n2", 1)), 1),
}


@pytest.mark.parametrize("name", sorted(GROUP_BOXES))
@pytest.mark.parametrize("label", ["s", "t", "w"])
def test_closed_ideals_exhaustive_group_coordinate(named, name, label):
    """As above, on boxes whose members come in runs that differ only in a
    group coordinate, hence share one canonical vector.  Unless the group
    coordinate is last, the runs interleave in the lex order of the box,
    so a candidate subset can hold part of a run, and with two counting
    coordinates parts of two runs can both be minimal."""
    picks, radius = GROUP_BOXES[name]
    coords = tuple(named[m].coords[i] for m, i in picks)
    _exhaustive(MonoidModel(name, coords), radius, label)


def _exhaustive(H, radius, label):
    sys = system(label, H)
    box = H.enumerate(radius)
    generated = {ideal_from(sub, H)
                 for r in range(1, len(box) + 1)
                 for sub in itertools.combinations(box, r)}
    want = set()
    for X in generated:
        Y = close(sys, X)
        if all(g in box for g in Y.gens):
            want.add(Y.gens)
    assert [I.gens for I in closed_ideals(sys, radius)] == sorted(want)


def test_free5_w_closure_within_budget():
    # Ten generators against five t-maximal faces would be 10^5 choice
    # functions per closure.  On a free monoid the w-closure of a finitely
    # generated ideal is principal at the componentwise minimum of its
    # generators.  The ten-generator radical ideals of free 5 are the two
    # middle layers of supports; translates keep ten generators.
    H = free_monoid("free5", 5)
    w = system("w", H)
    t0 = time.perf_counter()
    assert sorted(r_max_faces(system("t", H)), key=sorted) == \
        sorted((frozenset(range(5)) - {i} for i in range(5)), key=sorted)
    for r in (2, 3):
        cell = [tuple(int(i in S) for i in range(5))
                for S in itertools.combinations(range(5), r)]
        for c in ((0, 0, 0, 0, 0), (1, 0, 2, 0, 3), (4, 4, 1, 2, 7)):
            X = ideal_from([tuple(map(add, c, g)) for g in cell], H)
            assert len(X.gens) == 10
            low = tuple(min(g[i] for g in X.gens) for i in range(5))
            assert close(w, X).gens == (low,)
    took = time.perf_counter() - t0
    assert took < 3.0, f"six free5 w-closures took {took:.1f}s"


def test_closed_ideals_budget(n3):
    with pytest.raises(K.BudgetExceeded):
        closed_ideals(system("t", n3), 8, max_ground=100)
    with pytest.raises(K.BudgetExceeded):
        closed_ideals(system("t", n3), 4, cap=3)


def test_closed_ideals_budget_is_keyed_by_its_arguments():
    # the answer must not depend on which budget was asked for first
    capped_first = system("t", free_monoid("n2", 2))
    with pytest.raises(K.BudgetExceeded):
        closed_ideals(capped_first, 3, cap=3)
    assert len(closed_ideals(capped_first, 3)) == 16
    uncapped_first = system("t", free_monoid("n2", 2))
    assert len(closed_ideals(uncapped_first, 3)) == 16
    with pytest.raises(K.BudgetExceeded):
        closed_ideals(uncapped_first, 3, cap=3)


def test_closed_ideals_sorted_and_closed(n2):
    t = system("t", n2)
    fam = closed_ideals(t, 3)
    assert list(fam) == sorted(fam, key=lambda I: I.gens)
    for I in fam:
        assert close(t, I) == I


def _enumerated(sys, radius, cap):
    """closed_ideals' outcome by next-closure over the whole box: the
    sorted generator tuples, or the BudgetExceeded message."""
    ground = sys.monoid.enumerate(radius)
    if len(ground) > 400:
        return (f"{sys.label}-lattice ground set has {len(ground)} > 400 "
                "vectors")
    out = systems._next_closure(sys, ground, cap)
    if out is None:
        return f"{sys.label}-lattice at radius {radius} exceeds {cap}"
    return sorted(I.gens for I in out)


def _outcome(sys, radius, cap):
    try:
        return [I.gens for I in closed_ideals(sys, radius, cap=cap)]
    except K.BudgetExceeded as exc:
        return str(exc)


# Products with numerical, free and group coordinates beyond the corpus.
PRODUCT_SPECS = {
    "g23xg25xn": "coord = numerical 2 3\ncoord = numerical 2 5\n"
                 "coord = free 1\n",
    "zxn34": "coord = group 1\ncoord = numerical 3 4\n",
    "n345xzxn": "coord = numerical 3 4 5\ncoord = group 1\ncoord = free 1\n",
    "n57xg23": "coord = numerical 5 7\ncoord = numerical 2 3\n",
}


def test_product_lattice_matches_enumeration(certified):
    """The product of per-axis lattices is the whole-box next-closure
    family, tuple for tuple and budget message for budget message.  s and
    mod(s,s) close as s, whose one maximal closed prime has height d on a
    model with d counting coordinates, so from d = 2 on they must take the
    whole-box path; mod(mod(s,s),t) closes as the hull there and takes the
    product path."""
    # n2 and n3 are free 2 and free 3
    models = dict(certified)
    models.update((name, parse_monoid(f"name = {name}\n{spec}"))
                  for name, spec in PRODUCT_SPECS.items())
    for name, H in models.items():
        # the whole-box reference grows with the box; keep it to seconds
        radii = {2: (4, 6, 8), 3: (4,)}.get(len(H.counting), (4, 5, 6, 7, 8))
        for label in ("s", "t", "v", "w", "mod(s,v)", "mod(t,t)", "mod(s,s)",
                      "mod(mod(s,s),t)"):
            sys = system(label, H)
            assert systems._coordinatewise(sys) == (
                sys.op != "s" or len(H.counting) <= 1), (name, label)
            for radius in radii:
                for cap in (20, 20000):
                    want = _enumerated(sys, radius, cap)
                    got = _outcome(sys, radius, cap)
                    assert got == want, (name, label, radius, cap)


def test_s_lattice_bound_is_exact(certified, monkeypatch):
    """Tripping the s-lattice cap on the level-set bound gives what the
    enumeration gives; where it trips, nothing is closed.  On a group the
    bound, 1, is the lattice's size, so cap 1 must not trip."""
    models = dict(certified, free3=free_monoid("free3", 3))
    for name, H in models.items():
        sys = system("s", H)
        for radius, cap in ((2, 1), (3, 120), (4, 5000)):
            want = _enumerated(sys, radius, cap)
            assert _outcome(sys, radius, cap) == want, (name, radius, cap)
    calls = []

    def counting_close(sys, X):
        calls.append(X)
        return close(sys, X)

    monkeypatch.setattr(systems, "close", counting_close)
    fresh = system("s", free_monoid("n3", 3))
    for radius, cap in ((3, 120), (4, 5000)):
        with pytest.raises(K.BudgetExceeded, match=f"exceeds {cap}"):
            closed_ideals(fresh, radius, cap=cap)
    assert calls == []


def _recording_random(log):
    """A ``random.Random`` that logs every ``getrandbits`` and ``random``
    result, so a test sees the draw stream itself, not just its counts."""
    class Recording(random.Random):
        def getrandbits(self, k):
            r = super().getrandbits(k)
            log.append((k, r))
            return r

        def random(self):
            x = super().random()
            log.append(x)
            return x
    return Recording


def test_sampler_draw_stream_is_pinned(monkeypatch, named):
    """The sampled checks draw the same stream at the same seed.

    Passing reports carry counts only, so a reordered or re-derived draw
    would slip past every golden.  The reports' digest was frozen from the
    choice/randint sampler this one replaced.  The draw log's length and
    digest were frozen when the checks began to share one draw tape per
    model: s draws each model's tape and t and w read it, the control draws
    its own tape and replays its failing sample."""
    import hashlib
    import json

    from idealis import corpus, systems
    log = []
    monkeypatch.setattr(systems.random, "Random", _recording_random(log))
    frob = corpus.members("frobenius15")
    models = [named[n] for n in ("gap23", "n2", "g23xn", "nxz")]
    models += [frob[i].model for i in (0, 200, 400)]
    # fresh memos: a draw tape left by another test would not be drawn
    models = [MonoidModel(H.name, H.coords) for H in models]
    docs = []
    for H in models:
        for label in ("s", "t", "w"):
            rep = axioms_check(system(label, H), samples=60, radius=4, seed=5)
            docs.append(rep.to_json())
    H = models[2]
    docs.append(bf.leq_check(system("w", H), system("t", H), samples=40,
                             radius=4, seed=3).to_json())
    gap23 = models[0]
    docs.append(systems._axioms_check_fn(
        dropped_generator_close(system("t", gap23)), gap23,
        "control", samples=200, radius=4, seed=0).to_json())
    assert not docs[-1]["ok"]
    draws = hashlib.sha256(repr(log).encode()).hexdigest()
    reports = hashlib.sha256(
        json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert len(log) == 10952
    assert (draws[:16], reports[:16]) == ("9a5286953c433371",
                                          "2890ba77e7bad29e")


@pytest.mark.parametrize("samples", [0, -5])
def test_checks_reject_non_positive_samples(gap23, samples):
    # a vacuous run would report ok with counts["D"] == samples
    s, t = system("s", gap23), system("t", gap23)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        axioms_check(t, samples=samples, radius=4)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        bf.leq_check(s, t, samples=samples, radius=4)
