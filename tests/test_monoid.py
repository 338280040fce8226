"""Model construction, the text grammar, membership, localization."""

import pytest
from hypothesis import given, strategies as st

from idealis import _kernel as K
from idealis.monoid import (MonoidModel, free_monoid, memoised,
                            numerical_monoid, parse_monoid, product, to_text)


def test_numerical_invariants(gap23, n345, n25):
    c = gap23.coords[0]
    assert (c.gens, c.conductor, c.frobenius, c.n1, c.atoms) == \
        ((2, 3), 2, 1, 2, (2, 3))
    assert n25.coords[0].conductor == 4
    assert n25.coords[0].frobenius == 3
    assert n345.coords[0].atoms == (3, 4, 5)


def test_membership_goldens(gap23, n345):
    assert [x for x in range(8) if gap23.contains((x,))] == [0, 2, 3, 4, 5, 6, 7]
    assert [x for x in range(8) if n345.contains((x,))] == [0, 3, 4, 5, 6, 7]


def test_gcd_normalization_rejected():
    with pytest.raises(ValueError, match="gcd 1"):
        numerical_monoid("bad", (4, 6))
    with pytest.raises(ValueError, match="positive"):
        numerical_monoid("bad", (0, 3))


def test_redundant_generator_dropped():
    # 7 = 2 + 5 adds nothing; the coordinate data must not depend on it
    a = numerical_monoid("a", (2, 5))
    b = numerical_monoid("b", (2, 5, 7))
    assert a.coords[0].atoms == b.coords[0].atoms == (2, 5)
    assert a.coords[0].conductor == b.coords[0].conductor


def test_enumerate_orders_lexicographically(gap23, nxz):
    assert gap23.enumerate(6) == [(0,), (2,), (3,), (4,), (5,), (6,)]
    got = nxz.enumerate(2)
    assert got == sorted(got)
    assert (0, -2) in got and (2, 2) in got and (-1, 0) not in got


def test_product_layout(g23xn, g23xz, nxz, z2):
    assert g23xn.dim == 2 and g23xn.counting == (0, 1)
    assert g23xz.counting == (0,)
    assert nxz.counting == (0,)
    assert not nxz.is_group
    assert z2.is_group
    assert z2.contains((-5, 7))


def test_divides(gap23):
    assert gap23.divides((2,), (4,))
    assert not gap23.divides((2,), (3,))   # 1 is a gap
    assert gap23.divides((0,), (5,))


def test_dimension_mismatch(gap23):
    with pytest.raises(ValueError, match="dimension"):
        gap23.contains((1, 2))


def test_max_dim_enforced():
    with pytest.raises(ValueError, match="at most"):
        free_monoid("wide", 17)


def test_grammar_round_trip(named):
    for H in named.values():
        back = parse_monoid(to_text(H))
        assert back.name == H.name
        if H.certified:
            assert back.coords == H.coords
        else:
            assert back.enumerate(4) == H.enumerate(4)


def test_parse_accepts_comments_and_blank_lines():
    H = parse_monoid("""
# a free line, then the monoid
name = ex
coord = numerical 2 3   # inline trailer

coord = free 2
""")
    assert H.dim == 3
    assert [c.kind for c in H.coords] == ["numerical", "free", "free"]


def test_parse_defaults_name():
    assert parse_monoid("coord = free 1").name == "H"


@pytest.mark.parametrize("text,msg", [
    ("coord = numerical 2 x", "line 1: non-integer"),
    ("name = ex\ncoord = widget 3", "line 2: unknown coordinate kind"),
    ("name = bad name", "identifier"),
    ("flavor = mild", "unknown key"),
    ("name = ex\ncoord = ", "line 2: empty coord"),
    ("coord = numerical", "positive"),
    ("coord = free 0", "positive count"),
    # a spec is coord lines or one affine line, under at most one name
    ("name = ex\ncoord = numerical 2 3\naffine = (1,0) (0,1)\n",
     "line 3: coord and affine lines do not mix"),
    ("affine = (1,0) (0,1)\ncoord = free 1\n",
     "line 2: coord and affine lines do not mix"),
    ("affine = (1,0)\n\naffine = (0,1)\n", "line 3: second affine line"),
    ("name = ex\nname = why\ncoord = free 1\n", "line 2: second name line"),
])
def test_parse_errors_carry_line_numbers(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_monoid(text)


def test_affine_membership(affine1):
    assert not affine1.certified
    assert affine1.contains((1, 1)) and affine1.contains((3, 1))
    assert affine1.contains((2, 2))
    assert not affine1.contains((1, 0)) and not affine1.contains((2, 1))
    assert affine1.enumerate(2) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]


def test_affine_membership_deep_chains(affine1):
    # the subtraction search is as deep as the coordinate sum
    assert affine1.contains((3001, 1))
    assert not affine1.contains((3001, 0))


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3))
def test_affine_combinations_are_members(ks):
    H = MonoidModel("aff", affine_gens=[(2, 0), (1, 1), (0, 2)])
    v = tuple(sum(k * g[i] for k, g in zip(ks, [(2, 0), (1, 1), (0, 2)]))
              for i in range(2))
    assert H.contains(v)


def test_affine_has_no_pack(affine1):
    with pytest.raises(ValueError, match="kernel pack"):
        affine1.pack


def test_localize_inverts_face_coordinates(n2, gap23):
    loc = n2.localize({1})
    assert [c.kind for c in loc.coords] == ["free", "group"]
    assert loc.contains((3, -4))
    # face () localizes at the maximal ideal: nothing is inverted
    assert gap23.localize(()).coords == gap23.coords


def test_localize_rejects_bad_faces(n2, affine1):
    with pytest.raises(ValueError, match="not a prime"):
        n2.localize({0, 1})
    with pytest.raises(ValueError, match="certified"):
        affine1.localize(())
    with pytest.raises(ValueError, match="out of range"):
        n2.localize({5})


def test_product_rejects_affine(affine1, n2):
    with pytest.raises(ValueError, match="affine"):
        product("bad", n2, affine1)


def _counted(compute):
    calls = []

    def fn():
        calls.append(None)
        return compute()
    return fn, calls


def test_memoised_computes_a_value_once():
    H = numerical_monoid("m23", (2, 3))
    fn, calls = _counted(lambda: [1, 2])
    got = memoised(H, "value", fn)
    assert got == [1, 2]
    assert memoised(H, "value", fn) is got
    assert len(calls) == 1


def test_memoised_keeps_a_tripped_budget():
    H = numerical_monoid("m23", (2, 3))

    def trip():
        raise K.BudgetExceeded("over the test budget")
    fn, calls = _counted(trip)
    raised = []
    for _ in range(3):
        with pytest.raises(K.BudgetExceeded,
                           match="over the test budget") as info:
            memoised(H, "trip", fn)
        raised.append(info.value)
    assert len(calls) == 1
    assert len({id(exc) for exc in raised}) == 3
    kept = H.memo["trip"]
    assert isinstance(kept, K.BudgetExceeded)
    assert kept.args == ("over the test budget",)
    assert kept.__traceback__ is None
    assert all(exc is not kept for exc in raised)


def test_memoised_keeps_no_other_exception():
    H = numerical_monoid("m23", (2, 3))
    outcomes = iter([ValueError("bad input"), "value"])

    def compute():
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out
    fn, calls = _counted(compute)
    with pytest.raises(ValueError, match="bad input"):
        memoised(H, "error", fn)
    assert "error" not in H.memo
    assert memoised(H, "error", fn) == "value"
    assert len(calls) == 2
