"""Generator arithmetic on finite products of one-dimensional monoids.

Every routine here operates on a *pack*, the flat description of a finite
product of one-dimensional coordinate monoids, built by
``MonoidModel.pack``:

    pack = (kinds, conds, tables, masks, atoms)

    kinds  -- 0 for a counting coordinate (numerical or free), 1 for a group
    conds  -- conductor: least c with [c, oo) contained in the coordinate
              monoid (0 for free and group coordinates); the Frobenius
              number, the largest gap, is always conds[i] - 1
    tables -- per-coordinate bytes of length conds[i]; tables[i][x] is 1
              iff x is a member below the conductor
    masks  -- per-coordinate ``member_mask`` of a counting coordinate, None
              for groups
    atoms  -- per-coordinate tuple of irreducible members, () for groups

Generator lists are tuples of int tuples.  Canonical generator lists are
antichains under componentwise divisibility, sorted lexicographically, with
group coordinates already normalised to zero by the caller; ``reduce_gens``
relies on that normalisation (divisibility then forces lexicographic order,
so a single backward check suffices).
"""

from itertools import product

# perfbench records this and profiles per layer only when it reads "slow"
# (pure Python, which cProfile can see into).
IMPL = "slow"


class BudgetExceeded(Exception):
    """Raised when an enumeration would grow past its cap."""


def member1(pack, i, x):
    """Is ``x`` a member of the i-th coordinate monoid?"""
    if pack[0][i]:
        return True
    if x < 0:
        return False
    if x >= pack[1][i]:
        return True
    return pack[2][i][x] == 1


def contains(pack, v):
    """Is the vector ``v`` a member of the product monoid?"""
    for i, x in enumerate(v):
        if not member1(pack, i, x):
            return False
    return True


def divisible_any(pack, v, gens):
    """Is ``v`` in the module generated by ``gens``?"""
    kinds, conds, tables, _, _ = pack
    if len(kinds) == 1 and not kinds[0]:
        # One counting coordinate: v - g must be a member.
        y = v[0]
        cond = conds[0]
        table = tables[0]
        for (a,) in gens:
            x = y - a
            if x >= cond or (x >= 0 and table[x] == 1):
                return True
        return False
    for g in gens:
        for i, y in enumerate(g):
            if kinds[i]:
                continue
            x = v[i] - y
            if x < 0 or (x < conds[i] and tables[i][x] != 1):
                break
        else:
            return True
    return False


def reduce_gens(pack, gens):
    """Canonicalise a generator list: dedupe, drop dominated, sort lex.

    Assumes group coordinates are zeroed in every generator, so a kept
    generator can never be dominated by a later candidate.
    """
    kinds, conds, tables, _, _ = pack
    if len(kinds) == 1 and not kinds[0]:
        # One counting coordinate: candidates come in increasing order, so
        # c is dominated iff c - m is a member for a kept m < c, and every
        # c at or past the least kept m plus the conductor is.
        cond = conds[0]
        table = tables[0]
        out = []
        for g in sorted(set(gens)):
            c = g[0]
            if out and c - out[0][0] >= cond:
                break
            for (m,) in out:
                if table[c - m] == 1:
                    break
            else:
                out.append(g)
        return tuple(out)
    out = []
    for g in sorted(set(gens)):
        for h in out:
            # divisible_any's loop for one kept h, inlined
            for i, y in enumerate(h):
                if kinds[i]:
                    continue
                x = g[i] - y
                if x < 0 or (x < conds[i] and tables[i][x] != 1):
                    break
            else:
                break  # h divides g
        else:
            out.append(g)
    return tuple(out)


def member_mask(cond, table):
    """Membership of a counting coordinate with conductor ``cond`` and
    membership table ``table`` as an int: bit x says x is a member, for
    x < 3 * cond, the reach of every shift ``_gens_1d`` applies.  0 for a
    free coordinate, which needs none.
    """
    if not cond:
        return 0
    top = 3 * cond
    return (int(table[::-1].translate(_BINARY), 2)
            | ((1 << top) - (1 << cond)))


# Reads a membership table, reversed, as a binary numeral: bit x = table[x].
_BINARY = bytes.maketrans(b"\x00\x01", b"01")


def _gens_1d(member, cond, shifts):
    """Generators over one counting coordinate of {z : z + s is a member
    for every s in ``shifts``}, given the coordinate's membership mask
    ``member`` (from ``member_mask``) and conductor.

    ``shifts`` must be nonempty.  The least member m lies in
    [-min(shifts), cond - min(shifts)] and every generator lies in
    [m, m + cond - 1]: past the Frobenius number cond - 1 each candidate
    is m plus a member, hence redundant.
    """
    lo = -min(shifts)
    if not cond:
        # every z >= lo qualifies, and lo divides all of them
        return (lo,)
    # Bitmasks over u = z - lo in [0, width): bit x of ``member`` says x
    # is a member, so z + s = u + (s + lo) is a member for every s exactly
    # on the bits of the AND of the shifted masks; a shift with
    # s + lo >= cond sets them all.  The least member m sits at or below
    # u = cond, and every generator in [m, m + cond - 1].
    width = 2 * cond
    module = (1 << width) - 1
    for s in shifts:
        s += lo
        if s < cond:
            module &= member >> s
    u = (module & -module).bit_length() - 1
    # Members of the Frobenius window in increasing order; each generator
    # strikes out everything it divides.
    rest = module >> u & ((1 << cond) - 1)
    base = lo + u
    out = []
    while rest:
        x = (rest & -rest).bit_length() - 1
        out.append(base + x)
        rest &= ~(member << x)
    return tuple(out)


def inverse_gens(pack, gens):
    """Generators of {z : z + a is a member for every a in gens}.

    Empty input means the empty ideal; its inverse is not finitely
    generated as a module and the caller must special-case it.

    The module is the product of its coordinates' modules, and each
    column is an increasing antichain of its coordinate ((0,) for a
    group), so the product of the columns is already canonical: an
    antichain in lex order (``docs/exactness.md``, "Coordinate
    decomposition").
    """
    if not gens:
        raise ValueError("inverse of the empty module")
    conds = pack[1]
    cols = [(0,) if m is None else
            _gens_1d(m, conds[i], tuple(a[i] for a in gens))
            for i, m in enumerate(pack[3])]
    # through a list: a tuple built straight from an iterator keeps the
    # larger block it grew in, and ideals may hold these tuples
    return tuple(list(product(*cols)))


def v_close_gens(pack, gens):
    """Divisorial closure: inverse of the inverse.  Empty stays empty."""
    if not gens:
        return ()
    return inverse_gens(pack, inverse_gens(pack, gens))


def sum_gens(pack, a_gens, b_gens):
    """Generators of the sum module {a + b}."""
    return reduce_gens(pack, tuple(
        tuple(x + y for x, y in zip(a, b)) for a in a_gens for b in b_gens))


def intersect_gens(pack, a_gens, b_gens):
    """Generators of the intersection of two finitely generated modules.

    Pairwise: (a + H) cap (b + H) has, in each coordinate, the module of z
    with z - a_i and z - b_i both members.
    """
    if not a_gens or not b_gens:
        return ()
    conds, masks = pack[1], pack[3]
    acc = []
    for a in a_gens:
        for b in b_gens:
            cols = [(0,) if m is None else
                    _gens_1d(m, conds[i], (-a[i], -b[i]))
                    for i, m in enumerate(masks)]
            acc.extend(product(*cols))
    return reduce_gens(pack, acc)


def radical_gens(pack, gens):
    """Radical of an integral ideal via the support criterion.

    x lies in the radical iff x strictly exceeds zero on the counting
    support of some generator; the radical is the union of the support
    cells of the minimal supports.
    """
    if not gens:
        return ()
    counting = [i for i, kind in enumerate(pack[0]) if not kind]
    supps = {frozenset(i for i in counting if a[i] > 0) for a in gens}
    return cells_gens(pack, [s for s in supps
                             if not any(t < s for t in supps)])


def cells_gens(pack, supports):
    """Generators of the union of the support cells {x : supp(x) contains S},
    S over ``supports`` (sets of counting coordinates).  A cell is generated
    by the products of atoms over S, zero elsewhere."""
    atoms = pack[4]
    acc = []
    for s in supports:
        acc.extend(product(*[a if i in s else (0,)
                             for i, a in enumerate(atoms)]))
    return reduce_gens(pack, acc)


def box_members(pack, lo, hi):
    """Members of the monoid inside the coordinate box, in lex order."""
    cols = []
    for i in range(len(pack[0])):
        if pack[0][i]:
            cols.append(tuple(range(lo[i], hi[i] + 1)))
        else:
            cols.append(tuple(
                x for x in range(max(lo[i], 0), hi[i] + 1) if member1(pack, i, x)))
    return [v for v in product(*cols)]


def modular_close_gens(pack, gens):
    """The coordinatewise hull of the module: the product over the
    coordinates of pi_i X + H_i, with (0,) on a group coordinate.

    Given the generators of X_p, this is the mod(p, r)-closure of X
    wherever H is not r-local: r's maximal closed primes are then exactly
    the height-one ones, each localisation leaves one counting coordinate
    uninverted, and their intersection is the product
    (``docs/exactness.md``, "Modularization as a finite intersection").
    Each column holds the minimal elements of its coordinate's values plus
    H_i, in increasing order, so the product is canonical, as in
    ``inverse_gens``.
    """
    if not gens:
        return ()
    conds, tables = pack[1], pack[2]
    cols = []
    for i, kind in enumerate(pack[0]):
        if kind:
            cols.append((0,))
            continue
        # reduce_gens' one-coordinate loop, over the i-th column
        cond, table = conds[i], tables[i]
        out = []
        for c in sorted({a[i] for a in gens}):
            if out and c - out[0] >= cond:
                break
            for y in out:
                if table[c - y] == 1:
                    break
            else:
                out.append(c)
        cols.append(tuple(out))
    return tuple(list(product(*cols)))


def primary_violation(pack, members, gens_i, gens_rad):
    """First (x, y) in lex scan with x + y in I, y outside rad, x outside I.

    With gens_rad equal to gens_i this is a primality violation finder.
    Returns None when the box holds no counterexample.
    """
    for x in members:
        if divisible_any(pack, x, gens_i):
            continue
        for y in members:
            if divisible_any(pack, y, gens_rad):
                continue
            s = tuple(a + b for a, b in zip(x, y))
            if divisible_any(pack, s, gens_i):
                return (x, y)
    return None
